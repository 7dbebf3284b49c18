//! Protocol-robustness tests over real TCP: malformed frames, framing
//! desyncs, mid-frame disconnects, slow-loris writers, floods. The
//! invariant under test is always the same — every abuse gets a *typed*
//! response (or at worst its own connection closed), and the engine
//! keeps serving everyone else.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use ft_serve::{Client, EngineConfig, Request, Server, ServerConfig, Status};
use ft_sim::FabricSpec;

fn start_server(queue_depth: usize) -> Server {
    let fabric = FabricSpec::parse("clos-strict 4 4").unwrap().build();
    Server::start(
        fabric,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

fn finish(server: Server) {
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.shutdown(0).unwrap().status, Status::Ok);
    let _ = server.wait();
}

#[test]
fn unknown_opcode_gets_bad_frame_and_connection_survives() {
    let server = start_server(64);
    let mut c = Client::connect(server.addr()).unwrap();
    // A well-framed payload with a junk opcode but readable tag.
    let mut payload = vec![0xEEu8];
    payload.extend_from_slice(&77u64.to_le_bytes());
    c.send_raw(&payload).unwrap();
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, Status::BadFrame);
    assert_eq!(resp.tag, 77, "best-effort tag still correlates");
    // Same connection keeps working.
    assert_eq!(c.connect_circuit(1, 0, 0, 0).unwrap().status, Status::Ok);
    assert_eq!(c.disconnect_circuit(1).unwrap().status, Status::Ok);
    finish(server);
}

#[test]
fn short_and_oversized_payloads_are_typed_errors() {
    let server = start_server(64);
    let mut c = Client::connect(server.addr()).unwrap();
    // Truncated connect body (well-framed): typed error, keep serving.
    let mut short = Request::Connect {
        tag: 5,
        src: 0,
        dst: 0,
        deadline_ms: 0,
    }
    .encode();
    short.truncate(12);
    c.send_raw(&short).unwrap();
    assert_eq!(c.read_response().unwrap().status, Status::BadFrame);
    assert_eq!(c.metrics(6).unwrap().status, Status::Ok);
    // Oversized length prefix: answered, then the connection closes
    // (stream position is unrecoverable).
    c.send_bytes(&(u32::MAX).to_le_bytes()).unwrap();
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, Status::BadFrame);
    assert!(
        c.read_response().is_err(),
        "connection closed after framing desync"
    );
    // The server as a whole is unaffected.
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert_eq!(c2.metrics(7).unwrap().status, Status::Ok);
    assert!(server.shared().bad_frames.load(Ordering::SeqCst) >= 2);
    finish(server);
}

#[test]
fn mid_frame_disconnect_only_kills_its_own_connection() {
    let server = start_server(64);
    // Write a length prefix promising 100 bytes, deliver 3, vanish.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(b"abc").unwrap();
        s.flush().unwrap();
    } // dropped here — mid-frame EOF on the server
    std::thread::sleep(Duration::from_millis(50));
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.connect_circuit(1, 1, 2, 0).unwrap().status, Status::Ok);
    finish(server);
}

#[test]
fn slow_loris_writer_is_served_and_does_not_starve_others() {
    let server = start_server(64);
    let addr = server.addr();
    // The loris: one valid metrics request, delivered a byte at a time
    // with pauses longer than the server's read slice.
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let payload = Request::Metrics { tag: 42 }.encode();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        for b in frame {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
        }
        // The partial-read loop must have accumulated the frame.
        let mut c = Client::from_stream(s);
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.tag, 42);
    });
    // Meanwhile everyone else gets instant service.
    let mut c = Client::connect(addr).unwrap();
    for i in 0..20 {
        assert_eq!(c.connect_circuit(i, 0, 0, 0).unwrap().status, Status::Ok);
        assert_eq!(c.disconnect_circuit(i).unwrap().status, Status::Ok);
    }
    loris.join().unwrap();
    finish(server);
}

#[test]
fn double_disconnect_over_the_wire_is_unknown_circuit() {
    let server = start_server(64);
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.connect_circuit(9, 3, 3, 0).unwrap().status, Status::Ok);
    assert_eq!(c.disconnect_circuit(9).unwrap().status, Status::Ok);
    assert_eq!(
        c.disconnect_circuit(9).unwrap().status,
        Status::UnknownCircuit
    );
    // And for an id that never existed.
    assert_eq!(
        c.disconnect_circuit(12345).unwrap().status,
        Status::UnknownCircuit
    );
    finish(server);
}

#[test]
fn pipelined_flood_sheds_instead_of_wedging() {
    let server = start_server(1);
    let mut c = Client::connect(server.addr()).unwrap();
    let n = 200u64;
    for i in 0..n {
        c.send_raw(
            &Request::Connect {
                tag: i,
                src: 0,
                dst: 0,
                deadline_ms: 0,
            }
            .encode(),
        )
        .unwrap();
    }
    let mut shed = 0u64;
    let mut connected = Vec::new();
    for _ in 0..n {
        let resp = c.read_response().unwrap();
        match resp.status {
            Status::Shed => shed += 1,
            Status::Ok => connected.push(resp.tag),
            Status::Busy => {}
            other => panic!("unexpected flood status {other:?}"),
        }
    }
    assert!(
        shed > 0,
        "queue depth 1 under a 200-deep pipeline must shed"
    );
    assert_eq!(shed, server.shared().shed.load(Ordering::SeqCst));
    // The engine is alive and consistent after the flood.
    for tag in connected {
        assert_eq!(c.disconnect_circuit(tag).unwrap().status, Status::Ok);
    }
    assert_eq!(c.metrics(0).unwrap().status, Status::Ok);
    finish(server);
}

#[test]
fn connection_cap_refuses_excess_connections() {
    let fabric = FabricSpec::parse("clos-strict 4 4").unwrap().build();
    let server = Server::start(
        fabric,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    assert_eq!(a.metrics(1).unwrap().status, Status::Ok);
    assert_eq!(b.metrics(2).unwrap().status, Status::Ok);
    // The third connection completes the TCP handshake (listener
    // backlog) but the acceptor closes it unanswered.
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(
        c.metrics(3).is_err(),
        "over-cap connection must be closed, not served"
    );
    assert!(server.shared().refused.load(Ordering::SeqCst) >= 1);
    // Hanging up frees a slot: the next accept reaps the finished
    // thread and serves again.
    drop(a);
    std::thread::sleep(Duration::from_millis(50));
    let mut d = Client::connect(server.addr()).unwrap();
    assert_eq!(d.metrics(4).unwrap().status, Status::Ok);
    // Free both live slots so finish()'s shutdown connection fits.
    drop(b);
    drop(d);
    std::thread::sleep(Duration::from_millis(50));
    finish(server);
}

#[test]
fn deterministic_servers_produce_byte_identical_reports() {
    let script = |server: Server| -> String {
        let mut c = Client::connect(server.addr()).unwrap();
        for i in 0..8u64 {
            let _ = c.connect_circuit(i, (i % 4) as u32, ((i + 1) % 4) as u32, 0);
        }
        for i in 0..4u64 {
            let _ = c.disconnect_circuit(i);
        }
        let _ = c.fault(100, 0, true);
        let _ = c.repair(101, 0);
        let _ = c.reload(102, "clos-strict 4 4");
        c.shutdown(103).unwrap();
        server.wait()
    };
    let mk = || {
        Server::start(
            FabricSpec::parse("clos-strict 4 4").unwrap().build(),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                queue_depth: 64,
                engine: EngineConfig {
                    deterministic: true,
                    snapshot_path: None,
                    snapshot_every: 0,
                },
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let a = script(mk());
    let b = script(mk());
    assert_eq!(a, b, "deterministic mode must be byte-identical");
    assert!(a.contains("\"deterministic\": true"));
    // and the bytes themselves are pinned, so the report writer cannot drift
    assert_eq!(
        (ft_obs::fnv1a(a.as_bytes()), a.len()),
        (0x03caa9c1124a4800, 708)
    );
}
