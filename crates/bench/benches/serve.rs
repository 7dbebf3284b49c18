//! Service-layer throughput: full request round-trips over loopback
//! TCP through the ftserve frontend → bounded queue → engine path, and
//! the engine's fault handling alone through its job queue.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_graph::Digraph;
use ft_serve::{Client, EngineConfig, Job, Request, Server, ServerConfig, SharedFlags, Status};
use ft_sim::FabricSpec;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// One lockstep connect + disconnect round-trip per iteration: two
/// frames each way through a real socket, one engine admission, one
/// routed path, one release. The pair always routes — the fabric is
/// idle between iterations — so this pins the *service overhead* per
/// circuit (framing, thread hand-offs, queue, router), not blocking
/// behaviour.
fn bench_serve_connects(c: &mut Criterion) {
    let fabric = FabricSpec::parse("clos-strict 4 4").unwrap().build();
    let server = Server::start(
        fabric,
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
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut id = 0u64;
    c.bench_function("serve_connects_per_sec", |b| {
        b.iter(|| {
            id += 1;
            let up = client.connect_circuit(id, 0, 1, 0).expect("io");
            assert_eq!(up.status, Status::Ok);
            let down = client.disconnect_circuit(id).expect("io");
            assert_eq!(down.status, Status::Ok);
            black_box((up.tag, down.tag))
        })
    });
    let _ = client.shutdown(0);
    let _ = server.wait();
}

/// One FAULT + REPAIR pair per iteration, sent straight into
/// `ft_serve::engine::run`'s job queue (no socket, no frontend) on the
/// paper's ν = 1 network (360,448 switches). The fabric is idle, so
/// neither job kills anything: the rung prices the engine's per-job
/// fault path, and anything on it that grows with the fabric shows up
/// here: a scan over every switch per job reads ≈ 35× slower.
fn bench_engine_fault_repair(c: &mut Criterion) {
    // `ftn 1 64 10 34` is `Params::paper_exact(1)`
    let fabric = FabricSpec::Ftn(1, 64, 10, 34.0).build();
    let switch = (fabric.net().num_edges() / 2) as u32;
    let (tx, rx) = mpsc::sync_channel::<Job>(64);
    let engine = std::thread::spawn(move || {
        let cfg = EngineConfig {
            deterministic: true,
            snapshot_path: None,
            snapshot_every: 0,
        };
        ft_serve::engine::run(fabric, rx, &SharedFlags::default(), &cfg)
    });
    let (reply, replies) = mpsc::channel();
    let ask = |req: Request| {
        let (reply, enqueued) = (reply.clone(), Instant::now());
        tx.send(Job {
            req,
            reply,
            enqueued,
        })
        .expect("engine alive");
        replies.recv().expect("engine replies")
    };
    let mut tag = 0u64;
    c.bench_function("serve_engine_fault_repair_paper_nu1", |b| {
        b.iter(|| {
            tag += 1;
            let open = true;
            let fault = ask(Request::Fault { tag, switch, open });
            assert_eq!(fault.status, Status::Ok);
            let repair = ask(Request::Repair { tag, switch });
            assert_eq!(repair.status, Status::Ok);
            black_box((fault.tag, repair.tag))
        })
    });
    ask(Request::Shutdown { tag: 0 });
    engine.join().expect("engine thread");
}

criterion_group!(benches, bench_serve_connects, bench_engine_fault_repair);
criterion_main!(benches);
