//! The `serve_*` workloads: an in-process `ftserve` driven over one
//! loopback TCP connection by one generator thread, closed loop with
//! [`DEPTH`] requests in flight.
//!
//! Why pipelined and closed: on the 2-core shared VM this was sized on,
//! a lockstep client's p50 swung 24 µs ↔ 107 µs between consecutive
//! runs and an open loop at 8k circuits/s stalled its generator for up
//! to 62 ms — both measure the VM's thread wake-ups, not the program.
//! Sixteen in flight keeps every server thread busy, and the numbers
//! repeat. Lockstep and p99 figures are per-layer diagnostics of the
//! traced run, not gated.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_graph::traversal::bibfs_into;
use ft_graph::{Digraph, TraversalWorkspace};
use ft_serve::engine::{self, EngineConfig, Job, SharedFlags};
use ft_serve::protocol::{read_frame, write_frame};
use ft_serve::{Client, Request, Response, Server, ServerConfig, Status};
use ft_sim::{Fabric, FabricSpec};

use crate::alloc::allocations;
use crate::bare::Bare;
use crate::opstream::{Op, OpStream, Storm};
use crate::report::Outcome;
use crate::reps::Reps;
use crate::spans::{SpanLog, ROOT};
use crate::stats::{best, percentile};
use crate::{setup_repeatedly, Layers, Run};

/// Requests kept in flight by the pipelined loops.
pub const DEPTH: usize = 16;
/// Length of one measured rep; the pipe stays full across reps.
const REP: Duration = Duration::from_millis(250);
/// Unmeasured lead-in: connection, caches and allocator reach steady state.
const WARMUP: Duration = Duration::from_secs(1);
/// Circuits the traced run replays per second of `--seconds`.
const LADDER_CIRCUITS_PER_SECOND: u64 = 2000;
/// Tags of `FAULT`/`REPAIR` requests (circuit ids count up from 1).
const CONTROL_TAG: u64 = 1 << 62;

/// One `serve_*` workload.
pub struct ServeWorkload {
    /// Fabric spec in `network =` grammar.
    pub fabric: &'static str,
    /// Circuits the stream keeps up.
    pub hold: usize,
    /// Splice fault/repair waves into the stream.
    pub storm: bool,
}

impl ServeWorkload {
    fn stream(&self, seed: u64, fabric: &Fabric) -> OpStream {
        let storm = self.storm.then(|| Storm {
            switches: fabric.net().num_edges(),
            size: 64,
            every: 96,
        });
        OpStream::new(seed, fabric.terminals(), self.hold, storm)
    }
}

fn build(spec: &str) -> Result<Fabric, String> {
    Ok(FabricSpec::parse(spec)?.build())
}

fn request_of(op: Op, control_tag: &mut u64) -> Request {
    let mut control = || {
        *control_tag += 1;
        *control_tag
    };
    match op {
        Op::Connect { id, src, dst } => Request::Connect {
            tag: id,
            src,
            dst,
            deadline_ms: 0,
        },
        Op::Disconnect { id } => Request::Disconnect { tag: id },
        Op::Fault { switch } => Request::Fault {
            tag: control(),
            switch,
            open: true,
        },
        Op::Repair { switch } => Request::Repair {
            tag: control(),
            switch,
        },
    }
}

/// How requests reach an engine: a socket, or the engine's job queue.
trait Transport {
    /// Span name of one request over this transport.
    const SPAN: &'static str;
    fn send(&mut self, req: Request) -> Result<(), String>;
    fn recv(&mut self) -> Result<Response, String>;
}

struct Tcp(Client);

impl Transport for Tcp {
    const SPAN: &'static str = "ft-serve.client.request";
    fn send(&mut self, req: Request) -> Result<(), String> {
        self.0
            .send_raw(&req.encode())
            .map_err(|e| format!("send: {e}"))
    }
    fn recv(&mut self) -> Result<Response, String> {
        self.0.read_response().map_err(|e| format!("receive: {e}"))
    }
}

/// The engine's own queue, no sockets: what the frontends feed.
struct Queue {
    jobs: SyncSender<Job>,
    reply_tx: Sender<Response>,
    reply_rx: Receiver<Response>,
}

impl Transport for Queue {
    const SPAN: &'static str = "ft-serve.engine.job";
    fn send(&mut self, req: Request) -> Result<(), String> {
        let job = Job {
            req,
            reply: self.reply_tx.clone(),
            enqueued: Instant::now(),
        };
        self.jobs.send(job).map_err(|_| "engine gone".to_string())
    }
    fn recv(&mut self) -> Result<Response, String> {
        self.reply_rx.recv().map_err(|_| "engine gone".to_string())
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Connect,
    Disconnect,
    Fault,
    Repair,
}

struct Pending {
    tag: u64,
    kind: Kind,
    sent: Instant,
}

/// Running totals of what came back.
#[derive(Clone, Default)]
struct Tally {
    requests: u64,
    connects_ok: u64,
    /// Connect + disconnect pairs both answered `Ok`.
    circuits: u64,
    /// Sum of the kill counts in `FAULT` responses.
    killed: u64,
    /// Disconnects answered `UnknownCircuit` (a storm killed the circuit).
    unknown: u64,
    faults_ok: u64,
    /// Responses the stream does not allow.
    unexpected: u64,
    reads: u64,
    /// Reads entered with fewer than `depth` requests in flight.
    underfull_reads: u64,
}

/// A closed loop over one transport.
struct Pipe<T: Transport> {
    transport: T,
    stream: OpStream,
    depth: usize,
    storm: bool,
    inflight: VecDeque<Pending>,
    control_tag: u64,
    tally: Tally,
    /// Connect round-trip times of the current window, µs.
    connect_us: Vec<f64>,
    /// All round-trip times of the current window, µs.
    rtt_us: Vec<f64>,
}

impl<T: Transport> Pipe<T> {
    fn new(transport: T, stream: OpStream, depth: usize, storm: bool) -> Self {
        Pipe {
            transport,
            stream,
            depth,
            storm,
            inflight: VecDeque::with_capacity(depth),
            control_tag: CONTROL_TAG,
            tally: Tally::default(),
            connect_us: Vec::new(),
            rtt_us: Vec::new(),
        }
    }

    fn send(&mut self, op: Op) -> Result<(), String> {
        let kind = match op {
            Op::Connect { .. } => Kind::Connect,
            Op::Disconnect { .. } => Kind::Disconnect,
            Op::Fault { .. } => Kind::Fault,
            Op::Repair { .. } => Kind::Repair,
        };
        let req = request_of(op, &mut self.control_tag);
        let tag = req.tag();
        let sent = Instant::now();
        self.transport.send(req)?;
        self.inflight.push_back(Pending { tag, kind, sent });
        Ok(())
    }

    /// Reads one response and checks it against the oldest request in
    /// flight: exactly once, in order, with its tag.
    fn recv(&mut self, spans: Option<(&mut SpanLog, u32)>) -> Result<(), String> {
        self.tally.reads += 1;
        if self.inflight.len() < self.depth {
            self.tally.underfull_reads += 1;
        }
        let resp = self.transport.recv()?;
        let now = Instant::now();
        let p = self
            .inflight
            .pop_front()
            .ok_or("a response nobody asked for")?;
        if resp.tag != p.tag {
            return Err(format!(
                "response out of order: tag {} where {} was due",
                resp.tag, p.tag
            ));
        }
        if let Some((log, rung)) = spans {
            log.add(T::SPAN, rung, p.tag, p.sent, now);
        }
        let us = (now - p.sent).as_nanos() as f64 / 1e3;
        self.rtt_us.push(us);
        let t = &mut self.tally;
        t.requests += 1;
        match (p.kind, resp.status) {
            (Kind::Connect, Status::Ok) => {
                t.connects_ok += 1;
                self.connect_us.push(us);
            }
            (Kind::Disconnect, Status::Ok) => t.circuits += 1,
            (Kind::Disconnect, Status::UnknownCircuit) if self.storm => t.unknown += 1,
            (Kind::Fault, Status::Ok) => {
                let body: [u8; 4] = resp.body[..]
                    .try_into()
                    .map_err(|_| "FAULT response without a kill count")?;
                t.killed += u64::from(u32::from_le_bytes(body));
                t.faults_ok += 1;
            }
            (Kind::Repair, Status::Ok) => {}
            _ => t.unexpected += 1,
        }
        Ok(())
    }

    /// Keeps `depth` in flight until `stop` says so (asked after every
    /// response). The pipe stays full across calls.
    fn pump(
        &mut self,
        mut stop: impl FnMut(&Tally) -> bool,
        mut spans: Option<(&mut SpanLog, u32)>,
    ) -> Result<(), String> {
        loop {
            while self.inflight.len() < self.depth {
                let op = self.stream.next_op();
                self.send(op)?;
            }
            self.recv(spans.as_mut().map(|(log, rung)| (&mut **log, *rung)))?;
            if stop(&self.tally) {
                return Ok(());
            }
        }
    }

    fn pump_for(&mut self, d: Duration) -> Result<(), String> {
        let end = Instant::now() + d;
        self.pump(|_| Instant::now() >= end, None)
    }

    /// Ends the stream and collects every outstanding response.
    fn finish(&mut self) -> Result<(), String> {
        for op in self.stream.drain() {
            if self.inflight.len() >= self.depth {
                self.recv(None)?;
            }
            self.send(op)?;
        }
        while !self.inflight.is_empty() {
            self.recv(None)?;
        }
        Ok(())
    }

    fn clear_window(&mut self) {
        self.connect_us.clear();
        self.rtt_us.clear();
    }
}

/// A `"key": <number>` field of the server's JSON report.
fn report_field<T: std::str::FromStr>(report: &str, key: &str) -> Result<T, String> {
    let pat = format!("\"{key}\": ");
    let at = report
        .find(&pat)
        .ok_or_else(|| format!("server report has no `{key}`"))?;
    let rest = &report[at + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("server report: `{key}` is `{}`", &rest[..end]))
}

/// The output checks every serve run ends with: the server's counters
/// against the client's tally. Returns the failed checks.
///
/// `whole_run` adds the one check that needs a run long enough to hold
/// several storm waves.
fn check_report(
    report: &str,
    t: &Tally,
    storm: bool,
    whole_run: bool,
) -> Result<Vec<String>, String> {
    let c = |key| report_field::<u64>(report, key);
    let mut bad = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            bad.push(what.to_string());
        }
    };
    expect(
        "client Ok connects == server connected",
        t.connects_ok == c("connected")?,
    );
    expect(
        "offered == connected + blocked + busy + shed + deadline_expired + duplicate + bad_arg",
        c("offered")?
            == c("connected")?
                + c("blocked")?
                + c("busy")?
                + c("shed")?
                + c("deadline_expired")?
                + c("duplicate")?
                + c("bad_arg")?,
    );
    expect("no connect blocked", c("blocked")? == 0);
    expect("no response the stream does not allow", t.unexpected == 0);
    expect(
        "client Ok disconnects == server disconnected",
        t.circuits == c("disconnected")?,
    );
    expect(
        "UnknownCircuit answers == server unknown_disconnects == kills reported by FAULTs == server killed",
        t.unknown == c("unknown_disconnects")? && t.unknown == t.killed && t.killed == c("killed")?,
    );
    expect(
        "every connect ended: Ok connects == circuits + killed",
        t.connects_ok == t.circuits + t.killed,
    );
    if storm {
        expect("server faults == FAULTs answered Ok == server repairs", {
            t.faults_ok == c("faults")? && c("faults")? == c("repairs")?
        });
        // A storm that kills nothing no longer drives the kill wave.
        expect(
            "storms killed at least 1% of circuits",
            !whole_run || t.killed * 100 >= t.connects_ok,
        );
    } else {
        expect("nothing killed without faults", t.killed == 0);
    }
    Ok(bad)
}

struct Booted {
    server: Server,
    client: Client,
    stream: OpStream,
}

/// What `setup_s` covers: build the fabric and its CSR, start the
/// server, connect, and complete one round trip (which waits for the
/// engine thread to have built its router).
fn boot(w: &ServeWorkload, seed: u64) -> Result<Booted, String> {
    let fabric = build(w.fabric)?;
    fabric.net().csr();
    let stream = w.stream(seed, &fabric);
    let server =
        Server::start(fabric, ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let hello = client
        .metrics(CONTROL_TAG)
        .map_err(|e| format!("hello: {e}"))?;
    if hello.status != Status::Ok {
        return Err(format!("hello answered {:?}", hello.status));
    }
    Ok(Booted {
        server,
        client,
        stream,
    })
}

/// Stops a server; returns its final report.
fn halt(server: Server, mut client: Client) -> Result<String, String> {
    let bye = client
        .shutdown(CONTROL_TAG)
        .map_err(|e| format!("shutdown: {e}"))?;
    if bye.status != Status::Ok {
        return Err(format!("shutdown answered {:?}", bye.status));
    }
    drop(client);
    Ok(server.wait())
}

/// The untraced run: end-to-end metrics only.
pub fn run(w: &ServeWorkload, name: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let (setup_s, booted) = setup_repeatedly(
        || boot(w, seed),
        |b: Booted| halt(b.server, b.client).map(drop),
    )?;
    let Booted {
        server,
        client,
        stream,
    } = booted;
    let mut pipe = Pipe::new(Tcp(client), stream, DEPTH, w.storm);
    pipe.pump_for(WARMUP)?;

    let before = pipe.tally.clone();
    let mut reps = Reps::begin()?;
    let mut rtt_p99s = Vec::new();
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs(seconds) {
        pipe.clear_window();
        let circuits = pipe.tally.circuits;
        let start = Instant::now();
        pipe.pump_for(REP)?;
        let wall = start.elapsed();
        if pipe.connect_us.is_empty() {
            return Err("a rep without a single connect".into());
        }
        let done = (pipe.tally.circuits - circuits) as f64;
        let connect_p50_us = percentile(&pipe.connect_us, 50.0);
        println!(
            "rep {name} {} circuits_per_s={:.0} connect_p50_us={connect_p50_us:.1}",
            reps.len(),
            done / wall.as_secs_f64()
        );
        reps.push(done, wall, connect_p50_us)?;
        rtt_p99s.push(percentile(&pipe.rtt_us, 99.0));
    }
    let in_window = |f: fn(&Tally) -> u64| f(&pipe.tally) - f(&before);
    let (requests, unexpected) = (in_window(|t| t.requests), in_window(|t| t.unexpected));
    let underfull_share = in_window(|t| t.underfull_reads) as f64 / in_window(|t| t.reads) as f64;
    println!(
        "outcome {name} seed={seed} requests={requests} circuits={} killed={} rtt_p99_us={:.1}",
        in_window(|t| t.circuits),
        in_window(|t| t.killed),
        best(&rtt_p99s, false),
    );
    let (metrics, validity) = reps.finish(setup_s, underfull_share)?;

    pipe.finish()?;
    let Tcp(mut client) = pipe.transport;
    let report = client
        .report(CONTROL_TAG)
        .map_err(|e| format!("report: {e}"))?;
    let failed_checks = check_report(&report.body_text(), &pipe.tally, w.storm, true)?;
    halt(server, client)?;
    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    Ok(Run {
        outcome: Outcome {
            correct: failed_checks.is_empty(),
            attempted: requests,
            failed: unexpected,
            metrics,
        },
        validity,
    })
}

/// `Request`/`Response` encode → `write_frame` → `read_frame` → decode,
/// through memory: the protocol layer with no socket under it.
fn codec_rung(log: &mut SpanLog, stream: &mut OpStream, pairs: u64) -> Result<f64, String> {
    let rung = log.open("rung.codec", ROOT);
    let mut wire: Vec<u8> = Vec::with_capacity(64);
    let mut control_tag = CONTROL_TAG;
    let mut total_ns = 0.0;
    for _ in 0..pairs {
        let req = request_of(stream.next_op(), &mut control_tag);
        let tag = req.tag();
        let (ok, ns) = log.time("ft-serve.protocol.codec", rung, tag, || {
            wire.clear();
            write_frame(&mut wire, &req.encode())?;
            let payload = read_frame(&mut wire.as_slice())?.ok_or("no request frame")?;
            let back = Request::decode(&payload).map_err(|_| "request does not decode")?;
            let resp = Response::ok(back.tag(), 4u32.to_le_bytes().to_vec());
            wire.clear();
            write_frame(&mut wire, &resp.encode())?;
            let payload = read_frame(&mut wire.as_slice())?.ok_or("no response frame")?;
            let resp = Response::decode(&payload).ok_or("response does not decode")?;
            Ok::<bool, Box<dyn std::error::Error>>(back == req && resp.tag == tag)
        });
        if !ok.map_err(|e| format!("codec: {e}"))? {
            return Err("codec: a frame did not survive the round trip".into());
        }
        total_ns += ns;
    }
    log.close(rung);
    Ok(total_ns / (2 * pairs) as f64)
}

/// Replays the stream on [`Bare`]: the calls the engine makes per
/// request and nothing else. With `probe`, a bare `bibfs_into` under
/// the router's own predicate runs just before each connect and only
/// the probes are reported.
fn router_rung(
    log: &mut SpanLog,
    fabric: &Fabric,
    stream: &mut OpStream,
    circuits: u64,
    probe: bool,
    out: &mut Layers,
) -> Result<(), String> {
    let net = fabric.net();
    let csr = net.csr();
    let (stage_of, budget) = (net.stage_table(), net.backward_budget());
    let rung = log.open(if probe { "rung.bibfs" } else { "rung.router" }, ROOT);
    let mut bare = Bare::new(fabric);
    let (mut fwd, mut bwd) = (TraversalWorkspace::new(), TraversalWorkspace::new());
    let (mut connect_ns, mut probe_ns, mut tracker_ns, mut kill_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut done, mut searches, mut faults, mut repairs, mut killed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    while done < circuits {
        match stream.next_op() {
            Op::Connect { id, src, dst } => {
                if probe {
                    let (input, output) = bare.terminals(src, dst);
                    let router = &bare.router;
                    let (found, ns) = log.time("ft-graph.bibfs_into", rung, id, || {
                        bibfs_into(
                            csr,
                            input,
                            output,
                            stage_of,
                            budget,
                            |v| router.is_idle(v) && router.is_alive(v),
                            &mut fwd,
                            &mut bwd,
                        )
                    });
                    if !found {
                        return Err(format!("bare search found no path for circuit {id}"));
                    }
                    probe_ns += ns;
                    searches += 1;
                }
                let (hops, ns) = log.time("ft-networks.connect", rung, id, || {
                    bare.connect(id, src, dst)
                });
                hops.map_err(|e| format!("bare router refused circuit {id}: {e}"))?;
                connect_ns += ns;
            }
            Op::Disconnect { id } => {
                let (up, ns) = log.time("ft-networks.disconnect", rung, id, || bare.disconnect(id));
                // A circuit a storm killed is already gone.
                if up {
                    connect_ns += ns;
                    done += 1;
                }
            }
            Op::Fault { switch } => {
                let request = u64::from(switch);
                let ((), ns) = log.time("ft-failure.fail_edge", rung, request, || {
                    bare.fail_edge(switch)
                });
                tracker_ns += ns;
                let (n, ns) = log.time("ft-networks.kill_wave", rung, request, || bare.kill_wave());
                kill_ns += ns;
                killed += n as u64;
                faults += 1;
            }
            Op::Repair { switch } => {
                let request = u64::from(switch);
                let ((), ns) = log.time("ft-failure.repair_edge", rung, request, || {
                    bare.repair_edge(switch)
                });
                tracker_ns += ns;
                let ((), ns) = log.time("ft-networks.revive", rung, request, || bare.revive());
                kill_ns += ns;
                repairs += 1;
            }
        }
    }
    log.close(rung);
    if probe {
        let mut pops = fwd.stats();
        pops.merge(&bwd.stats());
        out.push(("ft-graph.bibfs_ns_per_search", probe_ns / searches as f64));
        out.push((
            "ft-graph.bibfs_pops_per_search",
            pops.bibfs_pops as f64 / searches as f64,
        ));
    } else {
        out.push((
            "ft-networks.connect_ns_per_circuit",
            connect_ns / done as f64,
        ));
        if faults > 0 {
            let fault_ops = (faults + repairs) as f64;
            out.push(("ft-failure.tracker_ns_per_fault", tracker_ns / fault_ops));
            out.push(("ft-networks.kill_ns_per_fault", kill_ns / fault_ops));
            out.push((
                "ft-serve.engine.killed_per_fault",
                killed as f64 / faults as f64,
            ));
        }
    }
    Ok(())
}

/// `engine::run` on its own thread, fed `Job`s over the same bounded
/// queue the frontends use — the engine with no socket in front.
fn engine_rung(
    log: &mut SpanLog,
    w: &ServeWorkload,
    seed: u64,
    circuits: u64,
    depth: usize,
) -> Result<(f64, f64), String> {
    let fabric = build(w.fabric)?;
    let stream = w.stream(seed, &fabric);
    let (jobs, rx) = mpsc::sync_channel::<Job>(ServerConfig::default().queue_depth);
    let (reply_tx, reply_rx) = mpsc::channel();
    let shared = Arc::new(SharedFlags::default());
    let cfg: EngineConfig = ServerConfig::default().engine;
    let engine = std::thread::spawn(move || engine::run(fabric, rx, &shared, &cfg));
    let queue = Queue {
        jobs,
        reply_tx,
        reply_rx,
    };
    let mut pipe = Pipe::new(queue, stream, depth, w.storm);
    let rung = log.open(
        if depth == 1 {
            "rung.engine_lockstep"
        } else {
            "rung.engine"
        },
        ROOT,
    );
    let start = Instant::now();
    pipe.pump(|t| t.circuits >= circuits, Some((log, rung)))?;
    let ns_per_circuit = start.elapsed().as_nanos() as f64 / pipe.tally.circuits as f64;
    log.close(rung);
    let p50 = percentile(&pipe.rtt_us, 50.0);
    pipe.finish()?;
    pipe.transport
        .send(Request::Shutdown { tag: CONTROL_TAG })?;
    pipe.transport.recv()?;
    let tally = pipe.tally.clone();
    drop(pipe);
    let report = engine.join().map_err(|_| "engine thread panicked")?;
    let bad = check_report(&report, &tally, w.storm, false)?;
    if !bad.is_empty() {
        return Err(format!("engine rung: {}", bad.join("; ")));
    }
    Ok((ns_per_circuit, p50))
}

struct TcpRung {
    ns_per_circuit: f64,
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    allocs_per_circuit: f64,
    report: String,
    tally: Tally,
}

/// The whole service over loopback TCP for a fixed number of circuits,
/// with a span per request under a rung named `spans.1`, or untraced.
fn tcp_rung(
    spans: Option<(&mut SpanLog, &'static str)>,
    w: &ServeWorkload,
    seed: u64,
    circuits: u64,
    depth: usize,
) -> Result<TcpRung, String> {
    let Booted {
        server,
        client,
        stream,
    } = boot(w, seed)?;
    let mut pipe = Pipe::new(Tcp(client), stream, depth, w.storm);
    // Fill the pipe and warm the connection before the measured part.
    pipe.pump(|t| t.circuits >= 200, None)?;
    pipe.clear_window();
    let before = pipe.tally.circuits;
    let mut spans = spans.map(|(log, name)| {
        let rung = log.open(name, ROOT);
        (log, rung)
    });
    let allocs = allocations();
    let start = Instant::now();
    pipe.pump(
        |t| t.circuits >= before + circuits,
        spans.as_mut().map(|(log, rung)| (&mut **log, *rung)),
    )?;
    let wall_ns = start.elapsed().as_nanos() as f64;
    let allocs = allocations() - allocs;
    if let Some((log, rung)) = spans {
        log.close(rung);
    }
    let done = (pipe.tally.circuits - before) as f64;
    let (p50, p99) = (
        percentile(&pipe.rtt_us, 50.0),
        percentile(&pipe.rtt_us, 99.0),
    );
    pipe.finish()?;
    let Tcp(mut client) = pipe.transport;
    let report = client
        .report(CONTROL_TAG)
        .map_err(|e| format!("report: {e}"))?
        .body_text();
    halt(server, client)?;
    Ok(TcpRung {
        ns_per_circuit: wall_ns / done,
        rtt_p50_us: p50,
        rtt_p99_us: p99,
        allocs_per_circuit: allocs as f64 / done,
        report,
        tally: pipe.tally,
    })
}

/// The traced run: the workload's first circuits replayed rung by rung,
/// from the bare search kernel out to the socket.
pub fn ladder(
    w: &ServeWorkload,
    name: &str,
    seed: u64,
    seconds: u64,
    log: &mut SpanLog,
) -> Result<(Outcome, Layers), String> {
    let circuits = LADDER_CIRCUITS_PER_SECOND * seconds;
    let mut out: Layers = Vec::new();

    let t = Instant::now();
    let fabric = build(w.fabric)?;
    out.push(("ft-core.build_ns", t.elapsed().as_nanos() as f64));
    let t = Instant::now();
    fabric.net().csr();
    out.push(("ft-graph.csr_build_ns", t.elapsed().as_nanos() as f64));

    let codec = codec_rung(log, &mut w.stream(seed, &fabric), circuits)?;
    out.push(("ft-serve.protocol.codec_ns_per_frame", codec));
    router_rung(
        log,
        &fabric,
        &mut w.stream(seed, &fabric),
        circuits,
        true,
        &mut out,
    )?;
    router_rung(
        log,
        &fabric,
        &mut w.stream(seed, &fabric),
        circuits,
        false,
        &mut out,
    )?;
    drop(fabric);

    let (job_ns, _) = engine_rung(log, w, seed, circuits, DEPTH)?;
    let (_, job_lockstep_p50) = engine_rung(log, w, seed, circuits / 4, 1)?;
    let connect_ns = out
        .iter()
        .find_map(|(n, v)| (*n == "ft-networks.connect_ns_per_circuit").then_some(*v))
        .expect("router rung ran");
    out.push(("ft-serve.engine.job_ns_per_circuit", job_ns));
    out.push(("ft-serve.engine.self_ns_per_circuit", job_ns - connect_ns));
    out.push(("ft-serve.engine.job_lockstep_p50_us", job_lockstep_p50));

    let plain = tcp_rung(None, w, seed, circuits, DEPTH)?;
    let top = tcp_rung(Some((log, "rung.tcp")), w, seed, circuits, DEPTH)?;
    let lockstep = tcp_rung(Some((log, "rung.tcp_lockstep")), w, seed, circuits / 4, 1)?;
    out.push((
        "ft-serve.server.frontend_ns_per_circuit",
        plain.ns_per_circuit - job_ns,
    ));
    out.push(("ft-serve.client.rtt_lockstep_p50_us", lockstep.rtt_p50_us));
    out.push(("ft-serve.client.rtt_lockstep_p99_us", lockstep.rtt_p99_us));
    out.push(("ft-serve.client.rtt_p99_us", plain.rtt_p99_us));
    out.push(("ft-serve.allocs_per_circuit", plain.allocs_per_circuit));
    out.push((
        "ladder_overhead_ratio",
        top.ns_per_circuit / plain.ns_per_circuit,
    ));

    let failed_checks = check_report(&plain.report, &plain.tally, w.storm, true)?;
    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    let c = |key| report_field::<u64>(&plain.report, key);
    let offered = c("offered")? as f64;
    out.push((
        "ft-serve.engine.blocked_share",
        c("blocked")? as f64 / offered,
    ));
    out.push(("ft-serve.server.shed_share", c("shed")? as f64 / offered));
    out.push((
        "ft-serve.engine.killed_share",
        c("killed")? as f64 / offered,
    ));
    out.push((
        "ft-serve.engine.path_hops_p50",
        report_field(&plain.report, "p50")?,
    ));
    println!(
        "outcome {name} seed={seed} circuits={circuits} killed={} rtt_p50_us={:.1}",
        plain.tally.killed, plain.rtt_p50_us
    );
    Ok((
        Outcome {
            correct: failed_checks.is_empty(),
            attempted: plain.tally.requests,
            failed: plain.tally.unexpected,
            metrics: Vec::new(),
        },
        out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "{\n  \"counters\": {\n    \"offered\": 12,\n    \"connected\": 10,\n    \"shed\": 2\n  },\n  \"path_hops\": {\n    \"count\": 10,\n    \"p50\": 4.000,\n  }\n}\n";

    #[test]
    fn report_fields_parse() {
        assert_eq!(report_field(REPORT, "offered"), Ok(12u64));
        assert_eq!(report_field(REPORT, "shed"), Ok(2u64));
        assert_eq!(report_field(REPORT, "p50"), Ok(4.0f64));
        assert!(report_field::<u64>(REPORT, "blocked").is_err());
        assert!(report_field::<u64>(REPORT, "p50").is_err());
    }

    #[test]
    fn a_short_run_on_the_small_fabric_passes_its_own_checks() {
        let w = ServeWorkload {
            fabric: "clos-strict 4 4",
            hold: 8,
            storm: false,
        };
        let Booted {
            server,
            client,
            stream,
        } = boot(&w, 1).unwrap();
        let mut pipe = Pipe::new(Tcp(client), stream, DEPTH, false);
        pipe.pump(|t| t.circuits >= 500, None).unwrap();
        assert_eq!(pipe.tally.underfull_reads, 0);
        pipe.finish().unwrap();
        let Tcp(mut client) = pipe.transport;
        let report = client.report(CONTROL_TAG).unwrap().body_text();
        assert_eq!(check_report(&report, &pipe.tally, false, true), Ok(vec![]));
        halt(server, client).unwrap();
    }
}
