//! The TCP frontend: accept loop, per-connection reader/writer pairs,
//! and the backpressure boundary.
//!
//! No async runtime — the container carries only vendored std-adjacent
//! crates — so the shape is classic thread-per-connection: an acceptor
//! thread spawns one reader (and one writer) thread per client, all
//! feeding the single engine thread through a bounded
//! [`sync_channel`](std::sync::mpsc::sync_channel). The queue bound IS
//! the service's admission control: when it is full, `CONNECT` requests
//! are answered [`Status::Shed`] directly from the frontend (the engine
//! never sees them), while control-plane requests block — you can
//! always fetch metrics from, reload, or shut down a saturated server.
//!
//! Robustness properties the tests pin:
//! * a malformed frame gets a typed [`Status::BadFrame`] answer and the
//!   connection keeps serving (an oversized length prefix also answers,
//!   then closes, since the stream position is unrecoverable);
//! * a mid-frame disconnect or slow-loris writer affects only its own
//!   connection — reads time out in 250 ms slices and re-poll the
//!   shutdown flag, so even an idle peer never blocks teardown;
//! * every accepted request is answered exactly once, in engine order,
//!   per connection (responses to one connection are serialised by its
//!   writer thread);
//! * concurrent connections are capped ([`ServerConfig::max_connections`]):
//!   a raw connect flood is refused at accept (connection closed,
//!   [`SharedFlags::refused`] incremented) rather than spawning threads
//!   without bound.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ft_sim::Fabric;

use crate::engine::{self, EngineConfig, Job, SharedFlags};
use crate::protocol::{read_frame_with, write_frame, Request, Response, Status};

/// How long a frontend read blocks before re-polling the shutdown flag.
const READ_SLICE: Duration = Duration::from_millis(250);

/// How long [`Server::wait`] waits for lingering connection threads
/// (a writer blocked on a peer that stopped reading) before detaching
/// them. Comfortably above `READ_SLICE` so healthy readers always
/// make it out.
const JOIN_GRACE: Duration = Duration::from_millis(1000);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Engine queue depth — the backpressure bound. Connects past it
    /// are shed; the simulator's `retry = … shed N` knob is the
    /// conventional source of this number.
    pub queue_depth: usize,
    /// Concurrent-connection cap. Connections accepted past it are
    /// closed immediately ([`SharedFlags::refused`]) instead of
    /// spawning an unbounded thread per socket — a connection flood
    /// degrades at the acceptor, the same never-wedge discipline the
    /// queue bound applies one layer down.
    pub max_connections: usize,
    /// Engine determinism/snapshot settings.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth: 64,
            max_connections: 256,
            engine: EngineConfig {
                deterministic: false,
                snapshot_path: None,
                snapshot_every: 0,
            },
        }
    }
}

/// A running server: engine + acceptor + frontends.
pub struct Server {
    addr: SocketAddr,
    engine: JoinHandle<String>,
    acceptor: JoinHandle<()>,
    shared: Arc<SharedFlags>,
    /// Live connection threads, shared with the acceptor (which reaps
    /// finished ones and enforces the cap) and joined by [`Server::wait`].
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the engine and acceptor, returns immediately.
    pub fn start(fabric: Fabric, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(SharedFlags::default());
        let conns = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));

        let engine_shared = Arc::clone(&shared);
        let engine_cfg = cfg.engine.clone();
        let engine =
            std::thread::spawn(move || engine::run(fabric, job_rx, &engine_shared, &engine_cfg));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let max_connections = cfg.max_connections.max(1);
        let acceptor = std::thread::spawn(move || {
            accept_loop(
                listener,
                job_tx,
                accept_shared,
                accept_conns,
                max_connections,
            );
        });

        Ok(Server {
            addr,
            engine,
            acceptor,
            shared,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared flag block (tests read the shed counter directly).
    pub fn shared(&self) -> &SharedFlags {
        &self.shared
    }

    /// Blocks until the engine exits (graceful shutdown or all
    /// frontends gone), then joins the acceptor and every connection
    /// thread (each joins its own writer first), so the final
    /// `SHUTDOWN` response is flushed before this returns. Readers
    /// re-poll the shutdown flag every `READ_SLICE`, so the joins
    /// are bounded — and instant when all clients have hung up. A
    /// connection wedged by a peer that stopped reading is detached
    /// after `JOIN_GRACE` rather than held against shutdown.
    pub fn wait(self) -> String {
        let report = self.engine.join().expect("engine thread panicked");
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()` with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        self.acceptor.join().expect("acceptor thread panicked");
        let handles = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        let deadline = Instant::now() + JOIN_GRACE;
        for h in handles {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached — its writer is blocked on an unreachable
            // peer; process teardown reclaims it.
        }
        report
    }
}

fn accept_loop(
    listener: TcpListener,
    job_tx: SyncSender<Job>,
    shared: Arc<SharedFlags>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_connections: usize,
) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let mut handles = conns.lock().expect("conns lock");
        // Reap finished connection threads; the survivors are the live
        // connection count the cap applies to.
        let mut live = Vec::with_capacity(handles.len() + 1);
        for h in handles.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        *handles = live;
        if handles.len() >= max_connections {
            // Connection cap: close at accept instead of spawning yet
            // another thread — a raw connect flood degrades here, before
            // it can exhaust threads the queue bound never sees.
            shared.refused.fetch_add(1, Ordering::SeqCst);
            continue; // `stream` drops → RST/FIN to the client
        }
        let tx = job_tx.clone();
        let sh = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || serve_connection(stream, tx, sh)));
    }
}

/// One client connection: reader loop on this thread, writer thread
/// draining the per-connection response channel.
fn serve_connection(stream: TcpStream, job_tx: SyncSender<Job>, shared: Arc<SharedFlags>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (resp_tx, resp_rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || write_loop(stream, resp_rx));

    loop {
        let stop = || shared.shutdown.load(Ordering::SeqCst);
        match read_frame_with(&mut reader, stop) {
            Ok(Some(payload)) => {
                match Request::decode(&payload) {
                    Ok(req) => {
                        if !dispatch(req, &job_tx, &resp_tx, &shared) {
                            break; // engine gone: stop reading
                        }
                    }
                    Err(tag) => {
                        // Malformed payload inside a well-framed
                        // message: typed answer, keep serving.
                        shared.bad_frames.fetch_add(1, Ordering::SeqCst);
                        if resp_tx.send(Response::new(Status::BadFrame, tag)).is_err() {
                            break;
                        }
                    }
                }
            }
            Ok(None) => break, // clean EOF between frames
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized/zero length prefix: the stream position is
                // unrecoverable. Answer, then close.
                shared.bad_frames.fetch_add(1, Ordering::SeqCst);
                let _ = resp_tx.send(Response::new(Status::BadFrame, 0));
                break;
            }
            Err(_) => break, // mid-frame EOF, shutdown interrupt, or I/O error
        }
    }
    drop(resp_tx);
    let _ = writer.join();
}

/// Routes one decoded request into the engine queue, applying the
/// backpressure policy. Returns `false` when the engine is gone.
fn dispatch(
    req: Request,
    job_tx: &SyncSender<Job>,
    resp_tx: &mpsc::Sender<Response>,
    shared: &SharedFlags,
) -> bool {
    let job = Job {
        reply: resp_tx.clone(),
        enqueued: Instant::now(),
        req,
    };
    match &job.req {
        Request::Connect { tag, .. } => {
            let tag = *tag;
            match job_tx.try_send(job) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    // Backpressure: shed the admission at the frontend.
                    shared.shed.fetch_add(1, Ordering::SeqCst);
                    resp_tx.send(Response::new(Status::Shed, tag)).is_ok()
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        }
        // Control plane blocks instead of shedding: a saturated server
        // must still answer metrics, reloads and shutdowns.
        _ => job_tx.send(job).is_ok(),
    }
}

fn write_loop(mut stream: TcpStream, resp_rx: Receiver<Response>) {
    // Writes use the default (blocking, no timeout) path: a slow reader
    // stalls only its own writer thread.
    let _ = stream.set_write_timeout(None);
    while let Ok(resp) = resp_rx.recv() {
        if write_frame(&mut stream, &resp.encode()).is_err() {
            break;
        }
        let _ = stream.flush();
    }
}
