//! The multithreaded experiment server.
//!
//! Architecture, front to back:
//!
//! - **Accept loop** (the thread that called [`Server::run`]): a
//!   non-blocking `TcpListener` polled every couple of milliseconds so
//!   SIGTERM/SIGINT (see [`crate::signal`]) and [`ServerHandle::shutdown`]
//!   are observed promptly. Each accepted connection is pushed into the
//!   bounded work queue.
//! - **Bounded work queue**: connections and asynchronous jobs share one
//!   `VecDeque` capped at `queue_depth`. When full, the connection is
//!   handed to a detached *reject* thread that reads the request before
//!   answering `503` + `Retry-After` — draining first, because closing a
//!   socket with unread data sends a TCP RST and the load harness asserts
//!   zero resets.
//! - **Worker pool**: `workers` fixed threads pop work, parse one request
//!   per connection ([`crate::http`]), route it, and respond with
//!   `Connection: close`.
//! - **Coalescing**: identical concurrent `/run`s share one engine
//!   execution through a [`Coalescer`] keyed by the same content hash
//!   that addresses the disk cache; `/sweep`s coalesce on the rendered
//!   scenario. Joiners respect the request deadline (504 on expiry)
//!   while the leader always runs to completion and populates the cache.
//! - **Graceful drain**: once shutdown is observed the listener stops
//!   accepting, workers finish everything already queued, and
//!   [`Server::run`] returns a [`DrainReport`].

use crate::api;
use crate::http::{Parser, Request, Response};
use crate::jobs::{JobState, JobTable};
use crate::signal;
use mtvp_engine::{
    builtin_scenarios, cell_descriptor, key::scale_tag, key_of, suite, Cache, CacheMode, CellEntry,
    Coalesced, Coalescer, Engine, EngineOptions, JobKey, Registry, Scale, Scenario, SimConfig,
    SIM_VERSION,
};
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration, mirroring the `mtvp-sim serve` CLI flags.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Fixed worker-thread count.
    pub workers: usize,
    /// Bound on queued work (connections + async jobs) before 503s.
    pub queue_depth: usize,
    /// Result persistence, shared with the CLI experiment engine.
    pub cache: CacheMode,
    /// Default per-request deadline (ms); bodies may override.
    pub request_timeout_ms: u64,
    /// Socket read timeout while parsing a request (ms).
    pub read_timeout_ms: u64,
    /// Cluster peers (`host:port`) to ask for warm cells before
    /// simulating (`--peers a,b,c`; empty disables peering).
    pub peers: Vec<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8707".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_depth: 32,
            cache: CacheMode::Disk(mtvp_engine::Cache::default_dir()),
            request_timeout_ms: 120_000,
            read_timeout_ms: 10_000,
            peers: Vec::new(),
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`]
/// after a graceful drain.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Connections answered 503 because the queue was full.
    pub rejected: u64,
    /// Jobs registered in the job table.
    pub jobs: u64,
    /// `/run` or `/sweep` calls that shared another caller's execution.
    pub coalesce_hits: u64,
}

/// Work items flowing through the bounded queue.
enum Work {
    /// An accepted connection awaiting parse + route.
    Conn {
        stream: TcpStream,
        accepted: Instant,
    },
    /// An asynchronous `/run` (`"wait": false`).
    RunJob {
        id: u64,
        bench: String,
        config: SimConfig,
        scale: Scale,
    },
    /// An asynchronous `/sweep`.
    SweepJob {
        id: u64,
        scenario: Scenario,
        scale: Option<Scale>,
    },
}

/// State shared by the accept loop, workers and reject threads.
struct Shared {
    opts: ServeOptions,
    engine: Engine,
    cells: Coalescer<(CellEntry, bool)>,
    sweeps: Coalescer<String>,
    jobs: JobTable,
    // Behind an `Arc` so the engine's peer-fetch closure (created before
    // `Shared` exists) can count peer hits/misses.
    metrics: Arc<Mutex<Registry>>,
    queue: Mutex<VecDeque<Work>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    queue_highwater: AtomicU64,
    /// Work items currently being processed by worker threads.
    active: AtomicU64,
    started: Instant,
}

impl Shared {
    fn bump(&self, name: &str) {
        self.metrics.lock().expect("metrics").bump(name);
    }

    fn observe(&self, name: &str, v: u64) {
        self.metrics.lock().expect("metrics").observe(name, v);
    }

    fn count_response(&self, status: u16) {
        let mut m = self.metrics.lock().expect("metrics");
        m.bump("serve.responses");
        m.bump(&format!("serve.responses.{status}"));
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::triggered()
    }

    /// Enqueue `w` unless the queue is at capacity; hands it back
    /// (`Some`) on overflow so the caller can reject gracefully.
    fn try_enqueue(&self, w: Work) -> Option<Work> {
        let mut q = self.queue.lock().expect("queue");
        if q.len() >= self.opts.queue_depth {
            return Some(w);
        }
        q.push_back(w);
        self.queue_highwater
            .fetch_max(q.len() as u64, Ordering::Relaxed);
        drop(q);
        self.queue_cv.notify_one();
        None
    }

    /// Pop the next work item, blocking until one arrives. Returns `None`
    /// only when shutdown has been requested *and* the queue is empty —
    /// i.e. workers drain everything that was already accepted.
    fn dequeue(&self) -> Option<Work> {
        let mut q = self.queue.lock().expect("queue");
        loop {
            if let Some(w) = q.pop_front() {
                return Some(w);
            }
            if self.shutting_down() {
                return None;
            }
            let (guard, _) = self
                .queue_cv
                .wait_timeout(q, Duration::from_millis(50))
                .expect("queue");
            q = guard;
        }
    }
}

/// Handle for stopping a running server from another thread (tests and
/// the ctrl-c path use the signal latch instead).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Request a graceful drain: stop accepting, finish queued work.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `opts.addr` and prepare the shared state.
    ///
    /// # Errors
    /// Propagates the bind error (address in use, permission, …).
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let metrics = Arc::new(Mutex::new(Registry::new()));
        // One engine worker per simulation: parallelism comes from the
        // server's worker pool, not from fanning each sweep across every
        // core (which would oversubscribe under concurrent requests).
        let mut engine = Engine::new(EngineOptions {
            cache: opts.cache.clone(),
            jobs: Some(1),
            shard: None,
            progress: false,
        });
        if !opts.peers.is_empty() {
            engine = engine.with_peer_fetch(peer_fetch(opts.peers.clone(), Arc::clone(&metrics)));
        }
        let shared = Arc::new(Shared {
            opts,
            engine,
            cells: Coalescer::new(),
            sweeps: Coalescer::new(),
            jobs: JobTable::new(),
            metrics,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_highwater: AtomicU64::new(0),
            active: AtomicU64::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// Propagates the OS error, which cannot normally occur on a bound
    /// listener.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is requested (signal or handle), then drain
    /// the queue and return the lifetime accounting.
    ///
    /// # Errors
    /// Propagates only fatal listener errors; per-connection errors are
    /// counted and survived.
    pub fn run(self) -> std::io::Result<DrainReport> {
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.opts.workers);
        for i in 0..shared.opts.workers.max(1) {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mtvp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn worker"),
            );
        }
        while !shared.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(false);
                    shared.bump("serve.connections");
                    let work = Work::Conn {
                        stream,
                        accepted: Instant::now(),
                    };
                    if let Some(Work::Conn { stream, .. }) = shared.try_enqueue(work) {
                        reject_busy(&shared, stream);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    // Transient accept failure (e.g. aborted handshake).
                    shared.bump("serve.accept_errors");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        drop(self.listener);
        shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let m = shared.metrics.lock().expect("metrics");
        Ok(DrainReport {
            requests: m.counter("serve.requests"),
            rejected: m.counter("serve.queue.rejected"),
            jobs: shared.jobs.created(),
            coalesce_hits: m.counter("serve.coalesce.hits"),
        })
    }
}

/// Build the engine hook that asks each cluster peer for a warm cell
/// (`GET /cache/cell/<hash>`) before simulating. The first peer to
/// answer 200 with parseable JSON wins; the engine then verifies the
/// entry's descriptor, so a stale or lying peer costs one round trip,
/// never a wrong result.
fn peer_fetch(peers: Vec<String>, metrics: Arc<Mutex<Registry>>) -> mtvp_engine::PeerFetch {
    Arc::new(move |key: &JobKey, _descriptor: &str| {
        let path = format!("/cache/cell/{}", key.hex());
        for peer in &peers {
            match crate::loadgen::http_request(peer, "GET", &path, None, 5_000) {
                Ok((200, body)) => {
                    if let Ok(entry) = serde_json::from_str::<CellEntry>(&body) {
                        metrics.lock().expect("metrics").bump("serve.peer.hits");
                        return Some(entry);
                    }
                    metrics.lock().expect("metrics").bump("serve.peer.errors");
                }
                Ok(_) => metrics.lock().expect("metrics").bump("serve.peer.misses"),
                Err(_) => metrics.lock().expect("metrics").bump("serve.peer.errors"),
            }
        }
        None
    })
}

/// Backpressure path: drain the request off the socket (bounded by the
/// parser's size caps and a short timeout), then answer 503 with a
/// `Retry-After` hint. Runs on a detached thread so a slow writer can
/// never stall the accept loop.
fn reject_busy(shared: &Arc<Shared>, mut stream: TcpStream) {
    let s = Arc::clone(shared);
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(2_000)));
        let mut parser = Parser::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => match parser.feed(&buf[..n]) {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => {}
                },
                Err(_) => break,
            }
        }
        s.bump("serve.queue.rejected");
        s.count_response(503);
        let resp = Response::error(503, "job queue is full, retry shortly")
            .with_header("Retry-After", "1");
        let _ = resp.write_to(&mut stream);
        let _ = stream.shutdown(Shutdown::Both);
    });
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(work) = shared.dequeue() {
        shared.active.fetch_add(1, Ordering::SeqCst);
        match work {
            Work::Conn { stream, accepted } => handle_conn(shared, stream, accepted),
            Work::RunJob {
                id,
                bench,
                config,
                scale,
            } => {
                shared.jobs.start(id);
                let t0 = Instant::now();
                let outcome = match execute_run(shared, &bench, &config, scale, None) {
                    RunOutcome::Done {
                        entry,
                        cached,
                        coalesced,
                    } => Ok(api::run_result_json(
                        id,
                        &entry,
                        cached,
                        coalesced,
                        t0.elapsed().as_micros() as u64,
                    )
                    .to_string()),
                    RunOutcome::TimedOut => Err("deadline exceeded".to_string()),
                    RunOutcome::Failed(e) => Err(e),
                };
                shared.jobs.finish(id, outcome);
                shared.bump("serve.jobs.completed");
            }
            Work::SweepJob {
                id,
                scenario,
                scale,
            } => {
                shared.jobs.start(id);
                let outcome = match execute_sweep(shared, &scenario, scale, None) {
                    SweepOutcome::Done { report, coalesced } => {
                        Ok(wrap_sweep(id, coalesced, &report).to_string())
                    }
                    SweepOutcome::TimedOut => Err("deadline exceeded".to_string()),
                    SweepOutcome::Failed(e) => Err(e),
                };
                shared.jobs.finish(id, outcome);
                shared.bump("serve.jobs.completed");
            }
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Parse one request off the connection, route it, respond, close.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream, accepted: Instant) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.opts.read_timeout_ms)));
    let resp = match read_request(&mut stream) {
        Ok(Some(req)) => {
            shared.bump("serve.requests");
            route(shared, &req)
        }
        Ok(None) => {
            // Closed without sending anything (port probe); no response.
            shared.bump("serve.conn.empty");
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Err(resp) => resp,
    };
    shared.count_response(resp.status);
    shared.observe("serve.latency_us", accepted.elapsed().as_micros() as u64);
    let _ = resp.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Read until the parser yields a request. `Ok(None)` means the peer
/// closed before sending any bytes; `Err` carries the error response.
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, Response> {
    let mut parser = Parser::new();
    let mut buf = [0u8; 8192];
    let mut got_any = false;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                return if got_any {
                    Err(Response::error(400, "connection closed mid-request"))
                } else {
                    Ok(None)
                };
            }
            Ok(n) => {
                got_any = true;
                match parser.feed(&buf[..n]) {
                    Ok(Some(req)) => return Ok(Some(req)),
                    Ok(None) => {}
                    Err(e) => return Err(Response::error(e.status(), &e.to_string())),
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(Response::error(408, "timed out reading the request"));
            }
            Err(_) => return Err(Response::error(400, "read error")),
        }
    }
}

fn json_response(status: u16, v: &Value) -> Response {
    Response::json(status, v.to_string() + "\n")
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let (path, _) = req.path_and_query();
    match (req.method.as_str(), path) {
        ("GET", "/health") => health(shared),
        ("GET", "/scenarios") => scenarios(),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/cache/stats") => cache_stats(shared),
        ("POST", "/run") => post_run(shared, req),
        ("POST", "/sweep") => post_sweep(shared, req),
        ("GET", p) if p.starts_with("/jobs/") => jobs_get(shared, req, &p["/jobs/".len()..]),
        ("GET", p) if p.starts_with("/cache/cell/") => {
            cache_cell(shared, &p["/cache/cell/".len()..])
        }
        (_, "/health" | "/scenarios" | "/metrics" | "/cache/stats" | "/run" | "/sweep") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/jobs/") || p.starts_with("/cache/cell/") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "not found"),
    }
}

fn health(shared: &Arc<Shared>) -> Response {
    json_response(
        200,
        &Value::Map(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            ("version".to_string(), Value::Str(SIM_VERSION.to_string())),
            (
                "workers".to_string(),
                Value::U64(shared.opts.workers as u64),
            ),
            (
                "queue_depth".to_string(),
                Value::U64(shared.opts.queue_depth as u64),
            ),
            (
                "uptime_ms".to_string(),
                Value::U64(shared.started.elapsed().as_millis() as u64),
            ),
            (
                "inflight".to_string(),
                Value::U64(
                    shared.active.load(Ordering::SeqCst)
                        + shared.queue.lock().expect("queue").len() as u64,
                ),
            ),
        ]),
    )
}

/// `GET /cache/cell/<hash>`: the cache-peering endpoint. Serves the raw
/// stored cell JSON for a 32-hex-digit content hash, 404 on a miss (or
/// when this worker runs cache-off). Peers re-verify the entry's
/// descriptor on their side, so this endpoint never needs to.
fn cache_cell(shared: &Arc<Shared>, hash: &str) -> Response {
    let Some(key) = JobKey::from_hex(hash) else {
        return Response::error(400, "cell hash must be 32 lowercase hex digits");
    };
    let CacheMode::Disk(dir) = &shared.opts.cache else {
        return Response::error(404, "cache disabled on this worker");
    };
    match Cache::new(dir.clone()).read_cell_text(&key) {
        Some(text) => {
            shared.bump("serve.peer.served");
            Response::json(200, text)
        }
        None => Response::error(404, "no such cell"),
    }
}

fn scenarios() -> Response {
    let list = builtin_scenarios()
        .into_iter()
        .map(|s| {
            let benches = suite().iter().filter(|w| s.keeps(w)).count() as u64;
            let cells = s.configs().map(|c| c.len() as u64).unwrap_or(0) * benches;
            Value::Map(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("title".to_string(), Value::Str(s.title.clone())),
                (
                    "scale".to_string(),
                    s.scale
                        .map(|x| Value::Str(scale_tag(x).to_string()))
                        .unwrap_or(Value::Null),
                ),
                ("benches".to_string(), Value::U64(benches)),
                ("cells".to_string(), Value::U64(cells)),
            ])
        })
        .collect();
    json_response(
        200,
        &Value::Map(vec![("scenarios".to_string(), Value::Seq(list))]),
    )
}

fn metrics(shared: &Arc<Shared>) -> Response {
    let registry = shared.metrics.lock().expect("metrics").clone();
    let depth = shared.queue.lock().expect("queue").len() as u64;
    let lat = registry.histogram("serve.latency_us");
    let latency = Value::Map(vec![
        (
            "count".to_string(),
            Value::U64(lat.map(|h| h.count).unwrap_or(0)),
        ),
        (
            "mean".to_string(),
            Value::F64(lat.map(|h| h.mean()).unwrap_or(0.0)),
        ),
        (
            "p50".to_string(),
            Value::U64(lat.map(|h| h.percentile(50.0)).unwrap_or(0)),
        ),
        (
            "p99".to_string(),
            Value::U64(lat.map(|h| h.percentile(99.0)).unwrap_or(0)),
        ),
        (
            "max".to_string(),
            Value::U64(lat.map(|h| h.max).unwrap_or(0)),
        ),
    ]);
    json_response(
        200,
        &Value::Map(vec![
            (
                "uptime_ms".to_string(),
                Value::U64(shared.started.elapsed().as_millis() as u64),
            ),
            (
                "queue".to_string(),
                Value::Map(vec![
                    ("depth".to_string(), Value::U64(depth)),
                    (
                        "capacity".to_string(),
                        Value::U64(shared.opts.queue_depth as u64),
                    ),
                    (
                        "highwater".to_string(),
                        Value::U64(shared.queue_highwater.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "jobs".to_string(),
                Value::Map(vec![(
                    "created".to_string(),
                    Value::U64(shared.jobs.created()),
                )]),
            ),
            ("latency_us".to_string(), latency),
            ("registry".to_string(), registry.to_value()),
        ]),
    )
}

fn cache_stats(shared: &Arc<Shared>) -> Response {
    let CacheMode::Disk(dir) = &shared.opts.cache else {
        return json_response(
            200,
            &Value::Map(vec![("enabled".to_string(), Value::Bool(false))]),
        );
    };
    let (mut cells, mut traces, mut lints, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if let Ok(md) = e.metadata() {
                bytes += md.len();
            }
            if name.ends_with(".lint.json") {
                lints += 1;
            } else if name.ends_with(".json") {
                cells += 1;
            } else if name.ends_with(".trace") {
                traces += 1;
            }
        }
    }
    json_response(
        200,
        &Value::Map(vec![
            ("enabled".to_string(), Value::Bool(true)),
            ("dir".to_string(), Value::Str(dir.display().to_string())),
            ("cells".to_string(), Value::U64(cells)),
            ("traces".to_string(), Value::U64(traces)),
            ("lints".to_string(), Value::U64(lints)),
            ("bytes".to_string(), Value::U64(bytes)),
        ]),
    )
}

/// How a synchronous or asynchronous `/run` resolved.
enum RunOutcome {
    Done {
        entry: Box<CellEntry>,
        cached: bool,
        coalesced: bool,
    },
    TimedOut,
    Failed(String),
}

/// Execute one cell with single-flight coalescing. The leader runs to
/// completion regardless of the deadline (its result lands in the cache
/// either way); only joiners time out.
fn execute_run(
    shared: &Arc<Shared>,
    bench: &str,
    cfg: &SimConfig,
    scale: Scale,
    deadline: Option<Instant>,
) -> RunOutcome {
    let key = key_of(&cell_descriptor(bench, cfg, scale)).to_string();
    match shared
        .cells
        .run(&key, deadline, || shared.engine.run_cell(bench, cfg, scale))
    {
        Coalesced::Led(Ok((entry, cached))) => RunOutcome::Done {
            entry: Box::new(entry),
            cached,
            coalesced: false,
        },
        Coalesced::Led(Err(e)) => RunOutcome::Failed(e),
        Coalesced::Joined(Ok((entry, cached))) => {
            shared.bump("serve.coalesce.hits");
            RunOutcome::Done {
                entry: Box::new(entry),
                cached,
                coalesced: true,
            }
        }
        Coalesced::Joined(Err(e)) => {
            shared.bump("serve.coalesce.hits");
            RunOutcome::Failed(e)
        }
        Coalesced::TimedOut => RunOutcome::TimedOut,
    }
}

enum SweepOutcome {
    Done { report: String, coalesced: bool },
    TimedOut,
    Failed(String),
}

fn execute_sweep(
    shared: &Arc<Shared>,
    scenario: &Scenario,
    scale: Option<Scale>,
    deadline: Option<Instant>,
) -> SweepOutcome {
    let resolved = scenario.scale_or(scale);
    let descriptor = format!(
        "sweep|{}|{}|{}",
        SIM_VERSION,
        scale_tag(resolved),
        scenario.to_value()
    );
    let key = key_of(&descriptor).to_string();
    let outcome = shared.sweeps.run(&key, deadline, || {
        shared
            .engine
            .run_scenario(scenario, scale)
            .map(|report| api::sweep_report_json(scenario, &report).to_string())
            .map_err(|e| e.0)
    });
    match outcome {
        Coalesced::Led(Ok(report)) => SweepOutcome::Done {
            report,
            coalesced: false,
        },
        Coalesced::Led(Err(e)) => SweepOutcome::Failed(e),
        Coalesced::Joined(Ok(report)) => {
            shared.bump("serve.coalesce.hits");
            SweepOutcome::Done {
                report,
                coalesced: true,
            }
        }
        Coalesced::Joined(Err(e)) => {
            shared.bump("serve.coalesce.hits");
            SweepOutcome::Failed(e)
        }
        Coalesced::TimedOut => SweepOutcome::TimedOut,
    }
}

/// Wrap a (possibly shared) sweep report with the per-request fields.
fn wrap_sweep(job: u64, coalesced: bool, report: &str) -> Value {
    let parsed = serde_json::from_str(report).unwrap_or(Value::Null);
    Value::Map(vec![
        ("job".to_string(), Value::U64(job)),
        ("coalesced".to_string(), Value::Bool(coalesced)),
        ("report".to_string(), parsed),
    ])
}

fn parse_body(req: &Request) -> Result<Value, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Value::Map(Vec::new()));
    }
    serde_json::from_str(text).map_err(|e| Response::error(400, &format!("bad JSON body: {e}")))
}

fn post_run(shared: &Arc<Shared>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let r = match api::parse_run_request(&body) {
        Ok(r) => r,
        Err(e) => return Response::error(422, &e),
    };
    let detail = format!("{}@{}", r.bench, scale_tag(r.scale));
    let id = shared.jobs.create("run", &detail);
    if !r.wait {
        let work = Work::RunJob {
            id,
            bench: r.bench,
            config: r.config,
            scale: r.scale,
        };
        return match shared.try_enqueue(work) {
            None => json_response(202, &api::accepted_json(id)),
            Some(_) => {
                shared.jobs.remove(id);
                shared.bump("serve.queue.rejected");
                Response::error(503, "job queue is full, retry shortly")
                    .with_header("Retry-After", "1")
            }
        };
    }
    shared.jobs.start(id);
    let timeout = Duration::from_millis(r.timeout_ms.unwrap_or(shared.opts.request_timeout_ms));
    let t0 = Instant::now();
    match execute_run(shared, &r.bench, &r.config, r.scale, Some(t0 + timeout)) {
        RunOutcome::Done {
            entry,
            cached,
            coalesced,
        } => {
            let json = api::run_result_json(
                id,
                &entry,
                cached,
                coalesced,
                t0.elapsed().as_micros() as u64,
            );
            shared.jobs.finish(id, Ok(json.to_string()));
            json_response(200, &json)
        }
        RunOutcome::TimedOut => {
            shared.jobs.finish(id, Err("deadline exceeded".to_string()));
            Response::error(504, "deadline exceeded waiting for the simulation")
        }
        RunOutcome::Failed(e) => {
            shared.jobs.finish(id, Err(e.clone()));
            Response::error(422, &e)
        }
    }
}

fn post_sweep(shared: &Arc<Shared>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let r = match api::parse_sweep_request(&body) {
        Ok(r) => r,
        Err(e) => return Response::error(422, &e),
    };
    let id = shared.jobs.create("sweep", &r.scenario.name);
    if !r.wait {
        let work = Work::SweepJob {
            id,
            scenario: r.scenario,
            scale: r.scale,
        };
        return match shared.try_enqueue(work) {
            None => json_response(202, &api::accepted_json(id)),
            Some(_) => {
                shared.jobs.remove(id);
                shared.bump("serve.queue.rejected");
                Response::error(503, "job queue is full, retry shortly")
                    .with_header("Retry-After", "1")
            }
        };
    }
    shared.jobs.start(id);
    let timeout = Duration::from_millis(r.timeout_ms.unwrap_or(shared.opts.request_timeout_ms));
    match execute_sweep(shared, &r.scenario, r.scale, Some(Instant::now() + timeout)) {
        SweepOutcome::Done { report, coalesced } => {
            let json = wrap_sweep(id, coalesced, &report);
            shared.jobs.finish(id, Ok(json.to_string()));
            json_response(200, &json)
        }
        SweepOutcome::TimedOut => {
            shared.jobs.finish(id, Err("deadline exceeded".to_string()));
            Response::error(504, "deadline exceeded waiting for the sweep")
        }
        SweepOutcome::Failed(e) => {
            shared.jobs.finish(id, Err(e.clone()));
            Response::error(422, &e)
        }
    }
}

fn job_status_json(snap: &crate::jobs::JobSnapshot) -> Value {
    let mut fields = vec![
        ("job".to_string(), Value::U64(snap.id)),
        ("kind".to_string(), Value::Str(snap.kind.clone())),
        ("detail".to_string(), Value::Str(snap.detail.clone())),
        (
            "state".to_string(),
            Value::Str(snap.state.as_str().to_string()),
        ),
    ];
    if let Some(e) = &snap.error {
        fields.push(("error".to_string(), Value::Str(e.clone())));
    }
    Value::Map(fields)
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/result[?wait_ms=N]`.
fn jobs_get(shared: &Arc<Shared>, req: &Request, rest: &str) -> Response {
    let (id_str, tail) = match rest.split_once('/') {
        Some((a, b)) => (a, Some(b)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::error(404, "no such job");
    };
    match tail {
        None => match shared.jobs.snapshot(id) {
            Some(snap) => json_response(200, &job_status_json(&snap)),
            None => Response::error(404, "no such job"),
        },
        Some("result") => {
            let wait_ms = match req.query_param("wait_ms") {
                None => None,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(ms) => Some(ms),
                    Err(_) => {
                        return Response::error(400, "wait_ms must be a non-negative integer")
                    }
                },
            };
            let snap = match wait_ms {
                Some(ms) => {
                    match shared
                        .jobs
                        .wait_terminal(id, Instant::now() + Duration::from_millis(ms))
                    {
                        Ok(Some(snap)) => snap,
                        Ok(None) => return Response::error(404, "no such job"),
                        Err(_) => {
                            return Response::error(504, "deadline exceeded waiting for the job")
                        }
                    }
                }
                None => match shared.jobs.snapshot(id) {
                    Some(snap) => snap,
                    None => return Response::error(404, "no such job"),
                },
            };
            match snap.state {
                JobState::Done => {
                    let result = snap.result.as_deref().unwrap_or("null");
                    Response::json(200, result.to_string() + "\n")
                }
                JobState::Failed => {
                    Response::error(422, snap.error.as_deref().unwrap_or("job failed"))
                }
                JobState::Queued | JobState::Running => json_response(202, &job_status_json(&snap)),
            }
        }
        Some(_) => Response::error(404, "not found"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(
        workers: usize,
        queue_depth: usize,
    ) -> (
        SocketAddr,
        ServerHandle,
        std::thread::JoinHandle<DrainReport>,
    ) {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            cache: CacheMode::Off,
            request_timeout_ms: 60_000,
            read_timeout_ms: 2_000,
            peers: Vec::new(),
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle, join)
    }

    #[test]
    fn serves_health_and_drains_on_shutdown() {
        let (addr, handle, join) = test_server(2, 8);
        let (status, body) =
            crate::loadgen::http_request(&addr.to_string(), "GET", "/health", None, 5_000)
                .expect("health");
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).expect("json");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("version").and_then(Value::as_str), Some(SIM_VERSION));
        assert!(v.get("uptime_ms").and_then(Value::as_u64).is_some());
        // The health request itself is being processed, so it counts.
        assert_eq!(v.get("inflight").and_then(Value::as_u64), Some(1));
        handle.shutdown();
        let report = join.join().expect("join");
        assert_eq!(report.requests, 1);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn routes_errors_without_panicking() {
        let (addr, handle, join) = test_server(1, 8);
        let addr = addr.to_string();
        for (method, path, body, want) in [
            ("GET", "/nope", None, 404),
            ("POST", "/health", None, 405),
            ("GET", "/jobs/999", None, 404),
            ("GET", "/jobs/abc", None, 404),
            ("POST", "/run", Some("{"), 400),
            (
                "POST",
                "/run",
                Some(r#"{"bench": "nope", "scale": "tiny"}"#),
                422,
            ),
            ("POST", "/sweep", Some(r#"{"scenario": "warp9"}"#), 422),
        ] {
            let (status, _) = crate::loadgen::http_request(&addr, method, path, body, 5_000)
                .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
            assert_eq!(status, want, "{method} {path}");
        }
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn runs_a_cell_and_reports_metrics() {
        let (addr, handle, join) = test_server(2, 8);
        let addr = addr.to_string();
        let body = r#"{"bench": "mcf", "scale": "tiny", "config": {"mode": "baseline"}}"#;
        let (status, text) =
            crate::loadgen::http_request(&addr, "POST", "/run", Some(body), 60_000).expect("run");
        assert_eq!(status, 200, "{text}");
        let v: Value = serde_json::from_str(&text).expect("json");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("mcf"));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(false));
        assert!(v.get("stats").is_some());
        let job = v.get("job").and_then(Value::as_u64).expect("job id");

        // The job is observable after the fact, and its stored result is
        // exactly what the synchronous response carried.
        let (status, text) =
            crate::loadgen::http_request(&addr, "GET", &format!("/jobs/{job}/result"), None, 5_000)
                .expect("result");
        assert_eq!(status, 200);
        let stored: Value = serde_json::from_str(&text).expect("json");
        assert_eq!(stored, v);

        let (status, text) =
            crate::loadgen::http_request(&addr, "GET", "/metrics", None, 5_000).expect("metrics");
        assert_eq!(status, 200);
        let m: Value = serde_json::from_str(&text).expect("json");
        let lat = m.get("latency_us").expect("latency");
        assert!(lat.get("count").and_then(Value::as_u64).unwrap() >= 2);
        assert!(
            lat.get("p99").and_then(Value::as_u64).unwrap()
                >= lat.get("p50").and_then(Value::as_u64).unwrap()
        );
        handle.shutdown();
        join.join().expect("join");
    }

    #[test]
    fn peering_migrates_warm_cells_instead_of_recomputing() {
        fn scratch(tag: &str) -> std::path::PathBuf {
            std::env::temp_dir().join(format!("mtvp-serve-peer-{tag}-{}", std::process::id()))
        }
        fn bind_with(cache: std::path::PathBuf, peers: Vec<String>) -> Server {
            Server::bind(ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                queue_depth: 8,
                cache: CacheMode::Disk(cache),
                request_timeout_ms: 60_000,
                read_timeout_ms: 2_000,
                peers,
            })
            .expect("bind")
        }
        let dir_a = scratch("a");
        let dir_b = scratch("b");
        let a = bind_with(dir_a.clone(), Vec::new());
        let addr_a = a.local_addr().expect("addr").to_string();
        let (ha, ja) = (a.handle(), std::thread::spawn(move || a.run()));
        let b = bind_with(dir_b.clone(), vec![addr_a.clone()]);
        let addr_b = b.local_addr().expect("addr").to_string();
        let (hb, jb) = (b.handle(), std::thread::spawn(move || b.run()));

        // Warm worker A with one cell.
        let body = r#"{"bench": "mcf", "scale": "tiny", "config": {"mode": "baseline"}}"#;
        let (status, warm) =
            crate::loadgen::http_request(&addr_a, "POST", "/run", Some(body), 60_000).expect("run");
        assert_eq!(status, 200);
        let warm: Value = serde_json::from_str(&warm).expect("json");

        // The peering endpoint serves the raw cell; garbage hashes 400/404.
        let warm_cfg = mtvp_engine::SimConfig::new(mtvp_engine::Mode::Baseline);
        let key = key_of(&cell_descriptor("mcf", &warm_cfg, Scale::Tiny));
        let path = format!("/cache/cell/{}", key.hex());
        let (status, text) =
            crate::loadgen::http_request(&addr_a, "GET", &path, None, 5_000).expect("cell");
        assert_eq!(status, 200, "{text}");
        let entry: CellEntry = serde_json::from_str(&text).expect("cell json");
        assert_eq!(entry.bench, "mcf");
        let (status, _) =
            crate::loadgen::http_request(&addr_a, "GET", "/cache/cell/zz", None, 5_000)
                .expect("bad hash");
        assert_eq!(status, 400);
        let missing = format!("/cache/cell/{}", "0".repeat(32));
        let (status, _) =
            crate::loadgen::http_request(&addr_a, "GET", &missing, None, 5_000).expect("miss");
        assert_eq!(status, 404);

        // Worker B (cold cache) serves the same cell as a cache hit by
        // fetching it from its peer, with identical stats.
        let (status, text) =
            crate::loadgen::http_request(&addr_b, "POST", "/run", Some(body), 60_000).expect("run");
        assert_eq!(status, 200, "{text}");
        let v: Value = serde_json::from_str(&text).expect("json");
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("stats"), warm.get("stats"));
        let (_, m) =
            crate::loadgen::http_request(&addr_b, "GET", "/metrics", None, 5_000).expect("metrics");
        assert!(m.contains("serve.peer.hits"), "{m}");

        hb.shutdown();
        ha.shutdown();
        jb.join().expect("join").expect("run b");
        ja.join().expect("join").expect("run a");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn async_jobs_complete_via_polling() {
        let (addr, handle, join) = test_server(2, 8);
        let addr = addr.to_string();
        let body =
            r#"{"bench": "mesa", "scale": "tiny", "config": {"mode": "baseline"}, "wait": false}"#;
        let (status, text) =
            crate::loadgen::http_request(&addr, "POST", "/run", Some(body), 5_000).expect("post");
        assert_eq!(status, 202, "{text}");
        let v: Value = serde_json::from_str(&text).expect("json");
        let job = v.get("job").and_then(Value::as_u64).expect("job id");
        let (status, text) = crate::loadgen::http_request(
            &addr,
            "GET",
            &format!("/jobs/{job}/result?wait_ms=60000"),
            None,
            70_000,
        )
        .expect("poll");
        assert_eq!(status, 200, "{text}");
        let r: Value = serde_json::from_str(&text).expect("json");
        assert_eq!(r.get("bench").and_then(Value::as_str), Some("mesa"));
        handle.shutdown();
        join.join().expect("join");
    }
}
