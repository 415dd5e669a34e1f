//! `f2 serve` — a hermetic, zero-dependency HTTP/1.1 experiment service.
//!
//! The one-shot `f2 run` pipeline answers "what does experiment X
//! report"; this module turns that into a long-running daemon that
//! answers it **per request, at scale**:
//!
//! * a hand-rolled HTTP/1.1 front end ([`http`]) over
//!   [`std::net::TcpListener`] — request line + headers +
//!   `Content-Length` bodies, keep-alive connections, hard input limits,
//!   every malformed input answered with a clean 4xx;
//! * a content-addressed result cache ([`cache`]) keyed by
//!   `(experiment, scenario)` via the scenario's stable content hash —
//!   runs are pure functions of their [`crate::scenario::Scenario`], so
//!   repeated queries are O(lookup) and responses are byte-identical
//!   whether computed or replayed, including parameterized scenarios;
//! * a batching dispatcher: connection handlers park their `/run`
//!   requests on a queue, and a single dispatcher drains *everything
//!   pending* per wake-up, coalesces duplicate keys, and fans the misses
//!   out over the work-stealing [`crate::exec::Pool`] — concurrent
//!   traffic batches onto the executor instead of oversubscribing the
//!   machine. Backpressure is structural: each connection blocks on its
//!   own in-flight request, so at most one job per open connection is
//!   ever queued.
//!
//! Endpoints: `GET /healthz`, `GET /experiments`, `GET /metrics`,
//! `GET /debug/recent`, `POST /run` (`{"experiment", "scenario"?: {...}}`;
//! an absent scenario block means [`Scenario::default`]) and
//! `POST /shutdown`. Every `/run` 200 body is
//! `{"schema", "experiment", "scenario", "report"}` with the canonical
//! scenario. `/run` responses carry an `X-F2-Cache: hit|miss` header; the
//! body never encodes cache state, so cached and fresh responses stay
//! bit-identical.
//!
//! Every `/run` is **request-scoped observable**: the server accepts a
//! client trace id via the `X-F2-Trace-Id` header (or mints one) and
//! echoes it on the response — including error responses — so a caller
//! can correlate its request with the structured access log
//! (`--log <path>`, one [`LOG_SCHEMA`] JSONL record per `/run`), the
//! fixed-capacity flight recorder at `GET /debug/recent` (the last
//! [`RECENT_CAPACITY`] records, same record shape) and the per-experiment
//! latency histograms in the [`METRICS_SCHEMA`] document. The trace id
//! lives only in headers and log records, never in the cached body, so
//! cached replays stay bit-identical across different trace ids.

pub mod cache;
pub mod http;

use crate::exec::Pool;
use crate::experiment::{ExperimentCtx, Registry};
use crate::json::{Json, ToJson};
use crate::scenario::Scenario;
use crate::trace;
use cache::{CacheKey, ResultCache};
use http::{Request, Response};

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies the JSON layout of a `/run` response body.
pub const RUN_SCHEMA: &str = "f2-serve-v1";
/// Identifies the JSON layout of the `/metrics` document.
pub const METRICS_SCHEMA: &str = "f2-serve-metrics-v3";
/// Identifies the JSON layout of one access-log / flight-recorder record.
pub const LOG_SCHEMA: &str = "f2-serve-log-v1";
/// Request/response header carrying the request-scoped trace id.
pub const TRACE_HEADER: &str = "X-F2-Trace-Id";
/// How many `/run` records the flight recorder retains.
pub const RECENT_CAPACITY: usize = 64;
/// Largest `threads` value a `/run` request may ask for.
pub const MAX_RUN_THREADS: u64 = 256;

/// Whether `id` is a well-formed trace id the server will accept from a
/// client: 1..=64 ASCII characters drawn from `[A-Za-z0-9._-]`. Anything
/// else (including an absent header) earns a server-minted id.
pub fn valid_trace_id(id: &str) -> bool {
    (1..=64).contains(&id.len())
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Server-minted trace ids: a fixed `f2-` prefix plus a 16-hex-digit
/// per-process sequence number — deterministic format, trivially sortable.
fn mint_trace_id(seq: u64) -> String {
    format!("f2-{seq:016x}")
}

/// Duration in (fractional) milliseconds, the unit of every latency
/// member in metrics and log records.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How a server instance is configured.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` asks the kernel for an ephemeral port (the
    /// bound address is printed to stderr and written to `port_file`).
    pub addr: String,
    /// Worker threads of the batch-execution pool.
    pub threads: usize,
    /// When set, the bound `host:port` is written here after bind — how
    /// scripts discover an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Per-connection read timeout; bounds how long an idle or stalled
    /// client can pin a handler thread (and therefore how long shutdown
    /// can take).
    pub read_timeout: Duration,
    /// When set, every `/run` appends one [`LOG_SCHEMA`] JSONL record
    /// here (truncated at startup). `None` disables the access log —
    /// the zero-cost default.
    pub log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: crate::exec::num_threads(),
            port_file: None,
            read_timeout: Duration::from_secs(30),
            log: None,
        }
    }
}

/// One completed `/run`, as written to the access log and retained by the
/// flight recorder.
#[derive(Debug, Clone)]
struct RequestRecord {
    trace_id: String,
    /// Registry name; empty when the body never parsed far enough to
    /// resolve one (the record still exists so every trace id has a row).
    experiment: String,
    /// The scenario's 16-hex-digit content hash (empty with `experiment`).
    scenario: String,
    /// `X-F2-Cache` outcome (`None` on failures and parse errors).
    cache: Option<&'static str>,
    status: u16,
    /// Enqueue-to-dispatch wait, milliseconds.
    queue_ms: f64,
    /// Experiment execution time, milliseconds (0 on a cache hit).
    run_ms: f64,
    /// Whole request residency, milliseconds.
    total_ms: f64,
}

impl RequestRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), LOG_SCHEMA.to_json()),
            ("trace_id".to_string(), self.trace_id.to_json()),
            ("experiment".to_string(), self.experiment.to_json()),
            ("scenario".to_string(), self.scenario.to_json()),
            (
                "cache".to_string(),
                match self.cache {
                    Some(outcome) => outcome.to_json(),
                    None => Json::Null,
                },
            ),
            ("status".to_string(), u64::from(self.status).to_json()),
            ("queue_ms".to_string(), self.queue_ms.to_json()),
            ("run_ms".to_string(), self.run_ms.to_json()),
            ("total_ms".to_string(), self.total_ms.to_json()),
        ])
    }
}

/// Fixed-capacity ring of the most recent `/run` records. Slots are
/// pre-allocated; a push overwrites the oldest slot in place, so the hot
/// path allocates nothing beyond the record being stored.
struct Ring {
    slots: Vec<Option<RequestRecord>>,
    next: usize,
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![None; capacity],
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, record: RequestRecord) {
        let capacity = self.slots.len();
        self.slots[self.next] = Some(record);
        self.next = (self.next + 1) % capacity;
        self.total += 1;
    }

    /// Retained records, oldest first.
    fn snapshot(&self) -> Vec<RequestRecord> {
        let capacity = self.slots.len();
        (0..capacity)
            .filter_map(|i| self.slots[(self.next + i) % capacity].clone())
            .collect()
    }
}

/// Request-scoped observability state: rolling histograms, per-status
/// counters, the JSONL access log and the flight recorder.
struct Obs {
    /// Per-experiment whole-request latency, milliseconds.
    latency_ms: Mutex<BTreeMap<String, trace::Histogram>>,
    /// Jobs drained per dispatcher wake-up.
    batch_size: Mutex<trace::Histogram>,
    /// Queue length observed at each `/run` enqueue.
    queue_depth: Mutex<trace::Histogram>,
    /// Responses by exact status code (all endpoints).
    status: Mutex<BTreeMap<u16, u64>>,
    /// JSONL access log (`None` when `--log` is unset — the disabled
    /// path pays only this Option check).
    log: Option<Mutex<std::fs::File>>,
    /// Flight recorder behind `GET /debug/recent`.
    recent: Mutex<Ring>,
    /// Mint sequence for server-generated trace ids.
    trace_seq: AtomicU64,
}

impl Obs {
    fn new(log: Option<std::fs::File>) -> Self {
        Self {
            latency_ms: Mutex::new(BTreeMap::new()),
            batch_size: Mutex::new(trace::Histogram::new()),
            queue_depth: Mutex::new(trace::Histogram::new()),
            status: Mutex::new(BTreeMap::new()),
            log: log.map(Mutex::new),
            recent: Mutex::new(Ring::new(RECENT_CAPACITY)),
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Accounts one finished `/run`: latency histogram (when the
    /// experiment resolved), one access-log line, one ring slot.
    fn record(&self, record: RequestRecord) {
        if !record.experiment.is_empty() {
            let mut map = self.latency_ms.lock().unwrap_or_else(|e| e.into_inner());
            map.entry(record.experiment.clone())
                .or_default()
                .observe(record.total_ms);
        }
        if let Some(log) = &self.log {
            let line = record.to_json().encode();
            let mut file = log.lock().unwrap_or_else(|e| e.into_inner());
            // One line per write under the lock: concurrent records never
            // interleave, and a killed server leaves only whole lines.
            let _ = file.write_all(line.as_bytes());
            let _ = file.write_all(b"\n");
        }
        self.recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    fn count_status(&self, status: u16) {
        let mut map = self.status.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(status).or_insert(0) += 1;
    }
}

/// Monotonic service counters, exported by `GET /metrics`.
#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    http_errors: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    runs: AtomicU64,
    run_failures: AtomicU64,
    batches: AtomicU64,
    batched_runs: AtomicU64,
    max_batch: AtomicU64,
}

/// One queued `/run` awaiting the dispatcher.
struct Job {
    key: CacheKey,
    /// When the job entered the queue (queue-latency measurement).
    enqueued: Instant,
    reply: mpsc::Sender<Reply>,
}

/// A request waiting on a coalesced miss: its reply channel and queue
/// latency.
type Waiter = (mpsc::Sender<Reply>, f64);

/// What the dispatcher hands back to a waiting connection handler.
#[derive(Clone)]
struct Reply {
    status: u16,
    body: Arc<Vec<u8>>,
    /// `X-F2-Cache` header value (`None` on failures).
    cache: Option<&'static str>,
    /// Enqueue-to-dispatch wait, milliseconds.
    queue_ms: f64,
    /// Experiment execution time, milliseconds (0 on a hit).
    run_ms: f64,
}

/// State shared by the accept loop, connection handlers and dispatcher.
struct Shared {
    registry: Registry,
    pool: Pool,
    cache: ResultCache<Arc<Vec<u8>>>,
    queue: Mutex<Vec<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    addr: SocketAddr,
    stats: Stats,
    obs: Obs,
    started: Instant,
}

/// A running server: the bound address plus the accept/dispatch threads.
/// Dropping the handle shuts the server down and joins its threads;
/// [`ServerHandle::join`] does the same but surfaces thread panics.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatch: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates shutdown: stops accepting, lets in-flight requests
    /// finish, drains the queue. Idempotent; `POST /shutdown` calls the
    /// same path.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until the server shuts down on its own (a `POST /shutdown`
    /// or an earlier [`ServerHandle::shutdown`]) and joins the server
    /// threads — the daemon path of `f2 serve`. Unlike
    /// [`ServerHandle::join`], this does **not** initiate shutdown.
    ///
    /// # Errors
    ///
    /// Reports a server thread that exited by panic.
    pub fn wait(mut self) -> Result<(), String> {
        self.join_threads()
    }

    /// Shuts down (if not already) and joins the server threads.
    ///
    /// # Errors
    ///
    /// Reports a server thread that exited by panic.
    pub fn join(mut self) -> Result<(), String> {
        initiate_shutdown(&self.shared);
        self.join_threads()
    }

    fn join_threads(&mut self) -> Result<(), String> {
        for (name, handle) in [
            ("accept", self.accept.take()),
            ("dispatch", self.dispatch.take()),
        ] {
            if let Some(handle) = handle {
                handle
                    .join()
                    .map_err(|_| format!("server {name} thread panicked"))?;
            }
        }
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        initiate_shutdown(&self.shared);
        for handle in [self.accept.take(), self.dispatch.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

/// Binds the listener and starts the server threads.
///
/// # Errors
///
/// Propagates bind/port-file IO failures.
pub fn start(registry: Registry, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if let Some(path) = &config.port_file {
        std::fs::write(path, format!("{addr}\n"))?;
    }
    let log = match &config.log {
        Some(path) => Some(std::fs::File::create(path)?),
        None => None,
    };
    eprintln!(
        "f2 serve: listening on {addr} ({} experiment(s), {} pool worker(s){})",
        registry.entries().len(),
        config.threads,
        match &config.log {
            Some(path) => format!(", access log {}", path.display()),
            None => String::new(),
        }
    );
    let shared = Arc::new(Shared {
        registry,
        pool: Pool::new(config.threads),
        cache: ResultCache::default(),
        queue: Mutex::new(Vec::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        addr,
        stats: Stats::default(),
        obs: Obs::new(log),
        started: Instant::now(),
    });
    let dispatch = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatch_loop(&shared))
    };
    let accept = {
        let shared = Arc::clone(&shared);
        let read_timeout = config.read_timeout;
        std::thread::spawn(move || accept_loop(&listener, &shared, read_timeout))
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        dispatch: Some(dispatch),
    })
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue_cv.notify_all();
    // Unblock the accept loop: it re-checks the flag per accepted
    // connection, so one self-connection wakes it.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, read_timeout: Duration) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &shared);
                }));
                // Reap finished handlers so the vec stays bounded by the
                // number of *open* connections.
                handlers.retain(|h| !h.is_finished());
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(e) => eprintln!("f2 serve: accept error: {e}"),
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match http::parse_request(&mut reader) {
            Ok(req) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let resp = route(&req, shared);
                let class = match resp.status {
                    200..=299 => &shared.stats.responses_2xx,
                    400..=499 => &shared.stats.responses_4xx,
                    _ => &shared.stats.responses_5xx,
                };
                class.fetch_add(1, Ordering::Relaxed);
                shared.obs.count_status(resp.status);
                // Evaluated after routing so a `/shutdown` (or any
                // concurrent shutdown) also closes this connection.
                let keep_alive = req.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                if resp.write(reader.get_mut(), keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(e) => {
                if let Some(status) = e.status() {
                    shared.stats.http_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = Response::error(status, &e.to_string()).write(reader.get_mut(), false);
                }
                return;
            }
        }
    }
}

fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/experiments") => experiments(shared),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/debug/recent") => debug_recent(shared),
        ("POST", "/run") => run_request(req, shared),
        ("POST", "/shutdown") => {
            initiate_shutdown(shared);
            Response::json(200, "{\"status\":\"shutting-down\"}")
        }
        (_, "/healthz" | "/experiments" | "/metrics" | "/debug/recent") => {
            Response::error(405, &format!("{} requires GET", req.path))
        }
        (_, "/run" | "/shutdown") => Response::error(405, &format!("{} requires POST", req.path)),
        (_, path) => Response::error(404, &format!("no route for {path}")),
    }
}

fn healthz(shared: &Shared) -> Response {
    let doc = Json::Obj(vec![
        ("status".to_string(), "ok".to_json()),
        (
            "experiments".to_string(),
            shared.registry.entries().len().to_json(),
        ),
        (
            "uptime_ms".to_string(),
            (shared.started.elapsed().as_millis() as u64).to_json(),
        ),
    ]);
    Response::json(200, doc.encode())
}

fn experiments(shared: &Shared) -> Response {
    let entries: Vec<Json> = shared
        .registry
        .entries()
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("name".to_string(), e.name().to_json()),
                ("summary".to_string(), e.summary().to_json()),
                (
                    "tags".to_string(),
                    Json::Arr(e.tags().iter().map(|t| t.to_json()).collect()),
                ),
            ])
        })
        .collect();
    Response::json(200, Json::Arr(entries).encode())
}

/// Renders a histogram as the quantile block the v2 metrics document
/// uses. `min`/`max` are gated on `count` because the empty-histogram
/// sentinels (±infinity) are not JSON-encodable.
fn histogram_json(h: &trace::Histogram) -> Json {
    let empty = h.count == 0;
    Json::Obj(vec![
        ("count".to_string(), h.count.to_json()),
        ("mean".to_string(), h.mean().to_json()),
        (
            "min".to_string(),
            (if empty { 0.0 } else { h.min }).to_json(),
        ),
        (
            "max".to_string(),
            (if empty { 0.0 } else { h.max }).to_json(),
        ),
        ("p50".to_string(), h.quantile(0.5).to_json()),
        ("p90".to_string(), h.quantile(0.9).to_json()),
        ("p99".to_string(), h.quantile(0.99).to_json()),
    ])
}

fn metrics(shared: &Shared) -> Response {
    let s = &shared.stats;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed).to_json();
    let latency: Vec<(String, Json)> = {
        let map = shared
            .obs
            .latency_ms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, h)| (name.clone(), histogram_json(h)))
            .collect()
    };
    let status_counts: Vec<(String, Json)> = {
        let map = shared.obs.status.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(code, count)| (code.to_string(), count.to_json()))
            .collect()
    };
    let batch_hist = {
        let h = shared
            .obs
            .batch_size
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        histogram_json(&h)
    };
    let queue_hist = {
        let h = shared
            .obs
            .queue_depth
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        histogram_json(&h)
    };
    let doc = Json::Obj(vec![
        ("schema".to_string(), METRICS_SCHEMA.to_json()),
        (
            "uptime_ms".to_string(),
            (shared.started.elapsed().as_millis() as u64).to_json(),
        ),
        ("connections".to_string(), load(&s.connections)),
        ("requests_total".to_string(), load(&s.requests)),
        ("http_errors".to_string(), load(&s.http_errors)),
        (
            "responses".to_string(),
            Json::Obj(vec![
                ("ok_2xx".to_string(), load(&s.responses_2xx)),
                ("client_error_4xx".to_string(), load(&s.responses_4xx)),
                ("server_error_5xx".to_string(), load(&s.responses_5xx)),
            ]),
        ),
        ("status_counts".to_string(), Json::Obj(status_counts)),
        (
            "runs".to_string(),
            Json::Obj(vec![
                ("total".to_string(), load(&s.runs)),
                ("failed".to_string(), load(&s.run_failures)),
            ]),
        ),
        ("latency_ms".to_string(), Json::Obj(latency)),
        (
            "batch".to_string(),
            Json::Obj(vec![
                ("count".to_string(), load(&s.batches)),
                ("runs".to_string(), load(&s.batched_runs)),
                ("max_size".to_string(), load(&s.max_batch)),
                ("size_hist".to_string(), batch_hist),
            ]),
        ),
        (
            "queue".to_string(),
            Json::Obj(vec![("depth_hist".to_string(), queue_hist)]),
        ),
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("entries".to_string(), shared.cache.len().to_json()),
                ("hits".to_string(), shared.cache.hits().to_json()),
                ("misses".to_string(), shared.cache.misses().to_json()),
                ("hit_rate".to_string(), shared.cache.hit_rate().to_json()),
            ]),
        ),
    ]);
    Response::json(200, doc.encode())
}

/// `GET /debug/recent` — the flight recorder: the last
/// [`RECENT_CAPACITY`] `/run` records (oldest first), each in the same
/// [`LOG_SCHEMA`] shape as an access-log line.
fn debug_recent(shared: &Shared) -> Response {
    let (records, total) = {
        let ring = shared.obs.recent.lock().unwrap_or_else(|e| e.into_inner());
        (ring.snapshot(), ring.total)
    };
    let doc = Json::Obj(vec![
        ("capacity".to_string(), RECENT_CAPACITY.to_json()),
        ("seen".to_string(), total.to_json()),
        (
            "records".to_string(),
            Json::Arr(records.iter().map(RequestRecord::to_json).collect()),
        ),
    ]);
    Response::json(200, doc.encode())
}

/// Parses and validates a `/run` body into a cache key; the error side is
/// the 4xx response to send back. The body holds the `experiment` name and
/// an optional `scenario` block (absent means [`Scenario::default`]);
/// scenario params must be dimensions the target experiment declares.
fn parse_run_body(body: &[u8], registry: &Registry) -> Result<CacheKey, Box<Response>> {
    let err = |status: u16, msg: &str| Err(Box::new(Response::error(status, msg)));
    let Ok(text) = std::str::from_utf8(body) else {
        return err(400, "body must be UTF-8 JSON");
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return err(400, &format!("invalid JSON body: {e}")),
    };
    let Json::Obj(members) = &doc else {
        return err(400, "body must be a JSON object");
    };
    for (name, _) in members {
        if !matches!(name.as_str(), "experiment" | "scenario") {
            return err(
                400,
                &format!("unknown member `{name}`; a body holds `experiment` and `scenario`"),
            );
        }
    }
    let Some(experiment) = doc.get("experiment").and_then(Json::as_str) else {
        return err(400, "missing `experiment` string member");
    };
    let Some(exp) = registry.find(experiment) else {
        return err(404, &format!("unknown experiment `{experiment}`"));
    };
    let scenario = match doc.get("scenario").map(Scenario::from_json) {
        None => Scenario::default(),
        Some(Ok(s)) => s,
        Some(Err(e)) => return err(400, &format!("invalid `scenario`: {e}")),
    };
    if scenario.threads as u64 > MAX_RUN_THREADS {
        return err(
            400,
            &format!("`threads` must be an integer in 1..={MAX_RUN_THREADS}"),
        );
    }
    let declared = exp.params();
    for (key, _) in scenario.params() {
        if !declared.iter().any(|p| p.name == key) {
            return err(
                400,
                &format!("experiment `{experiment}` has no param `{key}`"),
            );
        }
    }
    Ok(CacheKey {
        experiment: experiment.to_string(),
        scenario,
    })
}

fn run_request(req: &Request, shared: &Arc<Shared>) -> Response {
    let start = Instant::now();
    // Accept a well-formed client trace id, mint one otherwise; every
    // `/run` response — success or failure — echoes it back.
    let trace_id = match req.header(TRACE_HEADER) {
        Some(id) if valid_trace_id(id) => id.to_string(),
        _ => mint_trace_id(shared.obs.trace_seq.fetch_add(1, Ordering::Relaxed)),
    };
    let finish = |experiment: String, scenario: String, reply: &Reply| {
        shared.obs.record(RequestRecord {
            trace_id: trace_id.clone(),
            experiment,
            scenario,
            cache: reply.cache,
            status: reply.status,
            queue_ms: reply.queue_ms,
            run_ms: reply.run_ms,
            total_ms: ms(start.elapsed()),
        });
    };
    let rejected = |status: u16| Reply {
        status,
        body: Arc::new(Vec::new()),
        cache: None,
        queue_ms: 0.0,
        run_ms: 0.0,
    };
    let key = match parse_run_body(&req.body, &shared.registry) {
        Ok(key) => key,
        Err(resp) => {
            // The body never resolved to an experiment; the record still
            // lands so every echoed trace id has a log row.
            finish(String::new(), String::new(), &rejected(resp.status));
            return resp.with_header(TRACE_HEADER, &trace_id);
        }
    };
    let experiment = key.experiment.clone();
    let scenario_hash = key.scenario.content_hash_hex();
    shared.stats.runs.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::SeqCst) {
            finish(experiment, scenario_hash, &rejected(503));
            return Response::error(503, "server is shutting down")
                .with_header(TRACE_HEADER, &trace_id);
        }
        queue.push(Job {
            key,
            enqueued: Instant::now(),
            reply: tx,
        });
        let depth = queue.len() as f64;
        drop(queue);
        shared
            .obs
            .queue_depth
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(depth);
    }
    shared.queue_cv.notify_one();
    match rx.recv() {
        Ok(reply) => {
            if reply.status >= 500 {
                shared.stats.run_failures.fetch_add(1, Ordering::Relaxed);
            }
            finish(experiment, scenario_hash, &reply);
            let mut resp = Response::json(reply.status, reply.body.as_slice().to_vec());
            if let Some(outcome) = reply.cache {
                resp = resp.with_header("X-F2-Cache", outcome);
            }
            resp.with_header(TRACE_HEADER, &trace_id)
        }
        Err(_) => {
            shared.stats.run_failures.fetch_add(1, Ordering::Relaxed);
            finish(experiment, scenario_hash, &rejected(503));
            Response::error(503, "server is shutting down").with_header(TRACE_HEADER, &trace_id)
        }
    }
}

/// The batching dispatcher: drains *all* pending jobs per wake-up,
/// serves hits immediately, coalesces duplicate keys and fans the misses
/// out over the pool in one batch.
fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
            if queue.is_empty() {
                // Shutdown with nothing pending; handlers reject new jobs
                // under the same lock, so nothing can race in after this.
                return;
            }
            std::mem::take(&mut *queue)
        };
        let drained = Instant::now();
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .batched_runs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared
            .stats
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        shared
            .obs
            .batch_size
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(batch.len() as f64);

        // Hits answer immediately; misses coalesce per key, each waiter
        // keeping its own queue latency.
        let mut pending: Vec<(CacheKey, Vec<Waiter>)> = Vec::new();
        for job in batch {
            let queue_ms = ms(drained.saturating_duration_since(job.enqueued));
            if let Some(body) = shared.cache.get(&job.key) {
                let _ = job.reply.send(Reply {
                    status: 200,
                    body,
                    cache: Some("hit"),
                    queue_ms,
                    run_ms: 0.0,
                });
            } else {
                let waiter = (job.reply, queue_ms);
                match pending.iter_mut().find(|(key, _)| *key == job.key) {
                    Some((_, waiters)) => waiters.push(waiter),
                    None => pending.push((job.key, vec![waiter])),
                }
            }
        }
        if pending.is_empty() {
            continue;
        }
        let results = shared.pool.map(&pending, |(key, _)| {
            let started = Instant::now();
            (run_experiment(&shared.registry, key), ms(started.elapsed()))
        });
        for ((key, waiters), (result, run_ms)) in pending.into_iter().zip(results) {
            let reply = match result {
                Ok(body) => {
                    let body = Arc::new(body);
                    shared.cache.insert(key, Arc::clone(&body));
                    Reply {
                        status: 200,
                        body,
                        cache: Some("miss"),
                        queue_ms: 0.0,
                        run_ms,
                    }
                }
                Err(message) => Reply {
                    status: 500,
                    body: Arc::new(
                        Json::Obj(vec![("error".to_string(), message.to_json())])
                            .encode()
                            .into_bytes(),
                    ),
                    cache: None,
                    queue_ms: 0.0,
                    run_ms,
                },
            };
            for (waiter, queue_ms) in waiters {
                let _ = waiter.send(Reply {
                    queue_ms,
                    ..reply.clone()
                });
            }
        }
    }
}

/// Runs one experiment for the dispatcher. Panics are caught per item so
/// a misbehaving experiment earns its waiters a 500 instead of killing
/// the dispatcher (or the whole pool batch).
fn run_experiment(registry: &Registry, key: &CacheKey) -> Result<Vec<u8>, String> {
    let Some(exp) = registry.find(&key.experiment) else {
        // Routed before enqueueing; defensive for registry changes.
        return Err(format!("unknown experiment `{}`", key.experiment));
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ctx = ExperimentCtx::quiet_scenario(&key.scenario);
        exp.run(&mut ctx)
    }));
    match outcome {
        Ok(Ok(report)) => Ok(Json::Obj(vec![
            ("schema".to_string(), RUN_SCHEMA.to_json()),
            ("experiment".to_string(), key.experiment.to_json()),
            ("scenario".to_string(), key.scenario.to_json()),
            ("report".to_string(), report.to_json()),
        ])
        .encode()
        .into_bytes()),
        Ok(Err(e)) => Err(format!("experiment `{}` failed: {e}", key.experiment)),
        Err(_) => Err(format!("experiment `{}` panicked", key.experiment)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentReport, ParamSpec};
    use std::io::Write;

    /// Deterministic fixture: KPIs derived from the run seed and the one
    /// declared scenario param.
    struct EchoSeed;

    impl Experiment for EchoSeed {
        fn name(&self) -> &'static str {
            "echo_seed"
        }
        fn summary(&self) -> &'static str {
            "serve test fixture"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["serve-test"]
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![ParamSpec::f64("scale", "multiplier on the seed KPI")]
        }
        fn run(&self, ctx: &mut ExperimentCtx) -> crate::Result<ExperimentReport> {
            let scale = ctx.param_f64("scale", 1.0);
            ctx.kpi("seed", ctx.seed() as f64 * scale);
            ctx.kpi("draw", f64::from(ctx.rng_for("echo").next_u32()));
            Ok(ctx.report(self.name()))
        }
    }

    /// Fixture that panics — must earn a 500, not kill the server.
    struct Boom;

    impl Experiment for Boom {
        fn name(&self) -> &'static str {
            "boom"
        }
        fn summary(&self) -> &'static str {
            "panics"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["serve-test"]
        }
        fn run(&self, _ctx: &mut ExperimentCtx) -> crate::Result<ExperimentReport> {
            panic!("boom fixture always panics");
        }
    }

    /// Fixture that fails cleanly.
    struct Fails;

    impl Experiment for Fails {
        fn name(&self) -> &'static str {
            "fails"
        }
        fn summary(&self) -> &'static str {
            "errors"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["serve-test"]
        }
        fn run(&self, _ctx: &mut ExperimentCtx) -> crate::Result<ExperimentReport> {
            Err(crate::CoreError::InvalidParameter {
                name: "fixture".to_string(),
                reason: "always fails".to_string(),
            })
        }
    }

    fn test_server() -> ServerHandle {
        let mut registry = Registry::new();
        registry.register(Box::new(EchoSeed));
        registry.register(Box::new(Boom));
        registry.register(Box::new(Fails));
        start(
            registry,
            ServeConfig {
                threads: 2,
                read_timeout: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback")
    }

    /// One round-trip on a fresh connection.
    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Response {
        let mut client = connect(addr);
        request(&mut client, method, path, body)
    }

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("server is listening");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("socket option");
        BufReader::new(stream)
    }

    fn request(
        client: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Response {
        http::write_request(client.get_mut(), method, path, "test", body).expect("request sent");
        http::parse_response(client).expect("response parses")
    }

    fn parse_body(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("well-formed body")
    }

    /// A `/run` body for `echo_seed` at `seed`, every other scenario
    /// member at its default.
    fn seed_body(seed: u64) -> Vec<u8> {
        format!("{{\"experiment\":\"echo_seed\",\"scenario\":{{\"seed\":{seed}}}}}").into_bytes()
    }

    #[test]
    fn healthz_experiments_and_metrics_endpoints() {
        let server = test_server();
        let addr = server.addr();

        let health = roundtrip(addr, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        let doc = parse_body(&health);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("experiments").and_then(Json::as_f64), Some(3.0));

        let list = roundtrip(addr, "GET", "/experiments", b"");
        let listed = parse_body(&list);
        let names: Vec<&str> = listed
            .as_array()
            .expect("array")
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["echo_seed", "boom", "fails"]);

        let metrics = roundtrip(addr, "GET", "/metrics", b"");
        let doc = parse_body(&metrics);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(METRICS_SCHEMA)
        );
        assert!(doc.get("cache").and_then(|c| c.get("entries")).is_some());
        server.join().expect("clean join");
    }

    #[test]
    fn run_computes_then_replays_bit_identically_from_cache() {
        let server = test_server();
        let addr = server.addr();
        let body = &seed_body(5);

        let first = roundtrip(addr, "POST", "/run", body);
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-f2-cache"), Some("miss"));
        let doc = parse_body(&first);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RUN_SCHEMA));
        let scenario = doc.get("scenario").expect("scenario member");
        assert_eq!(scenario.get("seed").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            scenario.get("fidelity").and_then(Json::as_str),
            Some("quick")
        );
        assert!(doc.get("seed").is_none() && doc.get("quick").is_none());
        let kpi_seed = doc
            .get("report")
            .and_then(|r| r.get("kpis"))
            .and_then(Json::as_array)
            .and_then(|k| k[0].get("value"))
            .and_then(Json::as_f64);
        assert_eq!(kpi_seed, Some(5.0));

        let second = roundtrip(addr, "POST", "/run", body);
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-f2-cache"), Some("hit"));
        assert_eq!(
            second.body, first.body,
            "cached replay must be bit-identical"
        );

        // A different seed is a different key and a different body.
        let other = roundtrip(addr, "POST", "/run", &seed_body(6));
        assert_eq!(other.header("x-f2-cache"), Some("miss"));
        assert_ne!(other.body, first.body);

        // The metrics document reflects the cache traffic.
        let metrics = parse_body(&roundtrip(addr, "GET", "/metrics", b""));
        let cache = metrics.get("cache").expect("cache block");
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(2.0));

        // An absent scenario block is the default scenario: one key.
        let bare = roundtrip(addr, "POST", "/run", br#"{"experiment":"echo_seed"}"#);
        let empty = roundtrip(
            addr,
            "POST",
            "/run",
            br#"{"experiment":"echo_seed","scenario":{}}"#,
        );
        assert_eq!(bare.header("x-f2-cache"), Some("miss"));
        assert_eq!(empty.header("x-f2-cache"), Some("hit"));
        assert_eq!(empty.body, bare.body);
        server.join().expect("clean join");
    }

    #[test]
    fn parameterized_scenario_runs_compute_and_replay_bit_identically() {
        let server = test_server();
        let addr = server.addr();
        let body = br#"{"experiment":"echo_seed","scenario":{"seed":5,"params":{"scale":3}}}"#;

        let first = roundtrip(addr, "POST", "/run", body);
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-f2-cache"), Some("miss"));
        let doc = parse_body(&first);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RUN_SCHEMA));
        // The seed lives in the canonical scenario, never at top level.
        assert!(doc.get("seed").is_none());
        let scenario = doc.get("scenario").expect("scenario member");
        assert_eq!(scenario.get("seed").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            scenario
                .get("params")
                .and_then(|p| p.get("scale"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        let kpi_seed = doc
            .get("report")
            .and_then(|r| r.get("kpis"))
            .and_then(Json::as_array)
            .and_then(|k| k[0].get("value"))
            .and_then(Json::as_f64);
        assert_eq!(kpi_seed, Some(15.0), "scale param reached the experiment");

        let second = roundtrip(addr, "POST", "/run", body);
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-f2-cache"), Some("hit"));
        assert_eq!(
            second.body, first.body,
            "cached parameterized replay must be bit-identical"
        );
        server.join().expect("clean join");
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = test_server();
        let mut client = connect(server.addr());
        for seed in 0..5u64 {
            let resp = request(&mut client, "POST", "/run", &seed_body(seed));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("connection"), Some("keep-alive"));
        }
        let resp = request(&mut client, "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        server.join().expect("clean join");
    }

    #[test]
    fn malformed_inputs_earn_clean_4xx_responses() {
        let server = test_server();
        let addr = server.addr();

        // Raw protocol garbage on the wire: answered with a 400, not a
        // dropped connection or a panic.
        let mut client = connect(addr);
        client
            .get_mut()
            .write_all(b"THIS IS NOT HTTP\r\n\r\n")
            .expect("written");
        let resp = http::parse_response(&mut client).expect("error response parses");
        assert_eq!(resp.status, 400);

        for (body, want) in [
            (&b"{not json"[..], 400),
            (b"[1,2,3]", 400),
            (br#"{"experiment":"echo_seed","sed":1}"#, 400),
            (br#"{"experiment":"no_such_experiment"}"#, 404),
            (br#"{"scenario":{"seed":1}}"#, 400),
            // The run configuration lives only in the `scenario` block:
            // top-level `seed`/`quick`/`threads` are unknown members.
            (br#"{"experiment":"echo_seed","seed":1}"#, 400),
            (br#"{"experiment":"echo_seed","quick":true}"#, 400),
            (br#"{"experiment":"echo_seed","threads":1}"#, 400),
            (
                br#"{"experiment":"echo_seed","scenario":{"seed":1},"seed":1}"#,
                400,
            ),
            // Scenario-block validation: the block must be a valid
            // scenario, within the thread cap, with params the
            // experiment declares.
            (br#"{"experiment":"echo_seed","scenario":{"seed":-1}}"#, 400),
            (
                br#"{"experiment":"echo_seed","scenario":{"seed":1.5}}"#,
                400,
            ),
            (
                br#"{"experiment":"echo_seed","scenario":{"fidelity":"yes"}}"#,
                400,
            ),
            (
                br#"{"experiment":"echo_seed","scenario":{"threads":0}}"#,
                400,
            ),
            (
                br#"{"experiment":"echo_seed","scenario":{"threads":100000}}"#,
                400,
            ),
            (
                br#"{"experiment":"echo_seed","scenario":{"params":{"nope":1}}}"#,
                400,
            ),
            (br#"{"experiment":"echo_seed","scenario":[1]}"#, 400),
            (br#"{"experiment":"echo_seed","scenario":{"sed":1}}"#, 400),
        ] {
            let resp = roundtrip(addr, "POST", "/run", body);
            assert_eq!(
                resp.status,
                want,
                "body {:?}",
                String::from_utf8_lossy(body)
            );
            assert!(parse_body(&resp).get("error").is_some());
        }

        // Fidelity is "quick" or "full"; a `{"scale": x}` object is
        // refused, and the refusal echoes the client's trace id.
        let mut client = connect(addr);
        let resp = traced_request(
            &mut client,
            "POST",
            "/run",
            "scale-id",
            br#"{"experiment":"echo_seed","scenario":{"fidelity":{"scale":0.5}}}"#,
        );
        assert_eq!(resp.status, 400);
        assert_eq!(resp.header("x-f2-trace-id"), Some("scale-id"));
        let doc = parse_body(&resp);
        let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("fidelity"), "{error}");

        assert_eq!(roundtrip(addr, "GET", "/run", b"").status, 405);
        assert_eq!(roundtrip(addr, "PATCH", "/healthz", b"").status, 405);
        assert_eq!(roundtrip(addr, "GET", "/nope", b"").status, 404);

        // The server is still healthy after all that abuse.
        assert_eq!(roundtrip(addr, "GET", "/healthz", b"").status, 200);
        server.join().expect("clean join");
    }

    #[test]
    fn failing_and_panicking_experiments_earn_500_and_leave_the_server_alive() {
        let server = test_server();
        let addr = server.addr();
        let failed = roundtrip(addr, "POST", "/run", br#"{"experiment":"fails"}"#);
        assert_eq!(failed.status, 500);
        assert!(parse_body(&failed).get("error").is_some());

        let boomed = roundtrip(addr, "POST", "/run", br#"{"experiment":"boom"}"#);
        assert_eq!(boomed.status, 500);

        // Failures are not cached; the next healthy request still works.
        let ok = roundtrip(addr, "POST", "/run", br#"{"experiment":"echo_seed"}"#);
        assert_eq!(ok.status, 200);
        let metrics = parse_body(&roundtrip(addr, "GET", "/metrics", b""));
        let runs = metrics.get("runs").expect("runs block");
        assert_eq!(runs.get("failed").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            metrics
                .get("cache")
                .and_then(|c| c.get("entries"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        server.join().expect("clean join");
    }

    #[test]
    fn concurrent_identical_and_distinct_requests_are_consistent() {
        let server = test_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = connect(addr);
                    let mut bodies = Vec::new();
                    for k in 0..6u64 {
                        let seed = k % 3; // identical across client threads
                        let resp = request(&mut client, "POST", "/run", &seed_body(seed));
                        assert_eq!(resp.status, 200, "client {i}");
                        bodies.push((seed, resp.body));
                    }
                    bodies
                })
            })
            .collect();
        let mut canonical: std::collections::HashMap<u64, Vec<u8>> =
            std::collections::HashMap::new();
        for t in threads {
            for (seed, body) in t.join().expect("client thread") {
                let entry = canonical.entry(seed).or_insert_with(|| body.clone());
                assert_eq!(*entry, body, "all responses for one key are bit-identical");
            }
        }
        assert_eq!(canonical.len(), 3);
        let metrics = parse_body(&roundtrip(addr, "GET", "/metrics", b""));
        let cache = metrics.get("cache").expect("cache block");
        let hits = cache.get("hits").and_then(Json::as_f64).expect("hits");
        let misses = cache.get("misses").and_then(Json::as_f64).expect("misses");
        assert_eq!(hits + misses, 48.0, "one counted lookup per /run");
        assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(3.0));
        server.join().expect("clean join");
    }

    #[test]
    fn shutdown_endpoint_stops_the_server_cleanly() {
        let server = test_server();
        let addr = server.addr();
        let resp = roundtrip(addr, "POST", "/shutdown", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
        server.join().expect("clean join");
        // The listener is gone: a fresh connection must fail (the socket
        // may accept briefly on some platforms, so poll for refusal).
        let refused = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            TcpStream::connect(addr).is_err()
        });
        assert!(refused, "listener must stop accepting after shutdown");
    }

    #[test]
    fn port_file_records_the_bound_address() {
        let path = std::env::temp_dir().join("f2-serve-port-test.txt");
        let _ = std::fs::remove_file(&path);
        let mut registry = Registry::new();
        registry.register(Box::new(EchoSeed));
        let server = start(
            registry,
            ServeConfig {
                port_file: Some(path.clone()),
                threads: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback");
        let written = std::fs::read_to_string(&path).expect("port file written");
        assert_eq!(written.trim(), server.addr().to_string());
        server.join().expect("clean join");
        let _ = std::fs::remove_file(&path);
    }

    /// A request with an explicit `X-F2-Trace-Id` header.
    fn traced_request(
        client: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
        trace_id: &str,
        body: &[u8],
    ) -> Response {
        http::write_request_with_headers(
            client.get_mut(),
            method,
            path,
            "test",
            &[(TRACE_HEADER, trace_id)],
            body,
        )
        .expect("request sent");
        http::parse_response(client).expect("response parses")
    }

    #[test]
    fn run_responses_echo_client_trace_ids_and_mint_missing_ones() {
        let server = test_server();
        let addr = server.addr();
        let body = &seed_body(9);

        // A well-formed client id is echoed verbatim.
        let mut client = connect(addr);
        let resp = traced_request(&mut client, "POST", "/run", "client-id_1.a", body);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-f2-trace-id"), Some("client-id_1.a"));

        // No header: the server mints a deterministic-format id.
        let minted = roundtrip(addr, "POST", "/run", body);
        let id = minted.header("x-f2-trace-id").expect("minted id");
        assert!(id.starts_with("f2-"), "minted id {id:?}");
        assert_eq!(id.len(), 3 + 16);
        assert!(id[3..].bytes().all(|b| b.is_ascii_hexdigit()));

        // A malformed header value is replaced by a minted id.
        let mut client = connect(addr);
        let resp = traced_request(&mut client, "POST", "/run", "bad id with spaces", body);
        let replaced = resp.header("x-f2-trace-id").expect("minted replacement");
        assert!(replaced.starts_with("f2-"));

        // Error responses carry the id too.
        let mut client = connect(addr);
        let resp = traced_request(&mut client, "POST", "/run", "err-id", b"{not json");
        assert_eq!(resp.status, 400);
        assert_eq!(resp.header("x-f2-trace-id"), Some("err-id"));

        // The id never enters the body: two different ids on the same
        // key replay bit-identically (one miss, one hit).
        let mut client = connect(addr);
        let a = traced_request(&mut client, "POST", "/run", "id-aaa", body);
        let b = traced_request(&mut client, "POST", "/run", "id-bbb", body);
        assert_eq!(a.body, b.body, "trace id must not perturb the body");
        server.join().expect("clean join");
    }

    #[test]
    fn valid_trace_id_accepts_the_documented_alphabet() {
        assert!(valid_trace_id("a"));
        assert!(valid_trace_id("f2-0000000000000001"));
        assert!(valid_trace_id("A-Z_0.9"));
        assert!(valid_trace_id(&"x".repeat(64)));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(65)));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("semi;colon"));
        assert!(!valid_trace_id("non-ascii-é"));
    }

    #[test]
    fn ring_retains_the_newest_records_in_order() {
        let mut ring = Ring::new(4);
        let record = |i: u64| RequestRecord {
            trace_id: format!("t{i}"),
            experiment: "e".to_string(),
            scenario: String::new(),
            cache: None,
            status: 200,
            queue_ms: 0.0,
            run_ms: 0.0,
            total_ms: i as f64,
        };
        assert!(ring.snapshot().is_empty());
        for i in 0..6 {
            ring.push(record(i));
        }
        assert_eq!(ring.total, 6);
        let ids: Vec<String> = ring.snapshot().iter().map(|r| r.trace_id.clone()).collect();
        assert_eq!(ids, vec!["t2", "t3", "t4", "t5"], "oldest two evicted");
    }

    /// Satellite: `/metrics` v2 under concurrent load — per-experiment
    /// histogram counts and status counters sum exactly to the requests
    /// issued.
    #[test]
    fn concurrent_load_sums_exactly_into_metrics_v2() {
        const CLIENTS: u64 = 6;
        const PER_CLIENT: u64 = 8;
        let server = test_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = connect(addr);
                    for k in 0..PER_CLIENT {
                        let resp = request(&mut client, "POST", "/run", &seed_body(k % 4));
                        assert_eq!(resp.status, 200, "client {i}");
                        assert!(resp.header("x-f2-trace-id").is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        let total = CLIENTS * PER_CLIENT;
        let metrics = parse_body(&roundtrip(addr, "GET", "/metrics", b""));
        assert_eq!(
            metrics.get("schema").and_then(Json::as_str),
            Some(METRICS_SCHEMA)
        );
        // Latency histograms: every /run shows up under its experiment.
        let latency = metrics.get("latency_ms").expect("latency block");
        let hist = latency.get("echo_seed").expect("per-experiment histogram");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(total as f64));
        let (p50, p99) = (
            hist.get("p50").and_then(Json::as_f64).expect("p50"),
            hist.get("p99").and_then(Json::as_f64).expect("p99"),
        );
        assert!(p50 >= 0.0 && p50 <= p99, "p50={p50} p99={p99}");
        assert!(
            hist.get("max").and_then(Json::as_f64).expect("max") >= p99,
            "quantiles bounded by max"
        );
        // Status counters: exactly one 200 per issued request (the
        // /metrics fetch itself is counted after rendering).
        let status = metrics.get("status_counts").expect("status block");
        assert_eq!(status.get("200").and_then(Json::as_f64), Some(total as f64));
        // Batch/queue histograms saw every run.
        let batch_hist = metrics
            .get("batch")
            .and_then(|b| b.get("size_hist"))
            .expect("batch size histogram");
        let batched: f64 = batch_hist.get("count").and_then(Json::as_f64).expect("n");
        assert!(batched >= 1.0);
        let depth_hist = metrics
            .get("queue")
            .and_then(|q| q.get("depth_hist"))
            .expect("queue depth histogram");
        assert_eq!(
            depth_hist.get("count").and_then(Json::as_f64),
            Some(total as f64),
            "one depth observation per enqueued run"
        );
        // Cache hit-rate is consistent with its counters.
        let cache = metrics.get("cache").expect("cache block");
        let hits = cache.get("hits").and_then(Json::as_f64).expect("hits");
        let misses = cache.get("misses").and_then(Json::as_f64).expect("misses");
        assert_eq!(hits + misses, total as f64);
        let rate = cache.get("hit_rate").and_then(Json::as_f64).expect("rate");
        assert!((rate - hits / (hits + misses)).abs() < 1e-12);
        server.join().expect("clean join");
    }

    #[test]
    fn access_log_records_every_run_with_matching_trace_ids() {
        let path = std::env::temp_dir().join("f2-serve-log-test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut registry = Registry::new();
        registry.register(Box::new(EchoSeed));
        registry.register(Box::new(Fails));
        let server = start(
            registry,
            ServeConfig {
                threads: 2,
                read_timeout: Duration::from_secs(5),
                log: Some(path.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr();

        let mut client = connect(addr);
        let ok = traced_request(&mut client, "POST", "/run", "log-ok", &seed_body(3));
        assert_eq!(ok.status, 200);
        let failed = traced_request(
            &mut client,
            "POST",
            "/run",
            "log-fail",
            br#"{"experiment":"fails"}"#,
        );
        assert_eq!(failed.status, 500);
        let bad = traced_request(&mut client, "POST", "/run", "log-bad", b"[1]");
        assert_eq!(bad.status, 400);
        drop(client);
        server.join().expect("clean join");

        let text = std::fs::read_to_string(&path).expect("log written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one record per /run:\n{text}");
        let records: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(l).expect("well-formed log line"))
            .collect();
        for rec in &records {
            assert_eq!(
                rec.get("schema").and_then(Json::as_str),
                Some(LOG_SCHEMA),
                "{rec:?}"
            );
            assert!(rec.get("total_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        let by_id = |id: &str| {
            records
                .iter()
                .find(|r| r.get("trace_id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no record for {id}"))
        };
        let ok_rec = by_id("log-ok");
        assert_eq!(
            ok_rec.get("experiment").and_then(Json::as_str),
            Some("echo_seed")
        );
        assert_eq!(ok_rec.get("status").and_then(Json::as_f64), Some(200.0));
        assert_eq!(ok_rec.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            ok_rec.get("scenario").and_then(Json::as_str).map(str::len),
            Some(16),
            "scenario content hash is 16 hex digits"
        );
        let fail_rec = by_id("log-fail");
        assert_eq!(fail_rec.get("status").and_then(Json::as_f64), Some(500.0));
        assert!(fail_rec.get("cache").map(|c| matches!(c, Json::Null)) == Some(true));
        let bad_rec = by_id("log-bad");
        assert_eq!(bad_rec.get("status").and_then(Json::as_f64), Some(400.0));
        assert_eq!(bad_rec.get("experiment").and_then(Json::as_str), Some(""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn debug_recent_exposes_the_flight_recorder() {
        let server = test_server();
        let addr = server.addr();
        let mut client = connect(addr);
        for i in 0..5u64 {
            let resp = traced_request(
                &mut client,
                "POST",
                "/run",
                &format!("recent-{i}"),
                &seed_body(i),
            );
            assert_eq!(resp.status, 200);
        }
        let recent = roundtrip(addr, "GET", "/debug/recent", b"");
        assert_eq!(recent.status, 200);
        let doc = parse_body(&recent);
        assert_eq!(
            doc.get("capacity").and_then(Json::as_f64),
            Some(RECENT_CAPACITY as f64)
        );
        assert_eq!(doc.get("seen").and_then(Json::as_f64), Some(5.0));
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .expect("records array");
        assert_eq!(records.len(), 5);
        // Oldest first, every record in the log-v1 shape.
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.get("schema").and_then(Json::as_str), Some(LOG_SCHEMA));
            assert_eq!(
                rec.get("trace_id").and_then(Json::as_str),
                Some(format!("recent-{i}").as_str())
            );
        }
        // Wrong method earns a 405, like the other GET endpoints.
        assert_eq!(roundtrip(addr, "POST", "/debug/recent", b"").status, 405);
        server.join().expect("clean join");
    }

    /// The members of a random JSON object over the names a `/run` body
    /// and its scenario block hold, with values often of the wrong type or
    /// out of range.
    fn arbitrary_members(g: &mut crate::ptest::Gen, depth: u32) -> Vec<String> {
        const NAMES: &str = "experiment scenario seed quick threads fidelity params scale";
        const VALUES: &str = r#"null true 0 -1 1.5 3 1e300 1e20 "echo_seed" "full" "" [1]"#;
        let pick = |g: &mut crate::ptest::Gen, words: &'static str| {
            let words: Vec<&str> = words.split(' ').collect();
            words[g.usize_in(0..words.len())]
        };
        g.vec(0..4, |g| {
            let value = match g.usize_in(0..3) {
                0 if depth > 0 => format!("{{{}}}", arbitrary_members(g, depth - 1).join(",")),
                _ => pick(g, VALUES).to_string(),
            };
            format!("\"{}\":{value}", pick(g, NAMES))
        })
    }

    #[test]
    fn run_body_parser_never_panics_and_only_answers_4xx() {
        let mut registry = Registry::new();
        registry.register(Box::new(EchoSeed));
        let check = |body: &[u8]| {
            if let Err(resp) = parse_run_body(body, &registry) {
                assert!((400..500).contains(&resp.status), "status {}", resp.status);
            }
        };
        crate::ptest::run("run_body_bytes_no_panic", |g| check(&g.bytes(0..256)));
        crate::ptest::run("run_body_json_no_panic", |g| {
            let mut members = arbitrary_members(g, 2);
            // Mostly a known experiment, so scenario validation is reached.
            if g.u8() % 4 != 0 {
                members.insert(0, "\"experiment\":\"echo_seed\"".to_string());
            }
            check(format!("{{{}}}", members.join(",")).as_bytes());
        });
    }
}
