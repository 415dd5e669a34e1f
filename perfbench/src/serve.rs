//! `serve_mixed`: open-loop `POST /run` traffic against an in-process
//! `f2_core::serve` server.
//!
//! About nine requests in ten read a primed key set (cache hits); the
//! rest run `imc_energy` at quick fidelity with a fresh seed (a miss that
//! computes and inserts). Arrivals are a seeded Poisson process at one
//! fixed rate, dealt round-robin to `nproc` keep-alive connections; the
//! seed also picks which requests miss, the keys and the miss seeds.
//! Every request is timed from its *scheduled* send time, so a connection
//! stuck behind a slow response charges the wait to the requests queued
//! behind it; how late the generator ran, and how late it woke on an idle
//! connection (its own jitter), are reported separately.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use f2_core::experiment::Registry;
use f2_core::json::{Json, ToJson};
use f2_core::rng::{rng_for, Rng};
use f2_core::scenario::{Fidelity, ParamValue, Scenario};
use f2_core::serve::http::{parse_response, write_request_with_headers};
use f2_core::serve::{self, ServeConfig, ServerHandle, TRACE_HEADER};
use f2_core::trace;

use crate::layers::{timed_registry, CallLog};
use crate::outcome::{Outcome, RunConfig, ScratchDir};
use crate::stats::{median, ms, nproc, peak_rss_mb, quantile_of, reset_peak_rss};

/// Offered load, requests per second (mean of the Poisson arrivals).
const RATE_RPS: f64 = 300.0;
/// Share of requests that miss the cache, drawn per request.
const MISS_FRAC: f64 = 0.1;
/// Primed (hit) keys per experiment of [`HIT_SPACE`].
const KEYS_PER_EXPERIMENT: usize = 4;
/// Size of the primed (hit) key set.
pub const HIT_KEYS: usize = KEYS_PER_EXPERIMENT * HIT_SPACE.len();
/// Server boots (with cache priming) timed before the window, after one
/// untimed warm-up boot; the last one serves the traffic, and `setup_s`
/// is their median.
const SETUPS: usize = 3;

/// A `/run` request body.
fn body(experiment: &str, scenario: &Scenario) -> Vec<u8> {
    Json::Obj(vec![
        ("experiment".to_string(), experiment.to_json()),
        ("scenario".to_string(), scenario.to_json()),
    ])
    .encode()
    .into_bytes()
}

/// Param names with the values a hit key may give them.
type ParamChoices = &'static [(&'static str, &'static [f64])];

/// Cheap quick-fidelity experiments the hit keys are drawn from, with the
/// param values each key may set.
const HIT_SPACE: &[(&str, ParamChoices)] = &[
    ("imc_energy", &[("mvm_n", &[32.0, 48.0, 64.0])]),
    ("hls/spdataflow", &[("rows", &[64.0, 128.0, 256.0])]),
    ("tcdm_banking", &[("vector_len", &[64.0, 128.0, 256.0])]),
    ("dna_throughput", &[("pairs", &[10.0, 25.0])]),
    ("storage_io", &[("num_samples", &[1024.0, 4096.0])]),
    ("hetero_pipeline", &[("num_samples", &[1024.0, 4096.0])]),
    ("fig1_landscape", &[]),
    ("table1_fpga", &[]),
    ("cu_transformer", &[]),
];

/// One scheduled request: offset from the window start, and the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Scheduled send time relative to the window start.
    pub at: Duration,
    /// `Some(k)` reads hit key `k`; `None` is a miss with its own key.
    pub hit: Option<usize>,
    /// The request body.
    pub body: Vec<u8>,
}

/// The generated traffic of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Bodies of the primed key set.
    pub hit_keys: Vec<Vec<u8>>,
    /// The request schedule, in send order.
    pub schedule: Vec<Slot>,
}

/// Generates the hit key set and a `seconds`-long Poisson schedule.
pub fn traffic(seed: u64, seconds: f64) -> Traffic {
    // The same number of keys per experiment, so priming costs about the
    // same at every seed; 53-bit seeds keep the keys distinct.
    let mut rng = rng_for(seed, "perfbench/serve/keys");
    let mut hit_keys = Vec::new();
    for (experiment, params) in HIT_SPACE {
        for _ in 0..KEYS_PER_EXPERIMENT {
            let mut scenario = Scenario::new(rng.next_u64() >> 11, Fidelity::Quick, 1);
            for (name, values) in *params {
                let v = values[rng.gen_range(0..values.len())];
                scenario.set_param(name, ParamValue::Num(v));
            }
            hit_keys.push(body(experiment, &scenario));
        }
    }
    let mut rng = rng_for(seed, "perfbench/serve/schedule");
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / RATE_RPS;
        if t >= seconds {
            break;
        }
        let hit = (!rng.gen_bool(MISS_FRAC)).then(|| rng.gen_range(0..HIT_KEYS));
        let body = match hit {
            Some(k) => hit_keys[k].clone(),
            None => body(
                "imc_energy",
                &Scenario::new(rng.next_u64() >> 11, Fidelity::Quick, 1),
            ),
        };
        schedule.push(Slot {
            at: Duration::from_secs_f64(t),
            hit,
            body,
        });
    }
    Traffic { hit_keys, schedule }
}

/// A keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    host: String,
}

/// A parsed `/run` answer.
struct Answer {
    status: u16,
    cache: Option<String>,
    trace_echoed: bool,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace_id: &str,
    ) -> Result<Answer, String> {
        write_request_with_headers(
            self.reader.get_mut(),
            method,
            path,
            &self.host,
            &[(TRACE_HEADER, trace_id)],
            body,
        )
        .map_err(|e| format!("send: {e}"))?;
        let resp = parse_response(&mut self.reader).map_err(|e| format!("receive: {e}"))?;
        Ok(Answer {
            status: resp.status,
            cache: resp.header("X-F2-Cache").map(str::to_string),
            trace_echoed: resp.header(TRACE_HEADER) == Some(trace_id),
            body: resp.body,
        })
    }
}

/// A booted, primed server and the bodies its hit keys answered with.
struct Server {
    handle: ServerHandle,
    primed: Vec<Vec<u8>>,
}

/// Boots a server on `registry` and primes every hit key through HTTP.
fn boot(
    registry: Registry,
    log: Option<std::path::PathBuf>,
    traffic: &Traffic,
) -> Result<Server, String> {
    let config = ServeConfig {
        threads: nproc(),
        log,
        ..ServeConfig::default()
    };
    let handle = serve::start(registry, config).map_err(|e| format!("serve::start: {e}"))?;
    let mut conn = Conn::open(handle.addr())?;
    let mut primed = Vec::new();
    for (k, key) in traffic.hit_keys.iter().enumerate() {
        let a = conn.request("POST", "/run", key, &format!("pb-prime-{k}"))?;
        if a.status != 200 || a.cache.as_deref() != Some("miss") {
            return Err(format!(
                "priming key {k}: status {} cache {:?}",
                a.status, a.cache
            ));
        }
        primed.push(a.body);
    }
    Ok(Server { handle, primed })
}

/// One answered request of the window.
struct Sample {
    index: usize,
    /// Scheduled send → response, milliseconds.
    latency_ms: f64,
    /// Actual send → response, milliseconds.
    sent_latency_ms: f64,
    /// Scheduled → actual send, milliseconds.
    late_ms: f64,
    /// Whether the connection was idle when the request fell due, so
    /// that `late_ms` is the generator's own wake-up jitter.
    on_idle: bool,
    /// Miss-key response body (kept for the replay check).
    miss_body: Option<Vec<u8>>,
}

fn trace_id(i: usize) -> String {
    format!("pb-{i}")
}

/// Checks one window answer; returns the failure, if any.
fn check(slot: &Slot, a: &Answer, primed: &[Vec<u8>]) -> Option<String> {
    let want_cache = if slot.hit.is_some() { "hit" } else { "miss" };
    if a.status != 200 {
        Some(format!("status {}", a.status))
    } else if !a.trace_echoed {
        Some("trace id not echoed".to_string())
    } else if a.cache.as_deref() != Some(want_cache) {
        Some(format!("X-F2-Cache {:?}, expected {want_cache}", a.cache))
    } else if slot.hit.is_some_and(|k| a.body != primed[k]) {
        Some("hit body differs from the primed body".to_string())
    } else {
        None
    }
}

/// Drives the open-loop schedule on `nproc` connections.
fn drive(
    addr: SocketAddr,
    traffic: &Traffic,
    primed: &[Vec<u8>],
    out: &mut Outcome,
) -> (Vec<Sample>, f64) {
    let conns = nproc();
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Vec<Result<Sample, String>>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = match Conn::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => return vec![Err(e)],
                    };
                    let mut done = Vec::new();
                    for (index, slot) in traffic.schedule.iter().enumerate().skip(c).step_by(conns)
                    {
                        let due = start + slot.at;
                        let now = Instant::now();
                        let on_idle = due > now;
                        if on_idle {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let answer = conn.request("POST", "/run", &slot.body, &trace_id(index));
                        let end = Instant::now();
                        done.push(
                            answer
                                .map_err(|e| format!("request {index}: {e}"))
                                .and_then(|a| {
                                    if let Some(f) = check(slot, &a, primed) {
                                        return Err(format!("request {index}: {f}"));
                                    }
                                    Ok(Sample {
                                        index,
                                        latency_ms: ms(end.duration_since(due)),
                                        sent_latency_ms: ms(end.duration_since(sent)),
                                        late_ms: ms(sent.saturating_duration_since(due)),
                                        on_idle,
                                        miss_body: slot.hit.is_none().then_some(a.body),
                                    })
                                }),
                        );
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in results.into_iter().flatten() {
        out.attempted += 1;
        match r {
            Ok(s) => samples.push(s),
            Err(e) => out.fail(e),
        }
    }
    samples.sort_by_key(|s| s.index);
    (samples, window_s)
}

/// Replays every miss key once: each must now answer `hit` with the body
/// its miss computed.
fn replay(addr: SocketAddr, traffic: &Traffic, samples: &[Sample], out: &mut Outcome) {
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("replay: {e}"));
            return;
        }
    };
    for s in samples {
        let Some(body) = &s.miss_body else { continue };
        out.attempted += 1;
        let slot = &traffic.schedule[s.index];
        match conn.request(
            "POST",
            "/run",
            &slot.body,
            &format!("pb-replay-{}", s.index),
        ) {
            Ok(a) if a.status == 200 && a.cache.as_deref() == Some("hit") && a.body == *body => {}
            Ok(a) => out.fail(format!(
                "replay of miss {}: status {} cache {:?}, body {}",
                s.index,
                a.status,
                a.cache,
                if a.body == *body { "same" } else { "changed" }
            )),
            Err(e) => out.fail(format!("replay of miss {}: {e}", s.index)),
        }
    }
}

/// What one pass (boot, window, replay) measured.
struct PassResult {
    samples: Vec<Sample>,
    window_s: f64,
    /// Peak RSS during the window, MiB.
    peak_rss_mb: f64,
    /// Every response body by request index (compared across passes).
    bodies: BTreeMap<usize, Vec<u8>>,
    metrics: Option<Json>,
}

fn latencies(samples: &[Sample], traffic: &Traffic, hit: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| traffic.schedule[s.index].hit.is_some() == hit)
        .map(|s| s.latency_ms)
        .collect()
}

/// Boots once untimed and then `SETUPS` times (timing each), serves the
/// window on the last server, replays the misses and shuts down.
fn serve_pass(
    traffic: &Traffic,
    registry: impl Fn() -> Registry,
    log: Option<std::path::PathBuf>,
    calls: Option<&CallLog>,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Option<PassResult> {
    let mut server = None;
    for i in 0..=SETUPS {
        if let Some(Server { handle, .. }) = server.take() {
            let _ = handle.join();
        }
        let t = Instant::now();
        match boot(registry(), log.clone(), traffic) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("server set-up {i}: {e}"));
                return None;
            }
        }
        if i > 0 {
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let Server { handle, primed } = server.expect("at least one set-up");
    // Experiment calls made while priming are set-up, not traffic.
    if let Some(calls) = calls {
        calls.drain();
    }
    let addr = handle.addr();
    reset_peak_rss();
    let (samples, window_s) = drive(addr, traffic, &primed, out);
    let peak_rss_mb = peak_rss_mb();
    let metrics = Conn::open(addr)
        .and_then(|mut c| c.request("GET", "/metrics", b"", "pb-metrics"))
        .ok()
        .and_then(|a| Json::parse(&String::from_utf8_lossy(&a.body)).ok());
    replay(addr, traffic, &samples, out);
    if let Err(e) = handle.join() {
        out.fail(format!("server shutdown: {e}"));
    }
    let mut bodies: BTreeMap<usize, Vec<u8>> = samples
        .iter()
        .filter_map(|s| s.miss_body.clone().map(|b| (s.index, b)))
        .collect();
    for (k, b) in primed.into_iter().enumerate() {
        bodies.insert(usize::MAX - k, b);
    }
    Some(PassResult {
        samples,
        window_s,
        peak_rss_mb,
        bodies,
        metrics,
    })
}

/// One access-log record.
struct LogRecord {
    cache: Option<String>,
    queue_ms: f64,
    run_ms: f64,
    total_ms: f64,
}

fn read_log(path: &std::path::Path) -> BTreeMap<String, LogRecord> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|d| {
            let num = |k: &str| d.get(k).and_then(Json::as_f64);
            Some((
                d.get("trace_id")?.as_str()?.to_string(),
                LogRecord {
                    cache: d.get("cache").and_then(Json::as_str).map(str::to_string),
                    queue_ms: num("queue_ms")?,
                    run_ms: num("run_ms")?,
                    total_ms: num("total_ms")?,
                },
            ))
        })
        .collect()
}

/// `/metrics` histogram quantile, e.g. `("batch", "size_hist", "p99")`.
fn metric_at(doc: &Option<Json>, path: &[&str]) -> f64 {
    let mut node = doc.as_ref();
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs the `serve_mixed` workload.
pub fn run(cfg: RunConfig) -> Outcome {
    run_with(cfg, |window| traffic(cfg.seed, window))
}

/// Runs the workload on the traffic `make` generates for a window of the
/// given seconds.
pub fn run_with(cfg: RunConfig, make: impl Fn(f64) -> Traffic) -> Outcome {
    let mut out = Outcome::default();
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut setups = Vec::new();
    let traffic = make(window);
    let plain = serve_pass(
        &traffic,
        flagship2::experiments::registry,
        None,
        None,
        &mut setups,
        &mut out,
    );
    let Some(plain) = plain else { return out };
    let hits = latencies(&plain.samples, &traffic, true);
    if !cfg.trace {
        let misses = latencies(&plain.samples, &traffic, false);
        let late: Vec<f64> = plain.samples.iter().map(|s| s.late_ms).collect();
        let jitter: Vec<f64> = plain
            .samples
            .iter()
            .filter(|s| s.on_idle)
            .map(|s| s.late_ms)
            .collect();
        out.set(
            "throughput_per_s",
            plain.samples.len() as f64 / plain.window_s,
            "1/s",
        );
        let all: Vec<f64> = plain.samples.iter().map(|s| s.latency_ms).collect();
        out.set("p50_ms", quantile_of(&all, 0.5), "ms");
        out.set("p99_ms", quantile_of(&all, 0.99), "ms");
        out.set("serve.hit.p50_ms", quantile_of(&hits, 0.5), "ms");
        out.set("serve.hit.p99_ms", quantile_of(&hits, 0.99), "ms");
        out.set("serve.miss.p50_ms", quantile_of(&misses, 0.5), "ms");
        out.set("serve.miss.p90_ms", quantile_of(&misses, 0.9), "ms");
        out.set("serve.hit.samples", hits.len() as f64, "count");
        out.set("serve.miss.samples", misses.len() as f64, "count");
        out.set("serve.gen_late.p99_ms", quantile_of(&late, 0.99), "ms");
        out.set("serve.gen_jitter.p99_ms", quantile_of(&jitter, 0.99), "ms");
        out.set("setup_s", median(&setups), "s");
        out.set("peak_rss_mb", plain.peak_rss_mb, "MiB");
        return out;
    }

    let dir = ScratchDir::new("serve_mixed");
    let log_path = dir.0.join("access.jsonl");
    let calls = Arc::new(CallLog::default());
    let session = trace::session();
    let traced = serve_pass(
        &traffic,
        || timed_registry(&calls),
        Some(log_path.clone()),
        Some(&calls),
        &mut Vec::new(),
        &mut out,
    );
    drop(session.finish());
    let Some(traced) = traced else { return out };
    for (index, b) in &plain.bodies {
        if traced.bodies.get(index) != Some(b) {
            out.attempted += 1;
            out.fail(format!(
                "request {index}: body differs between the untraced and traced runs"
            ));
        }
    }
    let log = read_log(&log_path);
    let (mut queue_hit, mut queue_miss, mut run_miss, mut wire, mut late, mut jitter) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut unattributed, mut total_latency) = (0.0, 0.0);
    for s in &traced.samples {
        late.push(s.late_ms);
        if s.on_idle {
            jitter.push(s.late_ms);
        }
        total_latency += s.latency_ms;
        let Some(rec) = log.get(&trace_id(s.index)) else {
            out.fail(format!("request {}: no access-log record", s.index));
            continue;
        };
        wire.push(s.sent_latency_ms - rec.total_ms);
        unattributed += rec.total_ms - rec.queue_ms - rec.run_ms;
        match rec.cache.as_deref() {
            Some("hit") => queue_hit.push(rec.queue_ms),
            _ => {
                queue_miss.push(rec.queue_ms);
                run_miss.push(rec.run_ms);
            }
        }
    }
    let layer_calls = calls.drain();
    let imc = crate::layers::LAYERS
        .iter()
        .position(|l| *l == "imc")
        .expect("imc layer");
    let imc_calls: Vec<_> = layer_calls.iter().filter(|c| c.layer == imc).collect();
    out.set("imc.busy_s", imc_calls.iter().map(|c| c.secs()).sum(), "s");
    out.set("imc.calls", imc_calls.len() as f64, "count");
    out.set(
        "serve.queue.hit_p99_ms",
        quantile_of(&queue_hit, 0.99),
        "ms",
    );
    out.set(
        "serve.queue.miss_p50_ms",
        quantile_of(&queue_miss, 0.5),
        "ms",
    );
    out.set(
        "serve.batch.size_p99",
        metric_at(&traced.metrics, &["batch", "size_hist", "p99"]),
        "count",
    );
    out.set(
        "serve.queue.depth_p99",
        metric_at(&traced.metrics, &["queue", "depth_hist", "p99"]),
        "count",
    );
    out.set(
        "serve.cache.hit_rate",
        metric_at(&traced.metrics, &["cache", "hit_rate"]),
        "ratio",
    );
    out.set(
        "serve.cache.entries",
        metric_at(&traced.metrics, &["cache", "entries"]),
        "count",
    );
    out.set("serve.wire.p50_ms", quantile_of(&wire, 0.5), "ms");
    out.set("serve.wire.p99_ms", quantile_of(&wire, 0.99), "ms");
    out.set("serve.run.p50_ms", quantile_of(&run_miss, 0.5), "ms");
    out.set("serve.run.p90_ms", quantile_of(&run_miss, 0.9), "ms");
    out.set("serve.gen_late.p99_ms", quantile_of(&late, 0.99), "ms");
    out.set("serve.gen_jitter.p99_ms", quantile_of(&jitter, 0.99), "ms");
    let traced_hits = latencies(&traced.samples, &traffic, true);
    out.set("serve.hit.p50_ms", quantile_of(&traced_hits, 0.5), "ms");
    out.set("serve.hit.p99_ms", quantile_of(&traced_hits, 0.99), "ms");
    let traced_misses = latencies(&traced.samples, &traffic, false);
    out.set("serve.miss.p50_ms", quantile_of(&traced_misses, 0.5), "ms");
    out.set("serve.miss.p90_ms", quantile_of(&traced_misses, 0.9), "ms");
    out.set(
        "unattributed_frac",
        unattributed / total_latency.max(f64::MIN_POSITIVE),
        "ratio",
    );
    out.set(
        "trace_overhead_frac",
        median(&traced_hits) / median(&hits) - 1.0,
        "ratio",
    );
    out
}
