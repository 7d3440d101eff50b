//! The daemon workload: `serve_hot`.
//!
//! An open-loop generator drives an in-process `ccserve::Server` over one
//! loopback TCP connection at a fixed offered rate, on a seeded schedule:
//! requests are sent when due whatever the daemon is doing, and each
//! latency runs from the request's due time to its decoded terminal
//! response, so a stall also delays every request due behind it.  The
//! generator is two threads (the caller sends, one thread receives), the
//! daemon has [`thread_budget`] worker slots running single-worker checks,
//! and the generator reports how late it ran.
//!
//! After the fixed-rate window a closed-loop burst measures the daemon's
//! saturated throughput (`cells_per_s`), and a ladder of offered rates
//! finds the highest that meets the latency limit with no failure and no
//! growing backlog (`max_rate_rps`).

use crate::corpus::{families, table2_names, Rng, Source};
use crate::gate::{serve_digest, Golden, SERVE_VALUATIONS};
use crate::grid::{more_setups, probe_layers, report_setups, time_setup, SourceCost};
use crate::stats::{median, median_over, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{thread_budget, Measured};
use ccchecker::{CheckStatus, CheckerOptions};
use cccore::VerifierConfig;
use ccserve::cache::CachedVerdict;
use ccserve::transport::Stream;
use ccserve::wire::{decode_response, encode_request, read_frame, write_frame};
use ccserve::{
    CheckRequest, FsyncPolicy, Priority, Request, Response, ResultCache, ServeClient, ServeConfig,
    Server, VerdictLog,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Largest response frame the generator accepts.
const MAX_FRAME: usize = 16 << 20;

/// How long the receiver waits for the next frame before giving up on
/// the outstanding requests.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Families in the `serve_hot` mix beside the 8 protocols: seeds 0 to 7
/// of each point.
const HOT_FAMILIES: usize = 24;

/// Fewest requests per latency slice: the fewest whose p90 leaves 10
/// samples above it.  A window of at least `MIN_SLICES` slices reports
/// medians over equal slices of consecutive requests, so one stall of the
/// shared host moves one slice, not the run.  A shorter window is one
/// slice: a median over a few slices would move with which requests each
/// slice happened to get.
const SLICE: usize = 100;

/// Fewest slices a window is split into (see [`SLICE`]).
const MIN_SLICES: usize = 10;

/// Requests re-sent after the restart to check the recovered cache.
const RECHECKS: usize = 8;

/// Where serve runs keep their verdict logs, relative to the checkout.
pub const OUT_DIR: &str = ".perfbench_out";

/// Offered rate of the fixed-rate window, in requests per second.  A
/// cached answer takes about 0.7 ms, so this loads one core to about a
/// tenth.  The rate, like the mix of `serve_hot`, is an assumption: no
/// observed traffic stands behind either.
const RATE: f64 = 200.0;

/// The offered rates `max_rate_rps` climbs, lowest first.  The saturation
/// burst answers about 4,300 requests per second on two vCPUs, so the top
/// rungs lie beyond what the daemon serves today.
const LADDER: [f64; 8] = [
    500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0,
];

/// Latency limit on a ladder rung's tail percentile, in ms.
const LIMIT_MS: f64 = 10.0;

/// The daemon configuration: shipped defaults except the worker slots and
/// the in-check workers, which the benchmark pins.
fn serve_config(cache_log: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: thread_budget(),
        checker: CheckerOptions::default().with_workers(1),
        cache_log,
        fsync_policy: FsyncPolicy::Always,
        ..ServeConfig::default()
    }
}

fn check_request(id: u64, source: &Source) -> Request {
    Request::Check(CheckRequest {
        id,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: source.wire(),
        valuations: vec![],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    })
}

/// When one request was due and went out.
struct Sent {
    due: Instant,
    start: Instant,
    encoded: Instant,
    written: Instant,
}

/// When one terminal response came back, and its frame.  The generator
/// keeps the compact frame, not the decoded response, while the window
/// runs.
struct Got {
    frame: Instant,
    decoded: Instant,
    payload: Vec<u8>,
}

/// One open-loop window.
struct Window {
    sources: Vec<Source>,
    sent: Vec<Sent>,
    got: Vec<Option<Got>>,
    queue_depth_max: u64,
}

/// A request's outcome after the gate.
struct Judged {
    /// Latency from due time to decoded response, in ms (`None` when the
    /// request failed).
    latency_ms: Option<f64>,
    shed: bool,
    error: Option<String>,
    cells: usize,
    uncached_states: u64,
    uncached_definite: u64,
    all_cached: bool,
}

/// Sends `sources[i]` at `offsets[i]` seconds after the start, on one
/// connection, and collects every terminal response.
fn open_loop(
    server: &Server,
    stream: &Stream,
    sources: Vec<Source>,
    offsets: &[f64],
    first_id: u64,
) -> Result<Window, String> {
    let requests: Vec<Request> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| check_request(first_id + i as u64, s))
        .collect();
    let n = requests.len();
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    reader
        .set_read_timeout(Some(RECV_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut sent = Vec::with_capacity(n);
    let mut queue_depth_max = 0;
    let got = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<Got>> = (0..n).map(|_| None).collect();
            let mut answered = 0;
            while answered < n {
                let Ok(payload) = read_frame(&mut reader, MAX_FRAME) else {
                    break;
                };
                let frame = Instant::now();
                let Ok(response) = decode_response(&payload) else {
                    break;
                };
                let decoded = Instant::now();
                let Some(id) = response.request_id().filter(|_| response.is_terminal()) else {
                    continue;
                };
                let Some(slot) = id
                    .checked_sub(first_id)
                    .and_then(|i| got.get_mut(i as usize))
                else {
                    break;
                };
                answered += slot.is_none() as usize;
                *slot = Some(Got {
                    frame,
                    decoded,
                    payload,
                });
            }
            got
        });
        let mut last_sample = t0;
        for (req, &offset) in requests.iter().zip(offsets) {
            let due = t0 + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if now.duration_since(last_sample) >= Duration::from_millis(20) {
                queue_depth_max = queue_depth_max.max(server.stats().queue_depth);
                last_sample = now;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            let payload = encode_request(req);
            let encoded = Instant::now();
            if write_frame(&mut writer, &payload).is_err() {
                break;
            }
            sent.push(Sent {
                due,
                start,
                encoded,
                written: Instant::now(),
            });
        }
        receiver.join().expect("receiver thread panicked")
    });
    Ok(Window {
        sources,
        sent,
        got,
        queue_depth_max,
    })
}

/// Gates one response against the golden digests.
fn judge(golden: &Golden, source: &Source, response: Option<&Response>) -> Judged {
    let mut j = Judged {
        latency_ms: None,
        shed: false,
        error: None,
        cells: 0,
        uncached_states: 0,
        uncached_definite: 0,
        all_cached: false,
    };
    let key = source.key();
    let Some(response) = response else {
        j.error = Some(format!("{key}: no terminal response"));
        return j;
    };
    match response {
        Response::Verdict { cells, .. } => {
            let verdicts = cells.iter().flat_map(|c| &c.verdicts);
            if let Some(v) = verdicts.clone().find(|v| v.code != b'+' && v.code != b'-') {
                j.error = Some(format!("{key}: {} is {:?}", v.name, v.code as char));
            } else if let Err(e) = golden.check_serve(&key, serve_digest(cells)) {
                j.error = Some(e);
            }
            j.cells = verdicts.clone().count();
            j.all_cached = verdicts.clone().all(|v| v.cached);
            for v in verdicts.filter(|v| !v.cached) {
                j.uncached_states += v.states;
                j.uncached_definite += (v.code != b'?') as u64;
            }
        }
        Response::Overloaded { .. } => {
            j.shed = true;
            j.error = Some(format!("{key}: shed"));
        }
        other => j.error = Some(format!("{key}: {other:?}")),
    }
    j
}

fn judge_window(golden: &Golden, w: &Window) -> Vec<Judged> {
    w.sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let got = w.got[i].as_ref();
            let response = got.and_then(|g| decode_response(&g.payload).ok());
            let mut j = judge(golden, s, response.as_ref());
            if let (None, Some(sent), Some(got)) = (&j.error, w.sent.get(i), got) {
                j.latency_ms = Some(got.decoded.duration_since(sent.due).as_secs_f64() * 1e3);
            }
            j
        })
        .collect()
}

/// `count` arrival offsets, in seconds, at `rate`: request `i` is due at
/// a seeded uniform point of the `i`-th interval of length `1 / rate`.
/// Unlike Poisson arrivals, the schedule cannot bunch requests by chance,
/// so the queueing a run sees does not depend on its seed.
fn arrivals(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| (i as f64 + rng.unit()) / rate).collect()
}

/// Requests a window of `seconds` at `rate` sends.
fn request_count(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round().max(1.0) as usize
}

/// Whether a backlog grew over a window: the median latency of its last
/// quarter exceeds that of its first quarter by more than half the
/// latency limit.
fn backlog_grew(latencies_in_send_order: &[f64], limit_ms: f64) -> bool {
    let n = latencies_in_send_order.len();
    let q = n / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies_in_send_order[..q]).unwrap_or(0.0);
    let last = median(&latencies_in_send_order[n - q..]).unwrap_or(0.0);
    last - first > limit_ms / 2.0
}

/// A daemon under test with its generator connection.
struct Daemon {
    server: Server,
    stream: Stream,
}

impl Daemon {
    fn start(cache_log: Option<PathBuf>) -> Result<Daemon, String> {
        let server = Server::bind_tcp("127.0.0.1:0", serve_config(cache_log))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("daemon has no TCP address")?;
        let stream = Stream::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { server, stream })
    }

    /// Connects a client and waits for the daemon to answer its ping;
    /// returns the client and the wait.  The daemon's accept loop polls
    /// every 25 ms, so the wait is 0 to 25 ms at random; set-up time
    /// leaves it out, or `setup_s` would read two values at random.
    fn accepted_client(&self) -> Result<(ServeClient, Duration), String> {
        let started = Instant::now();
        let mut client = self.client()?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok((client, started.elapsed()))
    }

    fn client(&self) -> Result<ServeClient, String> {
        let addr = self
            .server
            .local_addr()
            .ok_or("daemon has no TCP address")?;
        ServeClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))
    }

    fn stop(self) {
        self.stream.shutdown_both();
        self.server.shutdown();
    }
}

/// Sends each source once and waits for its answer, gating each.
fn request_each(
    golden: &Golden,
    client: &mut ServeClient,
    sources: &[Source],
    first_id: u64,
    m: &mut Measured,
) -> Vec<Judged> {
    sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let response = client.request(&check_request(first_id + i as u64, s)).ok();
            let j = judge(golden, s, response.as_ref());
            m.attempted += 1;
            if let Some(e) = &j.error {
                m.fail(e.clone());
            }
            j
        })
        .collect()
}

/// The fixed-rate window: gates every request and records the end-to-end
/// latency figures and the generator's own counters.
fn measure_window(
    golden: &Golden,
    daemon: &Daemon,
    sources: Vec<Source>,
    offsets: &[f64],
    m: &mut Measured,
) -> Result<(Window, Vec<Judged>), String> {
    let before = daemon.server.stats();
    let w = open_loop(&daemon.server, &daemon.stream, sources, offsets, 1)?;
    let after = daemon.server.stats();
    let judged = judge_window(golden, &w);
    let mut wall_ms = 0.0;
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    for (i, j) in judged.iter().enumerate() {
        m.attempted += 1;
        if let Some(e) = &j.error {
            m.fail(e.clone());
        }
        latencies.push(j.latency_ms.unwrap_or(f64::INFINITY));
        let (Some(s), Some(g)) = (w.sent.get(i), w.got[i].as_ref()) else {
            continue;
        };
        late.push(s.start.duration_since(s.due).as_secs_f64() * 1e3);
        wall_ms += g.decoded.duration_since(s.due).as_secs_f64() * 1e3;
    }
    m.timed_wall_ms = wall_ms;
    let n = latencies.len();
    let k = if n / SLICE >= MIN_SLICES {
        n / SLICE
    } else {
        1
    };
    let slices: Vec<Vec<f64>> = (0..k)
        .map(|i| latencies[i * n / k..(i + 1) * n / k].to_vec())
        .collect();
    let p50 = median_over(slices.clone(), |s| percentile(s, 50.0)).unwrap_or(f64::INFINITY);
    m.primary_ms = p50;
    m.e2e.insert("latency_p50_ms", p50);
    match median_over(slices.clone(), |s| tail(s).map(|t| t.value)) {
        Some(v) => {
            let t = tail(&sorted(slices[0].clone())).expect("a full slice has a tail");
            m.e2e.insert("latency_tail_ms", v);
            m.notes.push(format!(
                "latency figures over {} slice(s) of {} requests or more; \
                 latency_tail_ms is each slice's p{} ({} beyond)",
                slices.len(),
                n / k,
                t.percentile,
                t.beyond
            ));
        }
        None => m.fail(format!(
            "only {} requests: too few for one slice of {SLICE}",
            latencies.len()
        )),
    }
    let late = sorted(late);
    let gen_late = percentile(&late, 99.0).unwrap_or(0.0);
    m.notes.push(format!(
        "{} requests; generator lateness p50 {:.3} ms, p99 {gen_late:.3} ms",
        judged.len(),
        percentile(&late, 50.0).unwrap_or(0.0)
    ));
    let lookups = (after.cache_hits + after.cache_misses)
        .saturating_sub(before.cache_hits + before.cache_misses);
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    m.layer("bench.gen_late_ms", gen_late);
    m.layer("ccserve.requests", judged.len() as f64);
    m.layer("ccserve.queue_depth_max", w.queue_depth_max as f64);
    m.layer(
        "ccserve.shed",
        after.shed.saturating_sub(before.shed) as f64,
    );
    m.layer("ccserve.cache_lookups", lookups as f64);
    m.layer(
        "ccserve.cache_hit_rate",
        hits as f64 / lookups.max(1) as f64,
    );
    Ok((w, judged))
}

/// What one source costs the daemon on a cached request, by estimate: the
/// probes' resolve, compile and fingerprint times, and its cache lookups.
struct DaemonCost {
    source: Source,
    layers: SourceCost,
    cache_get: Duration,
}

/// Records the spans of each answered request of the window.  The client
/// side is measured: due time to send (`bench`), encode, write, and
/// decode (`ccserve`).  The daemon's side is one `daemon_wait` span from
/// the write to the response frame, split by estimate: its first part is
/// cut into child spans as long as the probes measured for the request's
/// source — resolve (`ccprotocols`), compile (`cccounter`), fingerprint
/// (`cccore`) and cache lookups (`ccserve`) — in the order the daemon runs
/// them, each clipped to the wait.  The rest of the wait (transport,
/// admission queue, response) stays `ccserve`'s.
fn record_request_spans(tracer: &Tracer, w: &Window, costs: &[DaemonCost], m: &mut Measured) {
    let first_span = tracer.mark();
    for (i, (s, g)) in w.sent.iter().zip(&w.got).enumerate() {
        let Some(g) = g else {
            continue;
        };
        let req = i as u64 + 1;
        let root = tracer.record("request", "request", None, req, s.due, g.decoded);
        tracer.record("bench", "due_to_send", root, req, s.due, s.start);
        tracer.record("ccserve", "encode_request", root, req, s.start, s.encoded);
        // the answer can arrive before the sender thread runs again
        let written = s.written.min(g.frame);
        tracer.record("ccserve", "write_frame", root, req, s.encoded, written);
        let wait = tracer.record("ccserve", "daemon_wait", root, req, written, g.frame);
        if let Some(c) = costs.iter().find(|c| c.source == w.sources[i]) {
            let mut at = written;
            for (layer, name, d) in [
                ("ccprotocols", "resolve_estimate", c.layers.resolve),
                ("cccounter", "compile_estimate", c.layers.compile),
                ("cccore", "fingerprint_estimate", c.layers.fingerprint),
                ("ccserve", "cache_get_estimate", c.cache_get),
            ] {
                let end = (at + d).min(g.frame);
                tracer.record(layer, name, wait, req, at, end);
                at = end;
            }
        }
        tracer.record("ccserve", "decode_response", root, req, g.frame, g.decoded);
    }
    m.timed_spans = (first_span, tracer.mark());
}

/// Offers every rate of the ladder in turn, each for `rung_seconds`, so a
/// run measures for its whole time, and returns the highest rate below
/// which every rung passed (0 when the first rung failed).  Shed requests
/// fail a rung but are not correctness failures; every other failure
/// counts.
fn climb_ladder(
    golden: &Golden,
    daemon: &Daemon,
    rung_seconds: f64,
    mut next_source: impl FnMut() -> Source,
    rng: &mut Rng,
    first_id: u64,
    m: &mut Measured,
) -> Result<f64, String> {
    let (mut max_rate, mut climbing) = (0.0, true);
    let mut first_id = first_id;
    for rate in LADDER {
        let offsets = arrivals(rng, rate, request_count(rate, rung_seconds));
        let sources: Vec<Source> = offsets.iter().map(|_| next_source()).collect();
        let w = open_loop(&daemon.server, &daemon.stream, sources, &offsets, first_id)?;
        first_id += offsets.len() as u64;
        let judged = judge_window(golden, &w);
        let mut latencies = Vec::with_capacity(judged.len());
        let mut passed = true;
        for j in &judged {
            m.attempted += 1;
            match (&j.error, j.shed) {
                (Some(_), true) => passed = false,
                (Some(e), false) => {
                    m.fail(e.clone());
                    passed = false;
                }
                (None, _) => {}
            }
            latencies.push(j.latency_ms.unwrap_or(f64::INFINITY));
        }
        let grew = backlog_grew(&latencies, LIMIT_MS);
        let t = tail(&sorted(latencies));
        let tail_ms = t.map_or(f64::INFINITY, |t| t.value);
        passed &= !grew && tail_ms <= LIMIT_MS;
        m.notes.push(format!(
            "ladder {rate} rps: {} requests, tail {tail_ms:.3} ms, backlog grew {grew}, {}",
            judged.len(),
            if passed { "pass" } else { "fail" }
        ));
        climbing &= passed;
        if climbing {
            max_rate = rate;
        }
    }
    Ok(max_rate)
}

/// Layer probes on the daemon's request path after a window: ping round
/// trip, wire encode/decode on the window's frames, cache probe on the
/// window's keys, and the resolution/compile/fingerprint costs of the
/// window's sources.  Returns each distinct source's estimated cost on the
/// daemon (see [`record_request_spans`]).
fn probe_serve(
    daemon: &Daemon,
    w: &Window,
    tracer: &Tracer,
    m: &mut Measured,
) -> Result<Vec<DaemonCost>, String> {
    let mut client = daemon.client()?;
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        tracer
            .time("ccserve", "ping", 0, || client.ping())
            .map_err(|e| format!("ping: {e}"))?;
        rtt.push(started.elapsed().as_secs_f64() * 1e6);
    }
    m.layer("ccserve.ping_rtt_us", median(&rtt).unwrap_or(0.0));

    let requests: Vec<Request> = w
        .sources
        .iter()
        .enumerate()
        .map(|(i, s)| check_request(i as u64 + 1, s))
        .collect();
    let started = Instant::now();
    for r in &requests {
        std::hint::black_box(encode_request(r));
    }
    m.layer(
        "ccserve.wire_encode_us",
        started.elapsed().as_secs_f64() * 1e6 / requests.len().max(1) as f64,
    );
    let payloads: Vec<&Vec<u8>> = w.got.iter().flatten().map(|g| &g.payload).collect();
    let started = Instant::now();
    for p in &payloads {
        std::hint::black_box(decode_response(p).map_err(|e| format!("decode: {e}"))?);
    }
    m.layer(
        "ccserve.wire_decode_us",
        started.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64,
    );
    let bytes: Vec<f64> = payloads.iter().map(|p| p.len() as f64).collect();
    m.layer(
        "ccserve.response_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );

    let mut distinct: Vec<Source> = Vec::new();
    for s in &w.sources {
        if !distinct.contains(s) {
            distinct.push(s.clone());
        }
    }
    distinct.truncate(64);
    let quick = VerifierConfig::quick();
    let keys: Vec<Vec<(u64, u64, u64)>> = distinct
        .iter()
        .map(|s| {
            let r = s.resolve(&quick, SERVE_VALUATIONS);
            let sys = cccore::system_fingerprint(&r.model);
            r.valuations
                .iter()
                .flat_map(|v| {
                    let vf = cccore::valuation_fingerprint(v);
                    r.specs
                        .iter()
                        .map(move |spec| (sys, vf, cccore::spec_fingerprint(spec)))
                })
                .collect()
        })
        .collect();
    let cache = ResultCache::new(4096);
    let verdict = CachedVerdict {
        status: CheckStatus::Holds,
        states_explored: 1,
        transitions_explored: 1,
        detail: String::new(),
    };
    for k in keys.iter().flatten() {
        cache.preload(*k, verdict.clone());
    }
    let mut gets = 0usize;
    let started = Instant::now();
    for s in &w.sources {
        let Some(i) = distinct.iter().position(|d| d == s) else {
            continue;
        };
        for k in &keys[i] {
            std::hint::black_box(cache.get(k));
            gets += 1;
        }
    }
    let per_get = started.elapsed() / gets.max(1) as u32;
    m.layer("ccserve.cache_get_ns", per_get.as_secs_f64() * 1e9);
    let costs = probe_layers(&distinct, &quick, SERVE_VALUATIONS, 0, tracer, m);
    Ok(distinct
        .into_iter()
        .zip(costs)
        .zip(&keys)
        .map(|((source, layers), keys)| DaemonCost {
            source,
            layers,
            cache_get: per_get * keys.len() as u32,
        })
        .collect())
}

fn nproc_guard() -> Result<(), String> {
    if crate::host::nproc() < 2 {
        return Err(
            "the serve workloads need 2 CPUs: the generator sends and receives on two threads"
                .into(),
        );
    }
    Ok(())
}

/// Length of the intervals the saturation burst's throughput is taken
/// over, in seconds.
const BURST_INTERVAL: f64 = 0.5;

/// A closed loop at saturation for `seconds` on a connection of its own:
/// keeps two requests per worker slot in flight, so no slot idles, and
/// gates every answer.  Returns verdict cells answered per second, the
/// throughput figure of `serve_hot`: the median over the burst's whole
/// `BURST_INTERVAL`s (over the whole burst when it has fewer than three),
/// so one stall of the shared host moves one interval.
fn saturate(
    golden: &Golden,
    daemon: &Daemon,
    seconds: f64,
    mut next_source: impl FnMut() -> Source,
    first_id: u64,
    m: &mut Measured,
) -> Result<f64, String> {
    let mut client = daemon.client()?;
    let mut in_flight: HashMap<u64, Source> = HashMap::new();
    let mut next_id = first_id;
    let mut send = |client: &mut ServeClient, in_flight: &mut HashMap<u64, Source>| {
        let source = next_source();
        client
            .send(&check_request(next_id, &source))
            .map_err(|e| format!("send: {e}"))?;
        in_flight.insert(next_id, source);
        next_id += 1;
        Ok::<(), String>(())
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    for _ in 0..2 * thread_budget() {
        send(&mut client, &mut in_flight)?;
    }
    let (mut cells, mut answered) = (0, 0);
    let mut answers: Vec<(f64, usize)> = Vec::new();
    while !in_flight.is_empty() {
        let (response, _) = client.recv_terminal().map_err(|e| format!("recv: {e}"))?;
        let source = response
            .request_id()
            .and_then(|id| in_flight.remove(&id))
            .ok_or("a response to no request in flight")?;
        let j = judge(golden, &source, Some(&response));
        m.attempted += 1;
        if let Some(e) = j.error {
            m.fail(e);
        }
        cells += j.cells;
        answered += 1;
        answers.push((started.elapsed().as_secs_f64(), j.cells));
        if Instant::now() < deadline {
            send(&mut client, &mut in_flight)?;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    m.notes.push(format!(
        "saturation: {answered} requests, {cells} cells in {secs:.2} s ({:.1} req/s)",
        answered as f64 / secs
    ));
    let whole = (secs.min(seconds) / BURST_INTERVAL) as usize;
    let per_interval: Vec<f64> = (0..whole)
        .map(|i| {
            let from = i as f64 * BURST_INTERVAL;
            let in_interval = answers
                .iter()
                .filter(|(t, _)| (from..from + BURST_INTERVAL).contains(t));
            in_interval.map(|(_, c)| *c).sum::<usize>() as f64 / BURST_INTERVAL
        })
        .collect();
    Ok(match median(&per_interval) {
        Some(rate) if whole >= 3 => rate,
        _ => cells as f64 / secs,
    })
}

/// Shares of `--seconds` the fixed-rate window and the saturation burst
/// get; the rate ladder gets the rest.
const WINDOW_SHARE: f64 = 0.6;
const BURST_SHARE: f64 = 0.2;

/// One `serve_hot` set-up: a daemon on a fresh verdict log in `dir`, with
/// every source of `pool` warmed into its result cache, which also writes
/// them to the log.  Returns the daemon, the warm-up's judged answers and
/// the time to leave out of the set-up (see `Daemon::accepted_client`).
fn warm_daemon(
    golden: &Golden,
    dir: &Path,
    pool: &[Source],
) -> Result<(Daemon, Vec<Judged>, Duration), String> {
    let d = start_logged(dir)?;
    let (mut client, wait) = d.accepted_client()?;
    let mut warm = Measured::default();
    let judged = request_each(golden, &mut client, pool, 1 << 40, &mut warm);
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.failures));
    }
    Ok((d, judged, wait))
}

/// A fresh directory for one run's verdict log under [`OUT_DIR`].
fn log_dir(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}-{}", std::process::id()))
}

/// Starts a daemon on a fresh verdict log in `dir`.
fn start_logged(dir: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("log dir: {e}"))?;
    Daemon::start(Some(dir.join(LOG_FILE)))
}

/// The verdict log's file name inside a run's log directory.
const LOG_FILE: &str = "verdicts.cclog";

/// Restarts a daemon on the log the run wrote in `dir` and checks what it
/// recovered: between 1 and `acknowledged` verdicts, and every verdict of
/// the `recheck` sources served from the recovered cache.  Records
/// `recovery_s` (bind, which replays the log, to the first answered ping)
/// and, when tracing, the log's replay and append costs.  Removes `dir`.
fn restart_on_log(
    golden: &Golden,
    dir: &Path,
    acknowledged: u64,
    recheck: &[Source],
    tracer: &Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let log = dir.join(LOG_FILE);
    let restarted = Instant::now();
    let daemon = Daemon::start(Some(log.clone()))?;
    let (mut client, _) = daemon.accepted_client()?;
    let recovery = restarted.elapsed().as_secs_f64();
    let recovered = daemon.server.stats().log_recovered;
    m.e2e.insert("recovery_s", recovery);
    m.layer("ccserve.recovery_ms", recovery * 1e3);
    m.notes.push(format!(
        "restart recovered {recovered} verdicts of {acknowledged} acknowledged"
    ));
    if recovered == 0 || recovered > acknowledged {
        m.fail(format!(
            "restart recovered {recovered} verdicts of {acknowledged} acknowledged"
        ));
    }
    for j in request_each(golden, &mut client, recheck, 1 << 41, m) {
        if j.error.is_none() && !j.all_cached {
            m.fail("a recovered verdict was recomputed after the restart".into());
        }
    }
    drop(client);
    daemon.stop();

    if tracer.on() {
        let started = Instant::now();
        let (_, state) = tracer
            .time("ccserve", "verdict_log_open", 0, || {
                VerdictLog::open(&log, FsyncPolicy::Always)
            })
            .map_err(|e| format!("log open: {e}"))?;
        m.layer(
            "ccserve.wal_replay_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        m.layer("ccserve.log_recovered", state.verdicts.len() as f64);
        let (mut wal, _) = VerdictLog::open(&dir.join("append.cclog"), FsyncPolicy::Always)
            .map_err(|e| format!("log open: {e}"))?;
        let appends: Vec<_> = state.verdicts.into_iter().take(2000).collect();
        let started = Instant::now();
        for (key, v) in &appends {
            wal.append_verdict(key, v)
                .map_err(|e| format!("append: {e}"))?;
        }
        m.layer(
            "ccserve.wal_append_us",
            started.elapsed().as_secs_f64() * 1e6 / appends.len().max(1) as f64,
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// `serve_hot`: every protocol and 24 families, equally often in a seeded
/// order, all answered from the result cache.  The daemon keeps a durable
/// verdict log, written by the cache warm-up during set-up; the measured
/// part ends with a restart on that log.
pub fn serve_hot(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Measured, String> {
    nproc_guard()?;
    let mut m = Measured::default();
    let golden = Golden::embedded();
    let dir = log_dir("serve_hot");
    let mut pool: Vec<Source> = table2_names().into_iter().map(Source::Table2).collect();
    pool.extend(families(HOT_FAMILIES).into_iter().map(Source::Family));
    let mut setups = Vec::new();
    let (daemon, warmed) = time_setup(&mut setups, || match warm_daemon(&golden, &dir, &pool) {
        Ok((d, judged, wait)) => (Ok((d, judged)), wait),
        Err(e) => (Err(e), Duration::ZERO),
    })?;
    let acknowledged = warmed.iter().map(|j| j.uncached_definite).sum();
    // the warm-up is the run's only uncached traffic
    let warm_states: u64 = warmed.iter().map(|j| j.uncached_states).sum();
    m.layer(
        "ccserve.miss_states_per_req",
        warm_states as f64 / pool.len() as f64,
    );
    let mut rng = Rng::new(seed);
    let n = request_count(RATE, seconds * WINDOW_SHARE);
    let offsets = arrivals(&mut rng, RATE, n);
    let mut sources: Vec<Source> = (0..n).map(|i| pool[i % pool.len()].clone()).collect();
    rng.shuffle(&mut sources);
    let (w, judged) = measure_window(&golden, &daemon, sources, &offsets, &mut m)?;
    let uncached = judged
        .iter()
        .filter(|j| j.error.is_none() && !j.all_cached)
        .count();
    m.notes.push(format!(
        "{uncached} requests were not answered wholly from the cache"
    ));
    let mut cycle = (0..).map(|i| pool[i % pool.len()].clone());
    let burst = seconds * BURST_SHARE;
    let cells_per_s = saturate(
        &golden,
        &daemon,
        burst,
        || cycle.next().unwrap(),
        1 << 30,
        &mut m,
    )?;
    m.e2e.insert("cells_per_s", cells_per_s);
    // the ladder's top rungs overload the daemon on purpose, and how much
    // they queue moves with the host's speed: the peak is taken before it
    m.e2e.insert("peak_rss_mb", crate::host::peak_rss_mb());
    let rung_seconds = seconds * (1.0 - WINDOW_SHARE - BURST_SHARE) / LADDER.len() as f64;
    let max_rate = climb_ladder(
        &golden,
        &daemon,
        rung_seconds,
        || cycle.next().unwrap(),
        &mut rng,
        1 << 31,
        &mut m,
    )?;
    m.e2e.insert("max_rate_rps", max_rate);
    m.notes
        .push(format!("max_rate_rps tail limit {LIMIT_MS} ms"));
    if tracer.on() {
        let costs = probe_serve(&daemon, &w, tracer, &mut m)?;
        record_request_spans(tracer, &w, &costs, &mut m);
    }
    daemon.stop();
    let recheck: Vec<Source> = pool.iter().take(RECHECKS).cloned().collect();
    restart_on_log(&golden, &dir, acknowledged, &recheck, tracer, &mut m)?;
    // The other set-ups run after the measured part: each daemon leaves
    // memory in the allocator that `peak_rss_mb` would count, and so the
    // set-ups sample the host at both ends of the run.
    let mut failure = None;
    more_setups(&mut setups, || {
        if failure.is_some() {
            return Duration::ZERO;
        }
        match warm_daemon(&golden, &dir, &pool) {
            Ok((d, _, wait)) => {
                let stopping = Instant::now();
                d.stop();
                wait + stopping.elapsed()
            }
            Err(e) => {
                failure = Some(e);
                Duration::ZERO
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failure {
        return Err(e);
    }
    report_setups(&mut m, &setups);
    Ok(m)
}
