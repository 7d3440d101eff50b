//! The in-process grids: `table2_grid` and `family_grid`.
//!
//! Each run sets up several times (see `report_setups` for `setup_s`): a
//! set-up builds every model of the grid and compiles its counter system at
//! every valuation of the grid.  Between set-ups it runs whole passes over
//! its grid until `--seconds` have elapsed.  One operation is one
//! verification call: `verify_protocol` for a protocol,
//! `check_over_sweep_with_stats` for a family.

use crate::corpus::{families, metric_suffix, FamilyInput, Rng, Source};
use crate::gate::{self, Golden, TABLE2_EXPECTED};
use crate::stats::{median, median_over, percentile, sorted, tail};
use crate::trace::Tracer;
use crate::{host, thread_budget, Measured};
use ccchecker::{check_over_sweep_with_stats, CheckerOptions, ExplicitChecker, GraphCacheStats};
use cccore::{verify_protocol, VerifierConfig};
use cccounter::CounterSystem;
use std::time::{Duration, Instant};

/// Set-ups per run: `MIN_SETUPS` or more.  The grids set up `MIN_SETUPS`
/// times before their first pass and once more before each further pass,
/// so their set-ups sample the host over the whole run.  `serve_hot` sets
/// up once before and the rest after its measured part (see
/// [`more_setups`]).
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 51;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Passes a run makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;

/// Families in `family_grid`: seeds 0 to 47 of each point.
const GRID_FAMILIES: usize = 144;

/// Families whose cold checks the traced `family_grid` probes.
const PROBED_FAMILIES: usize = 24;

/// The Table II grid: every obligation on up to 16 valuations of at most 5
/// modelled processes and parameter values up to 9, at the benchmark's
/// thread budget.
pub fn table2_config() -> VerifierConfig {
    VerifierConfig {
        max_param_value: 9,
        max_processes: 5,
        max_valuations: 16,
        threads: thread_budget(),
        ..VerifierConfig::default()
    }
}

/// Times one set-up, the run's first from process start, and pushes its
/// time.  A set-up returns its product and a part of its time to leave out
/// (see `serve::Daemon::accepted_client`).
pub(crate) fn time_setup<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> (T, Duration)) -> T {
    let started = host::take_process_start().unwrap_or_else(Instant::now);
    let (product, left_out) = setup();
    times.push(started.elapsed().saturating_sub(left_out).as_secs_f64());
    product
}

/// Groups `setup_s` is taken over: set-up `i` joins group
/// `i % SETUP_GROUPS`, so each group spans the whole run.
const SETUP_GROUPS: usize = 5;

/// Records `setup_s`: the median over [`SETUP_GROUPS`] of each group's mean
/// set-up time.  The shared host slows short, allocation-heavy work by up
/// to 1.6× for stretches of tens of milliseconds to seconds, so single
/// set-ups fall into a fast and a slow mode.  A plain median would flip
/// between the modes from run to run; each group's mean averages over
/// them, and the median of the groups drops a group that caught a stall.
pub(crate) fn report_setups(m: &mut Measured, times: &[f64]) {
    let means: Vec<f64> = (0..SETUP_GROUPS.min(times.len()))
        .map(|g| {
            let group: Vec<f64> = times
                .iter()
                .skip(g)
                .step_by(SETUP_GROUPS)
                .copied()
                .collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    m.e2e
        .insert("setup_s", median(&means).expect("MIN_SETUPS > 0"));
    m.notes.push(format!(
        "setup_s is the median of {} group means over {} set-ups (first {:.6} s, fastest {:.6} s, slowest {:.6} s)",
        means.len(),
        times.len(),
        times[0],
        times.iter().copied().fold(f64::INFINITY, f64::min),
        times.iter().copied().fold(0.0, f64::max)
    ));
}

/// Times set-ups back to back until the run has `MIN_SETUPS`, then more
/// while these have taken less than `SETUP_BUDGET`, up to `MAX_SETUPS` in
/// all, so cheap set-ups, whose times a stall of the shared host moves
/// most, are repeated most.  `setup` returns the time to leave out.
pub(crate) fn more_setups(times: &mut Vec<f64>, mut setup: impl FnMut() -> Duration) {
    let first = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && first.elapsed() < SETUP_BUDGET) {
        time_setup(times, || ((), setup()));
    }
}

/// A grid's first `MIN_SETUPS` set-ups; returns the last one's product.
fn grid_setups<T>(times: &mut Vec<f64>, setup: &impl Fn() -> (T, Duration)) -> T {
    let mut product = None;
    for _ in 0..MIN_SETUPS {
        product = Some(time_setup(times, setup));
    }
    product.expect("MIN_SETUPS > 0")
}

/// Compiles the counter system of `model` at every valuation of a grid
/// (`cccounter`).  The verifier and the sweep compile these again inside
/// the timed pass; a grid set-up compiles them too so that `setup_s`
/// covers the whole model build, not only the protocol definitions.
fn compile_all(
    model: &ccta::SystemModel,
    valuations: &[ccta::ParamValuation],
    tracer: &Tracer,
    i: usize,
) {
    tracer.time("cccounter", "compile", i as u64, || {
        for v in valuations {
            let system = CounterSystem::new(model.clone(), v.clone()).expect("admissible");
            std::hint::black_box(system);
        }
    });
}

/// Accumulates graph-cache records across calls.
fn merge(into: &mut GraphCacheStats, from: &GraphCacheStats) {
    into.groups.extend(from.groups.iter().cloned());
    into.uncached_specs += from.uncached_specs;
}

/// Runs timed passes until `seconds` have elapsed, calling
/// `set_up_again` untimed before each pass after the first.  `pass` runs
/// one pass, pushes each call's latency in ms and returns its cell count;
/// it records its own operations.
///
/// `latency_p50_ms` is the median over passes of each pass's median call,
/// so it tracks the middle protocol rather than the edge of a gap in the
/// pooled distribution; `latency_tail_ms` is taken over all calls.
fn timed_passes(
    seconds: f64,
    m: &mut Measured,
    tracer: &Tracer,
    mut set_up_again: impl FnMut(),
    mut pass: impl FnMut(&mut Measured, &mut Vec<f64>, &mut GraphCacheStats) -> usize,
) -> GraphCacheStats {
    let mut per_pass: Vec<Vec<f64>> = Vec::new();
    let mut pass_ms = Vec::new();
    let mut cells_per_s = Vec::new();
    let mut last_stats = GraphCacheStats::default();
    let first_span = tracer.mark();
    let started = Instant::now();
    while pass_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        // a traced run reports no set-up time, and its timed window holds
        // only the passes' spans
        if !pass_ms.is_empty() && !tracer.on() {
            set_up_again();
        }
        let mut stats = GraphCacheStats::default();
        let mut latencies = Vec::new();
        let pass_start = Instant::now();
        let cells = pass(m, &mut latencies, &mut stats);
        let secs = pass_start.elapsed().as_secs_f64();
        pass_ms.push(secs * 1e3);
        cells_per_s.push(cells as f64 / secs);
        per_pass.push(latencies);
        last_stats = stats;
    }
    m.timed_wall_ms = pass_ms.iter().sum();
    m.timed_spans = (first_span, tracer.mark());
    m.primary_ms = median(&pass_ms).expect("MIN_PASSES > 0");
    m.e2e
        .insert("cells_per_s", median(&cells_per_s).expect("MIN_PASSES > 0"));
    let all = sorted(per_pass.concat());
    m.e2e.insert(
        "latency_p50_ms",
        median_over(per_pass, |p| percentile(p, 50.0)).expect("every pass has calls"),
    );
    match tail(&all) {
        Some(t) => {
            m.e2e.insert("latency_tail_ms", t.value);
            m.notes.push(format!(
                "latency_tail_ms is p{} of {} calls ({} beyond)",
                t.percentile, t.samples, t.beyond
            ));
        }
        None => m.fail(format!(
            "only {} calls: too few for a tail percentile",
            all.len()
        )),
    }
    m.notes.push(format!(
        "{} passes, median pass {:.1} ms",
        pass_ms.len(),
        m.primary_ms
    ));
    last_stats
}

/// Records the graph-cache counters of one pass, and the largest
/// `GraphCacheStats::resident_bytes` of one call in it (which counts a
/// lineage graph once per valuation it served).
fn record_cache_stats(m: &mut Measured, s: &GraphCacheStats, max_resident: usize) {
    m.layer(
        "ccchecker.resident_mb",
        max_resident as f64 / (1 << 20) as f64,
    );
    let reused = s.reused_groups();
    let extended = s.extended_groups();
    let pruned = s.pruned_groups();
    let rebuilt = s.rebuilt_groups();
    let groups = s.groups.len();
    m.layer(
        "ccchecker.graphs.built",
        (groups - reused - extended - pruned - rebuilt) as f64,
    );
    m.layer("ccchecker.graphs.reused", reused as f64);
    m.layer("ccchecker.graphs.extended", extended as f64);
    m.layer("ccchecker.graphs.pruned", pruned as f64);
    m.layer("ccchecker.graphs.rebuilt", rebuilt as f64);
    m.layer("ccchecker.lineage_groups", groups as f64);
    m.layer("ccchecker.lineage_reuse_rate", s.lineage_reuse_rate());
    m.layer(
        "ccchecker.memo_lookups",
        (s.memo_hits() + s.memo_misses()) as f64,
    );
    m.layer("ccchecker.memo_hit_rate", s.memo_hit_rate());
    m.layer("ccchecker.explorations_paid", s.explorations_paid() as f64);
    m.layer("ccchecker.amortization", s.amortization());
}

/// One source's request-path costs, as [`probe_layers`] measured them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCost {
    /// Model resolution (`ccprotocols`).
    pub resolve: Duration,
    /// Counter-system compile of every valuation (`cccounter`).
    pub compile: Duration,
    /// System, valuation and spec fingerprints (`cccore`).
    pub fingerprint: Duration,
}

/// Measures the layers below the verifier on `sources`, with the public
/// calls the daemon and the verifier make: resolution (`ccprotocols`),
/// counter-system compile (`cccounter`), fingerprints (`cccore`), and —
/// for the first `cold` sources — a cold single-worker
/// `check_all_with_stats` plus a `check_with_stats` store probe on the
/// first valuation (`ccchecker`).  Returns each source's resolve, compile
/// and fingerprint times, in the order of `sources`.
pub fn probe_layers(
    sources: &[Source],
    table2: &VerifierConfig,
    cap: usize,
    cold: usize,
    tracer: &Tracer,
    m: &mut Measured,
) -> Vec<SourceCost> {
    let mut costs = Vec::with_capacity(sources.len());
    let mut compiled = 0usize;
    let (mut states, mut transitions, mut check_ns) = (0usize, 0usize, 0u128);
    let (mut max_probe, mut loads) = (0usize, Vec::new());
    for (i, src) in sources.iter().enumerate() {
        let started = Instant::now();
        let r = tracer.time("ccprotocols", "resolve", i as u64, || {
            src.resolve(table2, cap)
        });
        let resolve = started.elapsed();
        let started = Instant::now();
        let systems: Vec<CounterSystem> = tracer.time("cccounter", "compile", i as u64, || {
            r.valuations
                .iter()
                .map(|v| CounterSystem::new(r.model.clone(), v.clone()).expect("admissible"))
                .collect()
        });
        let compile = started.elapsed();
        compiled += systems.len();
        let started = Instant::now();
        tracer.time("cccore", "fingerprint", i as u64, || {
            let mut h = cccore::system_fingerprint(&r.model);
            for v in &r.valuations {
                h ^= cccore::valuation_fingerprint(v);
            }
            for s in &r.specs {
                h ^= cccore::spec_fingerprint(s);
            }
            std::hint::black_box(h)
        });
        costs.push(SourceCost {
            resolve,
            compile,
            fingerprint: started.elapsed(),
        });
        if i < cold {
            let checker = ExplicitChecker::with_options(
                &systems[0],
                CheckerOptions::default().with_workers(1),
            );
            let started = Instant::now();
            let (_, stats) = tracer.time("ccchecker", "check_all_with_stats", i as u64, || {
                checker.check_all_with_stats(&r.specs)
            });
            check_ns += started.elapsed().as_nanos();
            states += stats.cached_states();
            transitions += stats.cached_transitions();
            let fresh = ExplicitChecker::with_options(
                &systems[0],
                CheckerOptions::default().with_workers(1),
            );
            let (_, store) = fresh.check_with_stats(&r.specs[0]);
            max_probe = max_probe.max(store.max_probe_len);
            loads.push(store.index_load);
        }
    }
    let total_us = |cost: fn(&SourceCost) -> Duration| {
        costs.iter().map(cost).sum::<Duration>().as_secs_f64() * 1e6
    };
    let n = sources.len().max(1) as f64;
    m.layer("ccprotocols.resolve_us", total_us(|c| c.resolve) / n);
    m.layer(
        "cccounter.compile_us",
        total_us(|c| c.compile) / compiled.max(1) as f64,
    );
    m.layer("cccore.fingerprint_us", total_us(|c| c.fingerprint) / n);
    if check_ns > 0 {
        let secs = check_ns as f64 / 1e9;
        m.layer("ccchecker.states_per_s", states as f64 / secs);
        m.layer("ccchecker.transitions_per_s", transitions as f64 / secs);
        m.layer("ccchecker.cold_states", states as f64);
        m.layer("ccchecker.store_max_probe", max_probe as f64);
        m.layer("ccchecker.store_index_load", median(&loads).unwrap_or(0.0));
    }
    costs
}

/// Verdict cells of one protocol verification.
fn cells_of(v: &cccore::ProtocolVerification) -> usize {
    [&v.agreement, &v.validity, &v.termination]
        .iter()
        .flat_map(|p| &p.reports)
        .map(|r| r.outcomes.len())
        .sum()
}

/// `table2_grid`: every Table II protocol per pass, in a seeded order.
pub fn table2_grid(seed: u64, seconds: f64, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let config = table2_config();
    let setup = || {
        let protocols = tracer.time(
            "ccprotocols",
            "all_protocols",
            0,
            ccprotocols::all_protocols,
        );
        for (i, p) in protocols.iter().enumerate() {
            let (model, valuations) = tracer.time("ccprotocols", "build_model", i as u64, || {
                let model = p.single_round();
                std::hint::black_box(cccore::obligations_for(p, &model));
                let valuations = config.select_valuations(&model);
                (model, valuations)
            });
            compile_all(&model, &valuations, tracer, i);
        }
        (protocols, Duration::ZERO)
    };
    let mut setups = Vec::new();
    let protocols = grid_setups(&mut setups, &setup);
    let mut rng = Rng::new(seed);
    let mut max_resident = 0;
    let again = || drop(time_setup(&mut setups, setup));
    let stats = timed_passes(seconds, &mut m, tracer, again, |m, latencies, stats| {
        let mut order: Vec<usize> = (0..protocols.len()).collect();
        rng.shuffle(&mut order);
        let mut cells = 0;
        for i in order {
            let started = Instant::now();
            let v = tracer.time("cccore", "verify_protocol", i as u64, || {
                verify_protocol(&protocols[i], &config)
            });
            latencies.push(started.elapsed().as_secs_f64() * 1e3);
            m.attempted += 1;
            if let Err(e) = gate::check_table2(&v, &TABLE2_EXPECTED) {
                m.fail(e);
            }
            cells += cells_of(&v);
            merge(stats, &v.cache);
            max_resident = max_resident.max(v.cache.resident_bytes());
        }
        cells
    });
    report_setups(&mut m, &setups);
    if tracer.on() {
        record_cache_stats(&mut m, &stats, max_resident);
        for (i, p) in protocols.iter().enumerate() {
            let ms = tracer.median_ms("verify_protocol", i as u64).unwrap_or(0.0);
            m.layer(&format!("cccore.verify_ms.{}", metric_suffix(p.name())), ms);
        }
        let sources: Vec<Source> = protocols
            .iter()
            .map(|p| Source::Table2(p.name().to_string()))
            .collect();
        probe_layers(
            &sources,
            &config,
            config.max_valuations,
            sources.len(),
            tracer,
            &mut m,
        );
    }
    m
}

/// `family_grid`: 48 families of each point per pass, in a seeded order,
/// each swept over its guard-adjacent grid.
pub fn family_grid(seed: u64, seconds: f64, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let threads = thread_budget();
    let golden = Golden::embedded();
    let ids = families(GRID_FAMILIES);
    let setup = || {
        let inputs: Vec<FamilyInput> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let input = tracer.time("ccprotocols", "instantiate", i as u64, || {
                    FamilyInput::build(id)
                });
                compile_all(&input.family.single_round, &input.family.sweep, tracer, i);
                input
            })
            .collect();
        (inputs, Duration::ZERO)
    };
    let mut setups = Vec::new();
    let inputs = grid_setups(&mut setups, &setup);
    let mut rng = Rng::new(seed);
    let mut max_resident = 0;
    let again = || drop(time_setup(&mut setups, setup));
    let stats = timed_passes(seconds, &mut m, tracer, again, |m, latencies, stats| {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        let mut cells = 0;
        for i in order {
            let input = &inputs[i];
            let fam = &input.family;
            let started = Instant::now();
            let (reports, cache) = tracer.time("ccchecker", "check_over_sweep", i as u64, || {
                check_over_sweep_with_stats(
                    &fam.single_round,
                    &input.specs,
                    &fam.sweep,
                    CheckerOptions::default(),
                    threads,
                )
            });
            latencies.push(started.elapsed().as_secs_f64() * 1e3);
            m.attempted += 1;
            let key = input.id.key();
            let bad = gate::bad_sweep_cells(&reports);
            if bad > 0 {
                m.fail(format!(
                    "{key}: {bad} interrupted, failed or undecided cells"
                ));
            } else if let Err(e) = golden.check_grid(&key, gate::grid_digest(&reports)) {
                m.fail(e);
            }
            cells += reports.iter().map(|r| r.outcomes.len()).sum::<usize>();
            merge(stats, &cache);
            max_resident = max_resident.max(cache.resident_bytes());
        }
        cells
    });
    report_setups(&mut m, &setups);
    if tracer.on() {
        record_cache_stats(&mut m, &stats, max_resident);
        let probed = families(PROBED_FAMILIES);
        let sources: Vec<Source> = probed.into_iter().map(Source::Family).collect();
        let n = sources.len();
        probe_layers(&sources, &table2_config(), usize::MAX, n, tracer, &mut m);
    }
    m
}
