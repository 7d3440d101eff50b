//! One benchmark for the checker and the `ccserve` daemon.
//!
//! Three workloads run from one binary (`src/main.rs`):
//!
//! * `table2_grid`: `cccore::verify_protocol` over the eight Table II
//!   protocols on a wide valuation grid, gated against Table II.
//! * `family_grid`: `ccchecker::check_over_sweep_with_stats` over seeded
//!   generated families, gated against pinned digests.
//! * `serve_hot`: an open loop against an in-process `ccserve::Server`
//!   whose result cache holds every answer, with a durable verdict log and
//!   a daemon restart on that log.
//!
//! An untraced run reports the end-to-end metrics ([`E2E`]); a traced run
//! reports the per-layer metrics ([`PER_LAYER`]).  `DESIGN.md` says which
//! layer metric should move which end-to-end metric on which workload.

pub mod corpus;
pub mod gate;
pub mod grid;
pub mod host;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["table2_grid", "family_grid", "serve_hot"];

/// End-to-end metrics (name, unit), reported by every workload's untraced
/// run and gated.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures the untraced report prints beside [`E2E`] but does
/// not gate: the latency tail, whose run-to-run spread on a shared
/// two-vCPU host exceeds any bound a gate may use; the highest offered
/// rate that meets the latency limit and the restart-to-first-ping time
/// (`serve_hot` only, so not comparable across workloads).
pub const EXTRAS: [(&str, &str); 3] = [
    ("latency_tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("recovery_s", "s"),
];

/// Per-layer metrics (name, unit), reported by every workload's traced
/// run; a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("ccprotocols.resolve_us", "us"),
    ("cccounter.compile_us", "us"),
    ("cccore.fingerprint_us", "us"),
    ("cccore.verify_ms.Rabin83", "ms"),
    ("cccore.verify_ms.CC85a", "ms"),
    ("cccore.verify_ms.CC85b", "ms"),
    ("cccore.verify_ms.FMR05", "ms"),
    ("cccore.verify_ms.KS16", "ms"),
    ("cccore.verify_ms.MMR14", "ms"),
    ("cccore.verify_ms.Miller18", "ms"),
    ("cccore.verify_ms.ABY22", "ms"),
    ("ccchecker.states_per_s", "1/s"),
    ("ccchecker.transitions_per_s", "1/s"),
    ("ccchecker.cold_states", "count"),
    ("ccchecker.store_max_probe", "count"),
    ("ccchecker.store_index_load", "ratio"),
    ("ccchecker.graphs.built", "count"),
    ("ccchecker.graphs.reused", "count"),
    ("ccchecker.graphs.extended", "count"),
    ("ccchecker.graphs.pruned", "count"),
    ("ccchecker.graphs.rebuilt", "count"),
    ("ccchecker.lineage_groups", "count"),
    ("ccchecker.lineage_reuse_rate", "ratio"),
    ("ccchecker.memo_lookups", "count"),
    ("ccchecker.memo_hit_rate", "ratio"),
    ("ccchecker.explorations_paid", "count"),
    ("ccchecker.amortization", "ratio"),
    ("ccchecker.resident_mb", "MB"),
    ("ccserve.requests", "count"),
    ("ccserve.ping_rtt_us", "us"),
    ("ccserve.wire_encode_us", "us"),
    ("ccserve.wire_decode_us", "us"),
    ("ccserve.response_bytes", "B"),
    ("ccserve.queue_depth_max", "count"),
    ("ccserve.shed", "count"),
    ("ccserve.cache_lookups", "count"),
    ("ccserve.cache_hit_rate", "ratio"),
    ("ccserve.cache_get_ns", "ns"),
    ("ccserve.miss_states_per_req", "count"),
    ("ccserve.wal_append_us", "us"),
    ("ccserve.wal_replay_ms", "ms"),
    ("ccserve.log_recovered", "count"),
    ("ccserve.recovery_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("ccprotocols.self_ms", "ms"),
    ("cccounter.self_ms", "ms"),
    ("cccore.self_ms", "ms"),
    ("ccchecker.self_ms", "ms"),
    ("ccserve.self_ms", "ms"),
    ("trace.timed_wall_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (grid verification calls, or requests).
    pub attempted: u64,
    /// Operations that failed the correctness gate, were refused or erred.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end values by name (see [`E2E`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (see [`PER_LAYER`]); filled by traced
    /// runs.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed beside the metrics.
    pub notes: Vec<String>,
    /// The figure tracing overhead is measured on, in ms (the median grid
    /// pass, or the median request latency).
    pub primary_ms: f64,
    /// Wall time of the timed operations, in ms: the denominator of the
    /// span coverage.
    pub timed_wall_ms: f64,
    /// Index of the first span recorded in the timed window, and one past
    /// the last.
    pub timed_spans: (usize, usize),
}

impl Measured {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Thread budget of the grids and worker slots of the daemon: two, or the
/// host's CPU count if smaller.  Two is the smallest budget at which the
/// sweep scheduler splits a grid across threads.
pub fn thread_budget() -> usize {
    host::nproc().min(2)
}

/// Runs one workload once, traced or not.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &trace::Tracer,
) -> Result<Measured, String> {
    match name {
        "table2_grid" => Ok(grid::table2_grid(seed, seconds, tracer)),
        "family_grid" => Ok(grid::family_grid(seed, seconds, tracer)),
        "serve_hot" => serve::serve_hot(seed, seconds, tracer),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or all)"
        )),
    }
}
