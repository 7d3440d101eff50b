//! Randomized differential testing of the exploration engine.
//!
//! The hand-picked fixtures and the eight benchmark protocols pin the
//! engine on *known* shapes; this suite hammers it with ~100 seeded random
//! small counter systems (random intra-round DAGs, guards, updates and
//! tracked location sets, generated by `ccprotocols::family`'s
//! compatibility seed mode — the frozen RNG schedule of this suite's
//! original private generator, so the corpus is bit-identical to what the
//! suite always ran) and checks these contracts on each:
//!
//! * **Engine ≡ reference** — verdict, distinct-state count, transition
//!   count, and (for violations) the counterexample schedule step for step,
//!   which must also replay on the counter system.
//! * **Pooled waves ≡ sequential** — the persistent-pool wave pipeline at
//!   1, 2 and 4 workers × wave sizes {1, 7, unbounded} is bit-identical to
//!   the sequential loop (tiny wave sizes also lower the parallel-entry
//!   threshold, so these small systems genuinely exercise the wave path).
//! * **Cached ≡ uncached** — the reachability-graph cache
//!   (`check_all` sharing one exploration per start-restriction group) at
//!   1, 2 and 4 workers returns the same verdict as the per-spec path for
//!   every obligation, and every cached counterexample replays to a
//!   genuine violation of its spec.
//! * **Incremental ≡ fresh** — a sweep over guard-adjacent valuations
//!   (its graph lineage reusing, extending and pruning graphs, its verdict
//!   memo serving repeat queries) returns, cell for cell, what a fresh
//!   `check_all` returns at that valuation, at 1, 2 and 4 workers — also
//!   when the steps run in the other order, so the memo serves a pruned
//!   graph and a relax step extends it.
//! * **Interrupted ≡ uninterrupted** — a `CheckJob` tripped by a state
//!   budget at a random cap, checkpointed and resumed (repeatedly, with a
//!   doubling cap) produces verdicts, counts and counterexample schedules
//!   bit-identical to a run that was never interrupted, at 1, 2 and 4
//!   workers.
//!
//! A failure message always includes the generator seed, so any
//! counterexample system can be rebuilt deterministically.

use ccchecker::reference::reference_check;
use ccchecker::{
    check_over_sweep_with_stats, CellDisposition, CheckJob, CheckOutcome, CheckStatus,
    CheckerOptions, ExplicitChecker, JobBudget, JobOutcome, Spec,
};
use cccounter::CounterSystem;
use ccprotocols::family::{differential_family, differential_obligations_with};
use ccta::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random systems per test.
const SYSTEMS: usize = 100;

/// One random small system from the family generator's compatibility seed
/// mode: a valid multi-round model (random intra-round process DAG plus the
/// standard fair-coin automaton) at an admissible valuation with 2–3
/// modelled processes.
fn random_system(seed: u64) -> (CounterSystem, Vec<String>) {
    let fam = differential_family(seed);
    let sys = CounterSystem::new(fam.single_round, fam.valuation)
        .unwrap_or_else(|e| panic!("seed {seed}: valuation must be admissible: {e:?}"));
    (sys, fam.mids)
}

/// Random obligations over a random system: every query shape of the
/// catalogue, over random tracked sets.  Draws from the caller's RNG so
/// tests that derive further values (the interrupt axis's state caps) keep
/// their historical draw positions.
fn random_specs(rng: &mut StdRng, model: &SystemModel, mids: &[String]) -> Vec<Spec> {
    Spec::family_catalogue(model, &differential_obligations_with(rng, mids))
}

#[test]
fn random_systems_match_the_reference_engine() {
    let mut verdicts = [0usize; 3];
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let options = CheckerOptions::default();
        for spec in random_specs(&mut rng, sys.model(), &mids) {
            let engine = ExplicitChecker::with_options(&sys, options).check(&spec);
            let reference = reference_check(&sys, &spec, &options);
            assert_eq!(
                engine.status,
                reference.status,
                "seed {seed}: verdicts differ on {}",
                spec.name()
            );
            assert_eq!(
                engine.states_explored,
                reference.states_explored,
                "seed {seed}: state counts differ on {}",
                spec.name()
            );
            assert_eq!(
                engine.transitions_explored,
                reference.transitions_explored,
                "seed {seed}: transition counts differ on {}",
                spec.name()
            );
            verdicts[match engine.status {
                CheckStatus::Holds => 0,
                CheckStatus::Violated => 1,
                CheckStatus::Unknown => 2,
            }] += 1;
            if engine.status == CheckStatus::Violated {
                let e = engine.counterexample.expect("engine counterexample");
                let r = reference.counterexample.expect("reference counterexample");
                assert_eq!(
                    e.initial,
                    r.initial,
                    "seed {seed}: counterexample initials differ on {}",
                    spec.name()
                );
                assert_eq!(
                    e.schedule.steps(),
                    r.schedule.steps(),
                    "seed {seed}: counterexample schedules differ on {}",
                    spec.name()
                );
                // the counterexample is a real execution of the system
                let path = e
                    .schedule
                    .apply(&sys, &e.initial)
                    .unwrap_or_else(|err| panic!("seed {seed}: must replay: {err:?}"));
                assert_eq!(path.len(), e.schedule.len());
            }
        }
    }
    // the random family is not degenerate: both verdicts actually occur
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "degenerate verdict distribution: {verdicts:?}"
    );
}

/// Replays a counterexample and asserts the resulting execution genuinely
/// violates the spec it was reported for.
fn assert_genuine_violation(
    sys: &CounterSystem,
    spec: &Spec,
    ce: &ccchecker::Counterexample,
    ctx: &str,
) {
    // structural acyclicity violations carry no schedule to replay
    if ce.explanation.contains("cycle") {
        assert!(ce.schedule.is_empty(), "{ctx}");
        return;
    }
    let path = ce
        .schedule
        .apply(sys, &ce.initial)
        .unwrap_or_else(|e| panic!("{ctx}: counterexample must replay: {e:?}"));
    match spec {
        Spec::NeverFrom { forbidden, .. } => {
            assert!(
                path.visits(|cfg| forbidden.is_occupied(cfg)),
                "{ctx}: the path never occupies {}",
                forbidden.name()
            );
        }
        Spec::CoverNever {
            trigger, forbidden, ..
        } => {
            assert!(
                path.visits(|cfg| trigger.is_occupied(cfg))
                    && path.visits(|cfg| forbidden.is_occupied(cfg)),
                "{ctx}: the path must occupy both {} and {}",
                trigger.name(),
                forbidden.name()
            );
        }
        Spec::ExistsAvoidOneOf { forbidden_sets, .. } => {
            for set in forbidden_sets {
                assert!(
                    path.visits(|cfg| set.is_occupied(cfg)),
                    "{ctx}: the strategy path never occupies {}",
                    set.name()
                );
            }
        }
        Spec::NonBlocking { .. } => {
            let last = path.last();
            assert!(
                sys.is_terminal(last),
                "{ctx}: a blocking path must end terminal"
            );
            let model = sys.model();
            assert!(
                model
                    .loc_ids()
                    .any(|l| last.counter(l, 0) > 0
                        && model.location(l).class() != LocClass::BorderCopy),
                "{ctx}: the terminal configuration must strand an automaton"
            );
        }
    }
}

#[test]
fn random_systems_cached_catalogue_matches_uncached() {
    let mut cached_violations = 0usize;
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let specs = random_specs(&mut rng, sys.model(), &mids);
        // the per-spec path, one exploration per obligation, is the
        // cache's independent oracle
        let per_spec_checker = ExplicitChecker::new(&sys);
        let uncached: Vec<_> = specs.iter().map(|s| per_spec_checker.check(s)).collect();
        for workers in [1, 2, 4] {
            // wave size 1 lowers the parallel-entry threshold so pooled
            // runs genuinely exercise the parallel cache build
            let options = CheckerOptions {
                workers,
                wave_size: if workers > 1 { 1 } else { 0 },
                ..CheckerOptions::default()
            };
            let checker = ExplicitChecker::with_options(&sys, options);
            let (cached, stats) = checker.check_all_with_stats(&specs);
            assert!(
                stats.graphs_built() > 0 && stats.uncached_specs == 0,
                "seed {seed}: the cached axis must actually exercise the cache"
            );
            for ((spec, c), u) in specs.iter().zip(&cached).zip(&uncached) {
                let ctx = format!("seed {seed}, {} at {workers} workers", spec.name());
                assert_eq!(c.status, u.status, "cached verdict differs: {ctx}");
                if c.status == CheckStatus::Violated {
                    let ce = c.counterexample.as_ref().expect("cached counterexample");
                    assert_genuine_violation(&sys, spec, ce, &ctx);
                    cached_violations += 1;
                }
            }
        }
    }
    assert!(
        cached_violations > 0,
        "degenerate corpus: no cached violation was replayed"
    );
}

/// Lineage and memo counters summed over a corpus of guard-adjacent sweeps
/// (single-worker runs only, so each step is counted once).
#[derive(Default)]
struct SweepTally {
    reused: usize,
    extended: usize,
    rebuilt: usize,
    pruned: usize,
    memo_hits: usize,
    replayed: usize,
}

/// Sweeps every resilience-2 random system over the guard-adjacent grid
/// that `grid` builds from the valuation pair `[t=1, t=2]` (n = 5 fixed),
/// at 1, 2 and 4 in-check workers, and asserts every checked cell is
/// bit-identical — verdict, state count, transition count, detail and
/// counterexample schedule — to a fresh `check_all` at its valuation.  A
/// fresh checker has no lineage and no repeat queries, so it is the oracle
/// for reuse, extension, prune and verdict memo at once.  Every
/// counterexample the sweep mints must replay to a genuine violation.
fn sweep_against_fresh(grid: impl Fn(&[ParamValuation; 2]) -> Vec<ParamValuation>) -> SweepTally {
    let mut tally = SweepTally::default();
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let model = sys.model().clone();
        // the resilience-3 environment needs n = 7 for two admissible t
        // values, which makes 6-process sweeps too heavy for this corpus:
        // keep the guard-adjacent axis to the resilience-2 systems (n = 5,
        // 4 processes), which are roughly half the seeds
        let env = model.env();
        let pair = [
            ParamValuation::new(vec![5, 1, 1, 1]),
            ParamValuation::new(vec![5, 2, 1, 1]),
        ];
        if !pair.iter().all(|v| env.is_admissible(v)) {
            continue;
        }
        let valuations = grid(&pair);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let specs = random_specs(&mut rng, &model, &mids);
        let fresh: Vec<Vec<CheckOutcome>> = valuations
            .iter()
            .map(|v| {
                let cell_sys = CounterSystem::new(model.clone(), v.clone()).expect("admissible");
                ExplicitChecker::new(&cell_sys).check_all(&specs)
            })
            .collect();
        for workers in [1, 2, 4] {
            // wave size 1 lowers the parallel-entry threshold so pooled
            // runs genuinely exercise the parallel extension path
            let options = CheckerOptions {
                workers,
                wave_size: if workers > 1 { 1 } else { 0 },
                ..CheckerOptions::default()
            };
            let (swept, stats) =
                check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);
            if workers == 1 {
                tally.reused += stats.reused_groups();
                tally.extended += stats.extended_groups();
                tally.rebuilt += stats.rebuilt_groups();
                tally.pruned += stats.pruned_groups();
                tally.memo_hits += stats.memo_hits();
            }
            for (spec_idx, (spec, report)) in specs.iter().zip(&swept).enumerate() {
                let ctx = format!("seed {seed}, {} at {workers} workers", report.spec_name);
                assert_eq!(report.outcomes.len(), valuations.len(), "{ctx}");
                for (v, cell) in report.outcomes.iter().enumerate() {
                    if cell.disposition == CellDisposition::Skipped {
                        continue;
                    }
                    let oracle = &fresh[v][spec_idx];
                    let cell_ctx = format!("{ctx} at {}", cell.params);
                    assert_eq!(cell.params, valuations[v], "{cell_ctx}");
                    assert_outcomes_identical(&cell.outcome, oracle, &cell_ctx);
                    if let Some(ce) = &cell.outcome.counterexample {
                        let cell_sys = CounterSystem::new(model.clone(), ce.params.clone())
                            .expect("admissible");
                        assert_genuine_violation(&cell_sys, spec, ce, &cell_ctx);
                        tally.replayed += 1;
                    }
                }
            }
        }
    }
    tally
}

#[test]
fn random_systems_incremental_sweep_matches_fresh() {
    // Random guard-adjacent valuation steps: raising t with n fixed keeps
    // the system size (n - f processes) and lowers the n - t - f quorum
    // bounds, so the sweep [t=1, t=2, t=2, t=1] walks a relax step, an
    // identical step and a tighten step through every random system.
    let tally = sweep_against_fresh(|[lo, hi]| {
        vec![
            lo.clone(), // built
            hi.clone(), // quorum drops: relax-only extension
            hi.clone(), // identical bounds: pure reuse + memo hits
            lo.clone(), // quorum rises: tighten, in-place prune
        ]
    });
    // the corpus must actually walk every lineage classification, hit the
    // memo and replay at least one incremental counterexample
    assert!(tally.reused > 0, "no identical step was reused");
    assert!(tally.extended > 0, "no relax-only step was extended");
    // the n-fixed grid never changes the system size, so every tighten
    // step must take the in-place prune, never a rebuild
    assert!(tally.pruned > 0, "no tighten step was pruned in place");
    assert_eq!(
        tally.rebuilt, 0,
        "a guard-adjacent tighten step fell back to a rebuild"
    );
    assert!(
        tally.memo_hits > 0,
        "no identical step ever hit the verdict memo"
    );
    assert!(
        tally.replayed > 0,
        "no incremental counterexample was replayed"
    );
}

#[test]
fn random_systems_sweep_levers_are_verdict_invariant() {
    // The memoization/compaction levers are pure performance knobs, so
    // stacking them must not move a verdict either.  This grid runs the
    // incremental axis's steps in the other order,
    // [t=2, t=1, t=1, t=2, t=2]: the tighten-only prune comes first, the
    // verdict memo then serves an identical step on the *pruned* graph, a
    // relax step extends that pruned graph, and the memo serves the
    // extended-after-pruned graph.  Every checked cell must still be
    // bit-identical to a fresh `check_all`, both levers must genuinely act
    // (≥1 pruned step, ≥1 memo hit, no rebuild), and every counterexample
    // minted from a pruned or memoised graph must replay strictly.
    let tally = sweep_against_fresh(|[lo, hi]| {
        vec![
            hi.clone(), // built at the lower quorum
            lo.clone(), // quorum rises: tighten, in-place prune
            lo.clone(), // identical: memo hits on the pruned graph
            hi.clone(), // quorum drops: extend the pruned graph
            hi.clone(), // identical: memo hits on the extended graph
        ]
    });
    assert!(tally.pruned > 0, "no tighten step was pruned in place");
    assert_eq!(
        tally.rebuilt, 0,
        "a guard-adjacent tighten step fell back to a rebuild"
    );
    assert!(tally.extended > 0, "no pruned graph was extended");
    assert!(
        tally.memo_hits > 0,
        "no identical step ever hit the verdict memo"
    );
    assert!(
        tally.replayed > 0,
        "no lever-served counterexample was replayed"
    );
}

#[test]
fn random_systems_are_worker_and_wave_independent() {
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        for spec in random_specs(&mut rng, sys.model(), &mids) {
            let sequential =
                ExplicitChecker::with_options(&sys, CheckerOptions::sequential()).check(&spec);
            for workers in [1, 2, 4] {
                for wave_size in [1, 7, usize::MAX] {
                    let options = CheckerOptions {
                        workers,
                        wave_size,
                        ..CheckerOptions::default()
                    };
                    let pooled = ExplicitChecker::with_options(&sys, options).check(&spec);
                    let ctx = format!(
                        "seed {seed}, {} at {workers} workers, wave {wave_size}",
                        spec.name()
                    );
                    assert_eq!(pooled.status, sequential.status, "verdict differs: {ctx}");
                    assert_eq!(
                        pooled.states_explored, sequential.states_explored,
                        "state count differs: {ctx}"
                    );
                    assert_eq!(
                        pooled.transitions_explored, sequential.transitions_explored,
                        "transition count differs: {ctx}"
                    );
                    match (&sequential.counterexample, &pooled.counterexample) {
                        (None, None) => {}
                        (Some(s), Some(p)) => {
                            assert_eq!(s.initial, p.initial, "initial differs: {ctx}");
                            assert_eq!(
                                s.schedule.steps(),
                                p.schedule.steps(),
                                "schedule differs: {ctx}"
                            );
                        }
                        _ => panic!("counterexample presence differs: {ctx}"),
                    }
                }
            }
        }
    }
}

#[test]
fn random_systems_interrupt_resume_is_bit_identical() {
    // The random-interrupt axis of the job lifecycle: every system's
    // catalogue is run once uninterrupted (the reference), once as an
    // uninterrupted `CheckJob`, and once tripped by a state budget at a
    // random cap drawn from the seed.  Each trip surrenders a checkpoint;
    // resuming with a doubled cap walks the job through repeated
    // deterministic interrupts until it completes.  Both job runs must be
    // bit-identical to the reference — verdicts, state counts, transition
    // counts and counterexample schedules — at 1, 2 and 4 workers.
    let mut trips = 0usize;
    let mut suspended_builds = 0usize;
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let specs = random_specs(&mut rng, sys.model(), &mids);
        for workers in [1, 2, 4] {
            let options = CheckerOptions {
                workers,
                wave_size: if workers > 1 { 1 } else { 0 },
                ..CheckerOptions::default()
            };
            let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

            let (direct, _) = CheckJob::new(&sys, &specs, options)
                .run()
                .completed()
                .expect("an unbudgeted job must complete");

            let mut cap = rng.gen_range(2..=24usize);
            let mut outcome = CheckJob::new(&sys, &specs, options)
                .with_budget(JobBudget::unlimited().with_max_states(cap))
                .run();
            let resumed = loop {
                match outcome {
                    JobOutcome::Completed { outcomes, .. } => break outcomes,
                    JobOutcome::BudgetExceeded {
                        reason, checkpoint, ..
                    } => {
                        assert!(reason.is_budget(), "seed {seed}: {reason}");
                        trips += 1;
                        if checkpoint.has_build_in_flight() {
                            suspended_builds += 1;
                        }
                        cap *= 2;
                        outcome = CheckJob::new(&sys, &specs, options)
                            .with_budget(JobBudget::unlimited().with_max_states(cap))
                            .resume(checkpoint);
                    }
                    JobOutcome::Interrupted { .. } => {
                        panic!("seed {seed}: no cancel token was tripped")
                    }
                }
            };

            for (spec, (a, b)) in specs.iter().zip(direct.iter().zip(&reference)) {
                let ctx = format!(
                    "seed {seed}, {} at {workers} workers, direct job",
                    spec.name()
                );
                assert_outcomes_identical(a, b, &ctx);
            }
            for (spec, (a, b)) in specs.iter().zip(resumed.iter().zip(&reference)) {
                let ctx = format!(
                    "seed {seed}, {} at {workers} workers, resumed job",
                    spec.name()
                );
                assert_outcomes_identical(a, b, &ctx);
            }
        }
    }
    // the corpus must genuinely interrupt, and at least one checkpoint must
    // carry a suspended mid-build store (a wave-boundary trip, not just an
    // obligation-boundary trip)
    assert!(trips > 0, "no state cap ever tripped across the corpus");
    assert!(
        suspended_builds > 0,
        "no checkpoint ever carried a build in flight"
    );
}

/// Bit-identity of an outcome against its reference: verdict, counts,
/// detail and counterexample schedule.
fn assert_outcomes_identical(a: &ccchecker::CheckOutcome, b: &ccchecker::CheckOutcome, ctx: &str) {
    assert_eq!(a.status, b.status, "verdict differs: {ctx}");
    assert_eq!(
        a.states_explored, b.states_explored,
        "state count differs: {ctx}"
    );
    assert_eq!(
        a.transitions_explored, b.transitions_explored,
        "transition count differs: {ctx}"
    );
    assert_eq!(a.detail, b.detail, "detail differs: {ctx}");
    match (&a.counterexample, &b.counterexample) {
        (None, None) => {}
        (Some(ca), Some(cb)) => {
            assert_eq!(ca.initial, cb.initial, "initial differs: {ctx}");
            assert_eq!(
                ca.schedule.steps(),
                cb.schedule.steps(),
                "schedule differs: {ctx}"
            );
        }
        _ => panic!("counterexample presence differs: {ctx}"),
    }
}
