//! The benchmark's own tests: the pinned digests are the production
//! engine's cells and agree with the reference oracle, the gate rejects
//! corrupted expectations, and `BENCHMARK.json` names exactly the metrics
//! the binary reports.
//!
//! `PERFBENCH_BLESS=1 cargo test --release` rewrites `golden.txt` instead
//! of comparing against it.

use ccchecker::{check_over_sweep_with_stats, CheckStatus, CheckerOptions};
use cccore::{verify_protocol, VerifierConfig};
use perfbench::corpus::{FamilyId, FamilyInput};
use perfbench::gate::{
    cell_digests, check_table2, derive_golden, grid_digest, production_cells, Golden,
    TABLE2_EXPECTED,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");

#[test]
fn golden_digests_match_the_engine_and_the_oracle() {
    let derived = derive_golden();
    if std::env::var_os("PERFBENCH_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &derived).expect("write golden.txt");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH).expect("read golden.txt");
    let mismatch = committed.lines().zip(derived.lines()).find(|(c, d)| c != d);
    assert_eq!(
        mismatch, None,
        "golden.txt differs from the derived digests"
    );
    assert_eq!(committed.lines().count(), derived.lines().count());
}

#[test]
fn gate_rejects_a_corrupted_table2_expectation() {
    let mmr14 = ccprotocols::protocol_by_name("MMR14").expect("Table II protocol");
    let v = verify_protocol(&mmr14, &VerifierConfig::quick().with_threads(1));
    assert_eq!(check_table2(&v, &TABLE2_EXPECTED), Ok(()));
    let mut corrupted = TABLE2_EXPECTED;
    let row = corrupted
        .iter_mut()
        .find(|(name, _)| *name == "MMR14")
        .expect("MMR14 row");
    row.1[2] = CheckStatus::Holds;
    assert!(check_table2(&v, &corrupted).is_err());
}

#[test]
fn gate_rejects_a_corrupted_family_expectation() {
    let input = FamilyInput::build(FamilyId { point: 0, seed: 0 });
    let fam = &input.family;
    let (reports, _) = check_over_sweep_with_stats(
        &fam.single_round,
        &input.specs,
        &fam.sweep,
        CheckerOptions::default(),
        1,
    );
    let key = input.id.key();
    let digest = grid_digest(&reports);
    assert_eq!(Golden::embedded().check_grid(&key, digest), Ok(()));

    let mut rows = production_cells(&fam.single_round, &input.specs, &fam.sweep);
    let (grid, serve) = cell_digests(&input.specs, &rows);
    let faithful = Golden::parse(&format!("family {key} {grid:016x} {serve:016x}\n")).unwrap();
    assert_eq!(faithful.check_grid(&key, digest), Ok(()));

    let cell = &mut rows[0][0];
    cell.status = match cell.status {
        CheckStatus::Holds => CheckStatus::Violated,
        _ => CheckStatus::Holds,
    };
    let (grid, serve) = cell_digests(&input.specs, &rows);
    let corrupted = Golden::parse(&format!("family {key} {grid:016x} {serve:016x}\n")).unwrap();
    assert!(corrupted.check_grid(&key, digest).is_err());
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    let metrics = perfbench::E2E.iter().chain(&perfbench::PER_LAYER);
    for (name, _) in metrics.clone() {
        assert!(named(name), "BENCHMARK.json does not name {name}");
    }
    let workloads = perfbench::WORKLOADS.iter().filter(|w| named(w)).count();
    assert!(workloads >= 2, "BENCHMARK.json lists {workloads} workloads");
    assert_eq!(
        json.matches("\"name\": ").count(),
        metrics.count() + workloads,
        "BENCHMARK.json names something the benchmark does not report"
    );
}
