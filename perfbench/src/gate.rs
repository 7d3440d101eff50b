//! The correctness gate every run passes through.
//!
//! * Table II: each protocol's Agreement / Validity / Termination verdicts
//!   must match the paper's table, where only MMR14's termination is
//!   violated, and no sweep cell may be interrupted or failed.
//! * Families and served requests: the verdicts and their state and
//!   transition counts must hash to the digest pinned in `golden.txt`.
//!   The pinned digests are the production engine's own cells (one
//!   single-worker `CheckJob` per valuation, as the daemon runs them),
//!   derived once by the benchmark's own test (`tests/gate.rs`), which
//!   also cross-checks every verdict, and the counts of every `Holds` cell,
//!   against the independent `ccchecker::reference` oracle.
//!
//! A digest covers cells in valuation-major, obligation-minor order.  A
//! grid digest follows sweep semantics: after an obligation's first
//! violation its later cells are skipped.  A serve digest covers every
//! cell, as the daemon checks each one.

use ccchecker::reference::reference_check;
use ccchecker::{
    CellDisposition, CheckJob, CheckOutcome, CheckStatus, CheckerOptions, Spec, SweepReport,
};
use cccore::{verdict_code, ProtocolVerification, VerifierConfig};
use ccserve::CellReport;
use ccta::{ParamValuation, SystemModel};
use std::collections::HashMap;

/// Valuations the daemon checks per request when the request names none
/// (the default of `ServeConfig::max_valuations`).
pub const SERVE_VALUATIONS: usize = 4;

/// Glyph of a grid cell skipped after an earlier violation.
const SKIPPED: u8 = b's';

/// The pinned digests, embedded at build time.
const GOLDEN: &str = include_str!("../golden.txt");

/// Table II as the paper reports it: `[agreement, validity, termination]`
/// per protocol.  Only MMR14's termination is violated.
pub const TABLE2_EXPECTED: [(&str, [CheckStatus; 3]); 8] = {
    use CheckStatus::{Holds as H, Violated as V};
    [
        ("Rabin83", [H, H, H]),
        ("CC85(a)", [H, H, H]),
        ("CC85(b)", [H, H, H]),
        ("FMR05", [H, H, H]),
        ("KS16", [H, H, H]),
        ("MMR14", [H, H, V]),
        ("Miller18", [H, H, H]),
        ("ABY22", [H, H, H]),
    ]
};

/// FNV-1a digest over verdict cells.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one cell: obligation name, verdict glyph and counts.
    pub fn cell(&mut self, name: &str, code: u8, states: u64, transitions: u64) {
        self.bytes(name.as_bytes());
        self.bytes(&[0, code]);
        self.bytes(&states.to_le_bytes());
        self.bytes(&transitions.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a sweep's reports (one report per obligation, one outcome per
/// valuation).
pub fn grid_digest(reports: &[SweepReport]) -> u64 {
    let mut d = Digest::default();
    let cells = reports.first().map_or(0, |r| r.outcomes.len());
    for vi in 0..cells {
        for r in reports {
            let o = &r.outcomes[vi];
            if o.disposition == CellDisposition::Skipped {
                d.cell(&r.spec_name, SKIPPED, 0, 0);
            } else {
                d.cell(
                    &r.spec_name,
                    verdict_code(o.outcome.status),
                    o.outcome.states_explored as u64,
                    o.outcome.transitions_explored as u64,
                );
            }
        }
    }
    d.value()
}

/// Digest of a served verdict grid.
pub fn serve_digest(cells: &[CellReport]) -> u64 {
    let mut d = Digest::default();
    for cell in cells {
        for v in &cell.verdicts {
            d.cell(&v.name, v.code, v.states, v.transitions);
        }
    }
    d.value()
}

/// Sweep cells that are neither completed nor skipped after a violation,
/// and completed cells without a definite verdict.
pub fn bad_sweep_cells(reports: &[SweepReport]) -> usize {
    reports
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| match o.disposition {
            CellDisposition::Completed => o.outcome.status == CheckStatus::Unknown,
            CellDisposition::Skipped => false,
            CellDisposition::Interrupted | CellDisposition::Failed => true,
        })
        .count()
}

/// Checks one protocol's verification against `expected` (normally
/// [`TABLE2_EXPECTED`]).
pub fn check_table2(
    v: &ProtocolVerification,
    expected: &[(&str, [CheckStatus; 3])],
) -> Result<(), String> {
    let want = expected
        .iter()
        .find(|(name, _)| *name == v.protocol)
        .ok_or_else(|| format!("{}: not a Table II protocol", v.protocol))?
        .1;
    let props = [&v.agreement, &v.validity, &v.termination];
    for (prop, want) in props.iter().zip(want) {
        if prop.status != want {
            return Err(format!(
                "{} {}: {:?}, Table II says {:?}",
                v.protocol, prop.property, prop.status, want
            ));
        }
        let bad = bad_sweep_cells(&prop.reports);
        if bad > 0 {
            return Err(format!(
                "{} {}: {bad} interrupted, failed or undecided cells",
                v.protocol, prop.property
            ));
        }
    }
    Ok(())
}

/// The pinned digests of every input the benchmark can draw.
pub struct Golden {
    /// `family <point>/<seed>` → (grid digest, serve digest).
    families: HashMap<String, (u64, u64)>,
    /// Table II protocol name → serve digest.
    table2: HashMap<String, u64>,
}

fn parse_hex(s: Option<&str>, line: usize) -> Result<u64, String> {
    let s = s.ok_or_else(|| format!("golden line {line}: missing digest"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("golden line {line}: {e}"))
}

impl Golden {
    /// Parses the golden-file text.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden {
            families: HashMap::new(),
            table2: HashMap::new(),
        };
        for (i, line) in text.lines().enumerate() {
            let mut words = line.split_whitespace();
            match words.next() {
                None => {}
                Some(w) if w.starts_with('#') => {}
                Some("family") => {
                    let key = words.next().ok_or(format!("golden line {i}: no key"))?;
                    let grid = parse_hex(words.next(), i)?;
                    let serve = parse_hex(words.next(), i)?;
                    golden.families.insert(key.to_string(), (grid, serve));
                }
                Some("table2") => {
                    let name = words.next().ok_or(format!("golden line {i}: no name"))?;
                    golden
                        .table2
                        .insert(name.to_string(), parse_hex(words.next(), i)?);
                }
                Some(other) => return Err(format!("golden line {i}: unknown kind {other:?}")),
            }
        }
        Ok(golden)
    }

    /// The digests embedded in this build.
    pub fn embedded() -> Golden {
        Golden::parse(GOLDEN).expect("golden.txt is generated by the benchmark's own test")
    }

    /// Checks a family sweep's digest.
    pub fn check_grid(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.families.get(key) {
            Some(&(want, _)) if want == digest => Ok(()),
            Some(&(want, _)) => Err(format!(
                "{key}: grid digest {digest:016x}, golden {want:016x}"
            )),
            None => Err(format!("{key}: no golden grid digest")),
        }
    }

    /// Checks a served verdict grid's digest; `key` is a family key or a
    /// Table II protocol name.
    pub fn check_serve(&self, key: &str, digest: u64) -> Result<(), String> {
        let want = self
            .families
            .get(key)
            .map(|&(_, serve)| serve)
            .or_else(|| self.table2.get(key).copied());
        match want {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!(
                "{key}: serve digest {digest:016x}, golden {want:016x}"
            )),
            None => Err(format!("{key}: no golden serve digest")),
        }
    }
}

/// Reference-oracle outcomes for every `(valuation, obligation)` cell,
/// valuation-major.  Repeated valuations are checked once.
/// Outcomes of every `(valuation, obligation)` cell, valuation-major, from
/// `check` run on each distinct valuation (repeated valuations are checked
/// once).
fn cells_by(
    model: &SystemModel,
    valuations: &[ParamValuation],
    check: impl Fn(&cccounter::CounterSystem) -> Vec<CheckOutcome>,
) -> Vec<Vec<CheckOutcome>> {
    let mut rows: Vec<Vec<CheckOutcome>> = Vec::with_capacity(valuations.len());
    for (vi, v) in valuations.iter().enumerate() {
        if let Some(prev) = valuations[..vi].iter().position(|u| u == v) {
            rows.push(rows[prev].clone());
            continue;
        }
        let sys = cccounter::CounterSystem::new(model.clone(), v.clone())
            .expect("corpus valuations are admissible");
        rows.push(check(&sys));
    }
    rows
}

/// Cells as the production path computes them: one single-worker
/// `CheckJob` per valuation, as the daemon runs it.
pub fn production_cells(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
) -> Vec<Vec<CheckOutcome>> {
    cells_by(model, valuations, |sys| {
        CheckJob::new(sys, specs, CheckerOptions::default().with_workers(1))
            .run()
            .completed()
            .expect("an unbudgeted job completes")
            .0
    })
}

/// Cells as the `ccchecker::reference` oracle computes them.
pub fn reference_cells(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
) -> Vec<Vec<CheckOutcome>> {
    let options = CheckerOptions::default();
    cells_by(model, valuations, |sys| {
        specs
            .iter()
            .map(|s| reference_check(sys, s, &options))
            .collect()
    })
}

/// Grid (sweep semantics) and serve digests of cells.
pub fn cell_digests(specs: &[Spec], rows: &[Vec<CheckOutcome>]) -> (u64, u64) {
    let mut grid = Digest::default();
    let mut serve = Digest::default();
    let mut violated = vec![false; specs.len()];
    for row in rows {
        for (si, (spec, o)) in specs.iter().zip(row).enumerate() {
            let (code, s, t) = (
                verdict_code(o.status),
                o.states_explored as u64,
                o.transitions_explored as u64,
            );
            serve.cell(spec.name(), code, s, t);
            if violated[si] {
                grid.cell(spec.name(), SKIPPED, 0, 0);
            } else {
                grid.cell(spec.name(), code, s, t);
                violated[si] = o.status == CheckStatus::Violated;
            }
        }
    }
    (grid.value(), serve.value())
}

/// The valuations the daemon checks for a Table II request that names
/// none.
pub fn table2_serve_valuations(single_round: &SystemModel) -> Vec<ParamValuation> {
    VerifierConfig::quick()
        .select_valuations(single_round)
        .into_iter()
        .take(SERVE_VALUATIONS)
        .collect()
}

/// Production cells of one input, cross-checked against the reference
/// oracle: every verdict must agree and be definite, and every `Holds`
/// cell — an exhaustive exploration — must agree on its state and
/// transition counts.  (A violation's counts depend on where the search
/// stopped, which differs between the two engines.)
fn checked_cells(
    what: &str,
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
) -> Vec<Vec<CheckOutcome>> {
    let rows = production_cells(model, specs, valuations);
    let oracle = reference_cells(model, specs, valuations);
    for (vi, (row, oracle_row)) in rows.iter().zip(&oracle).enumerate() {
        for ((spec, o), r) in specs.iter().zip(row).zip(oracle_row) {
            let at = format!("{what} valuation {vi} {}", spec.name());
            assert_ne!(o.status, CheckStatus::Unknown, "{at}: undecided");
            assert_eq!(o.status, r.status, "{at}: verdict differs from the oracle");
            if o.status == CheckStatus::Holds {
                assert_eq!(
                    (o.states_explored, o.transitions_explored),
                    (r.states_explored, r.transitions_explored),
                    "{at}: counts differ from the oracle"
                );
            }
        }
    }
    rows
}

/// Renders the golden file: production cells of every input, each
/// cross-checked against the reference oracle (see `checked_cells`).
pub fn derive_golden() -> String {
    let mut out = String::from(
        "# Verdict digests of every benchmark input: single-worker CheckJob\n\
         # cells, cross-checked against the ccchecker::reference oracle.\n\
         # Rewrite with `PERFBENCH_BLESS=1 cargo test --release` in perfbench/.\n\
         # family <point>/<seed> <grid digest> <serve digest>\n\
         # table2 <protocol> <serve digest>\n",
    );
    for id in crate::corpus::universe() {
        let input = crate::corpus::FamilyInput::build(id);
        let fam = &input.family;
        let rows = checked_cells(&id.key(), &fam.single_round, &input.specs, &fam.sweep);
        let (grid, _) = cell_digests(&input.specs, &rows);
        let served = &rows[..rows.len().min(SERVE_VALUATIONS)];
        let (_, serve) = cell_digests(&input.specs, served);
        out.push_str(&format!("family {} {grid:016x} {serve:016x}\n", id.key()));
    }
    for p in ccprotocols::all_protocols() {
        let model = p.single_round();
        let specs: Vec<Spec> = cccore::obligations_for(&p, &model)
            .all()
            .into_iter()
            .cloned()
            .collect();
        let valuations = table2_serve_valuations(&model);
        let rows = checked_cells(p.name(), &model, &specs, &valuations);
        let (_, serve) = cell_digests(&specs, &rows);
        out.push_str(&format!("table2 {} {serve:016x}\n", p.name()));
    }
    out
}
