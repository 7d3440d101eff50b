//! The benchmark's inputs: the Table II protocols and a fixed universe of
//! generated protocol families, plus the seeded generator that draws a
//! run's inputs from them.
//!
//! Every workload input comes from a universe whose verdicts are pinned in
//! `golden.txt`.  The measured inputs are fixed members of the universe;
//! the seed chooses their order, the request mix sequence and the arrival
//! times, so runs on different seeds measure the same work.

use ccchecker::Spec;
use ccprotocols::family::{FamilyParams, FaultModel, GeneratedFamily};

/// The generated family points: Byzantine and crash-stop at the default
/// shape, and a deeper Byzantine phase structure.  All use resilience 2,
/// whose guard-adjacent sweep walks relax, identical and tighten steps.
pub const POINTS: [&str; 3] = ["byz", "crash", "deep"];

/// Family seeds per point in the universe (seeds `0..SEEDS_PER_POINT`):
/// the 144 families of `family_grid`, whose first 24 `serve_hot` serves.
pub const SEEDS_PER_POINT: u64 = 48;

/// The parameter point named `point` (an index into [`POINTS`]).
pub fn point_params(point: usize) -> FamilyParams {
    let base = FamilyParams::default();
    match point {
        0 => base,
        1 => FamilyParams {
            faults: FaultModel::Crash,
            ..base
        },
        2 => FamilyParams { phases: 3, ..base },
        _ => panic!("family point index {point} out of range"),
    }
}

/// One member of the family universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FamilyId {
    /// Index into [`POINTS`].
    pub point: usize,
    /// Generator seed.
    pub seed: u64,
}

impl FamilyId {
    /// The golden-file key, e.g. `byz/17`.
    pub fn key(&self) -> String {
        format!("{}/{}", POINTS[self.point], self.seed)
    }

    /// The generated family.
    pub fn instantiate(&self) -> GeneratedFamily {
        point_params(self.point).instantiate(self.seed)
    }
}

/// A family instantiated with its obligation catalogue.
pub struct FamilyInput {
    /// Which member of the universe.
    pub id: FamilyId,
    /// The generated family.
    pub family: GeneratedFamily,
    /// Its full obligation catalogue.
    pub specs: Vec<Spec>,
}

impl FamilyInput {
    /// Instantiates `id` (the model build of the `ccprotocols` layer).
    pub fn build(id: FamilyId) -> Self {
        let family = id.instantiate();
        let specs = Spec::family_catalogue(&family.single_round, &family.obligations);
        FamilyInput { id, family, specs }
    }
}

/// Every member of the universe, point-major.
pub fn universe() -> Vec<FamilyId> {
    (0..POINTS.len())
        .flat_map(|point| (0..SEEDS_PER_POINT).map(move |seed| FamilyId { point, seed }))
        .collect()
}

/// The universe interleaved by point: `byz/0, crash/0, deep/0, byz/1, ...`.
pub fn interleaved() -> Vec<FamilyId> {
    (0..SEEDS_PER_POINT)
        .flat_map(|seed| (0..POINTS.len()).map(move |point| FamilyId { point, seed }))
        .collect()
}

/// The first `n` families of [`interleaved`].  Measured inputs are such
/// fixed prefixes, so what a run measures does not depend on its seed;
/// the seed orders and schedules them.
pub fn families(n: usize) -> Vec<FamilyId> {
    interleaved().into_iter().take(n).collect()
}

/// The Table II protocol names in table order.
pub fn table2_names() -> Vec<String> {
    ccprotocols::all_protocols()
        .iter()
        .map(|p| p.name().to_string())
        .collect()
}

/// A protocol name reduced to metric-name characters (`CC85(a)` becomes
/// `CC85a`).
pub fn metric_suffix(name: &str) -> String {
    name.chars().filter(|c| c.is_ascii_alphanumeric()).collect()
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A request source: a Table II protocol by name or a family of the
/// universe.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A Table II protocol.
    Table2(String),
    /// A generated family.
    Family(FamilyId),
}

/// A source resolved the way the daemon resolves a request: the
/// single-round model, the full obligation catalogue and the valuations.
pub struct Resolved {
    /// The single-round model.
    pub model: ccta::SystemModel,
    /// The obligation catalogue, in the order verdicts are reported.
    pub specs: Vec<Spec>,
    /// The valuations checked.
    pub valuations: Vec<ccta::ParamValuation>,
}

impl Source {
    /// The golden-file key.
    pub fn key(&self) -> String {
        match self {
            Source::Table2(name) => name.clone(),
            Source::Family(id) => id.key(),
        }
    }

    /// The wire form of the source.
    pub fn wire(&self) -> ccserve::Source {
        match self {
            Source::Table2(name) => ccserve::Source::Protocol(name.clone()),
            Source::Family(id) => ccserve::Source::Family {
                params: point_params(id.point),
                seed: id.seed,
            },
        }
    }

    /// Resolves the source with the public calls the daemon makes:
    /// `protocol_by_name`, `single_round` and `obligations_for` for a
    /// protocol, `instantiate` and `family_catalogue` for a family.  A
    /// protocol is checked on `table2.select_valuations`, a family on its
    /// sweep; both are cut to `cap` valuations.
    pub fn resolve(&self, table2: &cccore::VerifierConfig, cap: usize) -> Resolved {
        match self {
            Source::Table2(name) => {
                let protocol = ccprotocols::protocol_by_name(name).expect("Table II names resolve");
                let model = protocol.single_round();
                let specs = cccore::obligations_for(&protocol, &model)
                    .all()
                    .into_iter()
                    .cloned()
                    .collect();
                let mut valuations = table2.select_valuations(&model);
                valuations.truncate(cap);
                Resolved {
                    model,
                    specs,
                    valuations,
                }
            }
            Source::Family(id) => {
                let FamilyInput { family, specs, .. } = FamilyInput::build(*id);
                let mut valuations = family.sweep;
                valuations.truncate(cap);
                Resolved {
                    model: family.single_round,
                    specs,
                    valuations,
                }
            }
        }
    }
}
