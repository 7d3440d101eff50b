//! The shared, shardable state store of the explicit-state engine.
//!
//! Every search of this crate runs through the generic
//! [`crate::explorer::Explorer`] driver, and the driver's bookkeeping lives
//! here: dedup visited `(configuration, monitor-bits)` states, remember how
//! each state was reached, and decode stored states back for counterexample
//! reconstruction.  [`StateStore`] centralises that bookkeeping around the
//! row representation of [`cccounter::RowEngine`]:
//!
//! * **Contiguous packed rows.**  A single-round state is one fixed-stride
//!   byte row (`locations ++ variables`), so each shard keeps its states in
//!   one contiguous `Vec<u8>` arena — no per-node boxing, no
//!   `Configuration` clone next to a separate `Vec<u8>` hash-map key, and
//!   duplicate detection is a single `memcmp` against the arena.
//! * **A u64-keyed open-addressing index per shard.**  Dedup probes a flat
//!   quadratic-probing table keyed by the incremental Zobrist hash that the
//!   row engine maintains across delta application; no SipHash, no
//!   re-hashing of the full state per lookup.
//! * **Hash-prefix sharding.**  The store is split into `2^k` shards; a
//!   state belongs to the shard selected by the *top* bits of its key hash
//!   (the index probes use the low bits, so the two never interfere).  The
//!   shard of a state is a pure function of its content, which makes the
//!   partition — and therefore every derived count — independent of how
//!   many worker threads fill the store.  Worker threads intern into
//!   disjoint shards without locks; node ids interleave the shard tag in
//!   the low bits (`local_index << shard_bits | shard`) so ids stay dense
//!   as long as the shards stay balanced.
//!
//! Full [`Configuration`]s are decoded back on demand only — for expansion
//! entry points and counterexample reconstruction.

use cccounter::{Configuration, CounterSystem, RowEngine, Schedule, ScheduledStep};
use std::fmt;

/// Marker for an empty slot of the index table.
const EMPTY: u32 = u32::MAX;

/// Hard cap on the shard count (a power of two; beyond this the per-shard
/// index tables get too small to be worth the fan-out).
pub(crate) const MAX_SHARDS: usize = 64;

/// A flat open-addressing hash index mapping 64-bit hashes to node ids.
///
/// Collisions are resolved by triangular-number probing; full-key equality
/// is delegated to the caller through a closure, so the table itself stays
/// generic over how nodes are stored.
#[derive(Debug)]
struct RawTable {
    /// `(cached hash, node id)` per slot; `EMPTY` id marks a free slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl RawTable {
    fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity.max(16) * 2).next_power_of_two();
        RawTable {
            slots: vec![(0, EMPTY); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Finds the id stored for `hash` (with `eq` confirming full-key
    /// equality), or the slot index where it would be inserted.
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mut idx = hash as usize & self.mask;
        let mut step = 0usize;
        loop {
            let (slot_hash, slot_id) = self.slots[idx];
            if slot_id == EMPTY {
                return Err(idx);
            }
            if slot_hash == hash && eq(slot_id) {
                return Ok(slot_id);
            }
            step += 1;
            idx = (idx + step) & self.mask;
        }
    }

    fn insert_at(&mut self, slot: usize, hash: u64, id: u32) {
        self.slots[slot] = (hash, id);
        self.len += 1;
    }

    fn needs_grow(&self) -> bool {
        // grow at 2/3 load
        self.len * 3 >= self.slots.len() * 2
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (hash, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut idx = hash as usize & self.mask;
            let mut step = 0usize;
            while self.slots[idx].1 != EMPTY {
                step += 1;
                idx = (idx + step) & self.mask;
            }
            self.slots[idx] = (hash, id);
        }
    }

    /// The longest probe sequence of any stored entry (0 = every entry sits
    /// in its home slot).  Recomputed on demand for [`StoreStats`].
    fn max_probe(&self) -> usize {
        let mut max = 0;
        for (slot_idx, &(hash, id)) in self.slots.iter().enumerate() {
            if id == EMPTY {
                continue;
            }
            let mut idx = hash as usize & self.mask;
            let mut step = 0usize;
            while idx != slot_idx {
                step += 1;
                idx = (idx + step) & self.mask;
            }
            max = max.max(step);
        }
        max
    }
}

/// One shard of the store: a private row arena plus its own index table.
/// The explorer's intern phase hands each worker thread exclusive `&mut`
/// access to one shard, so filling the store in parallel needs no locks.
#[derive(Debug)]
pub(crate) struct Shard {
    table: RawTable,
    /// All stored rows, back to back (`local id * stride` offsets).
    rows: Vec<u8>,
    /// Monitor bits per node (0 when unused).
    bits: Vec<u8>,
    /// Zobrist hash per node, as maintained by the row engine.
    hashes: Vec<u64>,
    /// First-discovery parent edge per node.
    parents: Vec<Option<(u32, ScheduledStep)>>,
    /// Bytes per row (mirrors the owning store).
    stride: usize,
    /// This shard's index, stored in the low bits of every node id.
    tag: u32,
    /// `log2` of the owning store's shard count.
    shard_bits: u32,
}

impl Shard {
    fn new(stride: usize, tag: u32, shard_bits: u32) -> Self {
        Shard {
            table: RawTable::with_capacity(64),
            rows: Vec::new(),
            bits: Vec::new(),
            hashes: Vec::new(),
            parents: Vec::new(),
            stride,
            tag,
            shard_bits,
        }
    }

    fn len(&self) -> usize {
        self.bits.len()
    }

    /// Interns a `(row, bits)` state into this shard, returning its *global*
    /// node id (`local << shard_bits | tag`) and whether it was fresh.
    /// `key_hash` must select this shard under the owning store's
    /// [`StateStore::shard_of`].
    pub(crate) fn intern(
        &mut self,
        row: &[u8],
        bits: u8,
        hash: u64,
        key_hash: u64,
        parent: Option<(u32, ScheduledStep)>,
    ) -> (u32, bool) {
        let stride = self.stride;
        debug_assert_eq!(row.len(), stride);
        let (rows, bits_arr) = (&self.rows, &self.bits);
        match self.table.probe(key_hash, |local| {
            bits_arr[local as usize] == bits
                && &rows[local as usize * stride..(local as usize + 1) * stride] == row
        }) {
            Ok(local) => ((local << self.shard_bits) | self.tag, false),
            Err(slot) => {
                let local = self.bits.len() as u32;
                // a real assert: `local << shard_bits` wrapping in release
                // would silently alias node ids and corrupt verdicts
                assert!(
                    (local as u64) << self.shard_bits <= u32::MAX as u64,
                    "node id space exhausted ({} states in shard {} of {})",
                    local,
                    self.tag,
                    1u32 << self.shard_bits,
                );
                self.rows.extend_from_slice(row);
                self.bits.push(bits);
                self.hashes.push(hash);
                self.parents.push(parent);
                self.table.insert_at(slot, key_hash, local);
                if self.table.needs_grow() {
                    self.table.grow();
                }
                ((local << self.shard_bits) | self.tag, true)
            }
        }
    }
}

/// Occupancy statistics of a [`StateStore`], used to guide shard-count
/// defaults (printed by the `profile_engine` binary).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Number of stored states.
    pub states: usize,
    /// Number of shards.
    pub shards: usize,
    /// Total bytes of the row arenas.
    pub row_bytes: usize,
    /// Resident bytes of the whole store: row arenas plus the per-node side
    /// arrays (bits, hashes, first-discovery parents) plus the index-table
    /// slots.  This is what a cached reachability graph keeps alive for as
    /// long as its lineage lives (see the "Incremental sweeps" crate docs).
    pub resident_bytes: usize,
    /// Total slots across all shard index tables.
    pub index_slots: usize,
    /// Occupied fraction of the index tables (0.0–1.0).
    pub index_load: f64,
    /// Longest probe sequence of any index entry.
    pub max_probe_len: usize,
    /// Number of shards that hold at least one state.  Small explorations
    /// routinely leave high-numbered shards empty; the balance figures
    /// below are reported over the occupied shards only, so they describe
    /// the actual skew instead of being dragged to zero by empty shards.
    pub nonempty_shards: usize,
    /// States in the emptiest *occupied* shard (shard balance floor).
    pub min_shard_len: usize,
    /// States in the fullest shard (shard balance ceiling).
    pub max_shard_len: usize,
}

impl StoreStats {
    /// Mean states per *occupied* shard (0.0 when the store is empty).
    /// This is the balance denominator: dividing by the total shard count
    /// would understate the per-shard load whenever some shards are empty.
    pub fn mean_occupied_len(&self) -> f64 {
        if self.nonempty_shards == 0 {
            0.0
        } else {
            self.states as f64 / self.nonempty_shards as f64
        }
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states in {}/{} occupied shard(s) ({}..{} per occupied shard, \
             mean {:.1}), {} row bytes ({} resident), index load {:.2} over {} slots, \
             max probe {}",
            self.states,
            self.nonempty_shards,
            self.shards,
            self.min_shard_len,
            self.max_shard_len,
            self.mean_occupied_len(),
            self.row_bytes,
            self.resident_bytes,
            self.index_load,
            self.index_slots,
            self.max_probe_len
        )
    }
}

/// Deduplicating storage of the explored `(state row, bits)` graph, split
/// into `2^shard_bits` hash-prefix shards (see the module docs).
pub struct StateStore {
    num_locations: usize,
    num_vars: usize,
    stride: usize,
    shard_bits: u32,
    shards: Vec<Shard>,
}

impl StateStore {
    /// An empty single-shard store for states of the given (single-round)
    /// counter system.
    pub fn new(sys: &CounterSystem) -> Self {
        Self::with_shards(sys, 1)
    }

    /// An empty store with (at least) the requested number of shards,
    /// rounded up to a power of two and capped at 64.
    ///
    /// The hash-prefix partition makes the stored content of every shard —
    /// and all derived counts — a pure function of the interned state set,
    /// never of the thread interleaving that filled it.
    pub fn with_shards(sys: &CounterSystem, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let num_locations = sys.model().locations().len();
        let num_vars = sys.model().vars().len();
        let stride = num_locations + num_vars;
        let shard_bits = shards.trailing_zeros();
        StateStore {
            num_locations,
            num_vars,
            stride,
            shard_bits,
            shards: (0..shards)
                .map(|tag| Shard::new(stride, tag as u32, shard_bits))
                .collect(),
        }
    }

    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.bits.is_empty())
    }

    /// Bytes per stored row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// An exclusive upper bound on the node ids currently in use.  With
    /// balanced shards this is close to [`StateStore::len`], so it is safe
    /// to use as the length of id-indexed side arrays.
    pub fn id_bound(&self) -> usize {
        self.shards
            .iter()
            .map(Shard::len)
            .max()
            .unwrap_or(0)
            .saturating_mul(self.shards.len())
    }

    /// All node ids currently in use, grouped by shard (the order is *not*
    /// discovery order).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let bits = self.shard_bits;
        self.shards.iter().enumerate().flat_map(move |(tag, s)| {
            (0..s.len() as u32).map(move |local| (local << bits) | tag as u32)
        })
    }

    /// The key hash of a `(row hash, monitor bits)` pair: the monitor bits
    /// are folded into the Zobrist row hash so states differing only in
    /// bits dedup separately.
    #[inline]
    pub(crate) fn key_hash(hash: u64, bits: u8) -> u64 {
        hash ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(bits as u64 + 1))
    }

    /// The shard owning a key hash (selected by its top bits; the index
    /// tables probe with the low bits).
    #[inline]
    pub(crate) fn shard_of(&self, key_hash: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (key_hash >> (64 - self.shard_bits)) as usize
        }
    }

    #[inline]
    fn split(&self, id: u32) -> (&Shard, usize) {
        let tag = (id as usize) & (self.shards.len() - 1);
        (&self.shards[tag], (id >> self.shard_bits) as usize)
    }

    /// The shard arenas, for the explorer's parallel intern phase.  Shard
    /// `k` must only be handed candidates whose [`StateStore::shard_of`]
    /// is `k`, in deterministic candidate order.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Interns a `(row, bits)` state: returns its id and whether it was
    /// newly inserted.  `parent` is only recorded on first insertion.
    ///
    /// `hash` is the row's Zobrist hash as produced by
    /// [`RowEngine::hash`](cccounter::RowEngine::hash) and maintained
    /// incrementally by `RowEngine::for_each_successor`; a duplicate lookup
    /// costs one table probe plus a `memcmp` against the row arena — no
    /// allocation, no re-hashing.
    pub fn intern_row(
        &mut self,
        row: &[u8],
        bits: u8,
        hash: u64,
        parent: Option<(u32, ScheduledStep)>,
    ) -> (u32, bool) {
        let key_hash = Self::key_hash(hash, bits);
        let tag = self.shard_of(key_hash);
        self.shards[tag].intern(row, bits, hash, key_hash, parent)
    }

    /// The stored row of a node.
    pub fn row(&self, id: u32) -> &[u8] {
        let (shard, local) = self.split(id);
        &shard.rows[local * self.stride..(local + 1) * self.stride]
    }

    /// Copies a stored row into a scratch buffer (resized to the stride).
    pub fn copy_row_into(&self, id: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(self.row(id));
    }

    /// The monitor bits of a node.
    pub fn bits(&self, id: u32) -> u8 {
        let (shard, local) = self.split(id);
        shard.bits[local]
    }

    /// The Zobrist hash of a node's row.
    pub fn hash64(&self, id: u32) -> u64 {
        let (shard, local) = self.split(id);
        shard.hashes[local]
    }

    /// The first-discovery parent edge of a node.
    pub fn parent(&self, id: u32) -> Option<(u32, ScheduledStep)> {
        let (shard, local) = self.split(id);
        shard.parents[local]
    }

    /// Decodes a stored row back into a full round-0 configuration.
    pub fn decode(&self, id: u32) -> Configuration {
        cccounter::decode_row(self.row(id), self.num_locations, self.num_vars)
    }

    /// Rebuilds the initial configuration and schedule leading to `target`
    /// by walking the first-discovery parent edges (decode-on-demand: only
    /// the root is decoded).
    pub fn reconstruct_path(&self, target: u32) -> (Configuration, Schedule) {
        let mut steps = Vec::new();
        let mut current = target;
        while let Some((parent, step)) = self.parent(current) {
            steps.push(step);
            current = parent;
        }
        steps.reverse();
        (self.decode(current), Schedule::from_steps(steps))
    }

    /// Interns a configuration directly (expansion entry points, tests);
    /// the hot path interns rows via [`StateStore::intern_row`].
    pub fn intern_config(
        &mut self,
        engine: &RowEngine<'_>,
        cfg: &Configuration,
        bits: u8,
        parent: Option<(u32, ScheduledStep)>,
    ) -> (u32, bool) {
        let mut row = Vec::with_capacity(self.stride);
        engine.encode_into(cfg, &mut row);
        let hash = engine.hash(&row);
        self.intern_row(&row, bits, hash, parent)
    }

    /// Resident bytes of the store: the row arenas, the per-node side
    /// arrays and the index-table slots.
    ///
    /// This is also the figure a [`crate::JobBudget`] resident-byte cap is
    /// checked against at wave boundaries.  A store owns no interior
    /// pointers and no thread state, so a suspended build's store moves
    /// freely inside a [`crate::JobCheckpoint`] and resumes interning on
    /// whatever pool the resumed job runs — the shard count (fixed at
    /// construction) is the only thing a checkpoint pins.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.rows.len()
                    + s.bits.len()
                    + s.hashes.len() * std::mem::size_of::<u64>()
                    + s.parents.len() * std::mem::size_of::<Option<(u32, ScheduledStep)>>()
                    + s.table.slots.len() * std::mem::size_of::<(u64, u32)>()
            })
            .sum()
    }

    /// Releases the spare capacity the arenas grew into while interning.
    pub(crate) fn shrink_to_fit(&mut self) {
        for s in &mut self.shards {
            s.rows.shrink_to_fit();
            s.bits.shrink_to_fit();
            s.hashes.shrink_to_fit();
            s.parents.shrink_to_fit();
        }
    }

    /// Occupancy statistics (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        let lens: Vec<usize> = self.shards.iter().map(Shard::len).collect();
        let index_slots: usize = self.shards.iter().map(|s| s.table.slots.len()).sum();
        let occupied: usize = self.shards.iter().map(|s| s.table.len).sum();
        // shard balance is reported over *occupied* shards: an exploration
        // smaller than the shard count would otherwise always report a
        // floor of zero, hiding the actual skew
        let occupied_lens = lens.iter().copied().filter(|&l| l > 0);
        StoreStats {
            states: lens.iter().sum(),
            shards: self.shards.len(),
            row_bytes: self.shards.iter().map(|s| s.rows.len()).sum(),
            resident_bytes: self.resident_bytes(),
            index_slots,
            index_load: if index_slots == 0 {
                0.0
            } else {
                occupied as f64 / index_slots as f64
            },
            max_probe_len: self
                .shards
                .iter()
                .map(|s| s.table.max_probe())
                .max()
                .unwrap_or(0),
            nonempty_shards: lens.iter().filter(|&&l| l > 0).count(),
            min_shard_len: occupied_lens.clone().min().unwrap_or(0),
            max_shard_len: occupied_lens.max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccounter::testutil::{small_params, voting_model};
    use cccounter::CounterSystem;

    fn sys() -> CounterSystem {
        let model = voting_model().single_round().unwrap();
        CounterSystem::new(model, small_params()).unwrap()
    }

    #[test]
    fn intern_dedups_by_row_and_bits() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::new(&sys);
        let cfg = sys.round_start_configurations()[0].clone();
        let (a, fresh_a) = store.intern_config(&engine, &cfg, 0, None);
        let (b, fresh_b) = store.intern_config(&engine, &cfg, 0, None);
        let (c, fresh_c) = store.intern_config(&engine, &cfg, 1, None);
        assert!(fresh_a && !fresh_b && fresh_c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.bits(a), 0);
        assert_eq!(store.bits(c), 1);
        assert_eq!(store.decode(a), cfg);
        assert_eq!(store.row(a), store.row(c));
        assert!(!store.is_empty());
    }

    #[test]
    fn intern_survives_table_growth() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::new(&sys);
        // insert thousands of distinct states to force several grows
        let mut cfg = sys.empty_configuration();
        let loc = sys.model().location_id("I0").unwrap();
        let var = sys.model().var_id("v0").unwrap();
        let mut ids = Vec::new();
        for c in 0..60u64 {
            for v in 0..60u64 {
                cfg.set_counter(loc, 0, c);
                cfg.set_var(var, 0, v);
                let (id, fresh) = store.intern_config(&engine, &cfg, 0, None);
                assert!(fresh);
                ids.push(id);
            }
        }
        assert_eq!(store.len(), 3600);
        // every previously interned state is still found, not re-inserted
        for (i, id) in ids.iter().enumerate() {
            let (c, v) = ((i / 60) as u64, (i % 60) as u64);
            cfg.set_counter(loc, 0, c);
            cfg.set_var(var, 0, v);
            let (again, fresh) = store.intern_config(&engine, &cfg, 0, None);
            assert!(!fresh);
            assert_eq!(again, *id);
        }
    }

    #[test]
    fn sharded_store_partitions_by_content() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut sharded = StateStore::with_shards(&sys, 4);
        let mut flat = StateStore::new(&sys);
        assert_eq!(sharded.num_shards(), 4);
        let mut cfg = sys.empty_configuration();
        let loc = sys.model().location_id("I0").unwrap();
        let var = sys.model().var_id("v0").unwrap();
        for c in 0..40u64 {
            for v in 0..40u64 {
                cfg.set_counter(loc, 0, c);
                cfg.set_var(var, 0, v);
                let (sid, sfresh) = sharded.intern_config(&engine, &cfg, 0, None);
                let (_, ffresh) = flat.intern_config(&engine, &cfg, 0, None);
                assert_eq!(sfresh, ffresh);
                // the sharded id decodes back to the same state
                assert_eq!(
                    sharded.decode(sid),
                    engine.decode(flat.row(flat.len() as u32 - 1))
                );
            }
        }
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.ids().count(), sharded.len());
        assert!(sharded.id_bound() >= sharded.len());
        let stats = sharded.stats();
        assert_eq!(stats.states, 1600);
        assert_eq!(stats.shards, 4);
        assert!(stats.min_shard_len > 0, "{stats}");
        assert!(stats.index_load > 0.0 && stats.index_load < 1.0);
        assert_eq!(stats.row_bytes, 1600 * sharded.stride());
        // resident bytes cover the side arrays and the index on top of rows
        assert!(stats.resident_bytes > stats.row_bytes, "{stats}");
        assert_eq!(stats.resident_bytes, sharded.resident_bytes());
    }

    #[test]
    fn stats_balance_is_over_occupied_shards_only() {
        // Regression: with fewer states than shards, the balance floor used
        // to read 0 (and the mean was diluted by the empty shards), making
        // every small exploration look maximally skewed in `profile_engine`.
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::with_shards(&sys, 64);
        let mut cfg = sys.empty_configuration();
        let loc = sys.model().location_id("I0").unwrap();
        for c in 0..3u64 {
            cfg.set_counter(loc, 0, c);
            store.intern_config(&engine, &cfg, 0, None);
        }
        let stats = store.stats();
        assert_eq!(stats.states, 3);
        assert_eq!(stats.shards, 64);
        // at most one shard per state can be occupied
        assert!(
            (1..=3).contains(&stats.nonempty_shards),
            "{}",
            stats.nonempty_shards
        );
        // the floor is over occupied shards, so it can never be zero while
        // the store is non-empty
        assert!(stats.min_shard_len >= 1, "{stats}");
        assert!(stats.max_shard_len >= stats.min_shard_len);
        let mean = stats.mean_occupied_len();
        assert!(
            mean >= 1.0 && (mean - 3.0 / stats.nonempty_shards as f64).abs() < 1e-9,
            "{mean}"
        );
        assert!(format!("{stats}").contains("occupied shard"));

        // an empty store reports zeros without dividing by zero
        let empty = StateStore::with_shards(&sys, 8).stats();
        assert_eq!(empty.nonempty_shards, 0);
        assert_eq!(empty.mean_occupied_len(), 0.0);
        assert_eq!(empty.min_shard_len, 0);
    }

    #[test]
    fn reconstruct_path_walks_parent_edges() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::with_shards(&sys, 2);
        let start = sys.unanimous_start_configurations(ccta::BinValue::Zero)[0].clone();
        let (root, _) = store.intern_config(&engine, &start, 0, None);
        // take two real steps
        let actions = sys.progress_actions(&start);
        let step1 = ScheduledStep::dirac(actions[0]);
        let mid = sys.apply_dirac(&start, actions[0]).unwrap();
        let (mid_id, _) = store.intern_config(&engine, &mid, 0, Some((root, step1)));
        let actions2 = sys.progress_actions(&mid);
        let step2 = ScheduledStep::dirac(actions2[0]);
        let end = sys.apply_dirac(&mid, actions2[0]).unwrap();
        let (end_id, _) = store.intern_config(&engine, &end, 0, Some((mid_id, step2)));

        assert_eq!(store.parent(end_id), Some((mid_id, step2)));
        let (initial, schedule) = store.reconstruct_path(end_id);
        assert_eq!(initial, start);
        assert_eq!(schedule.steps(), &[step1, step2]);
        // the reconstructed schedule replays to the stored state
        let path = schedule.apply(&sys, &initial).unwrap();
        assert_eq!(path.last(), &end);
    }
}
