//! Memoized optimum cache: `(Platform, CostModel, Theorem) → PatternOptimum`.
//!
//! Closed-form optimization is cheap for Theorems 1–2 but Theorems 3–4
//! re-derive `o_ef`/`o_rw` and Eq.-18 chunk vectors on every query, and grid
//! sweeps repeat platform/cost points by construction (geometric axes
//! collide). The cache keys on the *bit patterns* of the f64 fields
//! ([`F64Key`]), so two queries hit the same entry exactly when every input
//! is bit-identical — no epsilon surprises, and a cache hit can never change
//! a result. Hit/miss counters are exposed so sweeps (and tests) can assert
//! that repeated cells actually skip recomputation.
//!
//! Statistics are *schedule-independent*: a query counts as a **miss**
//! exactly when its insert wins the vacant entry, and as a **hit**
//! otherwise. Two workers that derive the same optimum concurrently
//! therefore report one miss and one hit, so `misses == distinct keys` and
//! `hits == queries − misses` for any worker count and any schedule,
//! matching the serial run.
//!
//! Thread-safe and shareable (`Arc<OptimumCache>`), and sharded for
//! million-cell sweeps: the map is split into [`SHARD_COUNT`] independently
//! locked shards selected by key hash, so workers querying different keys
//! almost never contend on a lock, and the hit/miss counters are relaxed
//! atomics touched strictly *outside* any lock. The optimization itself
//! also runs outside the lock, so concurrent misses on *different* keys
//! never serialize. Concurrent misses on the *same* key may both compute;
//! the optimizers are pure, so both arrive at the same value, the first
//! insert wins and counts the miss.

use crate::optimal::PatternOptimum;
use crate::platform::{CostModel, Platform};
use crate::sweep::Theorem;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bit-exact hashable wrapper over an `f64`. Two keys are equal iff the
/// floats have identical bit patterns (so `-0.0 ≠ 0.0` and NaNs compare by
/// payload — stricter than `==`, which is what a memoization key wants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct F64Key(u64);

impl From<f64> for F64Key {
    fn from(x: f64) -> Self {
        Self(x.to_bits())
    }
}

/// Full cache key: every float of the platform and cost model, bit-exact,
/// plus the theorem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimumKey {
    lambda_fail: F64Key,
    lambda_silent: F64Key,
    checkpoint: F64Key,
    recovery: F64Key,
    guaranteed_verif: F64Key,
    partial_verif: F64Key,
    recall: F64Key,
    theorem: Theorem,
}

impl OptimumKey {
    /// Builds the key for a query.
    pub fn new(platform: &Platform, costs: &CostModel, theorem: Theorem) -> Self {
        Self {
            lambda_fail: platform.lambda_fail.into(),
            lambda_silent: platform.lambda_silent.into(),
            checkpoint: costs.checkpoint.into(),
            recovery: costs.recovery.into(),
            guaranteed_verif: costs.guaranteed_verif.into(),
            partial_verif: costs.partial_verif.into(),
            recall: costs.recall.into(),
            theorem,
        }
    }

    /// The key's seven f64 bit patterns in declaration order (platform
    /// rates, then cost fields, then recall) — the snapshot wire form.
    /// Raw bits rather than floats so `-0.0`, subnormals and NaN payloads
    /// survive any transport untouched.
    pub fn to_bits(&self) -> [u64; 7] {
        [
            self.lambda_fail.0,
            self.lambda_silent.0,
            self.checkpoint.0,
            self.recovery.0,
            self.guaranteed_verif.0,
            self.partial_verif.0,
            self.recall.0,
        ]
    }

    /// Rebuilds a key from its [`to_bits`](Self::to_bits) form. Inverse of
    /// `to_bits` for every bit pattern, including ones the `Platform` /
    /// `CostModel` constructors would reject — a snapshot key is an opaque
    /// memo address, not a validated model input.
    pub fn from_bits(bits: [u64; 7], theorem: Theorem) -> Self {
        Self {
            lambda_fail: F64Key(bits[0]),
            lambda_silent: F64Key(bits[1]),
            checkpoint: F64Key(bits[2]),
            recovery: F64Key(bits[3]),
            guaranteed_verif: F64Key(bits[4]),
            partial_verif: F64Key(bits[5]),
            recall: F64Key(bits[6]),
            theorem,
        }
    }

    /// The theorem component of the key.
    pub fn theorem(&self) -> Theorem {
        self.theorem
    }

    /// A total order over keys (bit patterns, then theorem position in
    /// [`Theorem::ALL`]) — what makes snapshot listings deterministic no
    /// matter the insert schedule or shard placement.
    pub fn order_key(&self) -> ([u64; 7], usize) {
        let theorem = Theorem::ALL
            .into_iter()
            .position(|t| t == self.theorem)
            .unwrap_or(usize::MAX);
        (self.to_bits(), theorem)
    }
}

/// Multiplicative word-at-a-time hasher (the FxHash construction) for the
/// bit-exact [`OptimumKey`]s. A key is seven already-well-mixed f64 bit
/// patterns plus a discriminant — SipHash's DoS resistance buys nothing
/// here (keys come from sweep geometry, not untrusted input) while costing
/// ~10× per query on the sweep hot path. Deterministic within a build, but
/// *not* part of any pinned output: only shard/bucket placement depends on
/// it, never a result or a counter.
#[derive(Default)]
pub struct KeyHasher(u64);

/// The multiplier of the FxHash mix: the golden-ratio constant.
const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only non-u64 writes land here (the theorem discriminant).
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

/// Hasher state builder for [`KeyHasher`]-keyed maps.
pub type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

fn key_hash(key: &OptimumKey) -> u64 {
    let mut hasher = KeyHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the map.
    pub hits: u64,
    /// Queries that ran the optimizer.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

/// Number of independently locked map shards. A power of two so the shard
/// index is a mask of the key hash; 16 keeps contention negligible for any
/// worker count the executor allows while costing a few hundred bytes of
/// mutexes when idle.
pub const SHARD_COUNT: usize = 16;

type Map = HashMap<OptimumKey, PatternOptimum, KeyHashBuilder>;
type Shard = Mutex<Map>;

/// Thread-safe memoization of theorem optima, sharded by key hash.
/// Unbounded: a sweep's working set is its distinct (platform, costs,
/// theorem) triples, which the caller controls.
#[derive(Debug)]
pub struct OptimumCache {
    shards: [Shard; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for OptimumCache {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(Map::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl OptimumCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the optimum for `(platform, costs, theorem)`, computing and
    /// storing it on first query.
    pub fn optimum(
        &self,
        platform: &Platform,
        costs: &CostModel,
        theorem: Theorem,
    ) -> PatternOptimum {
        let key = OptimumKey::new(platform, costs, theorem);
        let shard = self.shard(&key);
        // Clone under the lock, count outside it: the counters are relaxed
        // atomics and must never extend a critical section.
        let found = { lock(shard).get(&key).cloned() };
        if let Some(found) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // Optimize outside the lock: concurrent misses on distinct keys
        // must not serialize behind one Theorem-4 derivation.
        let opt = theorem.optimize(platform, costs);
        let won = match lock(shard).entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(opt.clone());
                true
            }
            Entry::Occupied(_) => false,
        };
        // Only the insert that wins the entry is a miss, so concurrent
        // derivations of one key still total one miss.
        let counter = if won { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        opt
    }

    /// Looks up an entry without touching the hit/miss counters; callers
    /// that derive misses elsewhere account for their queries through
    /// [`merge`](Self::merge).
    pub fn lookup(&self, key: &OptimumKey) -> Option<PatternOptimum> {
        lock(self.shard(key)).get(key).cloned()
    }

    /// Merges a batch of externally derived entries plus its query count:
    /// each entry new to the map counts as a miss, and every remaining
    /// query as a hit. Entries already present (another worker merged
    /// first, or the cache was pre-warmed) are dropped — the optimizers are
    /// pure, so the stored value is bit-identical — which is what makes the
    /// merged totals schedule-independent: summed over all merges, `misses`
    /// is exactly the number of distinct new keys and `hits` is
    /// `queries − misses`, no matter how cells were partitioned.
    pub fn merge(
        &self,
        entries: impl IntoIterator<Item = (OptimumKey, PatternOptimum)>,
        queries: u64,
    ) {
        let mut new_entries = 0u64;
        for (key, value) in entries {
            let mut map = lock(self.shard(&key));
            if let Entry::Vacant(slot) = map.entry(key) {
                slot.insert(value);
                new_entries += 1;
            }
        }
        debug_assert!(
            new_entries <= queries,
            "merged more new entries ({new_entries}) than queries ({queries})"
        );
        self.misses.fetch_add(new_entries, Ordering::Relaxed);
        self.hits
            .fetch_add(queries.saturating_sub(new_entries), Ordering::Relaxed);
    }

    /// Inserts entries without touching the hit/miss counters — the warm
    /// seeding path (`--cache-in` loading a snapshot). Keys already
    /// present keep their stored value; seeding is not a query, so a
    /// seeded cache still reports the exact per-run hit/miss totals.
    pub fn seed(&self, entries: impl IntoIterator<Item = (OptimumKey, PatternOptimum)>) {
        for (key, value) in entries {
            lock(self.shard(&key)).entry(key).or_insert(value);
        }
    }

    /// Every stored entry, sorted by [`OptimumKey::order_key`] so the
    /// listing — and any snapshot built from it — is byte-stable across
    /// insert schedules, worker counts and shard placement.
    pub fn snapshot_entries(&self) -> Vec<(OptimumKey, PatternOptimum)> {
        let mut all: Vec<(OptimumKey, PatternOptimum)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(lock(shard).iter().map(|(k, v)| (*k, v.clone())));
        }
        all.sort_unstable_by_key(|(key, _)| key.order_key());
        all
    }

    /// Queries answered without recomputation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that ran the optimizer.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct entries currently stored, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter + size snapshot for diagnostics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        }
    }

    /// The shard owning `key`: high bits of the key's [`KeyHasher`] hash,
    /// masked to [`SHARD_COUNT`]. Only shard *placement* depends on this
    /// hash — results and counters do not, so the choice is free to change
    /// without affecting any pinned output.
    fn shard(&self, key: &OptimumKey) -> &Shard {
        &self.shards[(key_hash(key) as usize) & (SHARD_COUNT - 1)]
    }
}

/// Locks one shard, recovering from (unreachable) poisoning: the maps are
/// only touched under their locks and nothing panics while holding one.
fn lock(shard: &Shard) -> std::sync::MutexGuard<'_, Map> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::reference_scenarios;

    #[test]
    fn second_query_hits_and_matches_direct_computation() {
        let cache = OptimumCache::new();
        let s = &reference_scenarios()[0];
        let first = cache.optimum(&s.platform, &s.costs, Theorem::Four);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
        let second = cache.optimum(&s.platform, &s.costs, Theorem::Four);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(first, second);
        assert_eq!(first, Theorem::Four.optimize(&s.platform, &s.costs));
    }

    #[test]
    fn distinct_theorems_are_distinct_entries() {
        let cache = OptimumCache::new();
        let s = &reference_scenarios()[0];
        for t in Theorem::ALL {
            cache.optimum(&s.platform, &s.costs, t);
        }
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.len(), 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn key_is_bit_exact_not_epsilon() {
        let s = &reference_scenarios()[0];
        let mut nudged = s.costs;
        nudged.recall = f64::from_bits(s.costs.recall.to_bits() + 1);
        let a = OptimumKey::new(&s.platform, &s.costs, Theorem::One);
        let b = OptimumKey::new(&s.platform, &nudged, Theorem::One);
        assert_ne!(a, b);
        assert_eq!(a, OptimumKey::new(&s.platform, &s.costs, Theorem::One));
    }

    #[test]
    fn entries_spread_over_shards_but_totals_are_exact() {
        // Many distinct keys: shard placement is an implementation detail,
        // but the aggregate counters must stay exact and every entry must
        // be retrievable.
        let cache = OptimumCache::new();
        let base = &reference_scenarios()[0];
        let n = 200u64;
        for k in 0..n {
            let mut costs = base.costs;
            costs.checkpoint = 60.0 + k as f64;
            cache.optimum(&base.platform, &costs, Theorem::Two);
        }
        assert_eq!(cache.stats().misses, n);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), n as usize);
        // Second pass: all hits, no new entries.
        for k in 0..n {
            let mut costs = base.costs;
            costs.checkpoint = 60.0 + k as f64;
            cache.optimum(&base.platform, &costs, Theorem::Two);
        }
        assert_eq!(cache.stats().hits, n);
        assert_eq!(cache.len(), n as usize);
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(OptimumCache::new());
        let s = reference_scenarios()[0];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..8 {
                        cache.optimum(&s.platform, &s.costs, Theorem::Three);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert_eq!(stats.entries, 1);
        assert!(stats.hits > 0, "repeated queries must hit");
    }

    #[test]
    fn merge_reconciles_exact_totals() {
        let shared = OptimumCache::new();
        let s = &reference_scenarios()[0];
        let key = OptimumKey::new(&s.platform, &s.costs, Theorem::Four);
        let value = Theorem::Four.optimize(&s.platform, &s.costs);
        // One derived entry answering ten queries: one miss, nine hits.
        shared.merge([(key, value.clone())], 10);
        let stats = shared.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.entries, 1);
        assert_eq!(shared.lookup(&key), Some(value));
    }

    #[test]
    fn duplicate_computation_across_locals_reclassifies_as_hits() {
        // Two workers privately derive the same optimum: whoever merges
        // second must contribute a hit, not a second miss, so totals are
        // schedule-independent.
        let shared = OptimumCache::new();
        let s = &reference_scenarios()[0];
        let key = OptimumKey::new(&s.platform, &s.costs, Theorem::Three);
        let value = Theorem::Three.optimize(&s.platform, &s.costs);
        for _ in 0..2 {
            shared.merge([(key, value.clone())], 1);
        }
        let stats = shared.stats();
        assert_eq!(stats.misses, 1, "one distinct key, one miss");
        assert_eq!(stats.hits, 1, "the duplicated derivation is a hit");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn warm_shared_cache_is_consulted_and_counted_as_hits() {
        let shared = OptimumCache::new();
        let s = &reference_scenarios()[0];
        // Pre-warm through the per-query path: 1 miss.
        shared.optimum(&s.platform, &s.costs, Theorem::Two);
        let key = OptimumKey::new(&s.platform, &s.costs, Theorem::Two);
        assert_eq!(
            shared.lookup(&key),
            Some(Theorem::Two.optimize(&s.platform, &s.costs)),
            "warm entry must be found, not recomputed"
        );
        // A merged query whose entry is already present is a hit.
        shared.merge([(key, Theorem::Two.optimize(&s.platform, &s.costs))], 1);
        let stats = shared.stats();
        assert_eq!(stats.misses, 1, "pre-warm miss only");
        assert_eq!(stats.hits, 1, "the covered query is a hit");
    }

    #[test]
    fn seeding_touches_no_counters_and_seeded_keys_hit() {
        let warm = OptimumCache::new();
        let s = &reference_scenarios()[0];
        let key = OptimumKey::new(&s.platform, &s.costs, Theorem::Four);
        let value = Theorem::Four.optimize(&s.platform, &s.costs);
        warm.seed([(key, value.clone())]);
        assert_eq!(warm.stats().hits + warm.stats().misses, 0);
        assert_eq!(warm.len(), 1);
        // The per-query path hits the seeded entry, with zero derivations.
        assert_eq!(warm.optimum(&s.platform, &s.costs, Theorem::Four), value);
        assert_eq!(warm.stats().hits, 1);
        assert_eq!(warm.stats().misses, 0);
    }

    #[test]
    fn snapshot_entries_sort_the_same_regardless_of_insert_order() {
        let s = &reference_scenarios()[0];
        let keys: Vec<OptimumKey> = (0..20)
            .map(|k| {
                let mut costs = s.costs;
                costs.checkpoint = 60.0 + k as f64;
                OptimumKey::new(&s.platform, &costs, Theorem::One)
            })
            .collect();
        let value = Theorem::One.optimize(&s.platform, &s.costs);
        let forward = OptimumCache::new();
        forward.seed(keys.iter().map(|&k| (k, value.clone())));
        let backward = OptimumCache::new();
        backward.seed(keys.iter().rev().map(|&k| (k, value.clone())));
        assert_eq!(forward.snapshot_entries(), backward.snapshot_entries());
        let listed = forward.snapshot_entries();
        assert!(listed
            .windows(2)
            .all(|w| w[0].0.order_key() < w[1].0.order_key()));
    }

    #[test]
    fn key_bits_round_trip_every_pattern_including_negative_zero() {
        for bits in [
            [0u64; 7],
            [(-0.0f64).to_bits(), 1, f64::NAN.to_bits(), 3, 4, 5, 6],
            [u64::MAX; 7],
        ] {
            for theorem in Theorem::ALL {
                let key = OptimumKey::from_bits(bits, theorem);
                assert_eq!(key.to_bits(), bits);
                assert_eq!(key.theorem(), theorem);
            }
        }
        // -0.0 and 0.0 are distinct keys, and their order keys differ too.
        let zero = OptimumKey::from_bits([0; 7], Theorem::One);
        let negzero = OptimumKey::from_bits([(-0.0f64).to_bits(), 0, 0, 0, 0, 0, 0], Theorem::One);
        assert_ne!(zero, negzero);
        assert_ne!(zero.order_key(), negzero.order_key());
    }

    #[test]
    fn duplicate_insert_within_a_block_keeps_first_value_and_merges_once() {
        let shared = OptimumCache::new();
        let s = &reference_scenarios()[0];
        let key = OptimumKey::new(&s.platform, &s.costs, Theorem::Four);
        let value = Theorem::Four.optimize(&s.platform, &s.costs);
        shared.merge([(key, value.clone()), (key, value.clone())], 2);
        let stats = shared.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1, "both queries counted, one miss");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn concurrent_overlapping_queries_total_exactly() {
        // Every thread queries every key in the same order from a common
        // start, so the threads race to derive the same entries. Only the
        // insert that wins an entry counts as a miss, so the totals cannot
        // depend on the schedule.
        let cache = OptimumCache::new();
        let base = reference_scenarios()[0];
        let keys = 200u64;
        let threads = 4u64;
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for k in 0..keys {
                        let mut costs = base.costs;
                        costs.checkpoint = 60.0 + k as f64;
                        cache.optimum(&base.platform, &costs, Theorem::Four);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, keys, "misses must equal distinct keys");
        assert_eq!(stats.hits, keys * (threads - 1));
        assert_eq!(stats.entries, keys as usize);
    }
}
