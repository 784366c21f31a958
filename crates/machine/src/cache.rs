//! A sharded, byte-bounded LRU cache of shareable values keyed by run
//! shape.
//!
//! The serve layer (`bsmp::serve_suite`) keeps one process-wide
//! instance of it holding *cost capsules*: the cost side of a finished
//! report, keyed by `(engine, d, n, p, m, steps)` plus the canonical
//! fault-plan text.  Model costs never depend on the guest's input
//! values, so repeated traffic of one shape pays the engine run once.
//! The engines themselves keep no state between runs and never touch
//! the cache.
//!
//! [`PlanCache`] holds its values behind `Arc`s:
//!
//! * **sharded** — keys hash to one of [`SHARDS`] independently locked
//!   shards, so concurrent jobs of different shapes never contend on one
//!   mutex;
//! * **bounded** — each shard holds at most `capacity / SHARDS` bytes
//!   (caller-estimated, see [`PlanCache::insert`]) and evicts its
//!   least-recently-used entries past that (`--plan-cache-bytes`
//!   configures the total; `0` disables caching entirely).
//!
//! Correctness note: a cache *hit* can only substitute data that a cold
//! run would have recomputed to identical values (the values are
//! deterministic functions of the key), so hits never perturb model
//! costs — the bit-identity invariant (DESIGN.md §12) is preserved by
//! construction.  Two racing cold runs of one shape may both compute the
//! value; whichever insert lands last wins, and both computed values
//! are identical, so the race is benign.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::hash::FxHasher;

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 8;

/// What a cached value is a function of: the engine and run shape, plus
/// `salt` — the canonical fault-plan JSON (empty for fault-free runs).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub engine: &'static str,
    pub d: u8,
    pub n: u64,
    pub p: u64,
    pub m: u64,
    pub steps: i64,
    pub salt: String,
}

/// A snapshot of the cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: usize,
    pub capacity: usize,
}

struct Entry<V> {
    val: Arc<V>,
    bytes: usize,
    /// Logical LRU timestamp (from the cache-wide clock).
    stamp: u64,
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

struct Shard<V> {
    map: FxMap<PlanKey, Entry<V>>,
    bytes: usize,
}

/// Index of the shard `key` lives in.
fn shard_index(key: &PlanKey) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    // High bits: FxHasher's final multiply mixes upward.
    (h.finish() >> 57) as usize % SHARDS
}

/// Sharded, byte-bounded, LRU cache.  See the module docs.
pub struct PlanCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity: AtomicUsize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> PlanCache<V> {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: FxMap::default(),
                        bytes: 0,
                    })
                })
                .collect(),
            capacity: AtomicUsize::new(capacity),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a value, bumping its LRU stamp.  Counts a hit or a miss
    /// either way (a disabled cache counts only misses).
    pub fn get(&self, key: &PlanKey) -> Option<Arc<V>> {
        if self.capacity.load(Ordering::Relaxed) == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[shard_index(key)].lock().unwrap();
        match shard.map.get_mut(key) {
            Some(e) => {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.val))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a value with a caller-estimated byte size, evicting this
    /// shard's least-recently-used entries past its byte budget.  A value
    /// alone exceeding the shard budget is not cached.  A `capacity` of
    /// zero disables insertion.
    pub fn insert(&self, key: PlanKey, val: Arc<V>, bytes: usize) {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let budget = (cap / SHARDS).max(1);
        if bytes > budget {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[shard_index(&key)].lock().unwrap();
        if let Some(old) = shard.map.insert(key, Entry { val, bytes, stamp }) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        self.evict_to(&mut shard, budget);
    }

    /// Evict `shard`'s least-recently-used entries until it fits `budget`.
    fn evict_to(&self, shard: &mut Shard<V>, budget: usize) {
        while shard.bytes > budget {
            let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = shard.map.remove(&victim) {
                shard.bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every entry (counters are kept — they describe traffic, not
    /// contents).  The cold side of warm-vs-cold benchmarks.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            s.map.clear();
            s.bytes = 0;
        }
    }

    /// Change the total byte capacity; `0` disables the cache and drops
    /// its contents.
    pub fn set_capacity(&self, bytes: usize) {
        self.capacity.store(bytes, Ordering::Relaxed);
        if bytes == 0 {
            self.clear();
            return;
        }
        // Shrink each shard under the new budget.
        let budget = (bytes / SHARDS).max(1);
        for shard in &self.shards {
            self.evict_to(&mut shard.lock().unwrap(), budget);
        }
    }

    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity: self.capacity.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> PlanKey {
        PlanKey {
            engine: "test",
            d: 1,
            n,
            p: 1,
            m: 1,
            steps: 8,
            salt: String::new(),
        }
    }

    /// The first `k` test keys (by `n`) that share `key(0)`'s shard.
    fn same_shard_keys(k: usize) -> Vec<PlanKey> {
        let shard0 = shard_index(&key(0));
        let same: Vec<PlanKey> = (0..1000)
            .map(key)
            .filter(|c| shard_index(c) == shard0)
            .take(k)
            .collect();
        assert_eq!(same.len(), k);
        same
    }

    #[test]
    fn hit_and_miss() {
        let c = PlanCache::new(1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), Arc::new(42usize), 64);
        assert_eq!(*c.get(&key(1)).unwrap(), 42);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 64);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let c = PlanCache::new(SHARDS * 100);
        // All keys in this test may land in different shards; drive one
        // shard over budget by inserting many entries of one size and
        // checking global byte accounting stays bounded.
        for n in 0..64 {
            c.insert(key(n), Arc::new(n), 60);
        }
        let s = c.stats();
        assert!(s.bytes <= SHARDS * 100, "bytes {} over budget", s.bytes);
        assert!(s.evictions > 0);
    }

    #[test]
    fn recently_used_survives_eviction() {
        let c = PlanCache::new(SHARDS * 128);
        // Two entries of 60 bytes fit a 128-byte shard; a third evicts
        // the least recently *used*.
        let same = same_shard_keys(3);
        c.insert(same[0].clone(), Arc::new(0usize), 60);
        c.insert(same[1].clone(), Arc::new(1usize), 60);
        // Touch the first so the second is the LRU victim.
        assert!(c.get(&same[0]).is_some());
        c.insert(same[2].clone(), Arc::new(2usize), 60);
        assert!(c.get(&same[0]).is_some(), "recently used survives");
        assert!(c.get(&same[1]).is_none(), "LRU entry evicted");
        assert!(c.get(&same[2]).is_some(), "new entry present");
    }

    #[test]
    fn shrink_evicts_least_recently_used_first() {
        let c = PlanCache::new(SHARDS * 256);
        // Three 60-byte entries fit a 256-byte shard; shrinking the
        // shard to 100 bytes leaves room for one, which must be the
        // entry touched last.
        let same = same_shard_keys(3);
        for (i, k) in same.iter().enumerate() {
            c.insert(k.clone(), Arc::new(i), 60);
        }
        assert!(c.get(&same[0]).is_some());
        c.set_capacity(SHARDS * 100);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 60, 2));
        assert!(c.get(&same[0]).is_some(), "most recently used survives");
        assert!(c.get(&same[1]).is_none());
        assert!(c.get(&same[2]).is_none());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = PlanCache::new(0);
        c.insert(key(1), Arc::new(1usize), 8);
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().entries, 0);
        // And set_capacity(0) drops existing contents.
        let c2 = PlanCache::new(1 << 20);
        c2.insert(key(1), Arc::new(1usize), 8);
        c2.set_capacity(0);
        assert_eq!(c2.stats().entries, 0);
    }

    #[test]
    fn oversized_artifact_is_not_cached() {
        let c = PlanCache::new(SHARDS * 64);
        c.insert(key(1), Arc::new(1usize), 1 << 20);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let c = PlanCache::new(1 << 20);
        c.insert(key(1), Arc::new(1usize), 8);
        assert!(c.get(&key(1)).is_some());
        c.clear();
        assert!(c.get(&key(1)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(PlanCache::new(1 << 20));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = key((t * 37 + i) % 50);
                        match c.get(&k) {
                            Some(v) => assert_eq!(*v, k.n),
                            None => c.insert(k.clone(), Arc::new(k.n), 100),
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.hits > 0 && s.misses > 0);
        assert!(s.entries <= 50);
    }
}
