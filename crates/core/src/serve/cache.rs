//! The content-addressed result cache behind `f2 serve`.
//!
//! Experiment runs are pure functions of `(experiment, scenario)` — the
//! executor guarantees bit-identical reports at any thread count, and
//! every draw of randomness is derived from the scenario's seed — so a
//! completed response body can be replayed verbatim for any later request
//! with the same key, including fully parameterized scenarios. Every
//! lookup and insert runs on the server's one dispatcher thread, so the
//! map sits behind a single mutex; connection handlers only read the
//! counts for `/metrics`. Every lookup bumps a hit or miss counter. The
//! cache is unbounded.

use crate::scenario::Scenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The identity of one experiment run: everything that influences the
/// response body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the experiment.
    pub experiment: String,
    /// The complete run configuration (seed, fidelity, threads, params).
    pub scenario: Scenario,
}

/// A content-addressed map from [`CacheKey`] to a cached value (the
/// server stores the encoded response body), with lookup counters.
pub struct ResultCache<V> {
    map: Mutex<HashMap<CacheKey, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for ResultCache<V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> ResultCache<V> {
    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, V>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks the key up, counting the outcome.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let found = self.map().get(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts the value unless the key is already present (first write
    /// wins — values are content-addressed, so a concurrent recompute
    /// must have produced an identical value). Returns whether the value
    /// was newly inserted. Not counted as a lookup.
    pub fn insert(&self, key: CacheKey, value: V) -> bool {
        match self.map().entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counted lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Counted lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of counted lookups that hit (`0.0` before any lookup) —
    /// the `cache.hit_rate` member of the metrics document.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Pool;
    use crate::scenario::Fidelity;
    use std::sync::Arc;

    fn key(experiment: &str, seed: u64) -> CacheKey {
        scenario_key(experiment, Scenario::new(seed, Fidelity::Quick, 1))
    }

    fn scenario_key(experiment: &str, scenario: Scenario) -> CacheKey {
        CacheKey {
            experiment: experiment.to_string(),
            scenario,
        }
    }

    /// A deterministic stand-in for an encoded report body.
    fn body_for(k: &CacheKey) -> Vec<u8> {
        format!("{}/{}", k.experiment, k.scenario.encode_canonical()).into_bytes()
    }

    #[test]
    fn get_insert_and_counters() {
        let cache: ResultCache<Arc<Vec<u8>>> = ResultCache::default();
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet");
        let k = key("demo", 7);
        assert!(cache.get(&k).is_none());
        assert!(cache.insert(k.clone(), Arc::new(b"v1".to_vec())));
        // First write wins: a duplicate insert is a no-op.
        assert!(!cache.insert(k.clone(), Arc::new(b"v2".to_vec())));
        assert_eq!(cache.get(&k).expect("cached").as_slice(), b"v1");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12, "1 hit of 2 lookups");
    }

    #[test]
    fn distinct_key_fields_are_distinct_entries() {
        use crate::scenario::ParamValue;
        let cache: ResultCache<u32> = ResultCache::default();
        let base = key("demo", 1);
        let quick_off = scenario_key("demo", Scenario::new(1, Fidelity::Full, 1));
        let more_threads = scenario_key("demo", Scenario::new(1, Fidelity::Quick, 8));
        let with_param = scenario_key(
            "demo",
            base.scenario.clone().with_param("n", ParamValue::Num(64.0)),
        );
        cache.insert(base.clone(), 1);
        cache.insert(quick_off.clone(), 2);
        cache.insert(more_threads.clone(), 3);
        cache.insert(with_param.clone(), 4);
        cache.insert(key("demo", 2), 5);
        cache.insert(key("other", 1), 6);
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.get(&base), Some(1));
        assert_eq!(cache.get(&quick_off), Some(2));
        assert_eq!(cache.get(&more_threads), Some(3));
        assert_eq!(cache.get(&with_param), Some(4));
    }

    /// Parallel Pool-driven hammering of identical and distinct keys
    /// yields bit-identical cached vs freshly-computed values, and the
    /// hit/miss totals add up to exactly the number of counted lookups.
    #[test]
    fn parallel_hammer_is_bit_identical_and_counts_add_up() {
        const LOOKUPS: usize = 512;
        const DISTINCT: usize = 48;
        let cache: ResultCache<Arc<Vec<u8>>> = ResultCache::default();
        let computed = AtomicU64::new(0);
        let pool = Pool::new(8);
        let lookups: Vec<usize> = (0..LOOKUPS).collect();
        pool.map(&lookups, |&i| {
            // 48 distinct keys, each hammered ~10x concurrently.
            let k = key(&format!("exp{}", i % 12), (i % DISTINCT / 12) as u64);
            let v = cache.get(&k).unwrap_or_else(|| {
                computed.fetch_add(1, Ordering::Relaxed);
                let fresh = Arc::new(body_for(&k));
                cache.insert(k.clone(), Arc::clone(&fresh));
                fresh
            });
            // Bit-identical regardless of whether this lookup computed,
            // raced another compute, or hit the cache.
            assert_eq!(*v, body_for(&k));
        });
        assert_eq!(cache.len(), DISTINCT);
        assert_eq!(
            cache.hits() + cache.misses(),
            LOOKUPS as u64,
            "every counted lookup is exactly one hit or one miss"
        );
        assert!(
            cache.misses() >= DISTINCT as u64,
            "each key misses at least once"
        );
        // Racing computes may each run (first insert wins), but the cache
        // can never have served more distinct values than computes.
        assert!(computed.load(Ordering::Relaxed) >= DISTINCT as u64);
        // A second full pass over every key is 100% hits.
        let before_hits = cache.hits();
        pool.map(&lookups, |&i| {
            let k = key(&format!("exp{}", i % 12), (i % DISTINCT / 12) as u64);
            let v = cache.get(&k).expect("must be cached");
            assert_eq!(*v, body_for(&k));
        });
        assert_eq!(cache.hits(), before_hits + LOOKUPS as u64);
    }
}
