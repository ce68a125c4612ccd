//! The staleness-aware prediction cache.
//!
//! Point workloads are heavily repetitive — the same entity's feature
//! vector is scored again and again between model refreshes — so the
//! serving tier memoizes (accelerator, input row) → prediction. The
//! correctness obligation is staleness: a cached value must never
//! outlive the model that computed it. Every entry is therefore
//! stamped with the **model-generation witness**: the
//! `Arc<TrainedModels>` that was live when the value was scored. A
//! lookup is a hit only while its stamp is pointer-equal to the UDF's
//! current generation — a retrain stores a new `Arc` (last write wins)
//! and a drop clears the slot entirely, so either event invalidates
//! every dependent entry without touching the cache. Holding the `Arc`
//! itself (not a raw pointer) keeps the comparison ABA-safe: the old
//! generation's allocation cannot be recycled while an entry still
//! references it.
//!
//! Rows key on their `f32` bit patterns, so a hit requires the exact
//! same input bits — there is no tolerance window to smear predictions
//! across nearby inputs.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dana::TrainedModels;

/// Cache sizing.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Most entries held; the oldest insertion evicts first. Zero
    /// disables caching entirely.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { capacity: 4096 }
    }
}

/// One lookup's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheLookup {
    /// A value scored under the current model generation.
    Hit(f32),
    /// An entry existed but its generation stamp no longer matches the
    /// live model — it was evicted, never served.
    Stale,
    /// No entry.
    Miss,
}

/// (UDF name, row bit pattern) — exact-bits keying.
type Key = (String, Vec<u32>);

struct Entry {
    prediction: f32,
    /// The generation witness the value was scored under.
    generation: Arc<TrainedModels>,
}

struct CacheState {
    map: HashMap<Key, Entry>,
    /// Insertion order for eviction; keys already removed from `map`
    /// (stale evictions) are skipped lazily.
    order: VecDeque<Key>,
}

/// The prediction cache proper. All methods take `&self`; one mutex
/// guards the map (point lookups are microseconds, contention is the
/// dispatch path's problem, not this one's).
pub struct PredictionCache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl PredictionCache {
    pub fn new(config: CacheConfig) -> PredictionCache {
        PredictionCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: config.capacity,
        }
    }

    // Poisoned locks are recovered — see `SharedBufferPool::lock` (dana-storage).
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(udf: &str, row: &[f32]) -> Key {
        (udf.to_string(), row.iter().map(|v| v.to_bits()).collect())
    }

    /// Looks up a row's prediction under the given live generation.
    /// A stamped entry whose generation no longer matches is removed
    /// and reported as [`CacheLookup::Stale`] — it is never served.
    pub fn get(&self, udf: &str, row: &[f32], generation: &Arc<TrainedModels>) -> CacheLookup {
        let key = Self::key(udf, row);
        let mut st = self.lock();
        match st.map.get(&key) {
            Some(e) if Arc::ptr_eq(&e.generation, generation) => CacheLookup::Hit(e.prediction),
            Some(_) => {
                st.map.remove(&key);
                CacheLookup::Stale
            }
            None => CacheLookup::Miss,
        }
    }

    /// Stores a row's prediction stamped with the generation that
    /// scored it. A no-op when the cache is sized zero.
    pub fn insert(&self, udf: &str, row: &[f32], generation: Arc<TrainedModels>, prediction: f32) {
        if self.capacity == 0 {
            return;
        }
        let key = Self::key(udf, row);
        let mut st = self.lock();
        if st
            .map
            .insert(
                key.clone(),
                Entry {
                    prediction,
                    generation,
                },
            )
            .is_none()
        {
            st.order.push_back(key);
        }
        while st.map.len() > self.capacity {
            // Skip order keys whose entries were already removed by a
            // stale eviction.
            match st.order.pop_front() {
                Some(old) => {
                    st.map.remove(&old);
                }
                None => break,
            }
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generation() -> Arc<TrainedModels> {
        Arc::new(TrainedModels {
            models: Vec::new(),
            names: Vec::new(),
        })
    }

    #[test]
    fn hit_requires_matching_generation() {
        let c = PredictionCache::new(CacheConfig { capacity: 8 });
        let g1 = generation();
        c.insert("f", &[1.0, 2.0], Arc::clone(&g1), 0.5);
        assert_eq!(c.get("f", &[1.0, 2.0], &g1), CacheLookup::Hit(0.5));
        // A new generation (retrain) turns the entry stale; it is
        // evicted on that lookup, and a subsequent one is a plain miss.
        let g2 = generation();
        assert_eq!(c.get("f", &[1.0, 2.0], &g2), CacheLookup::Stale);
        assert_eq!(c.get("f", &[1.0, 2.0], &g2), CacheLookup::Miss);
    }

    #[test]
    fn keys_are_exact_bit_patterns() {
        let c = PredictionCache::new(CacheConfig { capacity: 8 });
        let g = generation();
        c.insert("f", &[1.0], Arc::clone(&g), 0.5);
        assert_eq!(c.get("f", &[1.0 + 1e-7], &g), CacheLookup::Miss);
        assert_eq!(c.get("g", &[1.0], &g), CacheLookup::Miss);
    }

    #[test]
    fn capacity_evicts_oldest_insertion_first() {
        let c = PredictionCache::new(CacheConfig { capacity: 2 });
        let g = generation();
        c.insert("f", &[1.0], Arc::clone(&g), 0.1);
        c.insert("f", &[2.0], Arc::clone(&g), 0.2);
        c.insert("f", &[3.0], Arc::clone(&g), 0.3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("f", &[1.0], &g), CacheLookup::Miss);
        assert_eq!(c.get("f", &[3.0], &g), CacheLookup::Hit(0.3));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = PredictionCache::new(CacheConfig { capacity: 0 });
        let g = generation();
        c.insert("f", &[1.0], Arc::clone(&g), 0.1);
        assert_eq!(c.get("f", &[1.0], &g), CacheLookup::Miss);
        assert!(c.is_empty());
    }
}
