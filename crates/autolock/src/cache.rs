//! Shared, fingerprint-keyed fitness memoization.
//!
//! The per-[`crate::MuxLinkFitness`] `HashMap` memo generalized into a store
//! that can be shared across fitness instances — all the islands of an
//! island-model run, and a surrogate/real fitness pair — without ever mixing
//! incompatible results. Every entry is keyed by a **context fingerprint**
//! (netlist + normalized attack config + seed + repeats, built with the same
//! [`autolock_obs::manifest::fingerprint`] facet scheme as the service
//! `ModelRegistry`) *and* the genotype hash, so two fitness instances only
//! share hits when they would have computed bit-identical values.
//!
//! Because each evaluation derives its attack RNG purely from
//! `seed ^ genotype_hash ^ (rep << 32)` — never from evaluation order — a
//! cache hit returns exactly the value the miss path's RNG protocol would
//! have produced (pinned by `cache_hit_replays_the_miss_path_rng_protocol`).

use autolock_attacks::MuxLinkConfig;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A concurrent fitness memo shared by any number of fitness instances.
///
/// Hits and misses are counted both locally (for result reporting) and on
/// the global obs registry (`autolock.fitness_cache.hits` / `.misses`, the
/// counters the E14 manifest gate asserts).
#[derive(Debug, Default)]
pub struct FitnessCache {
    entries: Mutex<HashMap<(u64, u64), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FitnessCache {
    /// Creates an empty cache behind an [`Arc`], ready to be shared.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Derives the context key under which a fitness instance stores its
    /// results: a fingerprint of the original netlist, the attack
    /// configuration (with the thread count normalized out — threads change
    /// wall-clock, never values), the base seed and the repeat count.
    pub fn context_key(
        netlist_fingerprint: u64,
        attack_config: &MuxLinkConfig,
        seed: u64,
        repeats: usize,
    ) -> u64 {
        let mut normalized = attack_config.clone();
        normalized.threads = 0;
        let config_json =
            serde_json::to_string(&normalized).expect("MuxLinkConfig serialization cannot fail");
        let fp = autolock_obs::manifest::fingerprint(&[
            "locking-fitness",
            &format!("{netlist_fingerprint:016x}"),
            &config_json,
            &seed.to_string(),
            &repeats.to_string(),
        ]);
        // Fold the hex fingerprint into the compact `u64` key the hot-path
        // `HashMap` uses.
        autolock_obs::manifest::fnv1a(fp.as_bytes())
    }

    /// Looks up a genotype's fitness under a context, counting the hit or
    /// miss.
    pub fn get(&self, context: u64, genotype_hash: u64) -> Option<f64> {
        let found = self.entries.lock().get(&(context, genotype_hash)).copied();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                autolock_obs::counter("autolock.fitness_cache.hits").incr();
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                autolock_obs::counter("autolock.fitness_cache.misses").incr();
                None
            }
        }
    }

    /// Stores a genotype's fitness under a context.
    pub fn insert(&self, context: u64, genotype_hash: u64, fitness: f64) {
        self.entries
            .lock()
            .insert((context, genotype_hash), fitness);
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that fell through to a real evaluation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct (context, genotype) entries stored.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` if no entry has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted_per_context() {
        let cache = FitnessCache::shared();
        assert!(cache.is_empty());
        assert_eq!(cache.get(1, 42), None);
        cache.insert(1, 42, 0.25);
        assert_eq!(cache.get(1, 42), Some(0.25));
        // A different context never sees the other context's entries.
        assert_eq!(cache.get(2, 42), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn context_key_separates_seeds_and_configs_but_not_threads() {
        let config = MuxLinkConfig::fast();
        let a = FitnessCache::context_key(7, &config, 1, 1);
        assert_eq!(a, FitnessCache::context_key(7, &config, 1, 1));
        assert_ne!(a, FitnessCache::context_key(8, &config, 1, 1));
        assert_ne!(a, FitnessCache::context_key(7, &config, 2, 1));
        assert_ne!(a, FitnessCache::context_key(7, &config, 1, 2));
        assert_ne!(
            a,
            FitnessCache::context_key(7, &MuxLinkConfig::gnn_fast(), 1, 1)
        );
        // Thread count is normalized out: it changes wall-clock, not values.
        let threaded = config.clone().with_threads(8);
        assert_eq!(a, FitnessCache::context_key(7, &threaded, 1, 1));
    }
}
