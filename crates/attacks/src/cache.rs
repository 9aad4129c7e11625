//! Bounded LRU cache of extracted locality (enclosing) subgraphs.
//!
//! Subgraph extraction is the dominant per-candidate cost of the MuxLink
//! pipeline on ISCAS-sized netlists: every candidate link needs the h-hop
//! neighbourhood of its `(driver, sink)` pair, and experiment drivers attack
//! the *same* locked netlist repeatedly (retrained attacker seeds, density
//! sweeps). The candidate set is a function of the netlist alone, so those
//! repeats re-extract identical subgraphs. [`SubgraphCache`] memoizes them:
//! entries are keyed by `(driver, sink, hops, drop_link)` and shared as
//! [`Arc`]s, the capacity is bounded with least-recently-used eviction, and
//! a structural fingerprint of the attacked netlist guards reuse — a cache
//! owned by a long-lived attack instance resets itself the moment the
//! attack is pointed at a different netlist.
//!
//! Thread safety: the cache sits behind a [`Mutex`] inside
//! [`crate::MuxLinkAttack`]; extraction happens *outside* the lock, lookups
//! are single hash-map operations, and eviction batch-drops the oldest
//! eighth so its scan amortizes to O(1) per insert — the scoring fan-out
//! threads contend only briefly. Caching never changes attack outcomes
//! (extraction is deterministic); the equivalence is pinned by
//! `tests/subgraph_cache.rs`.

use autolock_netlist::graph::{CsrGraph, EnclosingSubgraph};
use autolock_netlist::{GateId, Netlist};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache key: a candidate pair, the extraction radius, and whether the
/// link itself was hidden before extraction.
type Key = (GateId, GateId, usize, bool);

/// Hit/miss counters of a [`SubgraphCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to extract.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// The mutable state guarded by the mutex.
#[derive(Debug, Default)]
struct Inner {
    /// Fingerprint of the netlist the entries belong to.
    fingerprint: u64,
    /// Cached subgraphs with their last-use stamp.
    map: HashMap<Key, (Arc<EnclosingSubgraph>, u64)>,
    /// Monotonic use counter (the LRU clock).
    clock: u64,
    stats: CacheStats,
}

/// Bounded, thread-safe LRU cache of enclosing subgraphs, keyed by
/// `(driver, sink, hops, drop_link)` and reset whenever the netlist
/// fingerprint it is queried with changes. Caching never changes a result:
/// extraction is deterministic.
#[derive(Debug, Default)]
pub struct SubgraphCache {
    inner: Mutex<Inner>,
}

/// Structural fingerprint of a netlist: gate kinds and wiring, order
/// sensitive. Two netlists with the same fingerprint are treated as the
/// same cache domain.
pub fn netlist_fingerprint(nl: &Netlist) -> u64 {
    let mut h = DefaultHasher::new();
    nl.name().hash(&mut h);
    nl.len().hash(&mut h);
    for (_, gate) in nl.iter() {
        (gate.kind.code() as u64).hash(&mut h);
        for f in &gate.fanin {
            f.index().hash(&mut h);
        }
        u64::MAX.hash(&mut h); // fan-in list terminator
    }
    h.finish()
}

impl SubgraphCache {
    /// Returns the cached subgraph for `(u, v, hops, drop_link)` or extracts it
    /// from `graph` and caches it, evicting the least recently used entry
    /// once `capacity` is exceeded.
    ///
    /// `fingerprint` must be the [`netlist_fingerprint`] of the netlist
    /// `graph` was built from; a mismatch clears the cache first, so a
    /// shared attack instance can never serve subgraphs of a previous
    /// target.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_extract(
        &self,
        fingerprint: u64,
        graph: &CsrGraph,
        u: GateId,
        v: GateId,
        hops: usize,
        drop_link: bool,
        capacity: usize,
    ) -> Arc<EnclosingSubgraph> {
        let key = (u, v, hops, drop_link);
        {
            let mut inner = self.inner.lock().expect("subgraph cache poisoned");
            if inner.fingerprint != fingerprint {
                inner.map.clear();
                inner.fingerprint = fingerprint;
            }
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some((sg, used)) = inner.map.get_mut(&key) {
                *used = stamp;
                let sg = Arc::clone(sg);
                inner.stats.hits += 1;
                return sg;
            }
            inner.stats.misses += 1;
        }
        // Extract outside the lock: other threads keep hitting the cache
        // while this thread does the BFS work. Two threads may race on the
        // same miss and both extract — extraction is deterministic, so the
        // duplicate work is harmless and the last insert wins.
        let sg = Arc::new(graph.enclosing_subgraph(u, v, hops, drop_link));
        let mut inner = self.inner.lock().expect("subgraph cache poisoned");
        // Re-check the domain: a concurrent attack on a *different* netlist
        // (e.g. parallel GA fitness evaluations sharing one attack instance)
        // may have switched the fingerprint while we extracted. Inserting
        // into a foreign domain would let that attack hit a subgraph whose
        // GateIds belong to our netlist — skip the insert instead.
        if inner.fingerprint == fingerprint {
            inner.clock += 1;
            let stamp = inner.clock;
            inner.map.insert(key, (Arc::clone(&sg), stamp));
            let capacity = capacity.max(1);
            if inner.map.len() > capacity {
                // Batch-evict the least recently used eighth in one scan, so
                // the scan cost amortizes to O(1) per insert instead of an
                // O(capacity) walk under the lock on every miss once full.
                let drop_n = (capacity / 8).max(1);
                let mut stamps: Vec<(u64, Key)> =
                    inner.map.iter().map(|(k, (_, used))| (*used, *k)).collect();
                stamps.sort_unstable_by_key(|&(used, _)| used);
                for &(_, k) in stamps.iter().take(drop_n) {
                    inner.map.remove(&k);
                    inner.stats.evictions += 1;
                }
            }
        }
        sg
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("subgraph cache poisoned").stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("subgraph cache poisoned")
            .map
            .len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_netlist::GateKind;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("in0");
        for i in 0..n {
            prev = nl
                .add_gate(format!("g{i}"), GateKind::Not, vec![prev])
                .unwrap();
        }
        nl.mark_output(prev);
        nl
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let nl = chain(8);
        let graph = CsrGraph::from_netlist(&nl);
        let fp = netlist_fingerprint(&nl);
        let cache = SubgraphCache::default();
        let a = GateId::from(1u32);
        let b = GateId::from(3u32);
        let first = cache.get_or_extract(fp, &graph, a, b, 2, false, 16);
        let second = cache.get_or_extract(fp, &graph, a, b, 2, false, 16);
        assert_eq!(first.nodes, second.nodes);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // Different drop flag is a different entry.
        cache.get_or_extract(fp, &graph, a, b, 2, true, 16);
        assert_eq!(cache.stats().misses, 2);
        // Different radius is a different entry too (never serve a 2-hop
        // subgraph for a 3-hop query).
        let wider = cache.get_or_extract(fp, &graph, a, b, 3, false, 16);
        assert_eq!(cache.stats().misses, 3);
        assert!(wider.nodes.len() >= first.nodes.len());
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let nl = chain(32);
        let graph = CsrGraph::from_netlist(&nl);
        let fp = netlist_fingerprint(&nl);
        let cache = SubgraphCache::default();
        for i in 0..10u32 {
            cache.get_or_extract(
                fp,
                &graph,
                GateId::from(i),
                GateId::from(i + 1),
                1,
                false,
                4,
            );
        }
        assert!(cache.len() <= 4);
        assert!(cache.stats().evictions >= 6);
    }

    #[test]
    fn fingerprint_mismatch_clears_entries() {
        let nl1 = chain(8);
        let nl2 = chain(9);
        let g1 = CsrGraph::from_netlist(&nl1);
        let g2 = CsrGraph::from_netlist(&nl2);
        let (fp1, fp2) = (netlist_fingerprint(&nl1), netlist_fingerprint(&nl2));
        assert_ne!(fp1, fp2);
        let cache = SubgraphCache::default();
        let a = GateId::from(1u32);
        let b = GateId::from(3u32);
        cache.get_or_extract(fp1, &g1, a, b, 2, false, 16);
        cache.get_or_extract(fp2, &g2, a, b, 2, false, 16);
        // The second call must not have been served from nl1's entry.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 1);
    }
}
