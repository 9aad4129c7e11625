//! The D-MUX locking scheme (deceptive MUX-based locking).
//!
//! D-MUX [Sisejkovic et al., TCAD 2021] inserts key-controlled pairs of
//! multiplexers between randomly selected wire pairs so that, for every key
//! gate, *both* possible connections are structurally plausible: the scheme is
//! free of the localized structural leakage that earlier schemes exhibited,
//! which makes it resilient against locality-based learning attacks
//! (SnapShot, OMLA). MuxLink later broke it by looking at the *surrounding*
//! fan-in/fan-out structure with a link-prediction GNN — the starting point of
//! the AutoLock paper.
//!
//! This implementation selects wire pairs with one of two strategies and then
//! defers to [`crate::mux::apply_loci`] for the actual insertion, so the
//! result is bit-for-bit the same kind of locked netlist the AutoLock GA
//! produces and both can be attacked by the same code.

use crate::mux::{apply_loci, lockable_wires, MuxPairLocus};
use crate::{LockError, LockedNetlist, LockingScheme, Result};
use autolock_netlist::graph::{CsrGraph, UNREACHED};
use autolock_netlist::{GateId, Netlist};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// How D-MUX chooses the two wires of each MUX pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairSelectionStrategy {
    /// Uniformly random wire pairs (the baseline D-MUX policy).
    Random,
    /// Prefer pairs whose two drivers have the same gate kind, which makes the
    /// decoy connection harder to rule out from local gate-type statistics
    /// (an enhanced, more deceptive policy).
    TypeMatched,
    /// Prefer partner wires whose driver lies within `radius` undirected
    /// hops of the first wire's driver. On structured (datapath) circuits a
    /// uniformly random partner almost always sits in a different functional
    /// block, which makes the decoy edge a give-away long-range jump; a
    /// localized partner lands on the reconvergent nets real designs lock,
    /// which is the regime the link-prediction adversary is actually
    /// trained on. Falls back to random probes when no wire is in range.
    Localized {
        /// Maximum undirected hop distance between the two drivers.
        radius: usize,
    },
}

/// The D-MUX locking scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DMuxLocking {
    /// Wire-pair selection strategy.
    pub strategy: PairSelectionStrategy,
    /// How many random pair candidates to try per key bit before giving up.
    pub max_attempts_per_bit: usize,
}

impl Default for DMuxLocking {
    fn default() -> Self {
        DMuxLocking {
            strategy: PairSelectionStrategy::Random,
            max_attempts_per_bit: 200,
        }
    }
}

impl DMuxLocking {
    /// Creates a D-MUX instance with the given strategy.
    pub fn new(strategy: PairSelectionStrategy) -> Self {
        DMuxLocking {
            strategy,
            ..Default::default()
        }
    }

    /// Selects `key_len` valid, pairwise-disjoint MUX-pair loci on `original`.
    ///
    /// This is exposed separately from [`LockingScheme::lock`] because the
    /// AutoLock population initializer needs raw loci (the genotype), not a
    /// locked netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::KeyTooLong`] if not enough disjoint pairs can be
    /// found.
    pub fn select_loci(
        &self,
        original: &Netlist,
        key_len: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<MuxPairLocus>> {
        let wires = lockable_wires(original);
        if wires.len() < 2 * key_len {
            return Err(LockError::KeyTooLong {
                requested: key_len,
                available: wires.len() / 2,
            });
        }
        // The localized strategy measures driver-to-driver distances on the
        // undirected netlist graph; build it once per selection run.
        let locality_graph = match self.strategy {
            PairSelectionStrategy::Localized { .. } => Some(CsrGraph::from_netlist(original)),
            _ => None,
        };
        // Incremental reachability view: the original driver→sink edges plus
        // the decoy edges added by already-selected loci. Checking candidates
        // against this view guarantees that `apply_loci` will not hit a cycle.
        let mut extra_edges: HashMap<GateId, Vec<GateId>> = HashMap::new();
        let fanouts = original.fanouts();
        let reachable =
            |extra: &HashMap<GateId, Vec<GateId>>, from: GateId, target: GateId| -> bool {
                if from == target {
                    return true;
                }
                let mut visited = vec![false; original.len()];
                let mut stack = vec![from];
                visited[from.index()] = true;
                while let Some(node) = stack.pop() {
                    let direct = fanouts[node.index()].iter();
                    let added = extra.get(&node).map(|v| v.iter()).unwrap_or_default();
                    for &next in direct.chain(added) {
                        if next == target {
                            return true;
                        }
                        if !visited[next.index()] {
                            visited[next.index()] = true;
                            stack.push(next);
                        }
                    }
                }
                false
            };

        let mut used: HashSet<(GateId, GateId)> = HashSet::new();
        let mut loci = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            let mut found = None;
            for _ in 0..self.max_attempts_per_bit {
                let &(f_i, g_i) = wires.choose(rng).expect("non-empty wire list");
                if used.contains(&(f_i, g_i)) {
                    continue;
                }
                let candidate_j = self.pick_partner(
                    original,
                    locality_graph.as_ref(),
                    &wires,
                    (f_i, g_i),
                    &used,
                    rng,
                );
                let Some((f_j, g_j)) = candidate_j else {
                    continue;
                };
                let locus = MuxPairLocus::new(f_i, g_i, f_j, g_j, rng.gen());
                if locus.validate(original).is_err() {
                    continue;
                }
                // Cycle check against the incrementally extended topology.
                if reachable(&extra_edges, g_i, f_j) || reachable(&extra_edges, g_j, f_i) {
                    continue;
                }
                found = Some(locus);
                break;
            }
            match found {
                Some(locus) => {
                    for w in locus.wires() {
                        used.insert(w);
                    }
                    extra_edges.entry(locus.f_j).or_default().push(locus.g_i);
                    extra_edges.entry(locus.f_i).or_default().push(locus.g_j);
                    loci.push(locus);
                }
                None => {
                    return Err(LockError::KeyTooLong {
                        requested: key_len,
                        available: loci.len(),
                    })
                }
            }
        }
        Ok(loci)
    }

    fn pick_partner(
        &self,
        original: &Netlist,
        locality_graph: Option<&CsrGraph>,
        wires: &[(GateId, GateId)],
        first: (GateId, GateId),
        used: &HashSet<(GateId, GateId)>,
        rng: &mut dyn RngCore,
    ) -> Option<(GateId, GateId)> {
        let (f_i, g_i) = first;
        let acceptable = |&(f_j, g_j): &(GateId, GateId)| {
            f_j != f_i && g_j != g_i && !used.contains(&(f_j, g_j))
        };
        // Bounded random probes: the shared O(1)-per-call fallback.
        let random_probe = |rng: &mut dyn RngCore| -> Option<(GateId, GateId)> {
            for _ in 0..32 {
                let cand = *wires.choose(rng)?;
                if acceptable(&cand) {
                    return Some(cand);
                }
            }
            None
        };
        match self.strategy {
            PairSelectionStrategy::Random => random_probe(rng),
            PairSelectionStrategy::TypeMatched => {
                let want_kind = original.gate(f_i).kind;
                let matching: Vec<(GateId, GateId)> = wires
                    .iter()
                    .copied()
                    .filter(|w| acceptable(w) && original.gate(w.0).kind == want_kind)
                    .collect();
                if let Some(&cand) = matching.choose(rng) {
                    return Some(cand);
                }
                // Fall back to any acceptable wire if no type match exists.
                random_probe(rng)
            }
            PairSelectionStrategy::Localized { radius } => {
                let graph = locality_graph.expect("localized strategy builds the graph");
                let ball = graph.bfs_distances(f_i, radius.max(1), None);
                let matching: Vec<(GateId, GateId)> = wires
                    .iter()
                    .copied()
                    .filter(|w| acceptable(w) && ball[w.0.index()] != UNREACHED)
                    .collect();
                if let Some(&cand) = matching.choose(rng) {
                    return Some(cand);
                }
                // No in-range partner (isolated corner of the netlist):
                // fall back to any acceptable wire.
                random_probe(rng)
            }
        }
    }
}

impl LockingScheme for DMuxLocking {
    fn name(&self) -> &str {
        "d-mux"
    }

    fn lock(
        &self,
        original: &Netlist,
        key_len: usize,
        rng: &mut dyn RngCore,
    ) -> Result<LockedNetlist> {
        // Selecting loci can, rarely, produce a set whose later members create
        // a cycle only in combination; retry a few times with fresh picks.
        let mut last_err = None;
        for _ in 0..8 {
            let loci = self.select_loci(original, key_len, rng)?;
            match apply_loci(original, &loci) {
                Ok(mut locked) => {
                    locked = LockedNetlist::new(
                        locked.netlist().clone(),
                        locked.key().clone(),
                        locked.provenance().to_vec(),
                        self.name(),
                        original.name(),
                    )?;
                    return Ok(locked);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(LockError::KeyTooLong {
            requested: key_len,
            available: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::{c17, synth_circuit};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dmux_locks_c17_and_preserves_function() {
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let locked = DMuxLocking::default().lock(&original, 3, &mut rng).unwrap();
        assert_eq!(locked.key_len(), 3);
        assert_eq!(locked.scheme(), "d-mux");
        assert!(locked.verify_exhaustive(&original).unwrap());
        // Each key bit adds exactly 2 MUX gates.
        assert_eq!(
            locked.netlist().num_logic_gates(),
            original.num_logic_gates() + 6
        );
    }

    #[test]
    fn dmux_locks_synthetic_circuit() {
        let original = synth_circuit("t", 12, 6, 250, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let locked = DMuxLocking::default()
            .lock(&original, 32, &mut rng)
            .unwrap();
        assert_eq!(locked.key_len(), 32);
        assert!(locked.verify_functional(&original, 8, &mut rng).unwrap());
    }

    #[test]
    fn type_matched_strategy_works() {
        let original = synth_circuit("t", 12, 6, 250, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let scheme = DMuxLocking::new(PairSelectionStrategy::TypeMatched);
        let locked = scheme.lock(&original, 16, &mut rng).unwrap();
        assert!(locked.verify_functional(&original, 8, &mut rng).unwrap());
    }

    #[test]
    fn localized_strategy_keeps_pairs_within_radius() {
        let original = synth_circuit("loc", 16, 8, 400, 13);
        let radius = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let scheme = DMuxLocking::new(PairSelectionStrategy::Localized { radius });
        let loci = scheme.select_loci(&original, 16, &mut rng).unwrap();
        assert_eq!(loci.len(), 16);
        // The overwhelming majority of pairs must honour the radius (the
        // random fallback only fires when no wire is in range).
        let graph = CsrGraph::from_netlist(&original);
        let within = loci
            .iter()
            .filter(|l| graph.distance(l.f_i, l.f_j, radius, None).is_some())
            .count();
        assert!(
            within >= loci.len() - 2,
            "only {within}/{} pairs within {radius} hops",
            loci.len()
        );
        // And the locking still works end to end.
        let locked = apply_loci(&original, &loci).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(locked.verify_functional(&original, 8, &mut rng).unwrap());
    }

    #[test]
    fn select_loci_respects_disjointness() {
        let original = synth_circuit("t", 10, 4, 120, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let loci = DMuxLocking::default()
            .select_loci(&original, 16, &mut rng)
            .unwrap();
        assert_eq!(loci.len(), 16);
        let mut wires = HashSet::new();
        for locus in &loci {
            for w in locus.wires() {
                assert!(wires.insert(w), "wire reused across loci");
            }
        }
    }

    #[test]
    fn impossible_key_length_rejected() {
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(matches!(
            DMuxLocking::default().lock(&original, 50, &mut rng),
            Err(LockError::KeyTooLong { .. })
        ));
    }

    #[test]
    fn locking_is_reproducible_with_same_seed() {
        let original = synth_circuit("t", 10, 4, 150, 11);
        let lock = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            DMuxLocking::default().lock(&original, 8, &mut rng).unwrap()
        };
        assert_eq!(lock(7).key(), lock(7).key());
        assert_eq!(
            autolock_netlist::write_bench(lock(7).netlist()),
            autolock_netlist::write_bench(lock(7).netlist())
        );
    }
}
