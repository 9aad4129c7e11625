//! Problem-specific evolutionary operators for the AutoLock genotype.
//!
//! The paper's research plan highlights operator design as a key question;
//! this module therefore provides several interchangeable crossover and
//! mutation operators, all of which route their children through
//! [`repair_genotype`] so every offspring is a valid
//! locking of the original netlist. Experiment E7 sweeps these operators.

use crate::genotype::{repair_genotype, LockingGenotype};
use autolock_evo::{CrossoverOperator, MutationOperator};
use autolock_locking::mux::lockable_wires;
use autolock_netlist::{GateId, Netlist};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which crossover recombination rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossoverKind {
    /// Single cut point; children take a prefix from one parent and a suffix
    /// from the other.
    OnePoint,
    /// Two cut points; the middle segment is swapped.
    TwoPoint,
    /// Each locus is taken from either parent with probability 0.5.
    Uniform,
}

/// Crossover over locus lists, followed by repair.
#[derive(Debug, Clone)]
pub struct LocusCrossover {
    original: Arc<Netlist>,
    key_len: usize,
    kind: CrossoverKind,
}

impl LocusCrossover {
    /// Creates a crossover operator for the given original netlist and key
    /// length.
    pub fn new(original: Arc<Netlist>, key_len: usize, kind: CrossoverKind) -> Self {
        LocusCrossover {
            original,
            key_len,
            kind,
        }
    }

    /// The recombination rule.
    pub fn kind(&self) -> CrossoverKind {
        self.kind
    }

    fn recombine(
        &self,
        a: &LockingGenotype,
        b: &LockingGenotype,
        rng: &mut dyn RngCore,
    ) -> (LockingGenotype, LockingGenotype) {
        let len = a.len().min(b.len());
        if len == 0 {
            return (a.clone(), b.clone());
        }
        match self.kind {
            CrossoverKind::OnePoint => {
                let cut = rng.gen_range(0..len);
                let child_a = a[..cut].iter().chain(&b[cut..]).copied().collect();
                let child_b = b[..cut].iter().chain(&a[cut..]).copied().collect();
                (child_a, child_b)
            }
            CrossoverKind::TwoPoint => {
                let mut c1 = rng.gen_range(0..len);
                let mut c2 = rng.gen_range(0..len);
                if c1 > c2 {
                    std::mem::swap(&mut c1, &mut c2);
                }
                let mut child_a = a.clone();
                let mut child_b = b.clone();
                child_a[c1..c2].clone_from_slice(&b[c1..c2]);
                child_b[c1..c2].clone_from_slice(&a[c1..c2]);
                (child_a, child_b)
            }
            CrossoverKind::Uniform => {
                let mut child_a = a.clone();
                let mut child_b = b.clone();
                for i in 0..len {
                    if rng.gen_bool(0.5) {
                        child_a[i] = b[i];
                        child_b[i] = a[i];
                    }
                }
                (child_a, child_b)
            }
        }
    }
}

impl CrossoverOperator<LockingGenotype> for LocusCrossover {
    fn crossover(
        &self,
        a: &LockingGenotype,
        b: &LockingGenotype,
        rng: &mut dyn RngCore,
    ) -> (LockingGenotype, LockingGenotype) {
        let (raw_a, raw_b) = self.recombine(a, b, rng);
        (
            repair_genotype(&self.original, &raw_a, self.key_len, rng),
            repair_genotype(&self.original, &raw_b, self.key_len, rng),
        )
    }
}

/// Which mutation rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MutationKind {
    /// Flip the key bit of a random locus (also swaps the MUX input order at
    /// decode time, so the netlist structure changes too).
    KeyFlip,
    /// Replace a random locus with a freshly sampled one.
    Relocate,
    /// Keep the first wire of a random locus, re-sample its partner wire.
    RewirePartner,
    /// Pick one of the above uniformly at random per application.
    Composite,
}

/// Mutation over locus lists, followed by repair.
#[derive(Debug, Clone)]
pub struct LocusMutation {
    original: Arc<Netlist>,
    key_len: usize,
    kind: MutationKind,
    wires: Vec<(GateId, GateId)>,
}

impl LocusMutation {
    /// Creates a mutation operator for the given original netlist and key
    /// length.
    pub fn new(original: Arc<Netlist>, key_len: usize, kind: MutationKind) -> Self {
        let wires = lockable_wires(&original);
        LocusMutation {
            original,
            key_len,
            kind,
            wires,
        }
    }

    /// The mutation rule.
    pub fn kind(&self) -> MutationKind {
        self.kind
    }

    fn apply_kind(
        &self,
        kind: MutationKind,
        genotype: &mut LockingGenotype,
        rng: &mut dyn RngCore,
    ) {
        if genotype.is_empty() {
            return;
        }
        let idx = rng.gen_range(0..genotype.len());
        match kind {
            MutationKind::KeyFlip => {
                genotype[idx].key_bit = !genotype[idx].key_bit;
            }
            MutationKind::Relocate => {
                if let (Some(&(f_i, g_i)), Some(&(f_j, g_j))) =
                    (self.wires.choose(rng), self.wires.choose(rng))
                {
                    genotype[idx] =
                        autolock_locking::MuxPairLocus::new(f_i, g_i, f_j, g_j, rng.gen());
                }
            }
            MutationKind::RewirePartner => {
                if let Some(&(f_j, g_j)) = self.wires.choose(rng) {
                    genotype[idx].f_j = f_j;
                    genotype[idx].g_j = g_j;
                }
            }
            MutationKind::Composite => {
                let pick = match rng.gen_range(0..3) {
                    0 => MutationKind::KeyFlip,
                    1 => MutationKind::Relocate,
                    _ => MutationKind::RewirePartner,
                };
                self.apply_kind(pick, genotype, rng);
            }
        }
    }
}

impl MutationOperator<LockingGenotype> for LocusMutation {
    fn mutate(&self, genotype: &mut LockingGenotype, rng: &mut dyn RngCore) {
        // The composite mutation perturbs several loci per application (about
        // one in eight), which speeds up exploration for long keys; the
        // single-purpose kinds stay single-locus so the operator ablation
        // isolates their effect.
        let applications = match self.kind {
            MutationKind::Composite => 1 + genotype.len() / 8,
            _ => 1,
        };
        for _ in 0..applications {
            self.apply_kind(self.kind, genotype, rng);
        }
        *genotype = repair_genotype(&self.original, genotype, self.key_len, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genotype::{is_valid, random_genotype};
    use autolock_circuits::synth_circuit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(key_len: usize) -> (Arc<Netlist>, LockingGenotype, LockingGenotype, ChaCha8Rng) {
        let original = Arc::new(synth_circuit("op", 10, 4, 150, 33));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = random_genotype(&original, key_len, &mut rng).unwrap();
        let b = random_genotype(&original, key_len, &mut rng).unwrap();
        (original, a, b, rng)
    }

    #[test]
    fn all_crossover_kinds_produce_valid_children() {
        for kind in [
            CrossoverKind::OnePoint,
            CrossoverKind::TwoPoint,
            CrossoverKind::Uniform,
        ] {
            let (original, a, b, mut rng) = setup(10);
            let op = LocusCrossover::new(original.clone(), 10, kind);
            let (c, d) = op.crossover(&a, &b, &mut rng);
            assert_eq!(c.len(), 10);
            assert_eq!(d.len(), 10);
            assert!(is_valid(&original, &c), "{kind:?} child c invalid");
            assert!(is_valid(&original, &d), "{kind:?} child d invalid");
        }
    }

    #[test]
    fn crossover_mixes_parent_material() {
        let (original, a, b, mut rng) = setup(12);
        let op = LocusCrossover::new(original, 12, CrossoverKind::Uniform);
        let (c, _) = op.crossover(&a, &b, &mut rng);
        let from_a = c.iter().filter(|l| a.contains(l)).count();
        let from_b = c.iter().filter(|l| b.contains(l)).count();
        assert!(from_a > 0, "child should inherit something from parent a");
        assert!(from_b > 0, "child should inherit something from parent b");
    }

    #[test]
    fn all_mutation_kinds_keep_genotypes_valid() {
        for kind in [
            MutationKind::KeyFlip,
            MutationKind::Relocate,
            MutationKind::RewirePartner,
            MutationKind::Composite,
        ] {
            let (original, a, _, mut rng) = setup(8);
            let op = LocusMutation::new(original.clone(), 8, kind);
            let mut child = a.clone();
            op.mutate(&mut child, &mut rng);
            assert_eq!(child.len(), 8);
            assert!(
                is_valid(&original, &child),
                "{kind:?} produced invalid child"
            );
        }
    }

    #[test]
    fn key_flip_changes_exactly_one_bit_most_of_the_time() {
        let (original, a, _, mut rng) = setup(8);
        let op = LocusMutation::new(original, 8, MutationKind::KeyFlip);
        let mut child = a.clone();
        op.mutate(&mut child, &mut rng);
        let changed = a.iter().zip(&child).filter(|(x, y)| x != y).count();
        assert!(changed >= 1);
    }

    #[test]
    fn mutation_on_empty_genotype_is_a_noop_pad() {
        let (original, _, _, mut rng) = setup(4);
        let op = LocusMutation::new(original.clone(), 4, MutationKind::Composite);
        let mut empty: LockingGenotype = Vec::new();
        op.mutate(&mut empty, &mut rng);
        // Repair pads it back to the configured key length.
        assert_eq!(empty.len(), 4);
        assert!(is_valid(&original, &empty));
    }
}
