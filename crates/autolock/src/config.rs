//! AutoLock configuration.

use crate::operators::{CrossoverKind, MutationKind};
use autolock_attacks::MuxLinkConfig;
use autolock_evo::{IslandConfig, SelectionMethod};
use autolock_locking::{DMuxLocking, PairSelectionStrategy};
use serde::{Deserialize, Serialize};

/// Configuration of an [`crate::AutoLock`] run.
///
/// The defaults mirror the paper's setup (no parameter tuning): a modest
/// population evolved for a few tens of generations with tournament selection,
/// one-point crossover and composite mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoLockConfig {
    /// Desired key length `K` (number of MUX pairs inserted).
    pub key_len: usize,
    /// Population size `N` (number of independently D-MUX-locked encodings
    /// used to seed the GA).
    pub population_size: usize,
    /// Number of GA generations.
    pub generations: usize,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// Mutation probability (per child).
    pub mutation_rate: f64,
    /// Number of elite individuals preserved unchanged each generation.
    pub elitism: usize,
    /// Parent-selection method.
    pub selection: SelectionMethod,
    /// Crossover recombination rule.
    pub crossover_kind: CrossoverKind,
    /// Mutation rule.
    pub mutation_kind: MutationKind,
    /// Stop early when the best fitness (1 − attack accuracy) reaches this
    /// value; e.g. `Some(0.5)` stops once the attack is at coin-flip level.
    pub target_fitness: Option<f64>,
    /// Stop after this many generations without improvement.
    pub stagnation_limit: Option<usize>,
    /// Configuration of the MuxLink attack used as the fitness oracle.
    pub attack: MuxLinkConfig,
    /// The D-MUX selection policy used to seed the initial population (one
    /// independent locking per individual). [`PairSelectionStrategy::Random`]
    /// reproduces the paper's setup on the small random synthetics;
    /// structured-tier runs should use
    /// [`PairSelectionStrategy::Localized`] so the seeded MUX pairs land on
    /// realistic reconvergent nets instead of give-away cross-block jumps
    /// (see [`AutoLockConfig::structured`]).
    pub locking: DMuxLocking,
    /// Evaluate the population in parallel.
    pub parallel: bool,
    /// Base RNG seed; every stochastic component derives from it, so a run is
    /// fully reproducible.
    pub seed: u64,
    /// Number of independent attack evaluations averaged per fitness call
    /// (reduces fitness noise at proportional cost).
    pub attack_repeats: usize,
    /// Island-model topology. `islands.islands <= 1` keeps the classic
    /// single-population GA; anything larger fans subpopulations across
    /// `islands.threads` workers with deterministic ring migration (results
    /// are bit-identical for every thread count). Fan-outs beneath the
    /// islands follow the nesting rule of
    /// `autolock_mlcore::parallel::pooled_map`.
    pub islands: IslandConfig,
    /// Surrogate screening for island runs: a cheap attack configuration
    /// (typically the MLP backend) that ranks each generation so only the
    /// top [`AutoLockConfig::surrogate_survivor_fraction`] pay for the real
    /// [`AutoLockConfig::attack`]. `None` disables screening. Only honoured
    /// by the island path.
    pub surrogate: Option<MuxLinkConfig>,
    /// Fraction of each generation scored by the real fitness under
    /// surrogate screening (clamped to `(0, 1]`; at least one individual
    /// always survives).
    pub surrogate_survivor_fraction: f64,
}

impl Default for AutoLockConfig {
    fn default() -> Self {
        AutoLockConfig {
            key_len: 32,
            population_size: 16,
            generations: 25,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            elitism: 2,
            selection: SelectionMethod::Tournament { size: 3 },
            crossover_kind: CrossoverKind::OnePoint,
            mutation_kind: MutationKind::Composite,
            target_fitness: None,
            stagnation_limit: None,
            attack: MuxLinkConfig::fast(),
            locking: DMuxLocking::default(),
            parallel: true,
            seed: 0xA010C,
            attack_repeats: 1,
            islands: IslandConfig {
                islands: 1,
                ..IslandConfig::default()
            },
            surrogate: None,
            surrogate_survivor_fraction: 0.5,
        }
    }
}

impl AutoLockConfig {
    /// A small, fast configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        AutoLockConfig {
            key_len: 8,
            population_size: 6,
            generations: 4,
            attack: MuxLinkConfig::fast(),
            ..Default::default()
        }
    }

    /// Switches population seeding to locality-aware insertion
    /// ([`PairSelectionStrategy::Localized`]): both wires of every seeded
    /// MUX pair lie within `radius` undirected hops of each other. This is
    /// the configuration the structured-tier (ISCAS-shaped) experiments
    /// use — on datapath circuits, uniformly random pairs straddle
    /// unrelated blocks and are trivially separable for the adversary.
    pub fn structured(mut self, radius: usize) -> Self {
        self.locking = DMuxLocking::new(PairSelectionStrategy::Localized { radius });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = AutoLockConfig::default();
        assert!(c.key_len > 0);
        assert!(c.population_size > 1);
        assert!(c.crossover_rate > 0.0 && c.crossover_rate <= 1.0);
        assert!(c.mutation_rate > 0.0 && c.mutation_rate <= 1.0);
        assert!(c.elitism < c.population_size);
    }

    #[test]
    fn tiny_config_is_smaller() {
        let t = AutoLockConfig::tiny();
        let d = AutoLockConfig::default();
        assert!(t.key_len < d.key_len);
        assert!(t.population_size < d.population_size);
        assert!(t.generations < d.generations);
    }

    #[test]
    fn config_serializes() {
        let c = AutoLockConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: AutoLockConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
