//! Fitness functions: the GA ↔ attack integration.

use crate::cache::FitnessCache;
use crate::genotype::{genotype_hash, LockingGenotype};
use autolock_attacks::{
    netlist_fingerprint, KeyRecoveryAttack, MuxLinkAttack, MuxLinkConfig, SatAttack,
    SatAttackConfig,
};
use autolock_evo::{FitnessFunction, MultiObjectiveFitness};
use autolock_locking::{apply_loci, LockedNetlist};
use autolock_netlist::Netlist;
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Single-objective AutoLock fitness: `1 − MuxLink key-prediction accuracy`.
///
/// The fitness of each genotype is measured by locking the original netlist
/// at the genotype's loci and running the MuxLink attack on the result —
/// "lower accuracy indicates higher fitness" (paper, §II). Evaluations are
/// deterministic (the attack RNG is seeded from the genotype hash) and
/// memoized in a [`FitnessCache`] — private by default, shareable across
/// islands and surrogate/real pairs via [`MuxLinkFitness::with_cache`] —
/// so re-evaluating elites (or a genotype another island already scored)
/// costs nothing.
pub struct MuxLinkFitness {
    original: Arc<Netlist>,
    attack: MuxLinkAttack,
    seed: u64,
    repeats: usize,
    target: Option<f64>,
    cache: Arc<FitnessCache>,
    context: u64,
    evaluations: Mutex<usize>,
}

impl MuxLinkFitness {
    /// Creates the fitness function with a private cache.
    pub fn new(
        original: Arc<Netlist>,
        attack_config: MuxLinkConfig,
        seed: u64,
        repeats: usize,
    ) -> Self {
        let repeats = repeats.max(1);
        let context = FitnessCache::context_key(
            netlist_fingerprint(&original),
            &attack_config,
            seed,
            repeats,
        );
        MuxLinkFitness {
            original,
            attack: MuxLinkAttack::new(attack_config),
            seed,
            repeats,
            target: None,
            cache: FitnessCache::shared(),
            context,
            evaluations: Mutex::new(0),
        }
    }

    /// Sets a target fitness at which the GA may stop early.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = Some(target);
        self
    }

    /// Replaces the private memo with a shared [`FitnessCache`]. The context
    /// key keeps entries from incompatible instances apart, so sharing is
    /// always safe; instances with identical context (same netlist, config,
    /// seed, repeats) answer each other's lookups.
    pub fn with_cache(mut self, cache: Arc<FitnessCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The cache this fitness reads and writes.
    pub fn cache(&self) -> &Arc<FitnessCache> {
        &self.cache
    }

    /// Number of *non-cached* fitness evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        *self.evaluations.lock()
    }

    /// Evaluates the attack accuracy (not the fitness) of a genotype.
    /// Returns accuracy 1.0 for genotypes that fail to decode (they are
    /// maximally unfit).
    pub fn attack_accuracy(&self, genotype: &LockingGenotype) -> f64 {
        let Ok(locked) = apply_loci(&self.original, genotype) else {
            return 1.0;
        };
        self.attack_accuracy_on(&locked, genotype)
    }

    fn attack_accuracy_on(&self, locked: &LockedNetlist, genotype: &LockingGenotype) -> f64 {
        let h = genotype_hash(genotype);
        let mut total = 0.0;
        for rep in 0..self.repeats {
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ h ^ ((rep as u64) << 32));
            total += self.attack.attack(locked, &mut rng).key_accuracy;
        }
        total / self.repeats as f64
    }
}

impl FitnessFunction<LockingGenotype> for MuxLinkFitness {
    fn evaluate(&self, genotype: &LockingGenotype) -> f64 {
        let h = genotype_hash(genotype);
        if let Some(cached) = self.cache.get(self.context, h) {
            return cached;
        }
        let accuracy = self.attack_accuracy(genotype);
        let fitness = 1.0 - accuracy;
        self.cache.insert(self.context, h, fitness);
        *self.evaluations.lock() += 1;
        fitness
    }

    fn target(&self) -> Option<f64> {
        self.target
    }
}

/// Objectives available to the multi-objective fitness (all minimized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectiveKind {
    /// MuxLink key-prediction accuracy.
    MuxLinkAccuracy,
    /// Relative area overhead (extra gates / original gates). Constant for a
    /// fixed key length; useful when individuals have different key lengths.
    AreaOverhead,
    /// Relative depth (delay) overhead: extra logic levels on the longest
    /// path / original depth. Varies with *where* the MUX pairs are inserted,
    /// so it trades off against attack resilience even at fixed key length.
    DepthOverhead,
    /// Negated SAT-attack effort: `1 / (1 + iterations)`, so harder-to-break
    /// designs score lower.
    SatVulnerability,
}

/// Multi-objective AutoLock fitness (experiment E8): simultaneously minimize a
/// configurable set of [`ObjectiveKind`]s.
pub struct MultiObjectiveLockingFitness {
    original: Arc<Netlist>,
    attack: MuxLinkAttack,
    sat_config: SatAttackConfig,
    objectives: Vec<ObjectiveKind>,
    seed: u64,
    cache: Mutex<HashMap<u64, Vec<f64>>>,
}

impl MultiObjectiveLockingFitness {
    /// Creates the multi-objective fitness over the given objectives.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty.
    pub fn new(
        original: Arc<Netlist>,
        attack_config: MuxLinkConfig,
        sat_config: SatAttackConfig,
        objectives: Vec<ObjectiveKind>,
        seed: u64,
    ) -> Self {
        assert!(!objectives.is_empty(), "at least one objective required");
        MultiObjectiveLockingFitness {
            original,
            attack: MuxLinkAttack::new(attack_config),
            sat_config,
            objectives,
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The configured objectives, in evaluation order.
    pub fn objectives(&self) -> &[ObjectiveKind] {
        &self.objectives
    }
}

impl MultiObjectiveFitness<LockingGenotype> for MultiObjectiveLockingFitness {
    fn num_objectives(&self) -> usize {
        self.objectives.len()
    }

    fn evaluate(&self, genotype: &LockingGenotype) -> Vec<f64> {
        let h = genotype_hash(genotype);
        if let Some(cached) = self.cache.lock().get(&h) {
            return cached.clone();
        }
        let values = match apply_loci(&self.original, genotype) {
            Err(_) => vec![f64::INFINITY; self.objectives.len()],
            Ok(locked) => self
                .objectives
                .iter()
                .map(|obj| match obj {
                    ObjectiveKind::MuxLinkAccuracy => {
                        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ h);
                        self.attack.attack(&locked, &mut rng).key_accuracy
                    }
                    ObjectiveKind::AreaOverhead => {
                        let extra = locked.netlist().num_logic_gates() as f64
                            - self.original.num_logic_gates() as f64;
                        extra / self.original.num_logic_gates().max(1) as f64
                    }
                    ObjectiveKind::DepthOverhead => {
                        let original_depth = autolock_netlist::topo::depth(&self.original)
                            .unwrap_or(1)
                            .max(1);
                        let locked_depth = autolock_netlist::topo::depth(locked.netlist())
                            .unwrap_or(original_depth);
                        (locked_depth as f64 - original_depth as f64) / original_depth as f64
                    }
                    ObjectiveKind::SatVulnerability => {
                        let outcome =
                            SatAttack::new(self.sat_config).attack(&locked, &self.original);
                        if outcome.success {
                            1.0 / (1.0 + outcome.iterations as f64)
                        } else {
                            0.0
                        }
                    }
                })
                .collect(),
        };
        self.cache.lock().insert(h, values.clone());
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genotype::random_genotype;
    use autolock_circuits::synth_circuit;

    fn setup() -> (Arc<Netlist>, LockingGenotype) {
        let original = Arc::new(synth_circuit("fit", 10, 4, 150, 41));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let genotype = random_genotype(&original, 8, &mut rng).unwrap();
        (original, genotype)
    }

    #[test]
    fn fitness_is_deterministic_and_cached() {
        let (original, genotype) = setup();
        let fitness = MuxLinkFitness::new(original, MuxLinkConfig::fast(), 11, 1);
        let a = fitness.evaluate(&genotype);
        let b = fitness.evaluate(&genotype);
        assert_eq!(a, b);
        assert_eq!(fitness.evaluations(), 1, "second call must hit the cache");
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn subgraph_cache_does_not_change_fitness_across_repeats() {
        // The in-loop attack inherits `MuxLinkConfig::subgraph_cache`
        // through `AutoLockConfig::attack`; with `repeats > 1` the repeats
        // of one evaluation share the instance cache (same locked netlist),
        // and the result must be bit-identical to a cache-disabled oracle.
        let (original, genotype) = setup();
        let cached = MuxLinkFitness::new(original.clone(), MuxLinkConfig::fast(), 11, 2);
        let plain = MuxLinkFitness::new(
            original,
            MuxLinkConfig::fast().with_subgraph_cache(0),
            11,
            2,
        );
        assert_eq!(
            cached.evaluate(&genotype).to_bits(),
            plain.evaluate(&genotype).to_bits()
        );
    }

    #[test]
    fn cache_hit_replays_the_miss_path_rng_protocol() {
        // The attack RNG is derived from `seed ^ genotype_hash ^ (rep << 32)`
        // — never from evaluation order — so a value served from a *shared*
        // cache must be bit-identical to what the served instance would have
        // computed from scratch through its own miss path.
        let (original, genotype) = setup();
        let cache = FitnessCache::shared();
        let first = MuxLinkFitness::new(original.clone(), MuxLinkConfig::fast(), 11, 2)
            .with_cache(cache.clone());
        let shared = MuxLinkFitness::new(original.clone(), MuxLinkConfig::fast(), 11, 2)
            .with_cache(cache.clone());
        let isolated = MuxLinkFitness::new(original.clone(), MuxLinkConfig::fast(), 11, 2);

        let miss = first.evaluate(&genotype);
        let hit = shared.evaluate(&genotype);
        assert_eq!(miss.to_bits(), hit.to_bits());
        assert_eq!(
            shared.evaluations(),
            0,
            "second instance must hit the cache"
        );
        assert_eq!(
            hit.to_bits(),
            isolated.evaluate(&genotype).to_bits(),
            "cache hit must equal an isolated miss-path evaluation"
        );
        assert_eq!(cache.hits(), 1);

        // A different seed is a different context: no cross-contamination,
        // and (in general) a different value.
        let other =
            MuxLinkFitness::new(original, MuxLinkConfig::fast(), 12, 2).with_cache(cache.clone());
        let _ = other.evaluate(&genotype);
        assert_eq!(
            other.evaluations(),
            1,
            "different seed must not share entries"
        );
    }

    #[test]
    fn fitness_is_one_minus_accuracy() {
        let (original, genotype) = setup();
        let fitness = MuxLinkFitness::new(original, MuxLinkConfig::fast(), 11, 1);
        let acc = fitness.attack_accuracy(&genotype);
        let fit = fitness.evaluate(&genotype);
        assert!((fit - (1.0 - acc)).abs() < 1e-12);
    }

    #[test]
    fn invalid_genotype_gets_worst_fitness() {
        let (original, genotype) = setup();
        let fitness = MuxLinkFitness::new(original, MuxLinkConfig::fast(), 11, 1);
        // Duplicate the first locus to make the genotype invalid.
        let mut broken = genotype.clone();
        broken[1] = broken[0];
        assert_eq!(fitness.evaluate(&broken), 0.0);
    }

    #[test]
    fn fitness_can_target_the_gnn_adversary() {
        // The evolutionary loop can optimize against the DGCNN backend just
        // by configuring it; the fitness plumbing is backend-agnostic.
        let (original, genotype) = setup();
        let fitness = MuxLinkFitness::new(original, MuxLinkConfig::gnn_fast(), 11, 1);
        let f = fitness.evaluate(&genotype);
        assert!((0.0..=1.0).contains(&f));
        // Cached and deterministic like the MLP-backed fitness.
        assert_eq!(fitness.evaluate(&genotype), f);
        assert_eq!(fitness.evaluations(), 1);
    }

    #[test]
    fn one_generation_evolves_against_the_parallel_gnn_adversary() {
        // The E11 seed path: a (tiny) AutoLock run whose fitness oracle is
        // the batch-parallel DGCNN attack. One generation is enough to prove
        // the GA ↔ parallel-GNN integration end-to-end: the engine must
        // evaluate every individual, record the generation, and return a
        // well-formed evolved locking.
        use crate::{AutoLock, AutoLockConfig};
        let original = synth_circuit("evo-gnn", 10, 4, 130, 47);
        let config = AutoLockConfig {
            key_len: 6,
            population_size: 4,
            generations: 1,
            attack: MuxLinkConfig::gnn_fast().with_threads(0),
            seed: 0xE11,
            ..AutoLockConfig::tiny()
        };
        let result = AutoLock::new(config).run(&original).unwrap();
        assert_eq!(result.locked.key_len(), 6);
        assert!((0.0..=1.0).contains(&result.final_attack_accuracy));
        assert!((0.0..=1.0).contains(&result.baseline_attack_accuracy));
        // Initial population + one generation, each recorded.
        assert_eq!(result.history.len(), 2);
        assert!(result.fitness_evaluations >= 4);
        // Elitism guarantees the best never regresses between generations.
        assert!(
            result.history[1].best_attack_accuracy
                <= result.history[0].best_attack_accuracy + 1e-12
        );
    }

    #[test]
    fn target_is_propagated() {
        let (original, _) = setup();
        let fitness = MuxLinkFitness::new(original, MuxLinkConfig::fast(), 11, 1).with_target(0.5);
        assert_eq!(FitnessFunction::target(&fitness), Some(0.5));
    }

    #[test]
    fn multi_objective_returns_one_value_per_objective() {
        let (original, genotype) = setup();
        let fitness = MultiObjectiveLockingFitness::new(
            original.clone(),
            MuxLinkConfig::fast(),
            SatAttackConfig {
                max_iterations: 20,
                ..SatAttackConfig::default()
            },
            vec![ObjectiveKind::MuxLinkAccuracy, ObjectiveKind::AreaOverhead],
            7,
        );
        let values = fitness.evaluate(&genotype);
        assert_eq!(values.len(), 2);
        assert!((0.0..=1.0).contains(&values[0]));
        // 8 mux pairs on a 150-gate circuit => ~10.7% area overhead.
        assert!((values[1] - 16.0 / 150.0).abs() < 1e-9);
        // Cached second call.
        assert_eq!(fitness.evaluate(&genotype), values);
    }

    #[test]
    #[should_panic(expected = "at least one objective")]
    fn empty_objectives_panics() {
        let (original, _) = setup();
        MultiObjectiveLockingFitness::new(
            original,
            MuxLinkConfig::fast(),
            SatAttackConfig::default(),
            vec![],
            1,
        );
    }
}
