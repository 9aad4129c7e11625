//! The end-to-end AutoLock pipeline.

use crate::config::AutoLockConfig;
use crate::evolution::{EvolutionJob, EvolutionOutcome};
use crate::report::{AutoLockResult, GenerationRecord};
use crate::Result;
use autolock_evo::run_to_completion;
use autolock_locking::{apply_loci, LockedNetlist};
use autolock_netlist::Netlist;
use std::time::Instant;

/// The AutoLock engine: wires the genotype, the evolutionary operators, the
/// MuxLink fitness oracle and the GA together (Fig. 1 of the paper).
#[derive(Debug, Clone)]
pub struct AutoLock {
    config: AutoLockConfig,
}

impl AutoLock {
    /// Creates an engine with the given configuration.
    pub fn new(config: AutoLockConfig) -> Self {
        AutoLock { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoLockConfig {
        &self.config
    }

    /// Runs the full pipeline on `original` and returns the evolved locked
    /// netlist together with the convergence record.
    ///
    /// # Errors
    ///
    /// * [`crate::AutoLockError::InvalidConfig`] for inconsistent configurations
    ///   (see [`EvolutionJob::new`]),
    /// * [`crate::AutoLockError::Lock`] if the netlist cannot host the requested key
    ///   length.
    pub fn run(&self, original: &Netlist) -> Result<AutoLockResult> {
        let start = Instant::now();
        // Top-level pipeline span; the GA's per-generation spans and the
        // in-loop attacks' stage spans nest under it in the trace.
        let _span = autolock_obs::span!("autolock.run");
        autolock_obs::counter("autolock.runs").incr();

        // Steps 1-3 (Fig. 1): seed, score and evolve.
        let job = EvolutionJob::new(&self.config, original)?;
        let EvolutionOutcome { result, migrations } = {
            let _span = autolock_obs::span!("evo.run");
            run_to_completion(&job, |_| {})
        };

        // Step 4: decode the fittest genotype back into a locked netlist.
        let decoded = apply_loci(original, &result.best)?;
        let locked = LockedNetlist::new(
            decoded.netlist().clone(),
            decoded.key().clone(),
            decoded.provenance().to_vec(),
            "autolock",
            original.name(),
        )?;

        let history: Vec<GenerationRecord> = result
            .history
            .iter()
            .map(|s| GenerationRecord {
                generation: s.generation,
                best_attack_accuracy: 1.0 - s.best,
                mean_attack_accuracy: 1.0 - s.mean,
                worst_attack_accuracy: 1.0 - s.worst,
            })
            .collect();
        let baseline_attack_accuracy = history
            .first()
            .map(|h| h.mean_attack_accuracy)
            .unwrap_or(1.0);

        let fitness = job.fitness();
        Ok(AutoLockResult {
            locked,
            best_genotype: result.best,
            baseline_attack_accuracy,
            final_attack_accuracy: 1.0 - result.best_fitness,
            history,
            fitness_evaluations: fitness.evaluations(),
            best_generation: result.best_generation,
            runtime_ms: start.elapsed().as_millis(),
            migrations,
            fitness_cache_hits: fitness.cache().hits(),
            fitness_cache_misses: fitness.cache().misses(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoLockError;
    use autolock_circuits::synth_circuit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_circuit() -> Netlist {
        synth_circuit("engine", 10, 4, 120, 55)
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.population_size = 1;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.key_len = 0;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.elitism = cfg.population_size;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.key_len = 10_000;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::Lock(_))
        ));
    }

    #[test]
    fn run_produces_functional_locked_netlist_and_history() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 3;
        cfg.population_size = 5;
        cfg.key_len = 6;
        cfg.parallel = false;
        let result = AutoLock::new(cfg).run(&nl).unwrap();

        assert_eq!(result.locked.key_len(), 6);
        assert_eq!(result.locked.scheme(), "autolock");
        assert_eq!(result.best_genotype.len(), 6);
        assert!(!result.history.is_empty());
        assert!(result.fitness_evaluations > 0);
        // Correct key must preserve functionality.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert!(result.locked.verify_functional(&nl, 8, &mut rng).unwrap());
        // The evolved locking is never worse than the baseline (elitism).
        assert!(result.final_attack_accuracy <= result.baseline_attack_accuracy + 1e-9);
        assert!(result.accuracy_drop_pp() >= -1e-9);
    }

    #[test]
    fn island_run_migrates_and_is_thread_count_invariant() {
        use autolock_evo::IslandConfig;
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 2;
        cfg.population_size = 6;
        cfg.key_len = 4;
        cfg.parallel = false;
        cfg.islands = IslandConfig {
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            threads: 1,
        };
        // Surrogate == real attack here: exact mode, so screening must not
        // change anything while still exercising the shared-cache path.
        cfg.surrogate = Some(cfg.attack.clone());
        let a = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        cfg.islands.threads = 4;
        let b = AutoLock::new(cfg).run(&nl).unwrap();
        assert_eq!(a.best_genotype, b.best_genotype);
        assert_eq!(
            a.final_attack_accuracy.to_bits(),
            b.final_attack_accuracy.to_bits()
        );
        assert_eq!(a.migrations, 2, "interval 1 over 2 generations");
        assert!(
            a.fitness_cache_hits > 0,
            "surrogate pass must share the cache"
        );
        assert!(a.fitness_cache_misses > 0);
        assert!((0.0..=1.0).contains(&a.final_attack_accuracy));
    }

    #[test]
    fn island_run_rejects_undersized_populations() {
        use autolock_evo::IslandConfig;
        let nl = small_circuit();
        // 5 members cannot give 3 islands 2 members each; 8 members over 4
        // islands leave 2 per island, all of them elites under elitism 2,
        // so no island could ever breed a child.
        for (population_size, islands) in [(5, 3), (8, 4)] {
            let mut cfg = AutoLockConfig::tiny();
            cfg.population_size = population_size;
            cfg.elitism = 2;
            cfg.islands = IslandConfig {
                islands,
                ..IslandConfig::default()
            };
            assert!(matches!(
                AutoLock::new(cfg).run(&nl),
                Err(AutoLockError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 2;
        cfg.population_size = 4;
        cfg.key_len = 4;
        cfg.parallel = false;
        let a = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        let b = AutoLock::new(cfg).run(&nl).unwrap();
        assert_eq!(a.best_genotype, b.best_genotype);
        assert_eq!(a.final_attack_accuracy, b.final_attack_accuracy);
    }
}
