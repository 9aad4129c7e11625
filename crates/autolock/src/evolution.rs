//! One evolution job: the setup of Fig. 1's steps 1–3, done once.
//!
//! [`EvolutionJob::new`] validates an [`AutoLockConfig`], builds the MuxLink
//! fitness (and the optional surrogate on the same cache), the locus
//! operators and the GA engine, seeds the initial population and positions
//! the RNG after seeding. The job is a [`Resumable`], so every driver runs
//! the same evolution: [`crate::AutoLock::run`] drives it to completion and
//! decodes the winner, and the job service persists a checkpoint between
//! generations.

use crate::config::AutoLockConfig;
use crate::fitness::MuxLinkFitness;
use crate::genotype::LockingGenotype;
use crate::operators::{LocusCrossover, LocusMutation};
use crate::report::AutoLockError;
use crate::Result;
use autolock_evo::{
    validate_ga_state, GaConfig, GaResult, GaState, GeneticAlgorithm, IslandGa, IslandGaState,
    Resumable, SurrogateScreen,
};
use autolock_netlist::Netlist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The state of an [`EvolutionJob`] between generations, and its
/// checkpoint. The variant picks the engine that steps it. It serializes as
/// the bare [`GaState`] or [`IslandGaState`], so a checkpoint has the same
/// JSON shape as the engine state it wraps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum EvolutionState {
    /// A single-population run.
    Single(Box<GaState<LockingGenotype>>),
    /// An island-model run.
    Islands(IslandGaState<LockingGenotype>),
}

/// What a finished [`EvolutionJob`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionOutcome {
    /// The GA summary; island runs report their merged statistics.
    pub result: GaResult<LockingGenotype>,
    /// Ring-migration rounds applied (island runs; 0 otherwise).
    pub migrations: usize,
}

/// A validated, fully set-up AutoLock evolution (Fig. 1, steps 1–3).
pub struct EvolutionJob {
    /// The island engine; its [`IslandGa::ga`] is the single-population GA.
    engine: IslandGa,
    /// Whether the run uses the island model (`islands.islands > 1`).
    use_islands: bool,
    fitness: MuxLinkFitness,
    surrogate: Option<MuxLinkFitness>,
    survivor_fraction: f64,
    crossover: LocusCrossover,
    mutation: LocusMutation,
    initial: Vec<LockingGenotype>,
    rng: ChaCha8Rng,
}

impl EvolutionJob {
    /// Validates `cfg` and sets up the evolution of `original`.
    ///
    /// # Errors
    ///
    /// * [`AutoLockError::InvalidConfig`] for inconsistent configurations: a
    ///   population under 2, an empty key, elitism that leaves no room for
    ///   children, or (island runs) islands that cannot hold 2 members or
    ///   breed a child,
    /// * [`AutoLockError::Lock`] if the netlist cannot host the key length.
    pub fn new(cfg: &AutoLockConfig, original: &Netlist) -> Result<Self> {
        let invalid = |reason: String| Err(AutoLockError::InvalidConfig { reason });
        if cfg.population_size < 2 {
            return invalid("population size must be at least 2".into());
        }
        if cfg.key_len == 0 {
            return invalid("key length must be at least 1".into());
        }
        if cfg.elitism >= cfg.population_size {
            return invalid("elitism must be smaller than the population size".into());
        }
        let islands = cfg.islands.islands;
        let use_islands = islands > 1;
        if use_islands && cfg.population_size < islands * 2 {
            return invalid(format!(
                "island runs need at least 2 individuals per island ({} < {})",
                cfg.population_size,
                islands * 2
            ));
        }
        // The smallest island has `population_size / islands` members and
        // keeps `elitism` of them, so it must have room for a child.
        if use_islands && cfg.elitism >= cfg.population_size / islands {
            return invalid(format!(
                "elitism {} leaves no room for children on islands of {}",
                cfg.elitism,
                cfg.population_size / islands
            ));
        }

        let original = Arc::new(original.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Step 1 (Fig. 1): lock the original netlist N times with random keys
        // to obtain the initial population of encodings. `cfg.locking`
        // selects the insertion policy — uniformly random pairs (the
        // paper's setup) or locality-aware pairs for structured circuits.
        let initial = (0..cfg.population_size)
            .map(|_| cfg.locking.select_loci(&original, cfg.key_len, &mut rng))
            .collect::<std::result::Result<Vec<_>, _>>()?;

        // Step 2: fitness = 1 - MuxLink accuracy.
        let mut fitness = MuxLinkFitness::new(
            original.clone(),
            cfg.attack.clone(),
            cfg.seed,
            cfg.attack_repeats,
        );
        if let Some(t) = cfg.target_fitness {
            fitness = fitness.with_target(t);
        }
        // Surrogate screening (island path only): the cheap attack shares
        // the real fitness's cache, so a genotype the surrogate already
        // scored is still re-scored by the real fitness on its first
        // survival — different context keys keep the values apart.
        let surrogate = cfg.surrogate.as_ref().filter(|_| use_islands).map(|sc| {
            MuxLinkFitness::new(original.clone(), sc.clone(), cfg.seed, cfg.attack_repeats)
                .with_cache(fitness.cache().clone())
        });

        // Step 3: evolutionary operators over the locus-list genotype.
        let crossover = LocusCrossover::new(original.clone(), cfg.key_len, cfg.crossover_kind);
        let mutation = LocusMutation::new(original, cfg.key_len, cfg.mutation_kind);

        let ga = GeneticAlgorithm::new(GaConfig {
            generations: cfg.generations,
            crossover_rate: cfg.crossover_rate,
            mutation_rate: cfg.mutation_rate,
            elitism: cfg.elitism,
            selection: cfg.selection,
            parallel: cfg.parallel,
            target_fitness: cfg.target_fitness,
            stagnation_limit: cfg.stagnation_limit,
        });
        Ok(EvolutionJob {
            engine: IslandGa::new(ga, cfg.islands),
            use_islands,
            fitness,
            surrogate,
            survivor_fraction: cfg.surrogate_survivor_fraction,
            crossover,
            mutation,
            initial,
            rng,
        })
    }

    /// The real fitness: its evaluation count and its cache (shared with
    /// the surrogate) describe the work a run did.
    pub fn fitness(&self) -> &MuxLinkFitness {
        &self.fitness
    }

    fn screen(&self) -> Option<SurrogateScreen<'_, LockingGenotype>> {
        self.surrogate.as_ref().map(|s| SurrogateScreen {
            surrogate: s,
            survivor_fraction: self.survivor_fraction,
        })
    }
}

impl Resumable for EvolutionJob {
    type State = EvolutionState;
    type Checkpoint = EvolutionState;
    type Output = EvolutionOutcome;

    fn init_state(&self) -> EvolutionState {
        let (initial, rng) = (self.initial.clone(), self.rng.clone());
        if self.use_islands {
            let screen = self.screen();
            let state = self
                .engine
                .init_state(initial, &self.fitness, screen.as_ref(), rng);
            EvolutionState::Islands(state)
        } else {
            let state = self.engine.ga().init_state(initial, &self.fitness, rng);
            EvolutionState::Single(Box::new(state))
        }
    }

    fn step(&self, state: &mut EvolutionState) -> bool {
        let (fitness, crossover, mutation) = (&self.fitness, &self.crossover, &self.mutation);
        match state {
            EvolutionState::Single(s) => self.engine.ga().step(s, fitness, crossover, mutation),
            EvolutionState::Islands(s) => {
                let screen = self.screen();
                self.engine
                    .step(s, fitness, crossover, mutation, screen.as_ref())
            }
        }
    }

    fn is_finished(&self, state: &EvolutionState) -> bool {
        match state {
            EvolutionState::Single(s) => self.engine.ga().is_finished(s),
            EvolutionState::Islands(s) => self.engine.is_finished(s),
        }
    }

    fn finish(&self, state: EvolutionState) -> EvolutionOutcome {
        match state {
            EvolutionState::Single(s) => EvolutionOutcome {
                result: self.engine.ga().finish(*s),
                migrations: 0,
            },
            EvolutionState::Islands(s) => EvolutionOutcome {
                migrations: s.migrations,
                result: self.engine.finish(s),
            },
        }
    }

    fn checkpoint(&self, state: &EvolutionState) -> EvolutionState {
        state.clone()
    }

    fn restore(&self, checkpoint: EvolutionState) -> std::result::Result<EvolutionState, String> {
        match (&checkpoint, self.use_islands) {
            (EvolutionState::Single(s), false) => validate_ga_state(s)?,
            (EvolutionState::Islands(s), true) => self.engine.validate_state(s)?,
            (EvolutionState::Single(_), true) => {
                return Err("single-population checkpoint for an island job".into())
            }
            (EvolutionState::Islands(_), false) => {
                return Err("island checkpoint for a single-population job".into())
            }
        }
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::synth_circuit;
    use autolock_evo::{FitnessFunction, IslandConfig};

    fn jobs() -> (EvolutionJob, EvolutionJob) {
        let nl = synth_circuit("evolution", 10, 4, 120, 55);
        let cfg = AutoLockConfig::tiny();
        let islands = AutoLockConfig {
            elitism: 1,
            islands: IslandConfig {
                islands: 2,
                ..IslandConfig::default()
            },
            ..cfg.clone()
        };
        (
            EvolutionJob::new(&cfg, &nl).unwrap(),
            EvolutionJob::new(&islands, &nl).unwrap(),
        )
    }

    /// A generation-0 state of `job`'s population under a constant fitness.
    fn ga_state(job: &EvolutionJob) -> GaState<LockingGenotype> {
        struct Half;
        impl FitnessFunction<LockingGenotype> for Half {
            fn evaluate(&self, _: &LockingGenotype) -> f64 {
                0.5
            }
        }
        let ga = GeneticAlgorithm::new(GaConfig::default());
        ga.init_state(job.initial.clone(), &Half, job.rng.clone())
    }

    /// A checkpoint is the bare engine state, so checkpoints written before
    /// the job type wrapped them still restore.
    #[test]
    fn checkpoints_keep_the_engine_state_json_shape() {
        let (single, _) = jobs();
        let ga = ga_state(&single);
        let isl = IslandGaState {
            islands: vec![ga.clone(), ga.clone()],
            generation: 0,
            migrations: 0,
        };
        for (state, bare) in [
            (
                EvolutionState::Single(Box::new(ga.clone())),
                serde_json::to_string(&ga).unwrap(),
            ),
            (
                EvolutionState::Islands(isl.clone()),
                serde_json::to_string(&isl).unwrap(),
            ),
        ] {
            assert_eq!(serde_json::to_string(&state).unwrap(), bare);
            assert_eq!(
                serde_json::from_str::<EvolutionState>(&bare).unwrap(),
                state
            );
        }
    }

    #[test]
    fn restore_rejects_the_other_engines_state() {
        let (single, islands) = jobs();
        let ga = EvolutionState::Single(Box::new(ga_state(&single)));
        let isl = EvolutionState::Islands(IslandGaState {
            islands: vec![ga_state(&single)],
            generation: 0,
            migrations: 0,
        });
        assert!(single.restore(isl.clone()).unwrap_err().contains("island"));
        assert!(islands.restore(ga.clone()).unwrap_err().contains("single"));
        assert!(islands.restore(isl).unwrap_err().contains("islands"));
        assert!(single.restore(ga).is_ok());
    }
}
