//! The single-objective genetic algorithm.

use crate::{
    CrossoverOperator, FitnessFunction, GenerationStats, Genotype, MutationOperator,
    SelectionMethod,
};
use autolock_mlcore::parallel::pooled_map;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of [`GeneticAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of generations to run (in addition to evaluating the initial
    /// population).
    pub generations: usize,
    /// Probability that a selected parent pair undergoes crossover (otherwise
    /// the parents are copied unchanged into the offspring pool).
    pub crossover_rate: f64,
    /// Probability that each child is mutated.
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Parent-selection method.
    pub selection: SelectionMethod,
    /// Evaluate fitness across all cores (`false` = serially), through
    /// [`pooled_map`] and its nesting rule. Results are identical either way
    /// because fitness functions are required to be deterministic per
    /// genotype.
    pub parallel: bool,
    /// Stop early once the best fitness reaches this value (in addition to
    /// any [`FitnessFunction::target`]).
    pub target_fitness: Option<f64>,
    /// Stop early after this many consecutive generations without improvement
    /// of the best fitness (`None` disables stagnation-based stopping).
    pub stagnation_limit: Option<usize>,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            generations: 50,
            crossover_rate: 0.9,
            mutation_rate: 0.3,
            elitism: 2,
            selection: SelectionMethod::default(),
            parallel: true,
            target_fitness: None,
            stagnation_limit: None,
        }
    }
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaResult<G> {
    /// The fittest genotype found over the whole run.
    pub best: G,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation statistics (index 0 is the initial population).
    pub history: Vec<GenerationStats>,
    /// Total number of fitness evaluations performed.
    pub evaluations: usize,
    /// Generation at which the best individual was first found.
    pub best_generation: usize,
    /// Whether the run stopped early because the target fitness was reached.
    pub reached_target: bool,
}

/// The single-objective GA engine.
///
/// The engine is generic over the genotype and the variation operators, which
/// is what the operator-ablation experiment (E7) sweeps.
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GaConfig,
}

impl GeneticAlgorithm {
    /// Creates an engine with the given configuration.
    pub fn new(config: GaConfig) -> Self {
        GeneticAlgorithm { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    pub(crate) fn evaluate_scores<G, F>(&self, population: &[G], fitness: &F) -> Vec<f64>
    where
        G: Genotype,
        F: FitnessFunction<G>,
    {
        let _span = autolock_obs::span!("evo.evaluate");
        let threads = if self.config.parallel { 0 } else { 1 };
        pooled_map(threads, population, |g| fitness.evaluate(g))
    }

    /// Runs the GA from an initial population: [`GeneticAlgorithm::init_state`],
    /// [`GeneticAlgorithm::step`] until finished, [`GeneticAlgorithm::finish`].
    /// The run draws from a copy of `rng` and writes the advanced stream
    /// back, so the caller's RNG ends exactly where the run left it.
    ///
    /// # Panics
    ///
    /// Panics if the initial population is empty.
    pub fn run<G, F, C, M>(
        &self,
        initial_population: Vec<G>,
        fitness: &F,
        crossover: &C,
        mutation: &M,
        rng: &mut ChaCha8Rng,
    ) -> GaResult<G>
    where
        G: Genotype,
        F: FitnessFunction<G>,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        let _run_span = autolock_obs::span!("evo.run");
        let mut state = self.init_state(initial_population, fitness, rng.clone());
        while self.step(&mut state, fitness, crossover, mutation) {}
        *rng = state.rng.clone();
        self.finish(state)
    }
}

pub(crate) fn argmax(values: &[f64]) -> (usize, f64) {
    let mut idx = 0;
    let mut best = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best {
            best = v;
            idx = i;
        }
    }
    (idx, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{initial, BitFlip, OneMax, UniformCrossover};
    use rand::SeedableRng;

    #[test]
    fn ga_improves_onemax() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = GaConfig {
            generations: 80,
            parallel: false,
            ..Default::default()
        };
        let result = GeneticAlgorithm::new(config).run(
            initial(30, 40, 2),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng,
        );
        let start_best = result.history[0].best;
        assert!(result.best_fitness > start_best + 10.0);
        assert!(result.best_fitness >= 30.0);
        assert_eq!(result.history.len(), 81);
        assert_eq!(result.evaluations, 30 * 81);
        // History best is monotone non-decreasing at the "best so far" level.
        assert!(
            result
                .history
                .iter()
                .map(|s| s.best)
                .fold((f64::NEG_INFINITY, true), |(prev, ok), b| {
                    (
                        b.max(prev),
                        ok && (b >= prev || b >= result.history[0].best),
                    )
                })
                .1
        );
    }

    #[test]
    fn target_fitness_stops_early() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = GaConfig {
            generations: 500,
            target_fitness: Some(20.0),
            parallel: false,
            ..Default::default()
        };
        let result = GeneticAlgorithm::new(config).run(
            initial(20, 32, 4),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng,
        );
        assert!(result.reached_target);
        assert!(result.history.len() < 501);
        assert!(result.best_fitness >= 20.0);
    }

    #[test]
    fn stagnation_limit_stops_early() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Mutation-free, crossover-free run on a converged population stalls
        // immediately.
        let config = GaConfig {
            generations: 100,
            crossover_rate: 0.0,
            mutation_rate: 0.0,
            stagnation_limit: Some(3),
            parallel: false,
            ..Default::default()
        };
        let result = GeneticAlgorithm::new(config).run(
            vec![vec![true; 8]; 10],
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng,
        );
        assert!(result.history.len() <= 6);
        assert_eq!(result.best_fitness, 8.0);
    }

    #[test]
    fn elitism_preserves_best() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut pop = initial(15, 24, 8);
        pop[0] = vec![true; 24]; // plant an optimum
        let config = GaConfig {
            generations: 10,
            elitism: 1,
            mutation_rate: 1.0,
            parallel: false,
            ..Default::default()
        };
        let result =
            GeneticAlgorithm::new(config).run(pop, &OneMax, &UniformCrossover, &BitFlip, &mut rng);
        assert_eq!(result.best_fitness, 24.0);
        assert!(result.history.iter().all(|s| s.best == 24.0));
    }

    #[test]
    fn runs_are_reproducible_with_same_seed() {
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let config = GaConfig {
                generations: 20,
                parallel: false,
                ..Default::default()
            };
            GeneticAlgorithm::new(config)
                .run(
                    initial(12, 20, 1),
                    &OneMax,
                    &UniformCrossover,
                    &BitFlip,
                    &mut rng,
                )
                .best_fitness
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Deterministic fitness => same scores regardless of evaluation order.
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let mut rng_b = ChaCha8Rng::seed_from_u64(13);
        let serial = GeneticAlgorithm::new(GaConfig {
            generations: 15,
            parallel: false,
            ..Default::default()
        })
        .run(
            initial(10, 16, 2),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng_a,
        );
        let parallel = GeneticAlgorithm::new(GaConfig {
            generations: 15,
            parallel: true,
            ..Default::default()
        })
        .run(
            initial(10, 16, 2),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng_b,
        );
        assert_eq!(serial.best_fitness, parallel.best_fitness);
        assert_eq!(serial.history, parallel.history);
    }

    /// OneMax, except the all-false genotype evaluates to NaN (a "failed"
    /// evaluation, e.g. a crashed attack inside a fitness function).
    struct NanOnAllFalse;
    impl FitnessFunction<Vec<bool>> for NanOnAllFalse {
        fn evaluate(&self, g: &Vec<bool>) -> f64 {
            let ones = g.iter().filter(|&&b| b).count();
            if ones == 0 {
                f64::NAN
            } else {
                ones as f64
            }
        }
    }

    #[test]
    fn nan_fitness_completes_and_never_becomes_elite() {
        for selection in [
            SelectionMethod::Tournament { size: 3 },
            SelectionMethod::Roulette,
            SelectionMethod::Rank,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            // Plant NaN candidates (all-false genotypes) in the population.
            let mut pop = initial(12, 16, 22);
            pop[0] = vec![false; 16];
            pop[5] = vec![false; 16];
            let config = GaConfig {
                generations: 15,
                elitism: 2,
                selection,
                parallel: false,
                ..Default::default()
            };
            let result = GeneticAlgorithm::new(config).run(
                pop,
                &NanOnAllFalse,
                &UniformCrossover,
                &BitFlip,
                &mut rng,
            );
            // The run completed (no panic) and the reported best is a real
            // candidate, not the NaN one.
            assert!(
                result.best_fitness.is_finite(),
                "{}: best fitness {}",
                selection.name(),
                result.best_fitness
            );
            assert!(result.best.iter().any(|&b| b), "{}", selection.name());
        }
    }

    #[test]
    fn all_nan_population_still_terminates() {
        struct AlwaysNan;
        impl FitnessFunction<Vec<bool>> for AlwaysNan {
            fn evaluate(&self, _: &Vec<bool>) -> f64 {
                f64::NAN
            }
        }
        for selection in [
            SelectionMethod::Tournament { size: 2 },
            SelectionMethod::Roulette,
            SelectionMethod::Rank,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(33);
            let config = GaConfig {
                generations: 5,
                selection,
                parallel: false,
                ..Default::default()
            };
            let result = GeneticAlgorithm::new(config).run(
                initial(8, 10, 34),
                &AlwaysNan,
                &UniformCrossover,
                &BitFlip,
                &mut rng,
            );
            assert_eq!(result.history.len(), 6, "{}", selection.name());
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_population_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        GeneticAlgorithm::new(GaConfig::default()).run(
            Vec::<Vec<bool>>::new(),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut rng,
        );
    }
}
