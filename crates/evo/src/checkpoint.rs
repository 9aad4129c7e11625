//! Generation-level checkpointing for the single-objective GA.
//!
//! A long evolution run inside a job service must survive being killed: the
//! engine state after every generation is a plain serializable value
//! ([`GaState`]), including the exact RNG stream position ([`ChaCha8Rng`] is
//! serde-serializable in this workspace). Persist it after each
//! [`GeneticAlgorithm::step`]; on restart, deserialize and keep stepping.
//!
//! **Determinism contract:** [`GeneticAlgorithm::run`] is itself the
//! `init_state` + `step` + `finish` loop, so a run driven step by step is the
//! same run by construction. A state serialized after any generation and
//! resumed in a fresh process continues bit-for-bit identically to the
//! uninterrupted run (pinned by tests).

use crate::{
    CrossoverOperator, FitnessFunction, GaResult, GenerationStats, GeneticAlgorithm, Genotype,
    MutationOperator,
};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The complete, serializable state of a GA run between generations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaState<G> {
    /// Index of the last evaluated generation (0 = initial population).
    pub generation: usize,
    /// Current population.
    pub population: Vec<G>,
    /// Fitness of `population` (same order).
    pub scores: Vec<f64>,
    /// Per-generation statistics, index 0 = initial population.
    pub history: Vec<GenerationStats>,
    /// Best genotype seen so far across all generations.
    pub best: G,
    /// Fitness of `best`.
    pub best_fitness: f64,
    /// Generation at which `best` was first seen.
    pub best_generation: usize,
    /// Total fitness evaluations so far.
    pub evaluations: usize,
    /// Consecutive generations without improvement.
    pub stagnant: usize,
    /// Whether the target fitness has been reached.
    pub reached_target: bool,
    /// RNG, positioned exactly where the last generation left it.
    pub rng: ChaCha8Rng,
}

impl GeneticAlgorithm {
    /// Evaluates the initial population and builds the generation-0 state.
    ///
    /// # Panics
    ///
    /// Panics if the initial population is empty.
    pub fn init_state<G, F>(
        &self,
        initial_population: Vec<G>,
        fitness: &F,
        rng: ChaCha8Rng,
    ) -> GaState<G>
    where
        G: Genotype,
        F: FitnessFunction<G>,
    {
        let target = self.config().target_fitness.or(fitness.target());
        self.init_state_with(initial_population, target, rng, |pop| {
            self.evaluate_scores(pop, fitness)
        })
    }

    /// [`GeneticAlgorithm::init_state`] with the evaluation strategy injected.
    ///
    /// The island engine routes evaluation through surrogate screening and the
    /// shared fitness cache; keeping a single implementation here guarantees
    /// both paths build bit-identical generation-0 states.
    pub(crate) fn init_state_with<G>(
        &self,
        initial_population: Vec<G>,
        target: Option<f64>,
        rng: ChaCha8Rng,
        evaluate: impl FnOnce(&[G]) -> Vec<f64>,
    ) -> GaState<G>
    where
        G: Genotype,
    {
        assert!(
            !initial_population.is_empty(),
            "initial population must not be empty"
        );
        let population = initial_population;
        let scores = evaluate(&population);
        autolock_obs::counter("evo.fitness_evals").add(population.len() as u64);
        let history = vec![GenerationStats::from_fitness(0, &scores)];
        let (best_idx, best_fitness) = crate::ga::argmax(&scores);
        let best = population[best_idx].clone();
        let reached_target = target.map(|t| best_fitness >= t).unwrap_or(false);
        GaState {
            generation: 0,
            evaluations: population.len(),
            population,
            scores,
            history,
            best,
            best_fitness,
            best_generation: 0,
            stagnant: 0,
            reached_target,
            rng,
        }
    }

    /// `true` once no further [`GeneticAlgorithm::step`] will run: the
    /// configured generation budget is spent, the target fitness was reached,
    /// or the run stagnated past the configured limit.
    pub fn is_finished<G>(&self, state: &GaState<G>) -> bool {
        if state.generation >= self.config().generations || state.reached_target {
            return true;
        }
        if let Some(limit) = self.config().stagnation_limit {
            if state.stagnant >= limit {
                return true;
            }
        }
        false
    }

    /// Advances the state by exactly one generation. Returns `false` (and
    /// leaves the state untouched) if the run is already finished.
    ///
    /// Checkpoint boundary: the state is fully self-describing after every
    /// call, so callers may serialize it between any two calls.
    pub fn step<G, F, C, M>(
        &self,
        state: &mut GaState<G>,
        fitness: &F,
        crossover: &C,
        mutation: &M,
    ) -> bool
    where
        G: Genotype,
        F: FitnessFunction<G>,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        let target = self.config().target_fitness.or(fitness.target());
        self.step_with(state, target, crossover, mutation, |pop| {
            self.evaluate_scores(pop, fitness)
        })
    }

    /// [`GeneticAlgorithm::step`] with the evaluation strategy injected.
    ///
    /// The offspring-loop RNG draw order (select, select, crossover?, mutate?,
    /// mutate?) lives only here, so the plain and island/surrogate paths can
    /// never drift apart.
    pub(crate) fn step_with<G, C, M>(
        &self,
        state: &mut GaState<G>,
        target: Option<f64>,
        crossover: &C,
        mutation: &M,
        evaluate: impl FnOnce(&[G]) -> Vec<f64>,
    ) -> bool
    where
        G: Genotype,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        if self.is_finished(state) {
            return false;
        }
        let config = *self.config();
        let pop_size = state.population.len();
        let generation = state.generation + 1;

        let _gen_span = autolock_obs::span!("evo.generation");
        autolock_obs::counter("evo.generations").incr();

        // Elites survive unchanged (NaN-safe: NaN never enters the prefix).
        let mut order: Vec<usize> = (0..pop_size).collect();
        order.sort_by(|&a, &b| crate::order::desc_nan_last(state.scores[a], state.scores[b]));
        let mut next: Vec<G> = order
            .iter()
            .take(config.elitism.min(pop_size))
            .map(|&i| state.population[i].clone())
            .collect();

        // Fill the rest with offspring.
        let rng: &mut dyn RngCore = &mut state.rng;
        while next.len() < pop_size {
            let pa = config.selection.select(&state.scores, rng);
            let pb = config.selection.select(&state.scores, rng);
            let (mut child_a, mut child_b) = if rng.gen_bool(config.crossover_rate.clamp(0.0, 1.0))
            {
                crossover.crossover(&state.population[pa], &state.population[pb], rng)
            } else {
                (state.population[pa].clone(), state.population[pb].clone())
            };
            if rng.gen_bool(config.mutation_rate.clamp(0.0, 1.0)) {
                mutation.mutate(&mut child_a, rng);
            }
            if rng.gen_bool(config.mutation_rate.clamp(0.0, 1.0)) {
                mutation.mutate(&mut child_b, rng);
            }
            next.push(child_a);
            if next.len() < pop_size {
                next.push(child_b);
            }
        }

        state.population = next;
        state.scores = evaluate(&state.population);
        autolock_obs::counter("evo.fitness_evals").add(pop_size as u64);
        state.evaluations += pop_size;
        state
            .history
            .push(GenerationStats::from_fitness(generation, &state.scores));
        let stats = state.history.last().expect("just pushed");
        autolock_obs::gauge("evo.best_fitness").set(stats.best);
        autolock_obs::gauge("evo.mean_fitness").set(stats.mean);

        let (gen_best_idx, gen_best_fitness) = crate::ga::argmax(&state.scores);
        if gen_best_fitness > state.best_fitness {
            state.best_fitness = gen_best_fitness;
            state.best = state.population[gen_best_idx].clone();
            state.best_generation = generation;
            state.stagnant = 0;
        } else {
            state.stagnant += 1;
        }
        if let Some(t) = target {
            if state.best_fitness >= t {
                state.reached_target = true;
            }
        }
        state.generation = generation;
        true
    }

    /// Converts a (finished or not) state into the plain [`GaResult`]
    /// summary.
    pub fn finish<G>(&self, state: GaState<G>) -> GaResult<G> {
        GaResult {
            best: state.best,
            best_fitness: state.best_fitness,
            history: state.history,
            evaluations: state.evaluations,
            best_generation: state.best_generation,
            reached_target: state.reached_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{initial, BitFlip, OneMax, UniformCrossover};
    use crate::GaConfig;
    use rand::SeedableRng;

    fn config() -> GaConfig {
        GaConfig {
            generations: 25,
            parallel: false,
            ..Default::default()
        }
    }

    #[test]
    fn step_loop_equals_run() {
        let ga = GeneticAlgorithm::new(config());
        let mut run_rng = ChaCha8Rng::seed_from_u64(5);
        let expected = ga.run(
            initial(14, 24, 6),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut run_rng,
        );
        let mut state = ga.init_state(initial(14, 24, 6), &OneMax, ChaCha8Rng::seed_from_u64(5));
        while ga.step(&mut state, &OneMax, &UniformCrossover, &BitFlip) {}
        assert_eq!(run_rng, state.rng, "run must hand back the advanced stream");
        assert_eq!(expected, ga.finish(state));
    }

    #[test]
    fn resume_from_serialized_state_is_bit_identical() {
        let ga = GeneticAlgorithm::new(config());

        // Uninterrupted reference run.
        let reference = ga.run(
            initial(12, 20, 9),
            &OneMax,
            &UniformCrossover,
            &BitFlip,
            &mut ChaCha8Rng::seed_from_u64(10),
        );

        // Interrupted run: stop after 7 generations, serialize ("the process
        // is killed"), deserialize in a "fresh process", keep going.
        let mut state = ga.init_state(initial(12, 20, 9), &OneMax, ChaCha8Rng::seed_from_u64(10));
        for _ in 0..7 {
            assert!(ga.step(&mut state, &OneMax, &UniformCrossover, &BitFlip));
        }
        let checkpoint = serde_json::to_string(&state).unwrap();
        drop(state);

        let mut resumed: GaState<Vec<bool>> = serde_json::from_str(&checkpoint).unwrap();
        while ga.step(&mut resumed, &OneMax, &UniformCrossover, &BitFlip) {}
        assert_eq!(reference, ga.finish(resumed));
    }

    #[test]
    fn step_respects_early_stopping() {
        let ga = GeneticAlgorithm::new(GaConfig {
            generations: 500,
            target_fitness: Some(10.0),
            parallel: false,
            ..Default::default()
        });
        let mut state = ga.init_state(initial(16, 16, 3), &OneMax, ChaCha8Rng::seed_from_u64(4));
        let mut steps = 0;
        while ga.step(&mut state, &OneMax, &UniformCrossover, &BitFlip) {
            steps += 1;
            assert!(steps < 500, "target fitness never reached");
        }
        assert!(state.reached_target);
        assert!(ga.is_finished(&state));
        // A finished state refuses to step and stays untouched.
        let before = state.clone();
        assert!(!ga.step(&mut state, &OneMax, &UniformCrossover, &BitFlip));
        assert_eq!(before, state);
    }

    #[test]
    fn on_generation_sees_every_checkpoint_boundary() {
        let ga = GeneticAlgorithm::new(GaConfig {
            generations: 8,
            parallel: false,
            ..Default::default()
        });
        let mut seen = Vec::new();
        let mut state = ga.init_state(initial(10, 12, 2), &OneMax, ChaCha8Rng::seed_from_u64(1));
        seen.push(state.generation);
        while ga.step(&mut state, &OneMax, &UniformCrossover, &BitFlip) {
            seen.push(state.generation);
        }
        assert_eq!(seen, (0..=8).collect::<Vec<_>>());
    }
}
