//! Island-model GA: subpopulations with deterministic ring migration and
//! optional surrogate screening.
//!
//! The island model is the GA's road to `xl`-tier circuits: instead of one
//! population paying serial fitness costs, `islands` subpopulations evolve
//! independently and are fanned across worker threads with
//! [`autolock_mlcore::parallel::pooled_map`]. Every `migration_interval`
//! generations, each island sends copies of its `migrants` best individuals
//! to the next island on a fixed ring (island *i* → island `(i+1) % k`),
//! replacing the destination's worst members.
//!
//! **Determinism contract** (pinned by `tests/island.rs` and the CI thread
//! matrix): the thread count changes wall-clock only, never results.
//!
//! * Subpopulation stepping goes through [`pooled_map`], which is
//!   order-preserving; each island owns a private RNG seeded from the run
//!   RNG *in island order* at init.
//! * Migration consumes no randomness: emigrants are the top-`migrants` by
//!   fitness under the NaN-safe [`crate::order::desc_nan_last`] ordering
//!   (stable sort, so ties resolve by population index), and deliveries are
//!   applied serially in island order after all islands have stepped.
//! * Surrogate screening ranks each new population with the cheap fitness
//!   and only the top `survivor_fraction` pay the expensive fitness; the
//!   ranking is the same stable NaN-safe sort, so when the surrogate *is*
//!   the real fitness, screening changes nothing (exact-mode test).

use crate::resume::validate_ga_state;
use crate::{
    CrossoverOperator, FitnessFunction, GaResult, GaState, GenerationStats, GeneticAlgorithm,
    Genotype, MutationOperator,
};
use autolock_mlcore::parallel::pooled_map;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Topology and scheduling knobs of an island-model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandConfig {
    /// Number of subpopulations. `<= 1` degenerates to a single-population
    /// run (no migration, but still checkpointable per generation).
    pub islands: usize,
    /// Generations between migration rounds (`>= 1`; 0 is treated as 1).
    pub migration_interval: usize,
    /// Individuals each island sends per migration round.
    pub migrants: usize,
    /// Worker threads for the island fan-out; `0` = one per logical core.
    /// Changes wall-clock only — results are bit-identical for every value.
    pub threads: usize,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            islands: 4,
            migration_interval: 5,
            migrants: 2,
            threads: 0,
        }
    }
}

/// Cheap-fitness screening of each new generation.
///
/// The surrogate ranks the freshly-bred population; only the top
/// `survivor_fraction` (at least one individual) are scored by the real
/// fitness, the rest keep their surrogate score. With a well-correlated
/// surrogate (MLP screening for a DGCNN adversary) this cuts the expensive
/// evaluations per generation to the fraction that can actually win
/// selection.
#[derive(Clone, Copy)]
pub struct SurrogateScreen<'a, G> {
    /// The cheap stand-in fitness (e.g. an MLP-backend attack).
    pub surrogate: &'a dyn FitnessFunction<G>,
    /// Fraction of each generation scored by the real fitness, clamped to
    /// `(0, 1]`; survivors are chosen best-surrogate-first.
    pub survivor_fraction: f64,
}

/// The complete, serializable state of an island-model run between
/// generations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandGaState<G> {
    /// Per-island GA states, in fixed ring order.
    pub islands: Vec<GaState<G>>,
    /// Synchronous generation counter (all islands step together).
    pub generation: usize,
    /// Migration rounds applied so far.
    pub migrations: usize,
}

/// The island-model engine: a [`GeneticAlgorithm`] (shared per-island
/// settings) plus the [`IslandConfig`] topology.
pub struct IslandGa {
    ga: GeneticAlgorithm,
    config: IslandConfig,
}

impl IslandGa {
    /// Creates an island engine. The `ga` config applies to every island;
    /// under the island fan-out its population evaluation runs inline (the
    /// nesting rule of [`pooled_map`]).
    pub fn new(ga: GeneticAlgorithm, config: IslandConfig) -> Self {
        IslandGa { ga, config }
    }

    /// The per-island GA engine.
    pub fn ga(&self) -> &GeneticAlgorithm {
        &self.ga
    }

    /// The island topology.
    pub fn config(&self) -> &IslandConfig {
        &self.config
    }

    /// Splits the initial population into contiguous, nearly-even chunks
    /// (the first `len % islands` chunks get one extra member), seeds one
    /// RNG per island from `rng` in island order, and evaluates generation 0
    /// of every island in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer members than islands.
    pub fn init_state<G, F>(
        &self,
        initial_population: Vec<G>,
        fitness: &F,
        screen: Option<&SurrogateScreen<'_, G>>,
        mut rng: ChaCha8Rng,
    ) -> IslandGaState<G>
    where
        G: Genotype,
        F: FitnessFunction<G>,
    {
        let k = self.config.islands.max(1);
        assert!(
            initial_population.len() >= k,
            "need at least one individual per island ({} < {k})",
            initial_population.len()
        );
        let target = self.ga.config().target_fitness.or(fitness.target());
        let chunks = split_even(initial_population, k);
        let seeded: Vec<(Vec<G>, u64)> = chunks
            .into_iter()
            .map(|chunk| (chunk, rng.next_u64()))
            .collect();
        let islands = pooled_map(self.config.threads, &seeded, |(chunk, seed)| {
            self.ga.init_state_with(
                chunk.clone(),
                target,
                ChaCha8Rng::seed_from_u64(*seed),
                |pop| self.screened_scores(pop, fitness, screen),
            )
        });
        IslandGaState {
            islands,
            generation: 0,
            migrations: 0,
        }
    }

    /// `true` once every island has finished (budget, target or stagnation).
    pub fn is_finished<G: Genotype>(&self, state: &IslandGaState<G>) -> bool {
        state.islands.iter().all(|isl| self.ga.is_finished(isl))
    }

    /// Advances every unfinished island by exactly one generation (in
    /// parallel), then applies a migration round if this generation lands on
    /// the migration interval. Returns `false` once the run is finished.
    ///
    /// Checkpoint boundary: the state is fully self-describing after every
    /// call.
    pub fn step<G, F, C, M>(
        &self,
        state: &mut IslandGaState<G>,
        fitness: &F,
        crossover: &C,
        mutation: &M,
        screen: Option<&SurrogateScreen<'_, G>>,
    ) -> bool
    where
        G: Genotype,
        F: FitnessFunction<G>,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        if self.is_finished(state) {
            return false;
        }
        let _span = autolock_obs::span!("evo.island_generation");
        let target = self.ga.config().target_fitness.or(fitness.target());
        let islands = std::mem::take(&mut state.islands);
        let mut islands = pooled_map(self.config.threads, &islands, |island| {
            let mut island = island.clone();
            self.ga
                .step_with(&mut island, target, crossover, mutation, |pop| {
                    self.screened_scores(pop, fitness, screen)
                });
            island
        });
        state.generation += 1;
        let interval = self.config.migration_interval.max(1);
        if state.generation.is_multiple_of(interval) && self.migrate(&mut islands, target) {
            state.migrations += 1;
        }
        state.islands = islands;
        true
    }

    /// Merges the per-island states into one [`GaResult`]: the winner is the
    /// best island (strict `>` scan in island order, so ties keep the
    /// lowest index), evaluations are summed, and per-generation statistics
    /// are pooled exactly (weighted mean, exact variance pooling, min/max
    /// envelope).
    ///
    /// # Panics
    ///
    /// Panics if the state has no islands.
    pub fn finish<G: Genotype>(&self, state: IslandGaState<G>) -> GaResult<G> {
        assert!(!state.islands.is_empty(), "state has no islands");
        let mut best_island = 0;
        for (i, isl) in state.islands.iter().enumerate() {
            if crate::order::fitness_gt(isl.best_fitness, state.islands[best_island].best_fitness) {
                best_island = i;
            }
        }
        let history = merged_history(&state.islands);
        let evaluations = state.islands.iter().map(|isl| isl.evaluations).sum();
        let reached_target = state.islands.iter().any(|isl| isl.reached_target);
        let winner = state
            .islands
            .into_iter()
            .nth(best_island)
            .expect("index in range");
        let mut result = self.ga.finish(winner);
        result.history = history;
        result.evaluations = evaluations;
        result.reached_target = reached_target;
        result
    }

    /// Structural sanity checks for a restored state: one island per
    /// configured island, each a consistent [`GaState`] (see
    /// [`validate_ga_state`]).
    ///
    /// # Errors
    ///
    /// Describes the first inconsistency found.
    pub fn validate_state<G>(&self, state: &IslandGaState<G>) -> Result<(), String> {
        let expected = self.config.islands.max(1);
        if state.islands.len() != expected {
            return Err(format!(
                "checkpoint has {} islands but the job is configured for {expected}",
                state.islands.len()
            ));
        }
        state.islands.iter().try_for_each(validate_ga_state)
    }

    /// Runs init + step to completion in one call.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer members than islands.
    pub fn run<G, F, C, M>(
        &self,
        initial_population: Vec<G>,
        fitness: &F,
        crossover: &C,
        mutation: &M,
        screen: Option<&SurrogateScreen<'_, G>>,
        rng: ChaCha8Rng,
    ) -> GaResult<G>
    where
        G: Genotype,
        F: FitnessFunction<G>,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        let mut state = self.init_state(initial_population, fitness, screen, rng);
        while self.step(&mut state, fitness, crossover, mutation, screen) {}
        self.finish(state)
    }

    /// Evaluates a population, optionally routing through surrogate
    /// screening. Without a screen this is the GA's stock evaluation.
    fn screened_scores<G, F>(
        &self,
        population: &[G],
        fitness: &F,
        screen: Option<&SurrogateScreen<'_, G>>,
    ) -> Vec<f64>
    where
        G: Genotype,
        F: FitnessFunction<G>,
    {
        let Some(screen) = screen else {
            return self.ga.evaluate_scores(population, fitness);
        };
        let n = population.len();
        let cheap: Vec<f64> = population
            .iter()
            .map(|g| screen.surrogate.evaluate(g))
            .collect();
        let survivors =
            ((screen.survivor_fraction.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| crate::order::desc_nan_last(cheap[a], cheap[b]));
        let mut keep = vec![false; n];
        for &i in order.iter().take(survivors) {
            keep[i] = true;
        }
        autolock_obs::counter("evo.surrogate.screened").add(n as u64);
        autolock_obs::counter("evo.surrogate.survivors").add(survivors as u64);
        autolock_obs::counter("evo.surrogate.rejected").add((n - survivors) as u64);
        population
            .iter()
            .enumerate()
            .map(|(i, g)| {
                if keep[i] {
                    fitness.evaluate(g)
                } else {
                    cheap[i]
                }
            })
            .collect()
    }

    /// One ring migration round. Emigrants are snapshotted from every island
    /// first, then delivered serially in island order; no RNG is consumed,
    /// so migration cannot shift any island's stream. Returns `false` when
    /// the topology makes migration a no-op (fewer than two islands, or
    /// zero migrants).
    fn migrate<G: Genotype>(&self, islands: &mut [GaState<G>], target: Option<f64>) -> bool {
        let k = islands.len();
        let m = self.config.migrants;
        if k < 2 || m == 0 {
            return false;
        }
        let outgoing: Vec<Vec<(G, f64)>> = islands
            .iter()
            .map(|isl| {
                let mut order: Vec<usize> = (0..isl.population.len()).collect();
                order.sort_by(|&a, &b| crate::order::desc_nan_last(isl.scores[a], isl.scores[b]));
                order
                    .iter()
                    .take(m.min(isl.population.len()))
                    .map(|&i| (isl.population[i].clone(), isl.scores[i]))
                    .collect()
            })
            .collect();
        let mut migrants_moved = 0u64;
        for (src, migrants) in outgoing.into_iter().enumerate() {
            let isl = &mut islands[(src + 1) % k];
            let mut order: Vec<usize> = (0..isl.population.len()).collect();
            order.sort_by(|&a, &b| crate::order::desc_nan_last(isl.scores[a], isl.scores[b]));
            // Worst slots first, so the best immigrant displaces the worst
            // incumbent.
            let slots: Vec<usize> = order.iter().rev().take(migrants.len()).copied().collect();
            for ((genotype, score), slot) in migrants.into_iter().zip(slots) {
                isl.population[slot] = genotype;
                isl.scores[slot] = score;
                migrants_moved += 1;
                if crate::order::fitness_gt(score, isl.best_fitness) {
                    isl.best = isl.population[slot].clone();
                    isl.best_fitness = score;
                    isl.best_generation = isl.generation;
                    isl.stagnant = 0;
                }
                if let Some(t) = target {
                    if isl.best_fitness >= t {
                        isl.reached_target = true;
                    }
                }
            }
        }
        autolock_obs::counter("evo.migrations").incr();
        autolock_obs::counter("evo.migrants").add(migrants_moved);
        true
    }
}

/// Splits `items` into `k` contiguous chunks whose sizes differ by at most
/// one (the first `len % k` chunks are one longer).
fn split_even<T>(mut items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let base = n / k;
    let extra = n % k;
    let mut chunks = Vec::with_capacity(k);
    // Split from the back so each drain is O(chunk); reverse at the end.
    for i in (0..k).rev() {
        let size = base + usize::from(i < extra);
        chunks.push(items.split_off(items.len() - size));
    }
    chunks.reverse();
    chunks
}

/// Pools per-generation statistics across islands: weighted mean, exact
/// variance pooling (`Var = E[X²] − E[X]²` over the union), min/max
/// envelope for worst/best. Islands that stopped early simply drop out of
/// later generations' pools.
fn merged_history<G>(islands: &[GaState<G>]) -> Vec<GenerationStats> {
    let max_len = islands
        .iter()
        .map(|isl| isl.history.len())
        .max()
        .unwrap_or(0);
    (0..max_len)
        .map(|g| {
            let mut total = 0.0f64;
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            let mut best = f64::NEG_INFINITY;
            let mut worst = f64::INFINITY;
            for isl in islands {
                if let Some(s) = isl.history.get(g) {
                    let n = isl.population.len() as f64;
                    total += n;
                    sum += s.mean * n;
                    sum_sq += (s.std_dev * s.std_dev + s.mean * s.mean) * n;
                    if s.best > best {
                        best = s.best;
                    }
                    if s.worst < worst {
                        worst = s.worst;
                    }
                }
            }
            let mean = sum / total;
            let var = (sum_sq / total - mean * mean).max(0.0);
            GenerationStats {
                generation: g,
                best,
                mean,
                worst,
                std_dev: var.sqrt(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_balances_and_preserves_order() {
        let chunks = split_even((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let chunks = split_even((0..4).collect::<Vec<_>>(), 4);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), vec![1; 4]);
        let chunks = split_even((0..6).collect::<Vec<_>>(), 1);
        assert_eq!(chunks, vec![(0..6).collect::<Vec<_>>()]);
    }
}
