//! NSGA-II multi-objective optimization.
//!
//! The AutoLock research plan calls for multi-objective fitness ("a set of
//! distinct attacks"), plus the practical need to trade security against
//! overhead. NSGA-II (Deb et al., 2002) is the standard baseline for such
//! problems: non-dominated sorting + crowding-distance diversity preservation.
//!
//! All objectives are **minimized** (e.g. attack accuracy, area overhead,
//! negative SAT iterations).

use crate::{CrossoverOperator, Genotype, MutationOperator};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// A multi-objective fitness function. Every objective is minimized.
pub trait MultiObjectiveFitness<G: Genotype>: Sync {
    /// Number of objectives.
    fn num_objectives(&self) -> usize;

    /// Evaluates all objectives of a genotype.
    fn evaluate(&self, genotype: &G) -> Vec<f64>;
}

/// Configuration of the NSGA-II engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Nsga2Config {
    /// Number of generations.
    pub generations: usize,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// Mutation probability.
    pub mutation_rate: f64,
    /// Evaluate objectives in parallel.
    pub parallel: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            generations: 40,
            crossover_rate: 0.9,
            mutation_rate: 0.3,
            parallel: true,
        }
    }
}

/// One point of the final Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint<G> {
    /// The genotype.
    pub genotype: G,
    /// Its objective vector (minimized).
    pub objectives: Vec<f64>,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nsga2Result<G> {
    /// The non-dominated front of the final population.
    pub front: Vec<ParetoPoint<G>>,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// Size of the first front after every generation.
    pub front_size_history: Vec<usize>,
}

/// The NSGA-II engine.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: Nsga2Config,
}

impl Nsga2 {
    /// Creates an engine.
    pub fn new(config: Nsga2Config) -> Self {
        Nsga2 { config }
    }

    /// The configuration.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs NSGA-II from an initial population.
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
        rng: &mut dyn RngCore,
    ) -> Nsga2Result<G>
    where
        G: Genotype,
        F: MultiObjectiveFitness<G>,
        C: CrossoverOperator<G>,
        M: MutationOperator<G>,
    {
        assert!(
            !initial_population.is_empty(),
            "initial population must not be empty"
        );
        let pop_size = initial_population.len();
        let mut population = initial_population;
        let mut objectives = self.evaluate_all(&population, fitness);
        let mut evaluations = population.len();
        let mut front_size_history = Vec::with_capacity(self.config.generations);

        for _ in 0..self.config.generations {
            // Offspring generation: binary tournament on (rank, crowding).
            let fronts = fast_non_dominated_sort(&objectives);
            let ranks = ranks_from_fronts(&fronts, population.len());
            let crowding = crowding_distances(&objectives, &fronts);
            let mut offspring: Vec<G> = Vec::with_capacity(pop_size);
            while offspring.len() < pop_size {
                let pa = tournament(&ranks, &crowding, rng);
                let pb = tournament(&ranks, &crowding, rng);
                let (mut a, mut b) = if rng.gen_bool(self.config.crossover_rate.clamp(0.0, 1.0)) {
                    crossover.crossover(&population[pa], &population[pb], rng)
                } else {
                    (population[pa].clone(), population[pb].clone())
                };
                if rng.gen_bool(self.config.mutation_rate.clamp(0.0, 1.0)) {
                    mutation.mutate(&mut a, rng);
                }
                if rng.gen_bool(self.config.mutation_rate.clamp(0.0, 1.0)) {
                    mutation.mutate(&mut b, rng);
                }
                offspring.push(a);
                if offspring.len() < pop_size {
                    offspring.push(b);
                }
            }
            let offspring_obj = self.evaluate_all(&offspring, fitness);
            evaluations += offspring.len();

            // Environmental selection on the combined population.
            let mut combined = population;
            combined.extend(offspring);
            let mut combined_obj = objectives;
            combined_obj.extend(offspring_obj);

            let fronts = fast_non_dominated_sort(&combined_obj);
            front_size_history.push(fronts.first().map(|f| f.len()).unwrap_or(0));
            let crowding = crowding_distances(&combined_obj, &fronts);

            let mut selected: Vec<usize> = Vec::with_capacity(pop_size);
            for front in &fronts {
                if selected.len() + front.len() <= pop_size {
                    selected.extend_from_slice(front);
                } else {
                    // NaN-safe: a NaN crowding distance (NaN objectives in
                    // the front) sorts last and is cut first.
                    let mut rest: Vec<usize> = front.clone();
                    rest.sort_by(|&a, &b| crate::order::desc_nan_last(crowding[a], crowding[b]));
                    selected.extend(rest.into_iter().take(pop_size - selected.len()));
                    break;
                }
            }
            population = selected.iter().map(|&i| combined[i].clone()).collect();
            objectives = selected.iter().map(|&i| combined_obj[i].clone()).collect();
        }

        // Final front.
        let fronts = fast_non_dominated_sort(&objectives);
        let front = fronts
            .first()
            .map(|f| {
                f.iter()
                    .map(|&i| ParetoPoint {
                        genotype: population[i].clone(),
                        objectives: objectives[i].clone(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Nsga2Result {
            front,
            evaluations,
            front_size_history,
        }
    }

    fn evaluate_all<G, F>(&self, population: &[G], fitness: &F) -> Vec<Vec<f64>>
    where
        G: Genotype,
        F: MultiObjectiveFitness<G>,
    {
        let threads = if self.config.parallel { 0 } else { 1 };
        autolock_mlcore::parallel::pooled_map(threads, population, |g| fitness.evaluate(g))
    }
}

/// Returns `true` if `a` Pareto-dominates `b` (all objectives ≤, at least one <).
///
/// NaN objectives are treated as `+inf` (the worst possible minimized value):
/// a point with a NaN objective never dominates on that objective and is
/// dominated by any point that is finite there. Without this, NaN points
/// would be incomparable to everything (`NaN < x` and `NaN > x` are both
/// false) and would permanently squat on the first front.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let lift = |v: f64| if v.is_nan() { f64::INFINITY } else { v };
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (lift(x), lift(y));
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Fast non-dominated sort: returns fronts as lists of indices, best first.
pub fn fast_non_dominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    let mut domination_count = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut fronts: Vec<Vec<usize>> = vec![Vec::new()];

    for p in 0..n {
        for q in 0..n {
            if p == q {
                continue;
            }
            if dominates(&objectives[p], &objectives[q]) {
                dominated[p].push(q);
            } else if dominates(&objectives[q], &objectives[p]) {
                domination_count[p] += 1;
            }
        }
        if domination_count[p] == 0 {
            fronts[0].push(p);
        }
    }
    let mut i = 0;
    while !fronts[i].is_empty() {
        let mut next = Vec::new();
        for &p in &fronts[i] {
            for &q in &dominated[p] {
                domination_count[q] -= 1;
                if domination_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(next);
        i += 1;
    }
    fronts.pop(); // remove trailing empty front
    fronts
}

fn ranks_from_fronts(fronts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; n];
    for (rank, front) in fronts.iter().enumerate() {
        for &i in front {
            ranks[i] = rank;
        }
    }
    ranks
}

/// Crowding distance of every individual (within its front).
pub fn crowding_distances(objectives: &[Vec<f64>], fronts: &[Vec<usize>]) -> Vec<f64> {
    let n = objectives.len();
    let m = objectives.first().map(|o| o.len()).unwrap_or(0);
    let mut distance = vec![0.0f64; n];
    for front in fronts {
        if front.len() <= 2 {
            for &i in front {
                distance[i] = f64::INFINITY;
            }
            continue;
        }
        #[allow(clippy::needless_range_loop)]
        for obj in 0..m {
            // NaN-safe: a NaN objective sorts last, i.e. is treated as the
            // worst (largest) minimized value.
            let mut sorted: Vec<usize> = front.clone();
            sorted.sort_by(|&a, &b| {
                crate::order::asc_nan_last(objectives[a][obj], objectives[b][obj])
            });
            let min = objectives[sorted[0]][obj];
            let max = objectives[*sorted.last().expect("non-empty front")][obj];
            distance[sorted[0]] = f64::INFINITY;
            distance[*sorted.last().expect("non-empty front")] = f64::INFINITY;
            if (max - min).abs() < 1e-12 {
                continue;
            }
            for w in sorted.windows(3) {
                let (prev, cur, next) = (w[0], w[1], w[2]);
                distance[cur] += (objectives[next][obj] - objectives[prev][obj]) / (max - min);
            }
        }
    }
    distance
}

fn tournament(ranks: &[usize], crowding: &[f64], rng: &mut dyn RngCore) -> usize {
    let n = ranks.len();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if ranks[a] < ranks[b] {
        a
    } else if ranks[b] < ranks[a] {
        b
    } else if crowding[a] >= crowding[b] {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }

    #[test]
    fn non_dominated_sort_layers_correctly() {
        let objectives = vec![
            vec![1.0, 4.0], // front 0
            vec![4.0, 1.0], // front 0
            vec![2.0, 2.0], // front 0
            vec![3.0, 3.0], // front 1 (dominated by [2,2])
            vec![5.0, 5.0], // front 2
        ];
        let fronts = fast_non_dominated_sort(&objectives);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort();
        assert_eq!(f0, vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn crowding_prefers_extremes() {
        let objectives = vec![
            vec![0.0, 4.0],
            vec![1.0, 2.0],
            vec![2.0, 1.5],
            vec![4.0, 0.0],
        ];
        let fronts = fast_non_dominated_sort(&objectives);
        let d = crowding_distances(&objectives, &fronts);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    // A classic bi-objective toy problem (Schaffer): minimize (x^2, (x-2)^2).
    struct Schaffer;
    impl MultiObjectiveFitness<f64> for Schaffer {
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &f64) -> Vec<f64> {
            vec![x * x, (x - 2.0) * (x - 2.0)]
        }
    }
    struct Blend;
    impl CrossoverOperator<f64> for Blend {
        fn crossover(&self, a: &f64, b: &f64, rng: &mut dyn RngCore) -> (f64, f64) {
            let w: f64 = rng.gen_range(0.0..1.0);
            (w * a + (1.0 - w) * b, w * b + (1.0 - w) * a)
        }
    }
    struct Jitter;
    impl MutationOperator<f64> for Jitter {
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x += rng.gen_range(-0.5..0.5);
        }
    }

    #[test]
    fn nsga2_finds_schaffer_front() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let initial: Vec<f64> = (0..40).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let result = Nsga2::new(Nsga2Config {
            generations: 60,
            parallel: false,
            ..Default::default()
        })
        .run(initial, &Schaffer, &Blend, &Jitter, &mut rng);
        assert!(!result.front.is_empty());
        // The true Pareto set is x ∈ [0, 2]; allow a small tolerance.
        for point in &result.front {
            assert!(
                point.genotype > -0.5 && point.genotype < 2.5,
                "point {point:?} outside the Pareto region"
            );
        }
        // Front should spread over the objective space, not collapse.
        let f1: Vec<f64> = result.front.iter().map(|p| p.objectives[0]).collect();
        let spread = f1.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - f1.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.5, "front collapsed: spread {spread}");
        assert_eq!(result.front_size_history.len(), 60);
    }

    // Schaffer, except a band of x values yields NaN objectives (a failed
    // evaluation in a long-running service).
    struct NanBandSchaffer;
    impl MultiObjectiveFitness<f64> for NanBandSchaffer {
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &f64) -> Vec<f64> {
            if (4.0..5.0).contains(x) {
                vec![f64::NAN, f64::NAN]
            } else {
                vec![x * x, (x - 2.0) * (x - 2.0)]
            }
        }
    }

    #[test]
    fn nan_objectives_complete_and_stay_off_the_front() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let initial: Vec<f64> = (0..30).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let result = Nsga2::new(Nsga2Config {
            generations: 25,
            parallel: false,
            ..Default::default()
        })
        .run(initial, &NanBandSchaffer, &Blend, &Jitter, &mut rng);
        assert!(!result.front.is_empty());
        for point in &result.front {
            assert!(
                point.objectives.iter().all(|o| o.is_finite()),
                "NaN point on the Pareto front: {point:?}"
            );
        }
    }

    #[test]
    fn crowding_distance_sort_tolerates_nan() {
        // A front whose objectives contain NaN must not panic the crowding
        // computation.
        let objectives = vec![
            vec![0.0, 4.0],
            vec![f64::NAN, 1.0],
            vec![2.0, 1.5],
            vec![4.0, 0.0],
        ];
        let fronts = vec![vec![0usize, 1, 2, 3]];
        let d = crowding_distances(&objectives, &fronts);
        assert_eq!(d.len(), 4);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_population_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Nsga2::new(Nsga2Config::default()).run(
            Vec::<f64>::new(),
            &Schaffer,
            &Blend,
            &Jitter,
            &mut rng,
        );
    }
}
