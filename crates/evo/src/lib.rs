//! Evolutionary-computation framework.
//!
//! AutoLock's contribution is a *genetic algorithm* wrapped around a locking
//! scheme and an attack. This crate provides the GA machinery in a
//! problem-agnostic way so the `autolock` crate (and the operator-ablation
//! experiments) can mix and match components:
//!
//! * [`FitnessFunction`] / [`Genotype`] — the problem interface,
//! * [`SelectionMethod`] — tournament, roulette-wheel and rank selection,
//! * [`CrossoverOperator`] / [`MutationOperator`] — problem-specific variation
//!   operators, implemented by the caller,
//! * [`GeneticAlgorithm`] — the single-objective engine with elitism, early
//!   stopping, per-generation statistics and optional parallel fitness
//!   evaluation (`autolock_mlcore::parallel::pooled_map`),
//! * [`nsga2`] — the NSGA-II multi-objective engine used by the
//!   multi-objective locking experiments (attack accuracy vs. overhead vs.
//!   SAT resilience).
//!
//! Fitness is always **maximized**. The AutoLock fitness is therefore
//! `1 − attack accuracy`, matching the paper ("lower accuracy indicates
//! higher fitness").
//!
//! ```
//! use autolock_evo::{FitnessFunction, GaConfig, GeneticAlgorithm, SelectionMethod};
//! use autolock_evo::{CrossoverOperator, MutationOperator};
//! use rand::{Rng, RngCore, SeedableRng};
//!
//! // Maximize the number of ones in a bit string.
//! struct OneMax;
//! impl FitnessFunction<Vec<bool>> for OneMax {
//!     fn evaluate(&self, g: &Vec<bool>) -> f64 {
//!         g.iter().filter(|&&b| b).count() as f64
//!     }
//! }
//! struct OnePoint;
//! impl CrossoverOperator<Vec<bool>> for OnePoint {
//!     fn crossover(&self, a: &Vec<bool>, b: &Vec<bool>, rng: &mut dyn RngCore) -> (Vec<bool>, Vec<bool>) {
//!         let cut = rng.gen_range(0..a.len());
//!         let mut c = a.clone(); let mut d = b.clone();
//!         c[cut..].copy_from_slice(&b[cut..]);
//!         d[cut..].copy_from_slice(&a[cut..]);
//!         (c, d)
//!     }
//! }
//! struct Flip;
//! impl MutationOperator<Vec<bool>> for Flip {
//!     fn mutate(&self, g: &mut Vec<bool>, rng: &mut dyn RngCore) {
//!         let i = rng.gen_range(0..g.len());
//!         g[i] = !g[i];
//!     }
//! }
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let initial: Vec<Vec<bool>> = (0..20).map(|_| (0..32).map(|_| rng.gen()).collect()).collect();
//! let config = GaConfig { generations: 60, ..Default::default() };
//! let ga = GeneticAlgorithm::new(config);
//! let result = ga.run(initial, &OneMax, &OnePoint, &Flip, &mut rng);
//! assert!(result.best_fitness >= 30.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod checkpoint;
mod ga;
mod island;
pub mod nsga2;
pub mod order;
mod resume;
mod selection;
mod stats;
#[cfg(test)]
mod testkit;
mod traits;

pub use checkpoint::GaState;
pub use ga::{GaConfig, GaResult, GeneticAlgorithm};
pub use island::{IslandConfig, IslandGa, IslandGaState, SurrogateScreen};
pub use nsga2::{MultiObjectiveFitness, Nsga2, Nsga2Config, Nsga2Result, ParetoPoint};
pub use resume::{run_to_completion, validate_ga_state, Resumable};
pub use selection::SelectionMethod;
pub use stats::GenerationStats;
pub use traits::{CrossoverOperator, FitnessFunction, Genotype, MutationOperator};
