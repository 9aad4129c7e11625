//! OneMax fixtures shared by the crate's unit tests.

use crate::{CrossoverOperator, FitnessFunction, MutationOperator};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fitness = number of ones.
pub struct OneMax;
impl FitnessFunction<Vec<bool>> for OneMax {
    fn evaluate(&self, g: &Vec<bool>) -> f64 {
        g.iter().filter(|&&b| b).count() as f64
    }
}

/// Swaps each position between the parents with probability 1/2.
pub struct UniformCrossover;
impl CrossoverOperator<Vec<bool>> for UniformCrossover {
    fn crossover(
        &self,
        a: &Vec<bool>,
        b: &Vec<bool>,
        rng: &mut dyn RngCore,
    ) -> (Vec<bool>, Vec<bool>) {
        let mut c = a.clone();
        let mut d = b.clone();
        for i in 0..a.len().min(b.len()) {
            if rng.gen_bool(0.5) {
                c[i] = b[i];
                d[i] = a[i];
            }
        }
        (c, d)
    }
}

/// Flips one random bit.
pub struct BitFlip;
impl MutationOperator<Vec<bool>> for BitFlip {
    fn mutate(&self, g: &mut Vec<bool>, rng: &mut dyn RngCore) {
        let i = rng.gen_range(0..g.len());
        g[i] = !g[i];
    }
}

/// `pop` seeded bit strings of length `len`, each bit set with
/// probability 0.2.
pub fn initial(pop: usize, len: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..pop)
        .map(|_| (0..len).map(|_| rng.gen_bool(0.2)).collect())
        .collect()
}
