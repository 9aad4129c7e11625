//! Bagged MLP ensembles with deterministic rayon-parallel training.
//!
//! The MuxLink MLP backend averages a handful of independently initialized
//! MLPs to drain the variance a single small network shows on a few hundred
//! training links. Members are independent by construction, which makes the
//! ensemble the natural parallel fan-out *above* the dense kernels — but the
//! seed implementation threaded one RNG through member after member, which
//! serialized training. This module decouples the members:
//!
//! 1. one `u64` seed per member is drawn **serially, in member order** from
//!    the caller's RNG — the only coupling to the caller's stream;
//! 2. each member derives its own `ChaCha8Rng` from its seed and trains
//!    (bootstrap resample, init, epoch shuffling) entirely from it;
//! 3. member training fans out across a rayon pool sized by
//!    [`MlpEnsembleConfig::threads`], order-preserving;
//! 4. predictions are reduced **in fixed member order** (mean), and batch
//!    scoring fans rows — never members — so the floating-point reduction
//!    order is independent of thread scheduling.
//!
//! Consequently the trained ensemble and every score are **bit-for-bit
//! identical for every `threads` value** — the same contract
//! `crates/gnn/README.md` documents for the DGCNN, enforced here by
//! `tests/ensemble_determinism.rs`.

use crate::parallel::pooled_map;
use crate::{Dataset, Mlp, MlpConfig};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of an [`MlpEnsemble`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpEnsembleConfig {
    /// Per-member MLP hyper-parameters.
    pub mlp: MlpConfig,
    /// Number of members; values below 1 are clamped to 1. Member 0 trains
    /// on the full dataset, every later member on a bootstrap resample
    /// (bagging).
    pub members: usize,
    /// Worker threads for member training and batch scoring: `0` = all
    /// available cores, `1` = serial, `n` = exactly `n`. Purely a wall-clock
    /// knob — results are bit-for-bit identical for every value.
    pub threads: usize,
}

impl Default for MlpEnsembleConfig {
    fn default() -> Self {
        MlpEnsembleConfig {
            mlp: MlpConfig::default(),
            members: 5,
            threads: 0,
        }
    }
}

/// A bagged ensemble of [`Mlp`]s; scores are the mean member prediction,
/// always reduced in member order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpEnsemble {
    members: Vec<Mlp>,
    threads: usize,
}

impl MlpEnsemble {
    /// Trains the ensemble on `data`. All randomness derives from per-member
    /// seeds drawn from `rng` up front (in member order), so the result does
    /// not depend on `threads`.
    pub fn train<R: RngCore + ?Sized>(
        config: MlpEnsembleConfig,
        data: &Dataset,
        rng: &mut R,
    ) -> Self {
        let count = config.members.max(1);
        let seeds: Vec<(usize, u64)> = (0..count).map(|i| (i, rng.next_u64())).collect();
        let mlp_config = &config.mlp;
        let train_one = |&(member, seed): &(usize, u64)| -> Mlp {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Bagging: each member after the first trains on a bootstrap
            // resample, so the ensemble averages out data-sampling noise in
            // addition to initialization noise.
            let resample;
            let train = if member == 0 {
                data
            } else {
                resample = data.bootstrap_sample(&mut rng);
                &resample
            };
            let mut mlp = Mlp::new(mlp_config.clone(), &mut rng);
            mlp.train(train, &mut rng);
            mlp
        };
        MlpEnsemble {
            members: pooled_map(config.threads, &seeds, train_one),
            threads: config.threads,
        }
    }

    /// The trained members, in training order.
    pub fn members(&self) -> &[Mlp] {
        &self.members
    }

    /// Mean member probability that `features` is a positive example,
    /// reduced in member order.
    ///
    /// # Panics
    ///
    /// Panics if the feature length does not match the members' `input_dim`.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.members
            .iter()
            .map(|m| m.predict(features))
            .sum::<f64>()
            / self.members.len() as f64
    }

    /// Scores a batch of feature rows, fanning rows (never members) across
    /// the configured thread pool; `out[i]` answers `rows[i]` and equals the
    /// serial [`MlpEnsemble::predict`] loop exactly.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        pooled_map(self.threads, rows, |r| self.predict(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = f64::from(i % 2 == 0);
            let base = if label > 0.5 { 1.0 } else { -1.0 };
            rows.push(vec![
                base + rng.gen_range(-0.4..0.4),
                -base + rng.gen_range(-0.4..0.4),
            ]);
            labels.push(label);
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    fn small_config(threads: usize) -> MlpEnsembleConfig {
        MlpEnsembleConfig {
            mlp: MlpConfig {
                input_dim: 2,
                hidden: vec![4],
                epochs: 8,
                ..Default::default()
            },
            members: 4,
            threads,
        }
    }

    #[test]
    fn ensemble_learns_separable_blobs() {
        let data = blob_dataset(64, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ensemble = MlpEnsemble::train(small_config(1), &data, &mut rng);
        assert_eq!(ensemble.members().len(), 4);
        assert!(ensemble.predict(&[1.0, -1.0]) > 0.5);
        assert!(ensemble.predict(&[-1.0, 1.0]) < 0.5);
    }

    #[test]
    fn members_clamped_to_at_least_one() {
        let data = blob_dataset(16, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut config = small_config(1);
        config.members = 0;
        let ensemble = MlpEnsemble::train(config, &data, &mut rng);
        assert_eq!(ensemble.members().len(), 1);
        assert!(ensemble.predict(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn bagged_members_differ() {
        let data = blob_dataset(48, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let ensemble = MlpEnsemble::train(small_config(1), &data, &mut rng);
        // Different seeds + bootstrap resamples must yield distinct members;
        // identical members would mean the bagging plumbing collapsed.
        assert_ne!(ensemble.members()[0], ensemble.members()[1]);
    }
}
