//! Minimal machine-learning substrate.
//!
//! The published MuxLink attack trains a deep graph neural network with
//! PyTorch. This repository re-creates the attack's decision problem (score
//! candidate links from features of their enclosing subgraphs) with a
//! self-contained, dependency-free learner:
//!
//! * [`Matrix`] — small dense row-major matrix with the handful of BLAS-like
//!   operations the learners need,
//! * [`Dataset`] — feature matrix + binary labels, with train/validation
//!   splitting and feature standardization,
//! * [`Mlp`] — multi-layer perceptron (ReLU hidden layers, sigmoid output)
//!   trained with mini-batch Adam,
//! * [`MlpEnsemble`] — bagged MLP ensemble, trained and scored in parallel
//!   with bit-for-bit thread-count determinism (see `README.md`),
//! * [`binary_cross_entropy`] — the one training loss, shared with the
//!   DGCNN in `autolock_gnn`,
//! * [`kernels`] — cache-blocked, register-tiled dense matmul kernels behind
//!   [`Matrix::matmul`] and friends, bit-identical to the naive loops,
//! * [`metrics`] — binary-classification metrics (accuracy, precision,
//!   recall, F1, ROC-AUC).
//!
//! ```
//! use autolock_mlcore::{Dataset, Mlp, MlpConfig};
//! use rand::SeedableRng;
//!
//! // Learn XOR of two inputs.
//! let features = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let labels = vec![0.0, 1.0, 1.0, 0.0];
//! let data = Dataset::from_rows(features, labels).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let mut mlp = Mlp::new(MlpConfig { input_dim: 2, hidden: vec![8, 8], ..Default::default() }, &mut rng);
//! mlp.train(&data, &mut rng);
//! assert!(mlp.predict(&[1.0, 0.0]) > 0.5);
//! assert!(mlp.predict(&[1.0, 1.0]) < 0.5);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod dataset;
mod ensemble;
pub mod kernels;
mod logistic;
mod matrix;
pub mod metrics;
mod mlp;
pub mod optim;
pub mod parallel;
pub mod scratch;

pub use dataset::Dataset;
pub use ensemble::{MlpEnsemble, MlpEnsembleConfig};
pub use logistic::binary_cross_entropy;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use optim::{AdamParams, AdamState, AdamVecState};

/// Errors produced by the ML substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Feature rows have inconsistent lengths or do not match label count.
    ShapeMismatch {
        /// Explanation of the mismatch.
        message: String,
    },
    /// The dataset is empty.
    EmptyDataset,
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::ShapeMismatch { message } => write!(f, "shape mismatch: {message}"),
            MlError::EmptyDataset => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for MlError {}

/// Numerically stable sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        // Symmetry: sigmoid(-x) = 1 - sigmoid(x)
        for x in [-3.0, -1.0, 0.5, 2.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn error_display() {
        let e = MlError::ShapeMismatch {
            message: "row 3 has 5 features, expected 4".into(),
        };
        assert!(e.to_string().contains("row 3"));
        assert!(MlError::EmptyDataset.to_string().contains("empty"));
    }
}
