//! The DGCNN spatial graph-convolution layer.

use crate::SubgraphTensor;
use autolock_mlcore::kernels::tanh_in_place;
use autolock_mlcore::optim::{AdamParams, AdamState, AdamVecState};
use autolock_mlcore::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One graph convolution: `X' = tanh(Â X W + b)` with degree-normalized
/// message passing (`Â` lives in the [`SubgraphTensor`]).
///
/// The forward pass ends in one fused epilogue over `Z = ÂX·W`: the bias is
/// added to each row, then the mlcore row kernel
/// [`tanh_in_place`](autolock_mlcore::kernels::tanh_in_place) runs over
/// `Z`'s whole data slice, which becomes the layer output without another
/// allocation. That `tanh` is the workspace's own, so the activations do not
/// depend on the platform libm or on the CPU.
///
/// Serializable (weights, biases and optimizer state) so trained models can
/// be persisted in the service's model registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphConv {
    weights: Matrix,
    bias: Vec<f64>,
    opt_w: AdamState,
    opt_b: AdamVecState,
}

/// Cached forward activations needed for the backward pass.
#[derive(Debug, Clone)]
pub struct ConvCache {
    /// `Â X` (aggregated inputs).
    pub aggregated: Matrix,
    /// Layer output `tanh(Â X W + b)`.
    pub output: Matrix,
}

/// Parameter gradients of one conv layer.
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// dL/dW.
    pub weights: Matrix,
    /// dL/db.
    pub bias: Vec<f64>,
}

impl ConvGrads {
    /// Zero gradients shaped like `layer`.
    pub fn zeros_like(layer: &GraphConv) -> Self {
        ConvGrads {
            weights: Matrix::zeros(layer.weights.rows(), layer.weights.cols()),
            bias: vec![0.0; layer.bias.len()],
        }
    }

    /// Accumulates another gradient contribution.
    pub fn add(&mut self, other: &ConvGrads) {
        self.weights.add_scaled(1.0, &other.weights);
        for (a, b) in self.bias.iter_mut().zip(&other.bias) {
            *a += b;
        }
    }

    /// Scales the gradient (e.g. by 1/batch).
    pub fn scale(&mut self, alpha: f64) {
        self.weights.scale(alpha);
        for b in self.bias.iter_mut() {
            *b *= alpha;
        }
    }
}

impl GraphConv {
    /// Creates a layer mapping `in_dim` channels to `out_dim` channels, with
    /// Glorot-uniform initial weights.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (in_dim + out_dim) as f64).sqrt();
        GraphConv {
            weights: Matrix::random(in_dim, out_dim, scale, rng),
            bias: vec![0.0; out_dim],
            opt_w: AdamState::new(in_dim, out_dim),
            opt_b: AdamVecState::new(out_dim),
        }
    }

    /// Input channel count.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output channel count.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Forward pass over one subgraph.
    pub fn forward(&self, graph: &SubgraphTensor, x: &Matrix) -> ConvCache {
        let aggregated = graph.propagate(x);
        let mut z = aggregated.matmul(&self.weights);
        for r in 0..z.rows() {
            let row = z.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        tanh_in_place(z.data_mut());
        ConvCache {
            aggregated,
            output: z,
        }
    }

    /// Backward pass: given dL/d(output), returns the parameter gradients and
    /// dL/d(input): the parameter half followed by the input half.
    pub fn backward(
        &self,
        graph: &SubgraphTensor,
        cache: &ConvCache,
        grad_output: &Matrix,
    ) -> (ConvGrads, Matrix) {
        let (grads, grad_z) = self.param_backward(cache, grad_output.clone());
        (grads, self.input_backward(graph, &grad_z))
    }

    /// The parameter half of the backward pass: turns dL/d(output), passed
    /// in `grad_z`, into dL/dZ in place (the pre-activation gradient that the
    /// input half consumes) and returns the parameter gradients with it.
    pub(crate) fn param_backward(
        &self,
        cache: &ConvCache,
        mut grad_z: Matrix,
    ) -> (ConvGrads, Matrix) {
        // Through tanh: dZ = dOut ∘ (1 - out²).
        for (g, &o) in grad_z.data_mut().iter_mut().zip(cache.output.data()) {
            *g *= 1.0 - o * o;
        }
        let grad_w = cache.aggregated.matmul_tn(&grad_z);
        let mut grad_b = vec![0.0; self.bias.len()];
        for r in 0..grad_z.rows() {
            for (b, g) in grad_b.iter_mut().zip(grad_z.row(r)) {
                *b += g;
            }
        }
        let grads = ConvGrads {
            weights: grad_w,
            bias: grad_b,
        };
        (grads, grad_z)
    }

    /// The input half of the backward pass: dL/d(input) from dL/dZ. A stack
    /// skips it for its first layer, whose input is the constant node
    /// features.
    pub(crate) fn input_backward(&self, graph: &SubgraphTensor, grad_z: &Matrix) -> Matrix {
        // dL/d(ÂX) = dZ Wᵀ, then back through the (symmetric-pattern but
        // asymmetric-weight) propagation: dX = Âᵀ (dZ Wᵀ).
        let grad_aggregated = grad_z.matmul_nt(&self.weights);
        graph.propagate_transpose(&grad_aggregated)
    }

    /// Applies one Adam update with the given (already batch-scaled)
    /// gradients.
    pub fn apply(&mut self, grads: &ConvGrads, hp: &AdamParams) {
        self.opt_w.step(&mut self.weights, &grads.weights, hp);
        self.opt_b.step(&mut self.bias, &grads.bias, hp);
    }

    /// Immutable view of the weights (for tests).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable view of the weights (finite-difference tests).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable view of the bias (finite-difference tests).
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }
}
