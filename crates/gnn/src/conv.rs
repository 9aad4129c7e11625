//! The DGCNN spatial graph-convolution layer.

use crate::SubgraphTensor;
use autolock_mlcore::kernels::{self, tanh_in_place};
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

    /// Forward pass over one subgraph, or over a mini-batch's disjoint
    /// union: one propagate, one `ÂX·W` product and one bias + `tanh`
    /// epilogue over every row.
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

    /// Backward pass over one subgraph: given dL/d(output), returns the
    /// parameter gradients and dL/d(input): the parameter half followed by
    /// the input half.
    pub fn backward(
        &self,
        graph: &SubgraphTensor,
        cache: &ConvCache,
        grad_output: &Matrix,
    ) -> (ConvGrads, Matrix) {
        let (mut grads, grad_z) =
            self.param_backward(cache, grad_output.clone(), &[0, graph.num_nodes()]);
        let grads = grads.pop().expect("one example");
        let grad_input = self.input_backward(graph, &grad_z);
        (grads, grad_input)
    }

    /// The parameter half of the backward pass over a batch whose example
    /// `e` owns rows `offsets[e]..offsets[e + 1]`: turns dL/d(output),
    /// passed in `grad_z`, into dL/dZ in place (the pre-activation gradient
    /// that the input half consumes) and returns each example's parameter
    /// gradients with it.
    ///
    /// The gradients stay per example: each is one `Aᵀ·dZ` product over the
    /// example's own rows, accumulated from `0.0`, and its bias the sum of
    /// those rows. Summing them in example order is then the same
    /// arithmetic for any split of a mini-batch into batches, where one
    /// product over the whole union would round differently.
    pub(crate) fn param_backward(
        &self,
        cache: &ConvCache,
        mut grad_z: Matrix,
        offsets: &[usize],
    ) -> (Vec<ConvGrads>, Matrix) {
        // Through tanh: dZ = dOut ∘ (1 - out²).
        for (g, &o) in grad_z.data_mut().iter_mut().zip(cache.output.data()) {
            *g *= 1.0 - o * o;
        }
        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        let grads = offsets
            .windows(2)
            .map(|span| {
                let (r0, r1) = (span[0], span[1]);
                let mut weights = Matrix::zeros(in_dim, out_dim);
                kernels::matmul_tn(
                    r1 - r0,
                    in_dim,
                    out_dim,
                    &cache.aggregated.data()[r0 * in_dim..r1 * in_dim],
                    &grad_z.data()[r0 * out_dim..r1 * out_dim],
                    weights.data_mut(),
                );
                let mut bias = vec![0.0; out_dim];
                for r in r0..r1 {
                    for (b, g) in bias.iter_mut().zip(grad_z.row(r)) {
                        *b += g;
                    }
                }
                ConvGrads { weights, bias }
            })
            .collect();
        (grads, grad_z)
    }

    /// The input half of the backward pass: dL/d(input) from dL/dZ, over one
    /// subgraph or a whole union. A stack skips it for its first layer,
    /// whose input is the constant node features.
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
