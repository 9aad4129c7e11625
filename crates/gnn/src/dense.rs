//! The dense classification head applied after SortPooling.

use autolock_mlcore::kernels;
use autolock_mlcore::optim::{AdamParams, AdamState, AdamVecState};
use autolock_mlcore::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One fully-connected layer of the head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DenseLayer {
    weights: Matrix, // in × out
    bias: Vec<f64>,
    opt_w: AdamState,
    opt_b: AdamVecState,
}

impl DenseLayer {
    fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let scale = (6.0 / in_dim as f64).sqrt();
        DenseLayer {
            weights: Matrix::random(in_dim, out_dim, scale, rng),
            bias: vec![0.0; out_dim],
            opt_w: AdamState::new(in_dim, out_dim),
            opt_b: AdamVecState::new(out_dim),
        }
    }
}

/// A ReLU multi-layer head ending in a single linear logit, with
/// backpropagation to its input (needed to keep training the conv stack
/// below it). Serializable for the service's model registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseStack {
    layers: Vec<DenseLayer>,
}

/// A batch's forward pass through the head, one row per example: every
/// layer's input `U` and pre-activation `Z = U·W + b`.
#[derive(Debug, Clone)]
pub struct HeadForward {
    inputs: Vec<Matrix>,
    pre: Vec<Matrix>,
}

impl HeadForward {
    /// The final logits, one per example.
    pub fn logits(&self) -> &[f64] {
        self.pre.last().expect("at least one layer").data()
    }
}

/// A batch's backward pass through the head, one row per example: every
/// layer's input `U` and dL/d(pre-activation) `Δ`. Layer `l`'s weight
/// gradient is `Uᵀ·Δ`, its bias gradient the column sums of `Δ`; both are
/// formed by [`DenseStack::add_gradients`].
#[derive(Debug, Clone)]
pub struct HeadBackward {
    inputs: Vec<Matrix>,
    deltas: Vec<Matrix>,
}

impl HeadBackward {
    /// Every layer's input, first layer first.
    pub fn inputs(&self) -> &[Matrix] {
        &self.inputs
    }

    /// Every layer's dL/d(pre-activation), first layer first.
    pub fn deltas(&self) -> &[Matrix] {
        &self.deltas
    }
}

/// Per-layer parameter gradients of the head.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    weights: Vec<Matrix>,
    bias: Vec<Vec<f64>>,
}

impl DenseGrads {
    /// Scales all gradients.
    pub fn scale(&mut self, alpha: f64) {
        for w in self.weights.iter_mut() {
            w.scale(alpha);
        }
        for b in self.bias.iter_mut() {
            for v in b.iter_mut() {
                *v *= alpha;
            }
        }
    }

    /// Per-layer weight gradients (finite-difference tests).
    pub fn layer_weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Per-layer bias gradients (finite-difference tests).
    pub fn layer_biases(&self) -> &[Vec<f64>] {
        &self.bias
    }
}

impl DenseStack {
    /// Builds a head `input_dim → hidden… → 1`.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden: &[usize], rng: &mut R) -> Self {
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        DenseStack {
            layers: dims
                .windows(2)
                .map(|w| DenseLayer::new(w[0], w[1], rng))
                .collect(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").weights.rows()
    }

    /// Forward pass over a batch (`input` is `batch × input_dim`, one row
    /// per example); hidden layers ReLU, output linear. Each layer is one
    /// `U·W` product plus the bias. The kernel sums every entry in
    /// increasing input order from `0.0`, so row `e` is bit for bit the
    /// one-example pass on row `e` alone.
    pub fn forward(&self, input: Matrix) -> HeadForward {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut current = input;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = current.matmul(&layer.weights);
            for r in 0..z.rows() {
                for (v, b) in z.row_mut(r).iter_mut().zip(&layer.bias) {
                    *v += b;
                }
            }
            let next = if i + 1 == self.layers.len() {
                Matrix::zeros(0, 0)
            } else {
                z.map(|v| v.max(0.0))
            };
            pre.push(z);
            inputs.push(std::mem::replace(&mut current, next));
        }
        HeadForward { inputs, pre }
    }

    /// Backward pass from dL/d(logit), one per example; returns every
    /// layer's input and delta, and dL/d(input) (`batch × input_dim`).
    /// Each layer back-propagates with one `Δ·Wᵀ` product, whose entries
    /// sum in increasing output order from `0.0`, row by row. Consumes the
    /// forward pass: its layer inputs move into the result.
    ///
    /// # Panics
    ///
    /// Panics if `grad_logits` does not hold one value per example.
    pub fn backward(&self, forward: HeadForward, grad_logits: &[f64]) -> (HeadBackward, Matrix) {
        let HeadForward { inputs, pre } = forward;
        let batch = inputs[0].rows();
        assert_eq!(grad_logits.len(), batch, "one logit gradient per example");
        let mut deltas = vec![Matrix::zeros(0, 0); self.layers.len()];
        let mut delta = Matrix::from_vec(batch, 1, grad_logits.to_vec());
        for idx in (0..self.layers.len()).rev() {
            // weights are in × out, so dL/d(input) = Δ · Wᵀ.
            let mut back = delta.matmul_nt(&self.layers[idx].weights);
            if idx > 0 {
                for (g, &z) in back.data_mut().iter_mut().zip(pre[idx - 1].data()) {
                    *g = if z > 0.0 { *g } else { 0.0 };
                }
            }
            deltas[idx] = std::mem::replace(&mut delta, back);
        }
        (HeadBackward { inputs, deltas }, delta)
    }

    /// Zero gradients shaped like this head.
    pub fn zero_gradients(&self) -> DenseGrads {
        DenseGrads {
            weights: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                .collect(),
            bias: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.bias.len()])
                .collect(),
        }
    }

    /// Adds a batch's summed parameter gradients to `grads`.
    ///
    /// Layer `l`'s weight gradient is one `Uᵀ·Δ` product straight from the
    /// stacked matrices. The blocked kernel continues every entry's sum
    /// from its value in `grads` in increasing example order, so from zero
    /// gradients this is exactly the example-order sum of the per-example
    /// outer products (a running sum that starts at `+0.0` absorbs a `-0.0`
    /// product the same way `0.0 + (-0.0) = +0.0` does), and the batches of
    /// one mini-batch, added in order, chain as one batch would. Biases are
    /// summed in example order.
    pub fn add_gradients(&self, pass: &HeadBackward, grads: &mut DenseGrads) {
        for (l, (u, d)) in pass.inputs.iter().zip(&pass.deltas).enumerate() {
            kernels::matmul_tn(
                u.rows(),
                u.cols(),
                d.cols(),
                u.data(),
                d.data(),
                grads.weights[l].data_mut(),
            );
            let bias = &mut grads.bias[l];
            for r in 0..d.rows() {
                for (b, v) in bias.iter_mut().zip(d.row(r)) {
                    *b += v;
                }
            }
        }
    }

    /// Applies one Adam update.
    pub fn apply(&mut self, grads: &DenseGrads, hp: &AdamParams) {
        for (layer, (gw, gb)) in self
            .layers
            .iter_mut()
            .zip(grads.weights.iter().zip(&grads.bias))
        {
            layer.opt_w.step(&mut layer.weights, gw, hp);
            layer.opt_b.step(&mut layer.bias, gb, hp);
        }
    }

    /// Number of layers (hidden layers + the final logit layer).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// A layer's weight shape as `(in_dim, out_dim)`.
    pub fn layer_shape(&self, layer: usize) -> (usize, usize) {
        let w = &self.layers[layer].weights;
        (w.rows(), w.cols())
    }

    /// Mutable weight access for finite-difference tests:
    /// `(layer, row, col)` indexing.
    pub fn weight_mut(&mut self, layer: usize, row: usize, col: usize) -> &mut f64 {
        let l = &mut self.layers[layer];
        let cols = l.weights.cols();
        &mut l.weights.data_mut()[row * cols + col]
    }

    /// Mutable bias access for finite-difference tests.
    pub fn bias_mut(&mut self, layer: usize) -> &mut [f64] {
        &mut self.layers[layer].bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_shapes_and_relu() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let stack = DenseStack::new(4, &[3], &mut rng);
        let input = Matrix::from_vec(2, 4, vec![0.5, -0.5, 1.0, 0.0, -1.0, 0.25, 0.0, 2.0]);
        let forward = stack.forward(input);
        assert_eq!((forward.inputs[0].rows(), forward.inputs[0].cols()), (2, 4));
        assert_eq!((forward.pre[0].rows(), forward.pre[0].cols()), (2, 3));
        assert!(forward.inputs[1].data().iter().all(|&v| v >= 0.0));
        assert_eq!(forward.logits().len(), 2);
        assert!(forward.logits().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stack = DenseStack::new(5, &[4, 3], &mut rng);
        let x: Vec<f64> = (0..5).map(|i| 0.3 * i as f64 - 0.6).collect();
        let logit = |x: &[f64]| stack.forward(Matrix::from_vec(1, 5, x.to_vec())).logits()[0];
        let forward = stack.forward(Matrix::from_vec(1, 5, x.clone()));
        let (_, grad_in) = stack.backward(forward, &[1.0]);
        let eps = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let fd = (logit(&xp) - logit(&xm)) / (2.0 * eps);
            assert!(
                (fd - grad_in.get(0, i)).abs() < 1e-6,
                "input {i}: fd {fd} vs analytic {}",
                grad_in.get(0, i)
            );
        }
    }

    /// Row `e` of every batched product is bit for bit the one-example
    /// pass on row `e` alone, forward and backward.
    #[test]
    fn batch_rows_match_one_example_passes_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stack = DenseStack::new(7, &[6], &mut rng);
        let input = Matrix::random(5, 7, 1.0, &mut rng);
        let grad_logits: Vec<f64> = (0..5).map(|e| 0.4 - 0.2 * e as f64).collect();
        let forward = stack.forward(input.clone());
        let logits = forward.logits().to_vec();
        let (batched, grad_in) = stack.backward(forward, &grad_logits);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (e, &grad_logit) in grad_logits.iter().enumerate() {
            let one = stack.forward(Matrix::from_vec(1, 7, input.row(e).to_vec()));
            assert_eq!(one.logits()[0].to_bits(), logits[e].to_bits());
            let (alone, alone_in) = stack.backward(one, &[grad_logit]);
            for (a, b) in alone.deltas().iter().zip(batched.deltas()) {
                assert_eq!(bits(a.row(0)), bits(b.row(e)));
            }
            assert_eq!(bits(alone_in.row(0)), bits(grad_in.row(e)));
        }
    }
}
