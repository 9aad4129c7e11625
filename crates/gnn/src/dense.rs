//! The dense classification head applied after SortPooling.

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

/// Forward cache: the input to every layer plus each layer's pre-activation.
#[derive(Debug, Clone)]
pub struct DenseCache {
    inputs: Vec<Vec<f64>>,
    pre: Vec<Vec<f64>>,
}

impl DenseCache {
    /// The final logit.
    pub fn logit(&self) -> f64 {
        self.pre.last().expect("at least one layer")[0]
    }
}

/// One example's head gradient in factored form: layer `l`'s weight
/// gradient is `outer(inputs[l], deltas[l])` and its bias gradient is
/// `deltas[l]`. The outer products are only ever formed summed over a whole
/// mini-batch, by [`DenseStack::batch_gradients`].
#[derive(Debug, Clone)]
pub struct HeadFactors {
    inputs: Vec<Vec<f64>>,
    deltas: Vec<Vec<f64>>,
}

impl HeadFactors {
    /// Every layer's input, first layer first.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// Every layer's dL/d(pre-activation), first layer first.
    pub fn deltas(&self) -> &[Vec<f64>] {
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

    /// Forward pass; hidden layers ReLU, output linear.
    pub fn forward(&self, input: &[f64]) -> DenseCache {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut current = input.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.weights.matvec_t(&current);
            for (v, b) in z.iter_mut().zip(&layer.bias) {
                *v += b;
            }
            let next = if i + 1 == self.layers.len() {
                Vec::new()
            } else {
                z.iter().map(|&v| v.max(0.0)).collect()
            };
            pre.push(z);
            inputs.push(std::mem::replace(&mut current, next));
        }
        DenseCache { inputs, pre }
    }

    /// Backward pass from dL/d(logit); returns the parameter gradients in
    /// factored form and dL/d(input). Consumes the cache: its layer inputs
    /// become the factors' inputs without a copy.
    pub fn backward(&self, cache: DenseCache, grad_logit: f64) -> (HeadFactors, Vec<f64>) {
        let mut deltas = vec![Vec::new(); self.layers.len()];
        let mut delta = vec![grad_logit];
        for idx in (0..self.layers.len()).rev() {
            // weights are in × out, so dL/d(input) = W · delta.
            let back = self.layers[idx].weights.matvec(&delta);
            let next = if idx > 0 {
                back.iter()
                    .zip(&cache.pre[idx - 1])
                    .map(|(&g, &z)| if z > 0.0 { g } else { 0.0 })
                    .collect()
            } else {
                back
            };
            deltas[idx] = std::mem::replace(&mut delta, next);
        }
        let factors = HeadFactors {
            inputs: cache.inputs,
            deltas,
        };
        (factors, delta)
    }

    /// The summed parameter gradients of a mini-batch of examples.
    ///
    /// Layer `l`'s weight gradient is one `Uᵀ·Δ` product, where `U` stacks
    /// the batch's layer-`l` inputs (`b × in`) and `Δ` its deltas
    /// (`b × out`). The blocked kernel accumulates every entry from `0.0` in
    /// increasing example order, which is exactly the example-order sum of
    /// the per-example outer products: a running sum that starts at `+0.0`
    /// absorbs a `-0.0` product the same way `0.0 + (-0.0) = +0.0` does.
    /// Biases are summed in example order.
    pub fn batch_gradients<'a>(
        &self,
        batch: impl IntoIterator<Item = &'a HeadFactors>,
    ) -> DenseGrads {
        let batch: Vec<&HeadFactors> = batch.into_iter().collect();
        let stacked =
            |rows: Vec<&[f64]>, cols: usize| Matrix::from_vec(rows.len(), cols, rows.concat());
        let mut weights = Vec::with_capacity(self.layers.len());
        let mut bias = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let (in_dim, out_dim) = (layer.weights.rows(), layer.weights.cols());
            let u = stacked(batch.iter().map(|f| &f.inputs[l][..]).collect(), in_dim);
            let d = stacked(batch.iter().map(|f| &f.deltas[l][..]).collect(), out_dim);
            weights.push(u.matmul_tn(&d));
            let mut b = vec![0.0; out_dim];
            for f in &batch {
                for (x, v) in b.iter_mut().zip(&f.deltas[l]) {
                    *x += v;
                }
            }
            bias.push(b);
        }
        DenseGrads { weights, bias }
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
        let cache = stack.forward(&[0.5, -0.5, 1.0, 0.0]);
        assert_eq!(cache.inputs[0].len(), 4);
        assert_eq!(cache.pre[0].len(), 3);
        assert_eq!(cache.pre[1].len(), 1);
        assert!(cache.logit().is_finite());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stack = DenseStack::new(5, &[4, 3], &mut rng);
        let x: Vec<f64> = (0..5).map(|i| 0.3 * i as f64 - 0.6).collect();
        let cache = stack.forward(&x);
        let (_, grad_in) = stack.backward(cache, 1.0);
        let eps = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let up = stack.forward(&xp).logit();
            let mut xm = x.clone();
            xm[i] -= eps;
            let down = stack.forward(&xm).logit();
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grad_in[i]).abs() < 1e-6,
                "input {i}: fd {fd} vs analytic {}",
                grad_in[i]
            );
        }
    }
}
