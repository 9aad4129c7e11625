//! Multi-layer perceptron for binary classification.

use crate::optim::{adam_step_flat, AdamParams};
use crate::{binary_cross_entropy, kernels, sigmoid, Dataset, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Number of input features.
    pub input_dim: usize,
    /// Sizes of the hidden layers (ReLU activations).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Early-stopping patience measured in epochs without validation-loss
    /// improvement (only used by [`Mlp::train_with_validation`]).
    pub patience: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            input_dim: 1,
            hidden: vec![16],
            learning_rate: 0.01,
            l2: 1e-4,
            epochs: 120,
            batch_size: 32,
            patience: 15,
        }
    }
}

/// One fully-connected layer with Adam state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    weights: Matrix,
    bias: Vec<f64>,
    // Adam first/second moment estimates.
    m_w: Matrix,
    v_w: Matrix,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He-uniform initialization: U(-b, b) with b = sqrt(6 / fan_in) has
        // the He variance 2 / fan_in (a uniform bound of sqrt(2 / fan_in)
        // would under-scale the weights by 3x in variance and starves deep
        // ReLU stacks of gradient).
        let scale = (6.0 / inputs as f64).sqrt();
        Layer {
            weights: Matrix::random(outputs, inputs, scale, rng),
            bias: vec![0.0; outputs],
            m_w: Matrix::zeros(outputs, inputs),
            v_w: Matrix::zeros(outputs, inputs),
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.weights.matvec(x);
        for (zi, b) in z.iter_mut().zip(&self.bias) {
            *zi += b;
        }
        z
    }
}

/// Multi-layer perceptron: ReLU hidden layers, a single sigmoid output unit,
/// trained with mini-batch Adam on binary cross-entropy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
    adam_t: u64,
}

impl Mlp {
    /// Creates a randomly initialized network.
    pub fn new<R: Rng + ?Sized>(config: MlpConfig, rng: &mut R) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Mlp {
            config,
            layers,
            adam_t: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Probability that `features` is a positive example.
    ///
    /// # Panics
    ///
    /// Panics if the feature length does not match `config.input_dim`.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.config.input_dim,
            "feature dimension mismatch"
        );
        let mut z = self.layers[0].forward(features);
        for layer in &self.layers[1..] {
            z.iter_mut().for_each(|v| *v = v.max(0.0));
            z = layer.forward(&z);
        }
        // The output layer stays linear; its single logit goes through the
        // sigmoid.
        sigmoid(z[0])
    }

    /// Trains on the full dataset for `config.epochs` epochs. Returns the mean
    /// training loss of the final epoch.
    pub fn train<R: Rng + ?Sized>(&mut self, data: &Dataset, rng: &mut R) -> f64 {
        let mut buffers = BatchBuffers::new(&self.layers, self.max_batch(data));
        let mut last = f64::INFINITY;
        for _ in 0..self.config.epochs {
            last = self.train_epoch(data, rng, &mut buffers);
        }
        last
    }

    /// Trains with early stopping on a validation set. Returns
    /// `(best_validation_loss, epochs_run)`.
    pub fn train_with_validation<R: Rng + ?Sized>(
        &mut self,
        train: &Dataset,
        validation: &Dataset,
        rng: &mut R,
    ) -> (f64, usize) {
        let mut buffers = BatchBuffers::new(&self.layers, self.max_batch(train));
        let mut best_loss = f64::INFINITY;
        let mut best_state: Option<Vec<Layer>> = None;
        let mut since_best = 0usize;
        let mut epochs_run = 0usize;
        for _ in 0..self.config.epochs {
            self.train_epoch(train, rng, &mut buffers);
            epochs_run += 1;
            let val_loss = self.mean_loss(validation);
            if val_loss + 1e-9 < best_loss {
                best_loss = val_loss;
                best_state = Some(self.layers.clone());
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= self.config.patience {
                    break;
                }
            }
        }
        if let Some(state) = best_state {
            self.layers = state;
        }
        (best_loss, epochs_run)
    }

    /// Mean binary cross-entropy over a dataset.
    pub fn mean_loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..data.len() {
            let p = self.predict(data.features_of(i));
            total += binary_cross_entropy(p, data.label_of(i));
        }
        total / data.len() as f64
    }

    /// Rows in the largest mini-batch an epoch over `data` forms.
    fn max_batch(&self, data: &Dataset) -> usize {
        self.config.batch_size.max(1).min(data.len())
    }

    fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        data: &Dataset,
        rng: &mut R,
        buffers: &mut BatchBuffers,
    ) -> f64 {
        assert_eq!(
            data.dim(),
            self.config.input_dim,
            "dataset dimension mismatch"
        );
        let n = data.len();
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(rng);
        let mut epoch_loss = 0.0;
        for batch in indices.chunks(self.config.batch_size.max(1)) {
            epoch_loss += self.train_batch(data, batch, buffers);
        }
        epoch_loss / n as f64
    }

    /// One Adam step on the mini-batch `batch`; returns its summed loss.
    ///
    /// Each layer runs one product per direction over the whole batch (rows
    /// are examples): `Z = A·Wᵀ` forward, `∇W = Δᵀ·A` and `Δ_prev = Δ·W`
    /// backward. Every entry keeps the accumulation chain of the
    /// per-example `matvec` / outer-product / `matvec_t` loop, so training
    /// is bit-identical to it (see the mlcore README).
    fn train_batch(&mut self, data: &Dataset, batch: &[usize], buf: &mut BatchBuffers) -> f64 {
        let b = batch.len();
        let last = self.layers.len() - 1;
        let input_dim = self.config.input_dim;
        for (s, &i) in batch.iter().enumerate() {
            buf.acts[0][s * input_dim..(s + 1) * input_dim].copy_from_slice(data.features_of(i));
        }

        // Forward: `acts[l + 1] = relu(acts[l]·Wᵀ + bias)`, the output layer
        // linear.
        for (l, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = (layer.weights.cols(), layer.weights.rows());
            let (below, above) = buf.acts.split_at_mut(l + 1);
            let z = &mut above[0][..b * outputs];
            kernels::matmul_nt(
                b,
                inputs,
                outputs,
                &below[l][..b * inputs],
                layer.weights.data(),
                z,
            );
            for row in z.chunks_exact_mut(outputs) {
                for (zi, bias) in row.iter_mut().zip(&layer.bias) {
                    *zi += bias;
                    if l < last {
                        *zi = zi.max(0.0);
                    }
                }
            }
        }

        // Loss, and the output delta dL/dz_out = p - y, in example order.
        let mut batch_loss = 0.0;
        let logits = &buf.acts[last + 1][..b];
        for ((d, &z), &i) in buf.delta.iter_mut().zip(logits).zip(batch) {
            let p = sigmoid(z);
            let y = data.label_of(i);
            batch_loss += binary_cross_entropy(p, y);
            *d = p - y;
        }

        // Backward: gradients start from +0.0 and sum over the batch in
        // example order.
        for l in (0..=last).rev() {
            let layer = &self.layers[l];
            let (inputs, outputs) = (layer.weights.cols(), layer.weights.rows());
            let delta = &buf.delta[..b * outputs];
            let input = &buf.acts[l][..b * inputs];
            let grad_w = &mut buf.grad_w[l];
            grad_w.fill(0.0);
            kernels::matmul_tn(b, outputs, inputs, delta, input, grad_w);
            let grad_b = &mut buf.grad_b[l];
            grad_b.fill(0.0);
            for row in delta.chunks_exact(outputs) {
                for (g, d) in grad_b.iter_mut().zip(row) {
                    *g += d;
                }
            }
            if l > 0 {
                // delta_prev = delta·W ⊙ relu'(z_prev). The layer below's
                // output is max(z_prev, 0), positive exactly where z_prev is.
                let back = &mut buf.next_delta[..b * inputs];
                back.fill(0.0);
                kernels::matmul_nn(b, outputs, inputs, delta, layer.weights.data(), back);
                // A select, not a conditional store: about half the
                // activations are zero, so a branch would mispredict and
                // keep the loop scalar.
                for (d, &a) in back.iter_mut().zip(input) {
                    *d = if a <= 0.0 { 0.0 } else { *d };
                }
                std::mem::swap(&mut buf.delta, &mut buf.next_delta);
            }
        }

        // Adam update through the shared flat kernel: gradients are
        // batch-averaged first, and the bias step carries no L2 term.
        self.adam_t += 1;
        let weight_hp = AdamParams {
            learning_rate: self.config.learning_rate,
            l2: self.config.l2,
            ..AdamParams::default()
        };
        let bias_hp = AdamParams {
            l2: 0.0,
            ..weight_hp
        };
        let scale = 1.0 / b as f64;
        for ((layer, gw), gb) in self
            .layers
            .iter_mut()
            .zip(&mut buf.grad_w)
            .zip(&mut buf.grad_b)
        {
            gw.iter_mut().for_each(|g| *g *= scale);
            gb.iter_mut().for_each(|g| *g *= scale);
            adam_step_flat(
                layer.weights.data_mut(),
                gw,
                layer.m_w.data_mut(),
                layer.v_w.data_mut(),
                self.adam_t,
                &weight_hp,
            );
            adam_step_flat(
                &mut layer.bias,
                gb,
                &mut layer.m_b,
                &mut layer.v_b,
                self.adam_t,
                &bias_hp,
            );
        }
        batch_loss
    }
}

/// Scratch for [`Mlp::train_batch`], allocated once per training call for
/// the largest batch; a smaller (ragged last) batch uses a prefix of each
/// buffer. Every buffer is row-major with one row per example.
struct BatchBuffers {
    /// `acts[l]` is the input to layer `l` (`acts[0]` the gathered batch);
    /// the last entry holds the output logits.
    acts: Vec<Vec<f64>>,
    /// dL/dz of the layer being back-propagated.
    delta: Vec<f64>,
    /// dL/dz of the layer below; swapped with `delta` after each layer.
    next_delta: Vec<f64>,
    grad_w: Vec<Vec<f64>>,
    grad_b: Vec<Vec<f64>>,
}

impl BatchBuffers {
    fn new(layers: &[Layer], max_batch: usize) -> Self {
        let input_dim = layers[0].weights.cols();
        let widths = std::iter::once(input_dim).chain(layers.iter().map(|l| l.weights.rows()));
        let acts: Vec<Vec<f64>> = widths.map(|w| vec![0.0; max_batch * w]).collect();
        let widest = acts.iter().map(Vec::len).max().unwrap_or(0);
        BatchBuffers {
            acts,
            delta: vec![0.0; widest],
            next_delta: vec![0.0; widest],
            grad_w: layers
                .iter()
                .map(|l| vec![0.0; l.weights.data().len()])
                .collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.bias.len()]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn xor_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in [0.0, 1.0] {
            for b in [0.0, 1.0] {
                // replicate to give SGD something to chew on
                for _ in 0..8 {
                    rows.push(vec![a, b]);
                    labels.push(if (a > 0.5) ^ (b > 0.5) { 1.0 } else { 0.0 });
                }
            }
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    #[test]
    fn learns_xor() {
        let data = xor_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut mlp = Mlp::new(
            MlpConfig {
                input_dim: 2,
                hidden: vec![8, 8],
                epochs: 300,
                learning_rate: 0.02,
                ..Default::default()
            },
            &mut rng,
        );
        let loss = mlp.train(&data, &mut rng);
        assert!(loss < 0.2, "loss {loss}");
        assert!(mlp.predict(&[0.0, 1.0]) > 0.8);
        assert!(mlp.predict(&[1.0, 0.0]) > 0.8);
        assert!(mlp.predict(&[0.0, 0.0]) < 0.2);
        assert!(mlp.predict(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn early_stopping_stops_before_epoch_limit_on_tiny_data() {
        let data = xor_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (train, val) = data.split(0.25, &mut rng);
        let mut mlp = Mlp::new(
            MlpConfig {
                input_dim: 2,
                hidden: vec![4],
                epochs: 500,
                patience: 5,
                ..Default::default()
            },
            &mut rng,
        );
        let (best, epochs) = mlp.train_with_validation(&train, &val, &mut rng);
        assert!(best.is_finite());
        assert!(epochs <= 500);
    }

    #[test]
    fn prediction_is_deterministic_after_training() {
        let data = xor_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut mlp = Mlp::new(
            MlpConfig {
                input_dim: 2,
                hidden: vec![4],
                epochs: 10,
                ..Default::default()
            },
            &mut rng,
        );
        mlp.train(&data, &mut rng);
        assert_eq!(mlp.predict(&[1.0, 0.0]), mlp.predict(&[1.0, 0.0]));
    }

    #[test]
    fn seeded_training_is_reproducible() {
        let data = xor_dataset();
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let mut mlp = Mlp::new(
                MlpConfig {
                    input_dim: 2,
                    hidden: vec![6],
                    epochs: 30,
                    ..Default::default()
                },
                &mut rng,
            );
            mlp.train(&data, &mut rng);
            mlp.predict(&[0.0, 1.0])
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dim_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::new(
            MlpConfig {
                input_dim: 4,
                ..Default::default()
            },
            &mut rng,
        );
        mlp.predict(&[1.0]);
    }
}
