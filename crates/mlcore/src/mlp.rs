//! Multi-layer perceptron for binary classification.

use crate::logistic::binary_cross_entropy;
use crate::optim::{adam_step_flat, AdamParams};
use crate::{sigmoid, Dataset, Matrix};
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
        let (activations, _) = self.forward(features);
        sigmoid(activations.last().expect("output layer exists")[0])
    }

    /// Forward pass. Returns (pre-activations per layer, post-activations per
    /// layer input); `post[0]` is the input itself.
    #[allow(clippy::type_complexity)]
    fn forward(&self, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut post = Vec::with_capacity(self.layers.len() + 1);
        post.push(x.to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(post.last().expect("non-empty"));
            let a = if i + 1 == self.layers.len() {
                z.clone() // output layer stays linear; sigmoid applied by caller
            } else {
                z.iter().map(|&v| v.max(0.0)).collect()
            };
            pre.push(z);
            post.push(a);
        }
        (pre, post)
    }

    /// Trains on the full dataset for `config.epochs` epochs. Returns the mean
    /// training loss of the final epoch.
    pub fn train<R: Rng + ?Sized>(&mut self, data: &Dataset, rng: &mut R) -> f64 {
        let mut last = f64::INFINITY;
        for _ in 0..self.config.epochs {
            last = self.train_epoch(data, rng);
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
        let mut best_loss = f64::INFINITY;
        let mut best_state: Option<Vec<Layer>> = None;
        let mut since_best = 0usize;
        let mut epochs_run = 0usize;
        for _ in 0..self.config.epochs {
            self.train_epoch(train, rng);
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

    fn train_epoch<R: Rng + ?Sized>(&mut self, data: &Dataset, rng: &mut R) -> f64 {
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
            epoch_loss += self.train_batch(data, batch);
        }
        epoch_loss / n as f64
    }

    fn train_batch(&mut self, data: &Dataset, batch: &[usize]) -> f64 {
        // Accumulate gradients over the batch.
        let mut grad_w: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.bias.len()])
            .collect();
        let mut batch_loss = 0.0;

        for &i in batch {
            let x = data.features_of(i);
            let y = data.label_of(i);
            let (pre, post) = self.forward(x);
            let out = pre.last().expect("output layer")[0];
            let p = sigmoid(out);
            batch_loss += binary_cross_entropy(p, y);

            // Backward pass.
            // delta of output layer (dL/dz_out) = p - y
            let mut delta = vec![p - y];
            for layer_idx in (0..self.layers.len()).rev() {
                let input = &post[layer_idx];
                grad_w[layer_idx].add_outer(1.0, &delta, input);
                for (g, d) in grad_b[layer_idx].iter_mut().zip(&delta) {
                    *g += d;
                }
                if layer_idx > 0 {
                    // Propagate: delta_prev = W^T delta ⊙ relu'(pre_prev)
                    let back = self.layers[layer_idx].weights.matvec_t(&delta);
                    let prev_pre = &pre[layer_idx - 1];
                    delta = back
                        .iter()
                        .zip(prev_pre)
                        .map(|(&b, &z)| if z > 0.0 { b } else { 0.0 })
                        .collect();
                }
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
        let scale = 1.0 / batch.len() as f64;
        for (layer, (mut gw, mut gb)) in self.layers.iter_mut().zip(grad_w.into_iter().zip(grad_b))
        {
            gw.data_mut().iter_mut().for_each(|g| *g *= scale);
            gb.iter_mut().for_each(|g| *g *= scale);
            adam_step_flat(
                layer.weights.data_mut(),
                gw.data(),
                layer.m_w.data_mut(),
                layer.v_w.data_mut(),
                self.adam_t,
                &weight_hp,
            );
            adam_step_flat(
                &mut layer.bias,
                &gb,
                &mut layer.m_b,
                &mut layer.v_b,
                self.adam_t,
                &bias_hp,
            );
        }
        batch_loss
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
