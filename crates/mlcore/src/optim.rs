//! Reusable first-order optimizers.
//!
//! One Adam kernel serves every learner: the DGCNN in `autolock_gnn` through
//! [`AdamState`]/[`AdamVecState`], and [`Mlp`](crate::Mlp), which keeps its
//! moments in its own serialized layers, through the flat kernel directly.

use crate::Matrix;
use serde::{Deserialize, Serialize};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamParams {
    /// Step size.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator fuzz.
    pub epsilon: f64,
    /// L2 regularization strength, folded into the gradient before the
    /// moment updates (classic coupled L2, not AdamW-style decoupled decay).
    pub l2: f64,
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams {
            learning_rate: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            l2: 0.0,
        }
    }
}

/// Adam state for one matrix-shaped parameter tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl AdamState {
    /// Fresh state for a `rows x cols` parameter.
    pub fn new(rows: usize, cols: usize) -> Self {
        AdamState {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
        }
    }

    /// Applies one Adam update to `params` given the loss gradient `grad`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `params`, `grad` and the state disagree.
    pub fn step(&mut self, params: &mut Matrix, grad: &Matrix, hp: &AdamParams) {
        assert_eq!(params.rows(), self.m.rows(), "Adam state shape mismatch");
        assert_eq!(params.cols(), self.m.cols(), "Adam state shape mismatch");
        assert_eq!(params.rows(), grad.rows(), "Adam gradient shape mismatch");
        assert_eq!(params.cols(), grad.cols(), "Adam gradient shape mismatch");
        self.t += 1;
        // One pass over the flat row-major storage: params, grad and both
        // moment tensors share the same layout, so the update is four
        // streamed arrays instead of per-element (row, col) indexing.
        adam_step_flat(
            params.data_mut(),
            grad.data(),
            self.m.data_mut(),
            self.v.data_mut(),
            self.t,
            hp,
        );
    }
}

/// Adam state for a vector-shaped parameter (e.g. a bias).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamVecState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl AdamVecState {
    /// Fresh state for a length-`n` parameter.
    pub fn new(n: usize) -> Self {
        AdamVecState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one Adam update to `params` given the loss gradient `grad`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64], hp: &AdamParams) {
        assert_eq!(params.len(), self.m.len(), "Adam state length mismatch");
        assert_eq!(params.len(), grad.len(), "Adam gradient length mismatch");
        self.t += 1;
        adam_step_flat(params, grad, &mut self.m, &mut self.v, self.t, hp);
    }
}

avx2_dispatch! {
    /// The shared flat-slice Adam kernel behind [`AdamState`],
    /// [`AdamVecState`] and the MLP: identical arithmetic per element,
    /// applied in storage order (which keeps updates deterministic and
    /// cache-friendly for row-major tensors). `t` is the 1-based step count.
    pub(crate) fn adam_step_flat(
        params: &mut [f64],
        grad: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        t: u64,
        hp: &AdamParams,
    ) => adam_step_flat_portable
}

#[inline(always)]
fn adam_step_flat_portable(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    t: u64,
    hp: &AdamParams,
) {
    let t = t as f64;
    let bc1 = 1.0 - hp.beta1.powf(t);
    let bc2 = 1.0 - hp.beta2.powf(t);
    for (((p, &g0), m), v) in params.iter_mut().zip(grad).zip(m).zip(v) {
        let g = g0 + hp.l2 * *p;
        *m = hp.beta1 * *m + (1.0 - hp.beta1) * g;
        *v = hp.beta2 * *v + (1.0 - hp.beta2) * g * g;
        let step = hp.learning_rate * (*m / bc1) / ((*v / bc2).sqrt() + hp.epsilon);
        *p -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize f(x) = (x - 3)^2 elementwise
        let mut x = Matrix::zeros(2, 2);
        let mut state = AdamState::new(2, 2);
        let hp = AdamParams {
            learning_rate: 0.1,
            ..Default::default()
        };
        for _ in 0..500 {
            let grad = x.map(|v| 2.0 * (v - 3.0));
            state.step(&mut x, &grad, &hp);
        }
        for r in 0..2 {
            for c in 0..2 {
                assert!((x.get(r, c) - 3.0).abs() < 1e-3, "{}", x.get(r, c));
            }
        }
    }

    #[test]
    fn adam_vec_minimizes_a_quadratic() {
        let mut x = vec![0.0; 3];
        let mut state = AdamVecState::new(3);
        let hp = AdamParams {
            learning_rate: 0.1,
            ..Default::default()
        };
        for _ in 0..500 {
            let grad: Vec<f64> = x.iter().map(|&v| 2.0 * (v + 1.0)).collect();
            state.step(&mut x, &grad, &hp);
        }
        for v in x {
            assert!((v + 1.0).abs() < 1e-3);
        }
    }

    /// On an AVX2 machine `adam_step_flat` runs the AVX2 build: a few steps
    /// of it must leave the parameters and both moments bit-identical to the
    /// portable build, on lengths off the vector width and values with
    /// signed zeros and subnormals.
    #[test]
    fn dispatched_adam_step_matches_portable_body() {
        use crate::kernels::tests::edge_values;
        let hp = AdamParams {
            l2: 1e-3,
            ..Default::default()
        };
        for len in [0, 1, 3, 4, 7, 33] {
            let mut got = [edge_values(len, 1), vec![0.0; len], vec![0.0; len]];
            let mut want = got.clone();
            for t in 1..=3 {
                let grad = edge_values(len, 10 + t);
                let [p, m, v] = &mut got;
                adam_step_flat(p, &grad, m, v, t, &hp);
                let [p, m, v] = &mut want;
                adam_step_flat_portable(p, &grad, m, v, t, &hp);
            }
            for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                assert_eq!(g.to_bits(), w.to_bits(), "len {len}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn l2_pulls_parameters_toward_zero() {
        let mut x = Matrix::from_vec(1, 1, vec![5.0]);
        let mut state = AdamState::new(1, 1);
        let hp = AdamParams {
            learning_rate: 0.05,
            l2: 1.0,
            ..Default::default()
        };
        for _ in 0..400 {
            let grad = Matrix::zeros(1, 1); // no data gradient, only decay
            state.step(&mut x, &grad, &hp);
        }
        assert!(x.get(0, 0).abs() < 0.5);
    }
}
