//! DGCNN SortPooling: a fixed-size, order-invariant graph readout.

use autolock_mlcore::Matrix;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How the SortPooling output size `k` is chosen.
///
/// DGCNN (Zhang et al., AAAI 2018) does not hand-tune `k`: it picks `k` "such
/// that f% of graphs have more than k nodes" — a dataset percentile. The seed
/// reproduction hardcoded `k = 10`; [`SortPoolK::Percentile`] restores the
/// paper's rule while [`SortPoolK::Fixed`] keeps the explicit knob for
/// experiments that want architectural parity across datasets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SortPoolK {
    /// Use exactly this `k` (clamped to ≥ 1).
    Fixed(usize),
    /// Choose `k` so that at least this fraction (in `(0, 1]`) of the
    /// training graphs have ≥ `k` nodes.
    Percentile(f64),
}

impl Default for SortPoolK {
    fn default() -> Self {
        SortPoolK::Fixed(10)
    }
}

impl SortPoolK {
    /// Resolves to a concrete `k` for a dataset with the given per-graph node
    /// counts. `Fixed` ignores the counts; `Percentile(p)` returns the
    /// largest `k` such that at least `⌈p·len⌉` graphs have ≥ `k` nodes
    /// (at least 1, and for an empty dataset falls back to 1).
    pub fn resolve(&self, node_counts: &[usize]) -> usize {
        match *self {
            SortPoolK::Fixed(k) => k.max(1),
            SortPoolK::Percentile(p) => {
                if node_counts.is_empty() {
                    return 1;
                }
                let p = p.clamp(f64::MIN_POSITIVE, 1.0);
                let mut sorted = node_counts.to_vec();
                sorted.sort_unstable_by(|a, b| b.cmp(a)); // descending
                let need = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[need - 1].max(1)
            }
        }
    }
}

/// SortPooling with a fixed `k`: nodes are ordered by their **last feature
/// channel** (descending, ties broken by node index for determinism) and the
/// first `k` rows are kept; graphs with fewer than `k` nodes are zero-padded.
/// The result is a `k × f` matrix regardless of graph size, which the dense
/// head consumes flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortPooling {
    k: usize,
}

/// Cache for the backward pass: which input row landed in each output slot.
#[derive(Debug, Clone)]
pub struct SortPoolCache {
    /// `selected[slot] = Some(input_row)` or `None` for zero padding;
    /// `input_row` indexes the whole input matrix, not the pooled range.
    pub selected: Vec<Option<usize>>,
}

impl SortPooling {
    /// Creates the pooling with output size `k` (≥ 1).
    pub fn new(k: usize) -> Self {
        SortPooling { k: k.max(1) }
    }

    /// The output row count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Forward pass over one graph's rows `rows` of `x` (a batch stacks
    /// several graphs): returns the pooled `k × f` matrix and the
    /// permutation cache.
    pub fn forward(&self, x: &Matrix, rows: Range<usize>) -> (Matrix, SortPoolCache) {
        let f = x.cols();
        let sort_channel = f.saturating_sub(1);
        let mut order: Vec<usize> = rows.collect();
        order.sort_by(|&a, &b| {
            x.get(b, sort_channel)
                .partial_cmp(&x.get(a, sort_channel))
                .expect("finite sort keys")
                .then(a.cmp(&b))
        });
        let mut out = Matrix::zeros(self.k, f);
        let mut selected = vec![None; self.k];
        for (slot, &src) in order.iter().take(self.k).enumerate() {
            out.row_mut(slot).copy_from_slice(x.row(src));
            selected[slot] = Some(src);
        }
        (out, SortPoolCache { selected })
    }

    /// Backward pass: adds dL/d(pooled), the row-major `k × f` slice
    /// `grad_output`, into the selected rows of `grad_input` (padded slots
    /// contribute nothing; unselected rows are left as they are).
    pub fn backward(&self, cache: &SortPoolCache, grad_output: &[f64], grad_input: &mut Matrix) {
        let f = grad_input.cols();
        for (slot, sel) in cache.selected.iter().enumerate() {
            if let Some(src) = sel {
                let dst = grad_input.row_mut(*src);
                for (d, v) in dst.iter_mut().zip(&grad_output[slot * f..(slot + 1) * f]) {
                    *d += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_by_last_channel_and_pads() {
        let x = Matrix::from_vec(
            3,
            2,
            vec![
                1.0, 0.1, //
                2.0, 0.9, //
                3.0, 0.5,
            ],
        );
        let pool = SortPooling::new(4);
        let (y, cache) = pool.forward(&x, 0..3);
        // Order by last channel desc: rows 1 (0.9), 2 (0.5), 0 (0.1), pad.
        assert_eq!(y.row(0), &[2.0, 0.9]);
        assert_eq!(y.row(1), &[3.0, 0.5]);
        assert_eq!(y.row(2), &[1.0, 0.1]);
        assert_eq!(y.row(3), &[0.0, 0.0]);
        assert_eq!(cache.selected, vec![Some(1), Some(2), Some(0), None]);
    }

    #[test]
    fn truncates_to_k_and_backward_scatters() {
        let x = Matrix::from_vec(3, 1, vec![0.3, 0.1, 0.2]);
        let pool = SortPooling::new(2);
        let (y, cache) = pool.forward(&x, 0..3);
        assert_eq!(y.row(0), &[0.3]);
        assert_eq!(y.row(1), &[0.2]);
        let mut gi = Matrix::zeros(3, 1);
        pool.backward(&cache, &[10.0, 20.0], &mut gi);
        assert_eq!(gi.row(0), &[10.0]); // row 0 was slot 0
        assert_eq!(gi.row(1), &[0.0]); // dropped by pooling
        assert_eq!(gi.row(2), &[20.0]); // row 2 was slot 1
    }

    #[test]
    fn ties_break_by_node_index() {
        let x = Matrix::from_vec(2, 1, vec![0.5, 0.5]);
        let pool = SortPooling::new(2);
        let (_, cache) = pool.forward(&x, 0..2);
        assert_eq!(cache.selected, vec![Some(0), Some(1)]);
    }

    #[test]
    fn pools_and_scatters_within_one_row_range() {
        // Rows 2..5 are one graph of a stacked batch; rows outside the
        // range never compete, and its gradient lands on its own rows.
        let x = Matrix::from_vec(6, 1, vec![9.0, 8.0, 0.1, 0.7, 0.4, 5.0]);
        let pool = SortPooling::new(4);
        let (y, cache) = pool.forward(&x, 2..5);
        assert_eq!(y.data(), &[0.7, 0.4, 0.1, 0.0]);
        assert_eq!(cache.selected, vec![Some(3), Some(4), Some(2), None]);
        let mut gi = Matrix::zeros(6, 1);
        pool.backward(&cache, &[1.0, 2.0, 3.0, 4.0], &mut gi);
        assert_eq!(gi.data(), &[0.0, 0.0, 3.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn percentile_k_follows_the_dgcnn_rule() {
        // Counts 4..=13: with p = 0.6, six graphs must have ≥ k nodes, so
        // k is the 6th-largest count = 8.
        let counts: Vec<usize> = (4..14).collect();
        assert_eq!(SortPoolK::Percentile(0.6).resolve(&counts), 8);
        // p = 1.0 keeps every graph un-padded: k = smallest count.
        assert_eq!(SortPoolK::Percentile(1.0).resolve(&counts), 4);
        // Tiny p degenerates to the largest count.
        assert_eq!(SortPoolK::Percentile(1e-9).resolve(&counts), 13);
        // Fixed ignores the dataset; both clamp to ≥ 1.
        assert_eq!(SortPoolK::Fixed(7).resolve(&counts), 7);
        assert_eq!(SortPoolK::Fixed(0).resolve(&counts), 1);
        assert_eq!(SortPoolK::Percentile(0.5).resolve(&[]), 1);
    }
}
