//! Streamed training-set access: build each example's tensor on demand.
//!
//! The original training pipeline materialized every [`SubgraphTensor`] of
//! the training set up front and held all of them alive for the whole run.
//! On ISCAS-sized netlists the enclosing subgraphs grow into the thousands
//! of nodes, so that tensor set — not the model — was the memory hog that
//! kept the DGCNN backend off the structured suite tier. A [`GraphSource`]
//! inverts the ownership: training asks for example `i`'s tensor when (and
//! only when) a worker is about to run its forward/backward pass, and hands
//! the tensor back through [`GraphSource::recycle`] as soon as the example's
//! gradients have been reduced. Peak tensor memory becomes
//! `O(concurrent workers)` instead of `O(training set)`.
//!
//! Determinism: the source is **pure** — `tensor(i)` must return the same
//! tensor values every time it is called (sources backed by the attack's
//! subgraph cache satisfy this because extraction is deterministic). Under
//! that contract the streamed trainer visits examples in exactly the order
//! the materialized one did, so the training trajectory is bit-for-bit
//! identical — `crates/gnn/tests/determinism.rs` pins streamed vs
//! materialized with exact equality.

use crate::SubgraphTensor;
use std::ops::Deref;

/// A tensor handed out by a [`GraphSource`]: borrowed from a materialized
/// set, or freshly built (and recyclable) by a streaming source.
pub enum SourceTensor<'a> {
    /// A reference into an already-materialized training set.
    Borrowed(&'a SubgraphTensor),
    /// A tensor built on demand; give it back via [`GraphSource::recycle`].
    Owned(SubgraphTensor),
}

impl Deref for SourceTensor<'_> {
    type Target = SubgraphTensor;

    fn deref(&self) -> &SubgraphTensor {
        match self {
            SourceTensor::Borrowed(t) => t,
            SourceTensor::Owned(t) => t,
        }
    }
}

/// A labelled training set served one example at a time.
///
/// Sources must be **pure**: `tensor(i)` returns the same tensor values on
/// every call, which is what keeps streamed training bit-identical to
/// training on a materialized set.
pub trait GraphSource: Sync {
    /// Number of examples.
    fn len(&self) -> usize;

    /// `true` when the source holds no examples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label of example `idx` (1.0 = link, 0.0 = non-link).
    fn label(&self, idx: usize) -> f64;

    /// Node count of example `idx`'s subgraph **without** building the
    /// tensor — what adaptive SortPooling's percentile rule needs.
    fn num_nodes(&self, idx: usize) -> usize;

    /// The tensor of example `idx`. Must be pure (identical values on every
    /// call); called once per example per epoch by the streamed trainer.
    fn tensor(&self, idx: usize) -> SourceTensor<'_>;

    /// Returns an [`SourceTensor::Owned`] tensor's storage to the source
    /// (e.g. into a scratch pool). The default drops it.
    fn recycle(&self, tensor: SubgraphTensor) {
        drop(tensor);
    }
}

/// The materialized-set adaptor: serves borrowed tensors straight from
/// slices. [`crate::Dgcnn::train`] wraps its inputs in this, so the
/// slice-based API and the streamed API share one training pipeline.
pub struct SliceSource<'a> {
    graphs: &'a [SubgraphTensor],
    labels: &'a [f64],
}

impl<'a> SliceSource<'a> {
    /// Wraps parallel graph/label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn new(graphs: &'a [SubgraphTensor], labels: &'a [f64]) -> Self {
        assert_eq!(graphs.len(), labels.len(), "one label per graph required");
        SliceSource { graphs, labels }
    }
}

impl GraphSource for SliceSource<'_> {
    fn len(&self) -> usize {
        self.graphs.len()
    }

    fn label(&self, idx: usize) -> f64 {
        self.labels[idx]
    }

    fn num_nodes(&self, idx: usize) -> usize {
        self.graphs[idx].num_nodes()
    }

    fn tensor(&self, idx: usize) -> SourceTensor<'_> {
        SourceTensor::Borrowed(&self.graphs[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_mlcore::Matrix;

    fn tiny_tensor(n: usize) -> SubgraphTensor {
        let adj: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
        SubgraphTensor::from_parts(Matrix::zeros(n, 2), adj)
    }

    #[test]
    fn slice_source_serves_borrowed_views() {
        let graphs = vec![tiny_tensor(3), tiny_tensor(5)];
        let labels = vec![1.0, 0.0];
        let source = SliceSource::new(&graphs, &labels);
        assert_eq!(source.len(), 2);
        assert!(!source.is_empty());
        assert_eq!(source.label(1), 0.0);
        assert_eq!(source.num_nodes(1), 5);
        let t = source.tensor(0);
        assert_eq!(t.num_nodes(), 3);
        assert!(matches!(t, SourceTensor::Borrowed(_)));
    }

    #[test]
    #[should_panic(expected = "one label per graph")]
    fn mismatched_slices_panic() {
        let graphs = vec![tiny_tensor(3)];
        SliceSource::new(&graphs, &[]);
    }
}
