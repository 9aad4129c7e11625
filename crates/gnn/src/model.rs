//! The full DGCNN: conv stack → channel concat → SortPooling → dense head.

use crate::conv::{ConvCache, ConvGrads, GraphConv};
use crate::dense::{DenseGrads, DenseStack, HeadBackward, HeadForward};
use crate::sortpool::{SortPoolCache, SortPoolK, SortPooling};
use crate::stream::{GraphSource, SliceSource};
use crate::tensor::TensorBatch;
use crate::SubgraphTensor;
use autolock_mlcore::optim::AdamParams;
use autolock_mlcore::parallel::{contiguous_parts, pooled_map};
use autolock_mlcore::{binary_cross_entropy, sigmoid, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The most rows one union graph takes; a batch of bigger subgraphs runs as
/// several unions (a subgraph bigger than this runs alone). Batching pays
/// where an example's own products are short, but a union's matrices grow
/// with it and are faulted in afresh every step: one 2560-row union trained
/// and scored about twice as slowly as one example at a time, with about
/// five times the page faults of 512-row unions.
const MAX_UNION_ROWS: usize = 512;

/// Splits `items` into contiguous runs of at most `max_items` items and at
/// most [`MAX_UNION_ROWS`] rows (`rows` gives an item's node count), each
/// run holding at least one item: the unions a batch runs as.
fn unions<T>(items: &[T], max_items: usize, rows: impl Fn(&T) -> usize) -> Vec<&[T]> {
    let mut spans = Vec::new();
    let (mut start, mut total) = (0, 0);
    for (i, item) in items.iter().enumerate() {
        let n = rows(item);
        if i > start && (i - start == max_items || total + n > MAX_UNION_ROWS) {
            spans.push(&items[start..i]);
            (start, total) = (i, 0);
        }
        total += n;
    }
    if start < items.len() {
        spans.push(&items[start..]);
    }
    spans
}

/// Hyper-parameters of a [`Dgcnn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DgcnnConfig {
    /// Per-node input feature dimensionality.
    pub node_feature_dim: usize,
    /// Output channels of each graph-convolution layer. The last layer's
    /// final channel drives the SortPooling node ordering, so DGCNN keeps it
    /// small (classically 1).
    pub conv_channels: Vec<usize>,
    /// Number of nodes kept by SortPooling: fixed, or resolved from the
    /// training set as a node-count percentile (the DGCNN rule) by
    /// [`Dgcnn::for_dataset`].
    pub sortpool_k: SortPoolK,
    /// Hidden sizes of the dense head.
    pub dense_hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Threads used for batch-parallel training and scoring: `0` = all
    /// available cores, `1` = serial, `n` = exactly `n`. Results are
    /// bit-for-bit identical for every setting (see the crate README's
    /// parallelism/determinism contract).
    pub num_threads: usize,
}

impl DgcnnConfig {
    /// The default architecture for a given node-feature dimensionality:
    /// three conv layers (last one a single sort channel), `k = 10`, one
    /// hidden dense layer, parallel training across all cores.
    pub fn for_features(node_feature_dim: usize) -> Self {
        DgcnnConfig {
            node_feature_dim,
            conv_channels: vec![16, 16, 1],
            sortpool_k: SortPoolK::Fixed(10),
            dense_hidden: vec![32],
            epochs: 25,
            batch_size: 16,
            learning_rate: 0.01,
            l2: 1e-4,
            num_threads: 0,
        }
    }
}

/// The DGCNN link scorer.
///
/// Serializable end-to-end (conv stack, pooling, head, optimizer state): a
/// model trained once can be stored in the service's disk-backed registry
/// and reloaded to score without retraining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dgcnn {
    config: DgcnnConfig,
    convs: Vec<GraphConv>,
    pool: SortPooling,
    head: DenseStack,
}

/// One batch's forward pass: the conv stack over the union, each example's
/// SortPooling selection, and the head over the pooled rows.
struct BatchForward {
    convs: Vec<ConvCache>,
    pools: Vec<SortPoolCache>,
    head: HeadForward,
}

/// One batch's backward pass: each example's loss, each conv layer's
/// per-example parameter gradients (`convs[layer][example]`), and the
/// head's inputs and deltas.
struct BatchGrads {
    losses: Vec<f64>,
    convs: Vec<Vec<ConvGrads>>,
    head: HeadBackward,
}

impl Dgcnn {
    /// Creates a randomly initialized model with a fixed SortPooling `k`.
    ///
    /// # Panics
    ///
    /// Panics if `config.conv_channels` is empty, or if `config.sortpool_k`
    /// is [`SortPoolK::Percentile`] — an adaptive `k` needs the training set,
    /// so build those models with [`Dgcnn::for_dataset`].
    pub fn new<R: Rng + ?Sized>(config: DgcnnConfig, rng: &mut R) -> Self {
        let SortPoolK::Fixed(_) = config.sortpool_k else {
            panic!("percentile sortpool_k requires Dgcnn::for_dataset (needs node counts)");
        };
        Self::with_resolved_k(config, rng)
    }

    /// Creates a randomly initialized model whose SortPooling `k` is resolved
    /// against the given training graphs: a [`SortPoolK::Percentile`] becomes
    /// the dataset-percentile node count (DGCNN's rule), a
    /// [`SortPoolK::Fixed`] is used as-is. The resolved value is written back
    /// into the stored config, so [`Dgcnn::config`] always reports the
    /// concrete architecture.
    ///
    /// # Panics
    ///
    /// Panics if `config.conv_channels` is empty.
    pub fn for_dataset<R: Rng + ?Sized>(
        config: DgcnnConfig,
        graphs: &[SubgraphTensor],
        rng: &mut R,
    ) -> Self {
        let counts: Vec<usize> = graphs.iter().map(SubgraphTensor::num_nodes).collect();
        Self::for_node_counts(config, &counts, rng)
    }

    /// [`Dgcnn::for_dataset`] for a streamed training set: the SortPooling
    /// `k` is resolved against [`GraphSource::num_nodes`], so no tensor is
    /// materialized to size the architecture. Consumes the same number of
    /// RNG draws as `for_dataset`, so the two construction paths stay
    /// bit-for-bit interchangeable.
    ///
    /// # Panics
    ///
    /// Panics if `config.conv_channels` is empty.
    pub fn for_source<R: Rng + ?Sized>(
        config: DgcnnConfig,
        source: &dyn GraphSource,
        rng: &mut R,
    ) -> Self {
        let counts: Vec<usize> = (0..source.len()).map(|i| source.num_nodes(i)).collect();
        Self::for_node_counts(config, &counts, rng)
    }

    fn for_node_counts<R: Rng + ?Sized>(
        mut config: DgcnnConfig,
        counts: &[usize],
        rng: &mut R,
    ) -> Self {
        config.sortpool_k = SortPoolK::Fixed(config.sortpool_k.resolve(counts));
        Self::with_resolved_k(config, rng)
    }

    fn with_resolved_k<R: Rng + ?Sized>(config: DgcnnConfig, rng: &mut R) -> Self {
        assert!(
            !config.conv_channels.is_empty(),
            "at least one conv layer required"
        );
        let k = config.sortpool_k.resolve(&[]);
        let mut convs = Vec::with_capacity(config.conv_channels.len());
        let mut in_dim = config.node_feature_dim;
        for &out_dim in &config.conv_channels {
            convs.push(GraphConv::new(in_dim, out_dim, rng));
            in_dim = out_dim;
        }
        let total_channels: usize = config.conv_channels.iter().sum();
        let pool = SortPooling::new(k);
        let head = DenseStack::new(pool.k() * total_channels, &config.dense_hidden, rng);
        Dgcnn {
            config,
            convs,
            pool,
            head,
        }
    }

    /// The configuration (with `sortpool_k` resolved to its concrete value).
    pub fn config(&self) -> &DgcnnConfig {
        &self.config
    }

    /// Forward pass to the raw logit (used by tests; [`Dgcnn::score`] applies
    /// the sigmoid).
    pub fn logit(&self, graph: &SubgraphTensor) -> f64 {
        self.forward(&TensorBatch::single(graph)).head.logits()[0]
    }

    /// The staged forward pass over a batch: every conv layer runs once over
    /// the whole union, the channel concat is built once, SortPooling picks
    /// each example's rows, and the head runs on the `batch × k·C` matrix of
    /// pooled rows. Every entry keeps the accumulation chain it has in a
    /// one-example pass, so each example's logit is the same bits in any
    /// batch.
    fn forward(&self, batch: &TensorBatch) -> BatchForward {
        let graph = batch.graph();
        let mut convs: Vec<ConvCache> = Vec::with_capacity(self.convs.len());
        for conv in &self.convs {
            let input = convs
                .last()
                .map(|c: &ConvCache| &c.output)
                .unwrap_or(graph.features());
            convs.push(conv.forward(graph, input));
        }
        // Channel-wise concatenation of every conv output. The sort channel
        // (last column of the last conv) ends up as the last column overall.
        let n = graph.num_nodes();
        let total = self.total_channels();
        let mut concat = Matrix::zeros(n, total);
        let mut offset = 0;
        for cache in &convs {
            let w = cache.output.cols();
            for r in 0..n {
                concat.row_mut(r)[offset..offset + w].copy_from_slice(cache.output.row(r));
            }
            offset += w;
        }
        // Row-major storage: a pooled matrix's data is its example's
        // flattened head input.
        let width = self.pool.k() * total;
        let mut head_input = Vec::with_capacity(batch.len() * width);
        let pools = (0..batch.len())
            .map(|e| {
                let (pooled, cache) = self.pool.forward(&concat, batch.rows(e));
                head_input.extend_from_slice(pooled.data());
                cache
            })
            .collect();
        let head = self
            .head
            .forward(Matrix::from_vec(batch.len(), width, head_input));
        BatchForward { convs, pools, head }
    }

    /// The staged training step over a batch: the forward pass, then one
    /// backward product per layer over the whole batch. Parameter gradients
    /// come back per example (conv) or as the head's stacked inputs and
    /// deltas, for the caller to reduce in example order.
    fn backward(&self, batch: &TensorBatch, labels: &[f64]) -> BatchGrads {
        let forward = self.forward(batch);
        let probs: Vec<f64> = forward.head.logits().iter().map(|&l| sigmoid(l)).collect();
        let losses = probs
            .iter()
            .zip(labels)
            .map(|(&p, &y)| binary_cross_entropy(p, y))
            .collect();
        // dL/dlogit for sigmoid + BCE.
        let grad_logits: Vec<f64> = probs.iter().zip(labels).map(|(&p, &y)| p - y).collect();
        let (head, grad_head_input) = self.head.backward(forward.head, &grad_logits);

        // Push each example's pooled gradient back to its own rows.
        let graph = batch.graph();
        let n = graph.num_nodes();
        let total = self.total_channels();
        let mut grad_concat = Matrix::zeros(n, total);
        for (e, cache) in forward.pools.iter().enumerate() {
            self.pool
                .backward(cache, grad_head_input.row(e), &mut grad_concat);
        }

        // Split the concat gradient per conv layer, then walk the stack
        // backwards: layer i receives its concat slice plus whatever layer
        // i+1 propagated into its input. Layer 0's input is the constant
        // node features, so its input gradient is never formed.
        let mut convs: Vec<Vec<ConvGrads>> = Vec::with_capacity(self.convs.len());
        let mut carried: Option<Matrix> = None;
        let mut offset_end = total;
        for idx in (0..self.convs.len()).rev() {
            let (conv, cache) = (&self.convs[idx], &forward.convs[idx]);
            let w = conv.out_dim();
            let offset = offset_end - w;
            let mut grad_out = Matrix::zeros(n, w);
            for r in 0..n {
                grad_out
                    .row_mut(r)
                    .copy_from_slice(&grad_concat.row(r)[offset..offset_end]);
            }
            if let Some(extra) = carried.take() {
                grad_out.add_scaled(1.0, &extra);
            }
            let (grads, grad_z) = conv.param_backward(cache, grad_out, batch.offsets());
            if idx > 0 {
                carried = Some(conv.input_backward(graph, &grad_z));
            }
            convs.push(grads);
            offset_end = offset;
        }
        convs.reverse();
        BatchGrads {
            losses,
            convs,
            head,
        }
    }

    /// Total channel count of the conv stack (the concat width).
    fn total_channels(&self) -> usize {
        self.convs.iter().map(GraphConv::out_dim).sum()
    }

    /// Trains for `config.epochs` epochs of mini-batch Adam; returns the mean
    /// loss of the final epoch.
    ///
    /// This is the materialized-set convenience wrapper around
    /// [`Dgcnn::train_source`]: the slices are adapted into a
    /// [`SliceSource`], so both entry points run the identical streamed
    /// pipeline (and therefore the identical training trajectory).
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and `labels` lengths differ or are empty.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        graphs: &[SubgraphTensor],
        labels: &[f64],
        rng: &mut R,
    ) -> f64 {
        self.train_source(&SliceSource::new(graphs, labels), rng)
    }

    /// The streamed training pipeline: examples are pulled from `source` one
    /// mini-batch at a time, so at most one mini-batch of subgraph tensors
    /// (plus its per-example gradients) is alive at any moment — peak
    /// memory no longer scales with the training-set size.
    ///
    /// Each mini-batch is split into at most `config.num_threads`
    /// contiguous parts (one with a single thread), which fan out through
    /// the order-preserving pooled map. A part gathers its tensors from
    /// `source`, copies them into one disjoint-union graph (several, of at
    /// most 512 rows each, when the subgraphs are large), drops them, and
    /// runs the staged step on each union: one product per layer and
    /// direction.
    ///
    /// Determinism: every per-example gradient is reduced **in fixed
    /// example order** before the Adam step (the dense head's weight
    /// gradients as `Uᵀ·Δ` products continued union after union, whose
    /// kernel accumulates in example order too) — so the training
    /// trajectory is bit-for-bit identical for every thread count, and (for
    /// a pure source) bit-for-bit identical to training on the materialized
    /// tensor set.
    ///
    /// # Panics
    ///
    /// Panics if `source` is empty.
    pub fn train_source<R: Rng + ?Sized>(&mut self, source: &dyn GraphSource, rng: &mut R) -> f64 {
        assert!(!source.is_empty(), "cannot train on zero graphs");
        // Observability (autolock_obs) is write-only: spans and counters
        // record the trajectory but never influence it, and cost one relaxed
        // load per site while the registry is disabled.
        let _train_span = autolock_obs::span!("gnn.train");
        let rebuilds = autolock_obs::counter("gnn.tensor_rebuilds");
        let chunks = autolock_obs::counter("gnn.train_chunks");
        let examples = autolock_obs::counter("gnn.train_examples");
        let hp = AdamParams {
            learning_rate: self.config.learning_rate,
            l2: self.config.l2,
            ..Default::default()
        };
        let mut indices: Vec<usize> = (0..source.len()).collect();
        let mut last_epoch_loss = f64::INFINITY;
        for _ in 0..self.config.epochs {
            let _epoch_span = autolock_obs::span!("gnn.train_epoch");
            indices.shuffle(rng);
            let mut epoch_loss = 0.0;
            for batch in indices.chunks(self.config.batch_size.max(1)) {
                chunks.incr();
                examples.add(batch.len() as u64);
                let (losses, mut convs, mut head) = self.minibatch(source, batch, &rebuilds);
                for loss in losses {
                    epoch_loss += loss;
                }
                let scale = 1.0 / batch.len() as f64;
                for (conv, g) in self.convs.iter_mut().zip(&mut convs) {
                    g.scale(scale);
                    conv.apply(g, &hp);
                }
                head.scale(scale);
                self.head.apply(&head, &hp);
            }
            last_epoch_loss = epoch_loss / source.len() as f64;
        }
        last_epoch_loss
    }

    /// One mini-batch of examples `batch` from `source`: each example's
    /// loss, and the summed (unscaled) conv and head gradients, reduced in
    /// example order. The mini-batch splits into one contiguous part per
    /// worker, and a part runs as one union, or as several when its
    /// subgraphs are large.
    fn minibatch(
        &self,
        source: &dyn GraphSource,
        batch: &[usize],
        rebuilds: &autolock_obs::Counter,
    ) -> (Vec<f64>, Vec<ConvGrads>, DenseGrads) {
        let parts = contiguous_parts(self.config.num_threads, batch);
        let passes: Vec<Vec<BatchGrads>> = pooled_map(self.config.num_threads, &parts, |part| {
            unions(part, part.len(), |&i| source.num_nodes(i))
                .into_iter()
                .map(|span| {
                    let tensors: Vec<Cow<'_, SubgraphTensor>> = span
                        .iter()
                        .map(|&i| {
                            let tensor = source.tensor(i);
                            if let Cow::Owned(_) = tensor {
                                rebuilds.incr();
                            }
                            tensor
                        })
                        .collect();
                    let union = TensorBatch::union(&tensors);
                    drop(tensors);
                    let labels: Vec<f64> = span.iter().map(|&i| source.label(i)).collect();
                    self.backward(&union, &labels)
                })
                .collect()
        });
        let mut losses = Vec::with_capacity(batch.len());
        let mut convs: Vec<ConvGrads> = self.convs.iter().map(ConvGrads::zeros_like).collect();
        let mut head = self.head.zero_gradients();
        for pass in passes.into_iter().flatten() {
            losses.extend(pass.losses);
            for (total, per_example) in convs.iter_mut().zip(&pass.convs) {
                for g in per_example {
                    total.add(g);
                }
            }
            self.head.add_gradients(&pass.head, &mut head);
        }
        (losses, convs, head)
    }

    /// Probability in `[0, 1]` that the candidate link is real.
    pub fn score(&self, graph: &SubgraphTensor) -> f64 {
        sigmoid(self.logit(graph))
    }

    /// Scores a batch of candidate links (`out[i]` belongs to `graphs[i]`).
    /// The graphs split into one contiguous part per `config.num_threads`
    /// worker, and each part runs the staged forward pass on unions of up
    /// to `config.batch_size` graphs. Output order (and every value,
    /// bit-for-bit) matches the serial [`Self::score`] loop.
    pub fn score_batch(&self, graphs: &[SubgraphTensor]) -> Vec<f64> {
        let _span = autolock_obs::span!("gnn.score_chunk");
        autolock_obs::counter("gnn.scored_links").add(graphs.len() as u64);
        let parts = contiguous_parts(self.config.num_threads, graphs);
        pooled_map(self.config.num_threads, &parts, |part| {
            let mut scores = Vec::with_capacity(part.len());
            for span in unions(
                part,
                self.config.batch_size.max(1),
                SubgraphTensor::num_nodes,
            ) {
                let forward = self.forward(&TensorBatch::union(span));
                scores.extend(forward.head.logits().iter().map(|&l| sigmoid(l)));
            }
            scores
        })
        .concat()
    }

    /// Mean binary cross-entropy over a labelled set (no training).
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and `labels` lengths differ.
    pub fn mean_loss(&self, graphs: &[SubgraphTensor], labels: &[f64]) -> f64 {
        assert_eq!(graphs.len(), labels.len(), "one label per graph required");
        if graphs.is_empty() {
            return 0.0;
        }
        self.score_batch(graphs)
            .into_iter()
            .zip(labels)
            .map(|(p, &y)| binary_cross_entropy(p, y))
            .sum::<f64>()
            / graphs.len() as f64
    }

    /// Test hook: mutable access to a conv layer (finite-difference checks).
    pub fn conv_mut(&mut self, idx: usize) -> &mut GraphConv {
        &mut self.convs[idx]
    }

    /// Test hook: mutable access to the dense head.
    pub fn head_mut(&mut self) -> &mut DenseStack {
        &mut self.head
    }

    /// Test hook: all parameter gradients of one example as
    /// `(per-conv grads, dense-head grads, loss)` for gradient checking: the
    /// staged step on a one-example batch.
    pub fn example_gradients(
        &self,
        graph: &SubgraphTensor,
        label: f64,
    ) -> (Vec<ConvGrads>, DenseGrads, f64) {
        let pass = self.backward(&TensorBatch::single(graph), &[label]);
        let mut head = self.head.zero_gradients();
        self.head.add_gradients(&pass.head, &mut head);
        let convs = pass
            .convs
            .into_iter()
            .map(|mut g| g.pop().expect("one example"))
            .collect();
        (convs, head, pass.losses[0])
    }

    /// Test hook: one training mini-batch over all of `graphs`, as
    /// [`Dgcnn::train_source`] runs it before the Adam step: each example's
    /// loss, and the conv and head gradients summed in example order (not
    /// yet scaled by the batch size).
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and `labels` lengths differ or are empty.
    pub fn step_gradients(
        &self,
        graphs: &[SubgraphTensor],
        labels: &[f64],
    ) -> (Vec<f64>, Vec<ConvGrads>, DenseGrads) {
        assert!(!graphs.is_empty(), "a mini-batch needs an example");
        let batch: Vec<usize> = (0..graphs.len()).collect();
        let rebuilds = autolock_obs::counter("gnn.tensor_rebuilds");
        self.minibatch(&SliceSource::new(graphs, labels), &batch, &rebuilds)
    }

    /// The loss of one example (for finite differences).
    pub fn example_loss(&self, graph: &SubgraphTensor, label: f64) -> f64 {
        binary_cross_entropy(self.score(graph), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_split_by_count_and_rows() {
        let rows = |&n: &usize| n;
        // By count: runs of at most 3 items.
        let items = [10usize; 7];
        let spans: Vec<usize> = unions(&items, 3, rows).iter().map(|s| s.len()).collect();
        assert_eq!(spans, vec![3, 3, 1]);
        // By rows: a run closes before it would pass MAX_UNION_ROWS, and
        // an item bigger than the cap runs alone.
        let items = [300, 200, 100, 600, 12, 500];
        let spans: Vec<&[usize]> = unions(&items, items.len(), rows);
        assert_eq!(spans, vec![&[300, 200][..], &[100], &[600], &[12, 500]]);
        assert!(unions(&[] as &[usize], 4, rows).is_empty());
    }
}
