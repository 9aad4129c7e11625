//! The full DGCNN: conv stack → channel concat → SortPooling → dense head.

use crate::conv::{ConvCache, ConvGrads, GraphConv};
use crate::dense::{DenseGrads, DenseStack, HeadFactors};
use crate::sortpool::{SortPoolK, SortPooling};
use crate::stream::{GraphSource, SliceSource, SourceTensor};
use crate::{LinkPredictor, SubgraphTensor};
use autolock_mlcore::optim::AdamParams;
use autolock_mlcore::parallel::pooled_map;
use autolock_mlcore::{binary_cross_entropy, sigmoid, Matrix};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

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

/// One example's backward pass: its loss, the conv parameter gradients,
/// and the dense head's gradient in factored form.
struct ExampleGrads {
    loss: f64,
    convs: Vec<ConvGrads>,
    head: HeadFactors,
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
        self.forward(graph).2.logit()
    }

    #[allow(clippy::type_complexity)]
    fn forward(
        &self,
        graph: &SubgraphTensor,
    ) -> (
        Vec<ConvCache>,
        crate::sortpool::SortPoolCache,
        crate::dense::DenseCache,
    ) {
        let mut caches: Vec<ConvCache> = Vec::with_capacity(self.convs.len());
        for conv in &self.convs {
            let input = caches
                .last()
                .map(|c: &ConvCache| &c.output)
                .unwrap_or(graph.features());
            caches.push(conv.forward(graph, input));
        }
        // Channel-wise concatenation of every conv output. The sort channel
        // (last column of the last conv) ends up as the last column overall.
        let n = graph.num_nodes();
        let total: usize = self.convs.iter().map(GraphConv::out_dim).sum();
        let mut concat = Matrix::zeros(n, total);
        let mut offset = 0;
        for cache in &caches {
            let w = cache.output.cols();
            for r in 0..n {
                concat.row_mut(r)[offset..offset + w].copy_from_slice(cache.output.row(r));
            }
            offset += w;
        }
        let (pooled, pool_cache) = self.pool.forward(&concat);
        // Row-major storage: the pooled matrix's data is the flattened head
        // input.
        let head_cache = self.head.forward(pooled.data());
        (caches, pool_cache, head_cache)
    }

    /// Forward + backward on one example.
    fn forward_backward(&self, graph: &SubgraphTensor, label: f64) -> ExampleGrads {
        let (conv_caches, pool_cache, head_cache) = self.forward(graph);
        let logit = head_cache.logit();
        let p = sigmoid(logit);
        let loss = binary_cross_entropy(p, label);

        // dL/dlogit for sigmoid + BCE.
        let (head, grad_flat) = self.head.backward(head_cache, p - label);

        // Un-flatten into the pooled matrix shape and push through the pool.
        let total: usize = self.convs.iter().map(GraphConv::out_dim).sum();
        let grad_pooled = Matrix::from_vec(self.pool.k(), total, grad_flat);
        let grad_concat = self.pool.backward(&pool_cache, &grad_pooled);

        // Split the concat gradient per conv layer, then walk the stack
        // backwards: layer i receives its concat slice plus whatever layer
        // i+1 propagated into its input. Layer 0's input is the constant
        // node features, so its input gradient is never formed.
        let n = graph.num_nodes();
        let mut conv_grads: Vec<Option<ConvGrads>> = (0..self.convs.len()).map(|_| None).collect();
        let mut carried: Option<Matrix> = None;
        let mut offset_end = total;
        for idx in (0..self.convs.len()).rev() {
            let w = self.convs[idx].out_dim();
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
            let conv = &self.convs[idx];
            let (grads, grad_z) = conv.param_backward(&conv_caches[idx], &grad_out);
            if idx > 0 {
                carried = Some(conv.input_backward(graph, &grad_z));
            }
            conv_grads[idx] = Some(grads);
            offset_end = offset;
        }
        ExampleGrads {
            loss,
            convs: conv_grads
                .into_iter()
                .map(|g| g.expect("every conv visited"))
                .collect(),
            head,
        }
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
    /// mini-batch chunk at a time, so at most one chunk of subgraph tensors
    /// (plus its per-example gradients) is alive at any moment — peak
    /// memory no longer scales with the training-set size. Owned tensors are
    /// recycled back into the source the moment their example's pass
    /// finishes; per-example forward/backward intermediates drop inside the
    /// worker closure, before gradient reduction.
    ///
    /// Determinism: per-example passes within a chunk fan across
    /// `config.num_threads` rayon threads through the order-preserving
    /// pooled map, and the per-example gradients are reduced **in fixed
    /// example order** before the Adam step (the dense head's weight
    /// gradients as one `Uᵀ·Δ` product per layer, whose kernel accumulates
    /// in example order too) — so the training trajectory is
    /// bit-for-bit identical for every thread count, and (for a pure source)
    /// bit-for-bit identical to training on the materialized tensor set.
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
                // Fan the independent per-example passes across the shared
                // pooled map (order-preserving): each worker materializes
                // its example's tensor, runs the pass, and recycles the
                // tensor before returning — only the loss, the conv
                // gradients and the head factors survive into the
                // reduction, which stays serial and in example order.
                let passes: Vec<ExampleGrads> = pooled_map(self.config.num_threads, batch, |&i| {
                    let tensor = source.tensor(i);
                    let pass = self.forward_backward(&tensor, source.label(i));
                    if let SourceTensor::Owned(t) = tensor {
                        rebuilds.incr();
                        source.recycle(t);
                    }
                    pass
                });
                let scale = 1.0 / batch.len() as f64;
                let mut convs: Vec<ConvGrads> =
                    self.convs.iter().map(ConvGrads::zeros_like).collect();
                for pass in &passes {
                    epoch_loss += pass.loss;
                    for (total, g) in convs.iter_mut().zip(&pass.convs) {
                        total.add(g);
                    }
                }
                let mut head = self.head.batch_gradients(passes.iter().map(|p| &p.head));
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
        graphs
            .iter()
            .zip(labels)
            .map(|(g, &y)| binary_cross_entropy(self.score(g), y))
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
    /// `(per-conv grads, dense-head grads, loss)` for gradient checking.
    pub fn example_gradients(
        &self,
        graph: &SubgraphTensor,
        label: f64,
    ) -> (Vec<ConvGrads>, DenseGrads, f64) {
        let pass = self.forward_backward(graph, label);
        let head = self.head.batch_gradients([&pass.head]);
        (pass.convs, head, pass.loss)
    }

    /// The loss of one example (for finite differences).
    pub fn example_loss(&self, graph: &SubgraphTensor, label: f64) -> f64 {
        binary_cross_entropy(self.score(graph), label)
    }
}

impl LinkPredictor for Dgcnn {
    fn fit(&mut self, graphs: &[SubgraphTensor], labels: &[f64], rng: &mut dyn RngCore) -> f64 {
        // Derive an owned RNG so `dyn RngCore` callers stay deterministic.
        let mut rng = ChaCha8Rng::seed_from_u64(rng.next_u64());
        self.train(graphs, labels, &mut rng)
    }

    fn score(&self, graph: &SubgraphTensor) -> f64 {
        sigmoid(self.logit(graph))
    }

    /// Scores a batch of candidate links, fanning the independent forward
    /// passes across `config.num_threads` rayon threads. Output order (and
    /// every value, bit-for-bit) matches the serial [`Self::score`] loop.
    fn score_batch(&self, graphs: &[SubgraphTensor]) -> Vec<f64> {
        let _span = autolock_obs::span!("gnn.score_chunk");
        autolock_obs::counter("gnn.scored_links").add(graphs.len() as u64);
        pooled_map(self.config.num_threads, graphs, |g| sigmoid(self.logit(g)))
    }
}
