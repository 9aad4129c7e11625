//! The parallelism/determinism contract: a DGCNN trained with rayon
//! parallelism on or off — and with any thread count — produces bit-for-bit
//! identical losses, predictions and parameters, because per-example passes
//! are independent and gradients are reduced in fixed example order.
//!
//! Also property-tests the tensor-op invariants the parallel kernels rely on
//! (matmul shapes and exactness against the identity, transpose involution,
//! CSR propagation vs a dense reference) over random subgraph batches.

use autolock_gnn::{
    ConvGrads, Dgcnn, DgcnnConfig, GraphSource, SliceSource, SortPoolK, SubgraphTensor,
};
use autolock_mlcore::Matrix;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// Extra thread count folded into every compared set, from the CI
/// thread-matrix leg's `AUTOLOCK_THREADS`. The dev boxes are single-core;
/// the multi-core CI runner is the only machine where `n > 1` workers
/// actually exist, so the matrix leg is what truly exercises the contract.
fn env_threads() -> Option<usize> {
    std::env::var("AUTOLOCK_THREADS").ok()?.parse().ok()
}

/// A small random connected graph tensor with `n` nodes and `f` features.
fn random_graph(n: usize, f: usize, seed: u64) -> SubgraphTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, f);
    for r in 0..n {
        for c in 0..f {
            x.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut adj: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
    for &(a, b) in &edges {
        adj[a].push((b, 1.0));
        adj[b].push((a, 1.0));
    }
    for (i, row) in adj.iter_mut().enumerate() {
        let norm = 1.0 / (degree[i] as f64 + 1.0);
        for e in row.iter_mut() {
            e.1 *= norm;
        }
    }
    SubgraphTensor::from_parts(x, adj)
}

fn dataset(count: usize) -> (Vec<SubgraphTensor>, Vec<f64>) {
    let graphs: Vec<SubgraphTensor> = (0..count)
        .map(|i| random_graph(6 + i % 7, 6, 900 + i as u64))
        .collect();
    let labels: Vec<f64> = (0..count).map(|i| f64::from(i % 2 == 0)).collect();
    (graphs, labels)
}

/// Trains a fresh model with the given thread count and returns
/// `(per-epoch-final loss, all scores)`.
fn train_with_threads(
    num_threads: usize,
    graphs: &[SubgraphTensor],
    labels: &[f64],
) -> (f64, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut model = Dgcnn::new(
        DgcnnConfig {
            epochs: 6,
            batch_size: 8,
            num_threads,
            ..DgcnnConfig::for_features(6)
        },
        &mut rng,
    );
    let loss = model.train(graphs, labels, &mut rng);
    (loss, model.score_batch(graphs))
}

/// The headline guarantee: rayon on (any thread count, including "all
/// cores") vs off — identical losses and identical predictions, compared
/// with exact `==`, no tolerance.
#[test]
fn training_is_bit_identical_across_thread_counts() {
    let (graphs, labels) = dataset(24);
    let (serial_loss, serial_scores) = train_with_threads(1, &graphs, &labels);
    assert!(serial_loss.is_finite());
    for threads in [2, 3, 4, 0].into_iter().chain(env_threads()) {
        let (loss, scores) = train_with_threads(threads, &graphs, &labels);
        assert_eq!(
            loss.to_bits(),
            serial_loss.to_bits(),
            "final loss diverged at num_threads = {threads}"
        );
        assert_eq!(
            scores, serial_scores,
            "predictions diverged at num_threads = {threads}"
        );
    }
}

/// Parallel batch scoring must equal the serial per-graph scoring loop
/// exactly, for the same trained model.
#[test]
fn score_batch_matches_serial_scores_exactly() {
    let (graphs, labels) = dataset(16);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut model = Dgcnn::new(
        DgcnnConfig {
            epochs: 3,
            num_threads: 4,
            ..DgcnnConfig::for_features(6)
        },
        &mut rng,
    );
    model.train(&graphs, &labels, &mut rng);
    let serial: Vec<f64> = graphs.iter().map(|g| model.score(g)).collect();
    assert_eq!(model.score_batch(&graphs), serial);
    assert!(model.score_batch(&[]).is_empty());
}

/// The staged step runs a mini-batch as one disjoint-union graph (or one
/// per worker thread, or several when the subgraphs are large). Its
/// per-example losses and its summed conv and head gradients must equal,
/// bit for bit, the example-order sum of one-example passes, for
/// mini-batches of 1, 5 and 16 examples, at every thread count. Most graphs
/// have 6 to 12 nodes against `k = 10`, so some are zero-padded by
/// SortPooling; three have 150 to 250, so the 16-example batch needs more
/// than one union.
#[test]
fn staged_minibatch_equals_example_order_sum_of_single_examples() {
    let (mut graphs, labels) = dataset(16);
    for (i, n) in [(6, 150), (9, 250), (13, 200)] {
        graphs[i] = random_graph(n, 6, 700 + i as u64);
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in [1, 2, 3, 0].into_iter().chain(env_threads()) {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut model = Dgcnn::new(
            DgcnnConfig {
                epochs: 2,
                batch_size: 4,
                num_threads: threads,
                ..DgcnnConfig::for_features(6)
            },
            &mut rng,
        );
        // A few steps first, so no weight is at its initial value.
        model.train(&graphs, &labels, &mut rng);
        for size in [1, 5, 16] {
            let (graphs, labels) = (&graphs[..size], &labels[..size]);
            assert!(graphs.iter().any(|g| g.num_nodes() < 10));
            let rows: usize = graphs.iter().map(SubgraphTensor::num_nodes).sum();
            // Past the 512-row cap of one union.
            assert_eq!(size == 16, rows > 512);
            let (losses, convs, head) = model.step_gradients(graphs, labels);

            let mut want_convs: Option<Vec<ConvGrads>> = None;
            let mut want_head: Option<(Vec<Matrix>, Vec<Vec<f64>>)> = None;
            for (e, (graph, &label)) in graphs.iter().zip(labels).enumerate() {
                let (example_convs, example_head, loss) = model.example_gradients(graph, label);
                assert_eq!(
                    losses[e].to_bits(),
                    loss.to_bits(),
                    "threads {threads}, batch {size}: loss of example {e}"
                );
                let totals = want_convs.get_or_insert_with(|| {
                    example_convs
                        .iter()
                        .map(|g| ConvGrads {
                            weights: Matrix::zeros(g.weights.rows(), g.weights.cols()),
                            bias: vec![0.0; g.bias.len()],
                        })
                        .collect()
                });
                for (total, g) in totals.iter_mut().zip(&example_convs) {
                    total.add(g);
                }
                let (weights, biases) = want_head.get_or_insert_with(|| {
                    let weights = example_head.layer_weights();
                    (
                        weights
                            .iter()
                            .map(|w| Matrix::zeros(w.rows(), w.cols()))
                            .collect(),
                        weights.iter().map(|w| vec![0.0; w.cols()]).collect(),
                    )
                });
                for (total, w) in weights.iter_mut().zip(example_head.layer_weights()) {
                    total.add_scaled(1.0, w);
                }
                for (total, b) in biases.iter_mut().zip(example_head.layer_biases()) {
                    for (t, v) in total.iter_mut().zip(b) {
                        *t += v;
                    }
                }
            }
            assert_eq!(losses.len(), size);
            let want_convs = want_convs.expect("non-empty batch");
            for (layer, (got, want)) in convs.iter().zip(&want_convs).enumerate() {
                assert_eq!(
                    bits(got.weights.data()),
                    bits(want.weights.data()),
                    "threads {threads}, batch {size}: conv {layer} weights"
                );
                assert_eq!(
                    bits(&got.bias),
                    bits(&want.bias),
                    "threads {threads}, batch {size}: conv {layer} bias"
                );
            }
            let (weights, biases) = want_head.expect("non-empty batch");
            for layer in 0..weights.len() {
                assert_eq!(
                    bits(head.layer_weights()[layer].data()),
                    bits(weights[layer].data()),
                    "threads {threads}, batch {size}: head {layer} weights"
                );
                assert_eq!(
                    bits(&head.layer_biases()[layer]),
                    bits(&biases[layer]),
                    "threads {threads}, batch {size}: head {layer} bias"
                );
            }
        }
    }
}

/// Adaptive-k resolution is a pure function of the dataset, so the whole
/// adaptive pipeline inherits the thread-count guarantee.
#[test]
fn adaptive_k_training_is_deterministic_across_thread_counts() {
    let (graphs, labels) = dataset(12);
    let run = |num_threads: usize| -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut model = Dgcnn::for_dataset(
            DgcnnConfig {
                epochs: 4,
                sortpool_k: SortPoolK::Percentile(0.6),
                num_threads,
                ..DgcnnConfig::for_features(6)
            },
            &graphs,
            &mut rng,
        );
        model.train(&graphs, &labels, &mut rng);
        model.score_batch(&graphs)
    };
    let serial = run(1);
    assert_eq!(run(4), serial);
    assert_eq!(run(0), serial);
    if let Some(threads) = env_threads() {
        assert_eq!(run(threads), serial);
    }
}

// ---------------------------------------------------------------------------
// Streamed vs materialized training
// ---------------------------------------------------------------------------

/// A [`GraphSource`] that rebuilds every tensor on demand into fresh
/// storage — the shape of the attack crate's cache-backed streaming source,
/// without the netlist machinery.
struct RebuildingSource {
    graphs: Vec<SubgraphTensor>,
    labels: Vec<f64>,
}

impl GraphSource for RebuildingSource {
    fn len(&self) -> usize {
        self.graphs.len()
    }

    fn label(&self, idx: usize) -> f64 {
        self.labels[idx]
    }

    fn num_nodes(&self, idx: usize) -> usize {
        self.graphs[idx].num_nodes()
    }

    fn tensor(&self, idx: usize) -> Cow<'_, SubgraphTensor> {
        // Rebuild the tensor: features and adjacency copied into new buffers.
        let reference = &self.graphs[idx];
        let n = reference.num_nodes();
        let f = reference.feature_dim();
        let x = reference.features().data().to_vec();
        let adj: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let (cols, vals) = reference.adj_row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        Cow::Owned(SubgraphTensor::from_parts(Matrix::from_vec(n, f, x), adj))
    }
}

/// The tentpole guarantee of the streamed pipeline: training from a source
/// that materializes (and drops) one tensor per example per epoch is
/// **bit-for-bit identical** — final loss, every prediction — to training
/// on the fully materialized tensor set, at every thread count.
#[test]
fn streamed_training_is_bit_identical_to_materialized() {
    let (graphs, labels) = dataset(20);
    let run = |streamed: bool, threads: usize| -> (f64, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(314);
        let config = DgcnnConfig {
            epochs: 5,
            batch_size: 8,
            num_threads: threads,
            ..DgcnnConfig::for_features(6)
        };
        let mut model = Dgcnn::new(config, &mut rng);
        let loss = if streamed {
            let source = RebuildingSource {
                graphs: graphs.clone(),
                labels: labels.clone(),
            };
            model.train_source(&source, &mut rng)
        } else {
            model.train(&graphs, &labels, &mut rng)
        };
        (loss, model.score_batch(&graphs))
    };
    let (reference_loss, reference_scores) = run(false, 1);
    for threads in [1, 2, 0].into_iter().chain(env_threads()) {
        let (loss, scores) = run(true, threads);
        assert_eq!(
            loss.to_bits(),
            reference_loss.to_bits(),
            "streamed loss diverged at num_threads = {threads}"
        );
        assert_eq!(
            scores, reference_scores,
            "streamed predictions diverged at num_threads = {threads}"
        );
    }
}

/// Adaptive-k resolution from a source (`Dgcnn::for_source`) must agree
/// with slice-based resolution (`Dgcnn::for_dataset`) exactly — same
/// resolved `k`, same init draws, same trained model.
#[test]
fn for_source_matches_for_dataset_exactly() {
    let (graphs, labels) = dataset(10);
    let config = DgcnnConfig {
        epochs: 3,
        sortpool_k: SortPoolK::Percentile(0.6),
        num_threads: 1,
        ..DgcnnConfig::for_features(6)
    };
    let mut rng_a = ChaCha8Rng::seed_from_u64(99);
    let mut a = Dgcnn::for_dataset(config.clone(), &graphs, &mut rng_a);
    let mut rng_b = ChaCha8Rng::seed_from_u64(99);
    let mut b = Dgcnn::for_source(config, &SliceSource::new(&graphs, &labels), &mut rng_b);
    assert_eq!(a.config(), b.config(), "resolved architectures must match");
    let loss_a = a.train(&graphs, &labels, &mut rng_a);
    let loss_b = b.train_source(&SliceSource::new(&graphs, &labels), &mut rng_b);
    assert_eq!(loss_a.to_bits(), loss_b.to_bits());
    assert_eq!(a.score_batch(&graphs), b.score_batch(&graphs));
}

// ---------------------------------------------------------------------------
// Tensor-op invariants over random subgraph batches
// ---------------------------------------------------------------------------

fn identity(n: usize) -> Matrix {
    let mut i = Matrix::zeros(n, n);
    for d in 0..n {
        i.set(d, d, 1.0);
    }
    i
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::random(rows, cols, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `(A·I)·B`, `A·(I·B)` and `A·B` agree exactly (multiplying by the
    /// identity reproduces entries bit-for-bit), and shapes compose as
    /// `(a×b)·(b×c) = a×c`.
    fn matmul_identity_associativity_and_shapes(
        a_rows in 1usize..7,
        inner in 1usize..7,
        b_cols in 1usize..7,
        seed in proptest::any::<u64>(),
    ) {
        let a = random_matrix(a_rows, inner, seed);
        let b = random_matrix(inner, b_cols, seed ^ 0x9e3779b97f4a7c15);
        let ab = a.matmul(&b);
        prop_assert_eq!(ab.rows(), a_rows);
        prop_assert_eq!(ab.cols(), b_cols);
        let ai = a.matmul(&identity(inner));
        prop_assert_eq!(&ai, &a);
        let ib = identity(inner).matmul(&b);
        prop_assert_eq!(&ib, &b);
        prop_assert_eq!(&ai.matmul(&b), &ab);
        prop_assert_eq!(&a.matmul(&ib), &ab);
    }

    /// Transposition is an involution (`Aᵀᵀ = A` exactly) and matches the
    /// implicit-transpose products used by the conv backward pass.
    fn transpose_involution_and_tn_nt_consistency(
        rows in 1usize..9,
        cols in 1usize..9,
        seed in proptest::any::<u64>(),
    ) {
        let a = random_matrix(rows, cols, seed);
        prop_assert_eq!(&a.transpose().transpose(), &a);
        let b = random_matrix(rows, 3, seed ^ 0x51a9_b0c3);
        // Aᵀ·B via matmul_tn equals the explicit transpose product.
        let tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        prop_assert_eq!(tn.rows(), cols);
        for r in 0..tn.rows() {
            for c in 0..tn.cols() {
                prop_assert!((tn.get(r, c) - explicit.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// Over random subgraph batches: CSR propagation equals the dense
    /// reference `Â·M` within 1e-12, and every Â row remains normalized.
    fn csr_propagate_matches_dense_reference(
        n in 3usize..12,
        cols in 1usize..5,
        seed in proptest::any::<u64>(),
    ) {
        let graph = random_graph(n, 4, seed);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let (cs, vs) = graph.adj_row(i);
            let mut row_sum = 0.0;
            for (&j, &w) in cs.iter().zip(vs) {
                dense.set(i, j, dense.get(i, j) + w);
                row_sum += w;
            }
            prop_assert!((row_sum - 1.0).abs() < 1e-12);
        }
        let m = random_matrix(n, cols, seed ^ 0xabcdef);
        let sparse = graph.propagate(&m);
        let reference = dense.matmul(&m);
        for r in 0..n {
            for c in 0..cols {
                prop_assert!((sparse.get(r, c) - reference.get(r, c)).abs() < 1e-12);
            }
        }
        let sparse_t = graph.propagate_transpose(&m);
        let reference_t = dense.transpose().matmul(&m);
        for r in 0..n {
            for c in 0..cols {
                prop_assert!((sparse_t.get(r, c) - reference_t.get(r, c)).abs() < 1e-12);
            }
        }
    }
}
