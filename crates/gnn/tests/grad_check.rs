//! Finite-difference gradient checks for every trainable DGCNN layer.
//!
//! These are the standalone counterpart of the in-crate smoke checks: each
//! analytic gradient (graph conv weights and biases, the dense head, and the
//! gradient routed through SortPooling — including the adaptive-`k` path and
//! its tie-breaking) is compared against a central finite difference of the
//! actual training loss, so any future kernel rewrite that corrupts
//! backpropagation fails `cargo test` loudly.

use autolock_gnn::{DenseStack, Dgcnn, DgcnnConfig, SortPoolK, SortPooling, SubgraphTensor};
use autolock_mlcore::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const EPS: f64 = 1e-6;

/// Relative-tolerance comparison of a finite difference against an analytic
/// gradient entry.
fn assert_close(fd: f64, analytic: f64, what: &str) {
    assert!(
        (fd - analytic).abs() < 1e-5 * (1.0 + fd.abs().max(analytic.abs())),
        "{what}: fd {fd} vs analytic {analytic}"
    );
}

/// A small random connected graph tensor with `n` nodes and `f` features.
/// Features are continuous random values (no ties), so the SortPooling order
/// is stable under finite-difference perturbations.
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

fn config(feature_dim: usize, k: SortPoolK) -> DgcnnConfig {
    DgcnnConfig {
        node_feature_dim: feature_dim,
        conv_channels: vec![5, 4, 1],
        sortpool_k: k,
        dense_hidden: vec![6],
        epochs: 5,
        batch_size: 8,
        learning_rate: 0.01,
        l2: 0.0,
        num_threads: 1,
    }
}

/// Finite-difference check of every conv layer's weight AND bias gradients
/// through tanh, channel concatenation, SortPooling and the dense head.
#[test]
fn conv_weight_and_bias_gradients_match_finite_differences() {
    let graph = random_graph(9, 6, 101);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut model = Dgcnn::new(config(6, SortPoolK::Fixed(6)), &mut rng);
    for &label in &[0.0, 1.0] {
        let (conv_grads, _, _) = model.example_gradients(&graph, label);
        for (layer, layer_grads) in conv_grads.iter().enumerate() {
            let weights = layer_grads.weights.clone();
            for r in 0..weights.rows() {
                for c in 0..weights.cols() {
                    let original = model.conv_mut(layer).weights().get(r, c);
                    model
                        .conv_mut(layer)
                        .weights_mut()
                        .set(r, c, original + EPS);
                    let up = model.example_loss(&graph, label);
                    model
                        .conv_mut(layer)
                        .weights_mut()
                        .set(r, c, original - EPS);
                    let down = model.example_loss(&graph, label);
                    model.conv_mut(layer).weights_mut().set(r, c, original);
                    assert_close(
                        (up - down) / (2.0 * EPS),
                        weights.get(r, c),
                        &format!("conv {layer} weight ({r},{c}), label {label}"),
                    );
                }
            }
            let bias = layer_grads.bias.clone();
            for (j, &analytic) in bias.iter().enumerate() {
                let original = model.conv_mut(layer).bias_mut()[j];
                model.conv_mut(layer).bias_mut()[j] = original + EPS;
                let up = model.example_loss(&graph, label);
                model.conv_mut(layer).bias_mut()[j] = original - EPS;
                let down = model.example_loss(&graph, label);
                model.conv_mut(layer).bias_mut()[j] = original;
                assert_close(
                    (up - down) / (2.0 * EPS),
                    analytic,
                    &format!("conv {layer} bias {j}, label {label}"),
                );
            }
        }
    }
}

/// Finite-difference check of the dense head's weight and bias gradients for
/// every layer (hidden ReLU layers and the final linear logit).
#[test]
fn dense_head_gradients_match_finite_differences() {
    let graph = random_graph(8, 5, 103);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut model = Dgcnn::new(config(5, SortPoolK::Fixed(5)), &mut rng);
    let label = 1.0;
    let (_, head_grads, _) = model.example_gradients(&graph, label);
    let weight_grads: Vec<Matrix> = head_grads.layer_weights().to_vec();
    let bias_grads: Vec<Vec<f64>> = head_grads.layer_biases().to_vec();
    let num_layers = model.head_mut().num_layers();
    assert_eq!(weight_grads.len(), num_layers);
    for layer in 0..num_layers {
        let (rows, cols) = model.head_mut().layer_shape(layer);
        for r in 0..rows {
            for c in 0..cols {
                let original = *model.head_mut().weight_mut(layer, r, c);
                *model.head_mut().weight_mut(layer, r, c) = original + EPS;
                let up = model.example_loss(&graph, label);
                *model.head_mut().weight_mut(layer, r, c) = original - EPS;
                let down = model.example_loss(&graph, label);
                *model.head_mut().weight_mut(layer, r, c) = original;
                assert_close(
                    (up - down) / (2.0 * EPS),
                    weight_grads[layer].get(r, c),
                    &format!("dense {layer} weight ({r},{c})"),
                );
            }
        }
        for (j, &analytic) in bias_grads[layer].iter().enumerate() {
            let original = model.head_mut().bias_mut(layer)[j];
            model.head_mut().bias_mut(layer)[j] = original + EPS;
            let up = model.example_loss(&graph, label);
            model.head_mut().bias_mut(layer)[j] = original - EPS;
            let down = model.example_loss(&graph, label);
            model.head_mut().bias_mut(layer)[j] = original;
            assert_close(
                (up - down) / (2.0 * EPS),
                analytic,
                &format!("dense {layer} bias {j}"),
            );
        }
    }
}

/// The adaptive-`k` path: a model built with [`Dgcnn::for_dataset`] and a
/// percentile `k` must resolve `k` per the DGCNN rule AND keep analytic
/// gradients consistent with finite differences through the resulting
/// SortPooling (several graphs in the check are smaller than `k`, so the
/// zero-padding path is exercised too).
#[test]
fn adaptive_k_model_passes_gradient_check() {
    // Node counts 5..=12; percentile 0.6 → ⌈0.6·8⌉ = 5 graphs must have
    // ≥ k nodes, so k = 5th-largest count = 8 (graphs with 5–7 nodes get
    // zero-padded).
    let graphs: Vec<SubgraphTensor> = (0..8)
        .map(|i| random_graph(5 + i as usize, 6, 200 + i))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut model = Dgcnn::for_dataset(config(6, SortPoolK::Percentile(0.6)), &graphs, &mut rng);
    assert_eq!(model.config().sortpool_k, SortPoolK::Fixed(8));

    for (gi, graph) in graphs.iter().enumerate() {
        let label = f64::from(gi % 2 == 0);
        let (conv_grads, _, _) = model.example_gradients(graph, label);
        // Spot-check the first conv layer's full weight gradient per graph;
        // deeper layers are covered by the fixed-k test above.
        let weights = conv_grads[0].weights.clone();
        for r in 0..weights.rows() {
            for c in 0..weights.cols() {
                let original = model.conv_mut(0).weights().get(r, c);
                model.conv_mut(0).weights_mut().set(r, c, original + EPS);
                let up = model.example_loss(graph, label);
                model.conv_mut(0).weights_mut().set(r, c, original - EPS);
                let down = model.example_loss(graph, label);
                model.conv_mut(0).weights_mut().set(r, c, original);
                assert_close(
                    (up - down) / (2.0 * EPS),
                    weights.get(r, c),
                    &format!("graph {gi} (n = {}) conv 0 ({r},{c})", graph.num_nodes()),
                );
            }
        }
    }
}

/// Standalone SortPooling check: for distinct sort keys the backward pass is
/// the exact adjoint of the forward selection, verified entry-by-entry with
/// finite differences of `Σ G ∘ pool(X)`.
#[test]
fn sortpool_backward_is_the_adjoint_of_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let n = 7;
    let f = 4;
    let k = 5;
    let mut x = Matrix::zeros(n, f);
    for r in 0..n {
        for c in 0..f {
            x.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let mut g = Matrix::zeros(k, f);
    for r in 0..k {
        for c in 0..f {
            g.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let pool = SortPooling::new(k);
    let objective = |x: &Matrix| -> f64 {
        let (y, _) = pool.forward(x, 0..n);
        let mut total = 0.0;
        for r in 0..k {
            for c in 0..f {
                total += g.get(r, c) * y.get(r, c);
            }
        }
        total
    };
    let (_, cache) = pool.forward(&x, 0..n);
    let mut grad = Matrix::zeros(n, f);
    pool.backward(&cache, g.data(), &mut grad);
    for r in 0..n {
        for c in 0..f {
            let original = x.get(r, c);
            x.set(r, c, original + EPS);
            let up = objective(&x);
            x.set(r, c, original - EPS);
            let down = objective(&x);
            x.set(r, c, original);
            assert_close(
                (up - down) / (2.0 * EPS),
                grad.get(r, c),
                &format!("sortpool input ({r},{c})"),
            );
        }
    }
}

/// Tie-breaking: equal sort keys are ordered by node index (the determinism
/// contract), and the backward scatter follows exactly that selection — the
/// kept lower-index rows receive the gradient, the dropped rows none.
#[test]
fn sortpool_tie_breaking_is_by_node_index_and_routes_gradients() {
    // Four rows, all sharing the same sort-channel value; k = 2 keeps
    // rows 0 and 1 by the index tie-break.
    let x = Matrix::from_vec(
        4,
        2,
        vec![
            10.0, 0.5, //
            20.0, 0.5, //
            30.0, 0.5, //
            40.0, 0.5,
        ],
    );
    let pool = SortPooling::new(2);
    let (y, cache) = pool.forward(&x, 0..4);
    assert_eq!(cache.selected, vec![Some(0), Some(1)]);
    assert_eq!(y.row(0), &[10.0, 0.5]);
    assert_eq!(y.row(1), &[20.0, 0.5]);
    let mut grad = Matrix::zeros(4, 2);
    pool.backward(&cache, &[1.0, 2.0, 3.0, 4.0], &mut grad);
    assert_eq!(grad.row(0), &[1.0, 2.0]);
    assert_eq!(grad.row(1), &[3.0, 4.0]);
    assert_eq!(grad.row(2), &[0.0, 0.0]);
    assert_eq!(grad.row(3), &[0.0, 0.0]);

    // A partial tie at the selection boundary resolves the same way: with
    // keys [9, 5, 5, 5] and k = 2, row 0 wins outright and row 1 wins the
    // three-way tie.
    let x = Matrix::from_vec(4, 1, vec![9.0, 5.0, 5.0, 5.0]);
    let (_, cache) = SortPooling::new(2).forward(&x, 0..4);
    assert_eq!(cache.selected, vec![Some(0), Some(1)]);
}

/// The row-batched head's weight gradient (one `Uᵀ·Δ` product per layer,
/// straight from the stacked matrices of the backward pass) is bit-for-bit
/// the example-order sum of per-example materialized outer products, and
/// its bias gradient the example-order sum of per-example bias gradients.
/// The inputs come from SortPooling over graphs smaller than `k`, so
/// zero-padded rows meet negative deltas, and the hidden ReLU layer has
/// dead units whose zero deltas meet negative inputs: both give `-0.0`
/// products, which the batched sum must absorb exactly as the per-example
/// `0.0 + (-0.0)` does. Each batch is also added as two halves, as a
/// mini-batch split across threads is, with the same bits.
#[test]
fn batched_head_gradient_matches_example_order_sum_bitwise() {
    let (k, channels) = (6, 3);
    let pool = SortPooling::new(k);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let head = DenseStack::new(k * channels, &[8], &mut rng);
    let (mut padded_zero_products, mut dead_unit_zero_products) = (0, 0);
    for batch_size in [1, 5, 16] {
        let mut pooled_rows = Vec::with_capacity(batch_size * k * channels);
        for e in 0..batch_size {
            let x = Matrix::random(2 + e % 7, channels, 1.0, &mut rng);
            pooled_rows.extend_from_slice(pool.forward(&x, 0..x.rows()).0.data());
        }
        let input = Matrix::from_vec(batch_size, k * channels, pooled_rows);
        let grad_logits: Vec<f64> = (0..batch_size).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (pass, _) = head.backward(head.forward(input.clone()), &grad_logits);
        let mut batched = head.zero_gradients();
        head.add_gradients(&pass, &mut batched);

        let split = batch_size / 2;
        let half = |rows: std::ops::Range<usize>| {
            let slice = Matrix::from_vec(
                rows.len(),
                k * channels,
                input.data()[rows.start * k * channels..rows.end * k * channels].to_vec(),
            );
            head.backward(head.forward(slice), &grad_logits[rows]).0
        };
        let mut halves = head.zero_gradients();
        head.add_gradients(&half(0..split), &mut halves);
        head.add_gradients(&half(split..batch_size), &mut halves);

        for layer in 0..head.num_layers() {
            let (rows, cols) = head.layer_shape(layer);
            let mut weights = Matrix::zeros(rows, cols);
            let mut bias = vec![0.0; cols];
            let (inputs, deltas) = (&pass.inputs()[layer], &pass.deltas()[layer]);
            for e in 0..batch_size {
                let (u, d) = (inputs.row(e), deltas.row(e));
                let mut example_weights = Matrix::zeros(rows, cols);
                for (r, &ur) in u.iter().enumerate() {
                    for (w, dc) in example_weights.row_mut(r).iter_mut().zip(d) {
                        *w += ur * dc;
                    }
                }
                weights.add_scaled(1.0, &example_weights);
                let mut example_bias = vec![0.0; cols];
                for (b, v) in example_bias.iter_mut().zip(d) {
                    *b += v;
                }
                for (b, v) in bias.iter_mut().zip(&example_bias) {
                    *b += v;
                }
                for &ui in u {
                    for &dj in d {
                        if (ui * dj).to_bits() == (-0.0f64).to_bits() {
                            padded_zero_products += usize::from(ui == 0.0);
                            dead_unit_zero_products += usize::from(dj == 0.0);
                        }
                    }
                }
            }
            for got in [&batched, &halves] {
                let got_weights = &got.layer_weights()[layer];
                for (i, (g, r)) in got_weights.data().iter().zip(weights.data()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "batch {batch_size}, layer {layer}, weight {i}: {g} vs {r}"
                    );
                }
                for (i, (g, r)) in got.layer_biases()[layer].iter().zip(&bias).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "batch {batch_size}, layer {layer}, bias {i}: {g} vs {r}"
                    );
                }
            }
        }
    }
    assert!(
        padded_zero_products > 0,
        "no padded row met a negative delta"
    );
    assert!(
        dead_unit_zero_products > 0,
        "no dead ReLU unit met a negative input"
    );
}
