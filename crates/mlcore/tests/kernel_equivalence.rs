//! The blocked-kernel contract: `Matrix::matmul` / `matmul_tn` / `matmul_nt`
//! (cache-blocked, register-tiled) are **bit-for-bit** equal to the naive
//! reference loops for every shape — compared with `f64::to_bits`, so even a
//! signed-zero difference would fail. Shapes range over degenerate 0/1-dim
//! cases up to sizes that straddle the `MR`/`NR` register tiles; a
//! dedicated case runs depth and width past 128, and another the shapes the
//! MuxLink models multiply.

use autolock_mlcore::{kernels, Matrix};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::random(rows, cols, 1.0, &mut rng)
}

fn assert_bits_eq(blocked: &Matrix, naive: &Matrix) {
    assert_eq!(blocked.rows(), naive.rows());
    assert_eq!(blocked.cols(), naive.cols());
    for (i, (b, n)) in blocked.data().iter().zip(naive.data()).enumerate() {
        assert_eq!(
            b.to_bits(),
            n.to_bits(),
            "element {i} diverged: blocked {b} vs naive {n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `A·B` blocked vs naive over random shapes, including 0- and 1-dim
    /// degenerate cases (empty operands, single rows/columns).
    fn blocked_matmul_matches_naive_bitwise(
        m in 0usize..36,
        k in 0usize..36,
        n in 0usize..36,
        seed in proptest::any::<u64>(),
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed ^ 0x9e37_79b9_7f4a_7c15);
        assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));
    }

    /// `Aᵀ·B` blocked (packed transpose + nn kernel) vs the naive
    /// implicit-transpose loop.
    fn blocked_matmul_tn_matches_naive_bitwise(
        k in 0usize..36,
        m in 0usize..36,
        n in 0usize..36,
        seed in proptest::any::<u64>(),
    ) {
        let a = random_matrix(k, m, seed);
        let b = random_matrix(k, n, seed ^ 0x51a9_b0c3);
        assert_bits_eq(&a.matmul_tn(&b), &a.matmul_tn_naive(&b));
    }

    /// `A·Bᵀ` blocked (interleaved B panel, NR simultaneous dot products)
    /// vs the naive per-element dot product.
    fn blocked_matmul_nt_matches_naive_bitwise(
        m in 0usize..36,
        k in 0usize..36,
        n in 0usize..36,
        seed in proptest::any::<u64>(),
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(n, k, seed ^ 0xabc_def);
        assert_bits_eq(&a.matmul_nt(&b), &a.matmul_nt_naive(&b));
    }
}

/// Shapes past 128 in every dimension, with `MR`/`NR` remainders (the
/// 128-deep, 128-wide and 64-row panels of an earlier, packing kernel): the
/// proptest shapes above stay small for speed, so this pins long chains
/// and wide rows explicitly.
#[test]
fn blocked_kernels_match_naive_across_panel_boundaries() {
    let (m, k, n) = (64 + 7, 128 + 13, 128 + kernels::NR + 3);
    let a = random_matrix(m, k, 1);
    let b = random_matrix(k, n, 2);
    assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));

    let at = random_matrix(k, m, 3);
    assert_bits_eq(&at.matmul_tn(&b), &at.matmul_tn_naive(&b));

    let bt = random_matrix(n, k, 4);
    assert_bits_eq(&a.matmul_nt(&bt), &a.matmul_nt_naive(&bt));
}

/// The dropped zero-skip branch must not resurface: a left operand riddled
/// with exact zeros still produces bit-identical results (the IEEE edge the
/// old skip silently changed: `acc + (-0.0)` and `0.0 * negative`).
#[test]
fn zero_heavy_operands_stay_bitwise_equal() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut a = Matrix::random(33, 17, 1.0, &mut rng);
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if (r + c) % 3 != 0 {
                a.set(r, c, 0.0);
            }
        }
    }
    let b = Matrix::random(17, 21, 1.0, &mut rng);
    assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b));
    let b_tn = Matrix::random(33, 21, 1.0, &mut rng);
    assert_bits_eq(&a.matmul_tn(&b_tn), &a.matmul_tn_naive(&b_tn));
    let b_nt = Matrix::random(21, 17, 1.0, &mut rng);
    assert_bits_eq(&a.matmul_nt(&b_nt), &a.matmul_nt_naive(&b_nt));
}

/// A matrix whose entries mix ordinary values with the IEEE edge cases a
/// reordered or skipped accumulation would expose: `+0.0`, `-0.0` and
/// subnormals of both signs.
fn edge_case_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let specials = [0.0, -0.0, f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 3.0];
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..8usize) {
            i @ 0..=3 => specials[i],
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-interleaved `matvec` vs a serial per-row dot product, over
    /// every row count mod 4 (so both the 4-row blocks and the remainder
    /// rows are covered) and inputs riddled with signed zeros and
    /// subnormals.
    fn matvec_matches_serial_row_dots_bitwise(
        rows in 0usize..10,
        cols in 0usize..41,
        seed in proptest::any::<u64>(),
    ) {
        let a = edge_case_matrix(rows, cols, seed);
        let x = edge_case_matrix(1, cols, seed ^ 0x2545_f491_4f6c_dd1d);
        let got = a.matvec(x.row(0));
        prop_assert_eq!(got.len(), rows);
        for (r, g) in got.iter().enumerate() {
            let mut reference = 0.0;
            for (a, b) in a.row(r).iter().zip(x.row(0)) {
                reference += a * b;
            }
            prop_assert_eq!(g.to_bits(), reference.to_bits(), "row {}", r);
        }
    }
}

/// Every row's chain starts from `+0.0`, in the 4-row blocks and the
/// remainder rows alike: a row of `-0.0` against a positive vector sums
/// `-0.0` products only, and `0.0 + (-0.0)` must leave `+0.0`.
#[test]
fn matvec_rows_of_negative_zeros_sum_to_positive_zero() {
    for rows in 0..10 {
        for cols in 1..6 {
            let a = Matrix::from_vec(rows, cols, vec![-0.0; rows * cols]);
            let got = a.matvec(&vec![1.0; cols]);
            assert!(
                got.iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
                "{rows}x{cols}: {got:?}"
            );
        }
    }
}

/// The per-example chains the mini-batch MLP step must reproduce, checked
/// against one batch: `a` is `b × inputs` (one example per row), `w` is the
/// `outputs × inputs` weight matrix and `delta` is `b × outputs`.
fn assert_batched_products_match_per_example_chains(a: &Matrix, w: &Matrix, delta: &Matrix) {
    // Forward: row `r` of `A·Wᵀ` is the `matvec` of example `r`.
    let z = a.matmul_nt(w);
    for r in 0..a.rows() {
        for (c, (g, e)) in z.row(r).iter().zip(w.matvec(a.row(r))).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "forward ({r}, {c})");
        }
    }

    // Weight gradient: `Δᵀ·A` is the running sum of the examples' outer
    // products `1.0·δ ⊗ a`, from zeros in example order.
    let grad = delta.matmul_tn(a);
    let mut reference = Matrix::zeros(w.rows(), w.cols());
    for s in 0..a.rows() {
        for (r, &d) in delta.row(s).iter().enumerate() {
            let d = 1.0 * d;
            for (entry, x) in reference.row_mut(r).iter_mut().zip(a.row(s)) {
                *entry += d * x;
            }
        }
    }
    assert_bits_eq(&grad, &reference);

    // Back-propagated delta: row `s` of `Δ·W` is the `matvec_t` of
    // example `s`.
    let back = delta.matmul(w);
    for s in 0..delta.rows() {
        for (c, (g, e)) in back.row(s).iter().zip(w.matvec_t(delta.row(s))).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "backward ({s}, {c})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each batched product equals the per-example loop it replaced in the
    /// MLP step, bit for bit, on operands riddled with signed zeros and
    /// subnormals, over batch sizes and widths that straddle the `MR`/`NR`
    /// register tiles.
    fn batched_mlp_products_match_per_example_chains(
        batch in 0usize..40,
        inputs in 1usize..20,
        outputs in 1usize..20,
        seed in proptest::any::<u64>(),
    ) {
        let a = edge_case_matrix(batch, inputs, seed);
        let w = edge_case_matrix(outputs, inputs, seed ^ 0x6a09_e667_f3bc_c908);
        let delta = edge_case_matrix(batch, outputs, seed ^ 0xbb67_ae85_84ca_a73b);
        assert_batched_products_match_per_example_chains(&a, &w, &delta);
    }
}

/// A batch deeper than 128: the weight gradient's example chain must run
/// in example order however long it is.
#[test]
fn batched_mlp_products_match_per_example_chains_across_panels() {
    let batch = 128 + 9;
    let a = edge_case_matrix(batch, 2 * kernels::NR + 3, 11);
    let w = edge_case_matrix(13, 2 * kernels::NR + 3, 12);
    let delta = edge_case_matrix(batch, 13, 13);
    assert_batched_products_match_per_example_chains(&a, &w, &delta);
}

/// The one-row (`m = 1`), one-column (`n = 1`) and depth-one (`k = 1`)
/// products, most of which the entry points hand to the vector kernels
/// (one-row `nn` and `tn` run the tiled body one row at a time), against
/// the naive loops, on operands with signed zeros and subnormals. `nn` and `tn`
/// add to an output that already holds a partial sum (signed zeros
/// included), so each chain must continue from it; `nt` overwrites an output
/// filled with stale values. The last shape is a row-blocked `nt` with two
/// `MR` blocks, a remainder row and a `w < NR` strip.
#[test]
fn degenerate_shape_routes_match_naive_at_ieee_edges() {
    use kernels::{MR, NR};
    type Kernel = fn(usize, usize, usize, &[f64], &[f64], &mut [f64]);
    let pairs: [(&str, Kernel, Kernel); 3] = [
        ("nn", kernels::matmul_nn, kernels::matmul_nn_naive),
        ("tn", kernels::matmul_tn, kernels::matmul_tn_naive),
        ("nt", kernels::matmul_nt, kernels::matmul_nt_naive),
    ];
    let shapes = [
        (1, 1, 1),
        (1, 0, 5),
        (5, 0, 1),
        (1, 7, 2 * NR + 3),
        (1, 128 + 5, 3),
        (2 * MR + 3, 7, 1),
        (MR, 128 + 5, 1),
        (2 * MR + 3, 1, 2 * NR + 3),
        (2 * MR + 1, 7, NR + 3),
    ];
    for (seed, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 3 * seed as u64;
        let a = edge_case_matrix(m, k, seed);
        let b = edge_case_matrix(k, n, seed + 1);
        let start = edge_case_matrix(m, n, seed + 2);
        for (name, routed, naive) in pairs {
            // `tn` reads its operands as `(k, m, n)`; the element counts are
            // the same. `nt` overwrites, so start it from stale values.
            let (d0, d1) = if name == "tn" { (k, m) } else { (m, k) };
            let mut got = start.data().to_vec();
            let mut want = start.data().to_vec();
            if name == "nt" {
                got.fill(7.0);
                want.fill(7.0);
            }
            routed(d0, d1, n, a.data(), b.data(), &mut got);
            naive(d0, d1, n, a.data(), b.data(), &mut want);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name} {m}x{k}x{n}, element {i}: {g} vs {w}"
                );
            }
        }
    }
}

/// The shapes the MuxLink models multiply, tiled against the naive loops
/// on operands with signed zeros and subnormals, into an output that
/// already holds a partial sum (signed zeros and subnormals included), so
/// each chain must continue from it:
///
/// * the MLP weight gradient `Δᵀ·A`, `16 × 66` at batch depth 32 and at the
///   ragged last batch's depth 24 (`66` ends in a strip narrower than `NR`);
/// * the DGCNN conv `ÂX·W` of a 348-row and of a full 512-row union;
/// * the dense head's `16 × 32 · 32 × 330` and its gradient `Uᵀ·Δ` at
///   depth 16, `32 × 330`;
/// * a per-example conv gradient at depth 30, `22 × 16`.
#[test]
fn workload_shapes_match_naive_from_a_partial_sum() {
    // (product, rows of `out`, depth, columns of `out`)
    let shapes = [
        ("tn", 16, 32, 66),
        ("tn", 16, 24, 66),
        ("nn", 348, 22, 16),
        ("nn", 512, 16, 16),
        ("nn", 16, 32, 330),
        ("tn", 32, 16, 330),
        ("tn", 22, 30, 16),
    ];
    for (seed, &(name, m, k, n)) in shapes.iter().enumerate() {
        let seed = 100 + 3 * seed as u64;
        let b = edge_case_matrix(k, n, seed + 1);
        let start = edge_case_matrix(m, n, seed + 2);
        let mut got = start.data().to_vec();
        let mut want = start.data().to_vec();
        if name == "nn" {
            let a = edge_case_matrix(m, k, seed);
            kernels::matmul_nn(m, k, n, a.data(), b.data(), &mut got);
            kernels::matmul_nn_naive(m, k, n, a.data(), b.data(), &mut want);
        } else {
            let a = edge_case_matrix(k, m, seed);
            kernels::matmul_tn(k, m, n, a.data(), b.data(), &mut got);
            kernels::matmul_tn_naive(k, m, n, a.data(), b.data(), &mut want);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name} {m}x{k}x{n}, element {i}: {g} vs {w}"
            );
        }
    }
}
