//! Cache-blocked, register-tiled dense matmul kernels.
//!
//! Every learned model in this workspace (the bagged-MLP MuxLink backend,
//! the DGCNN conv/dense layers) funnels through the
//! three `Matrix::matmul*` products, so this module is the shared hot core.
//! It implements the classic GEBP decomposition: the B operand is packed
//! into contiguous panels, the output is swept in m/n tiles, and an
//! unrolled `NR`-wide column block accumulates in registers so the compiler
//! auto-vectorizes the inner loop. No explicit SIMD intrinsics are used —
//! the fixed-size `[f64; NR]` accumulator arrays are enough for LLVM to emit
//! packed adds/muls on any target.
//!
//! # Bit-for-bit contract
//!
//! Blocked results are **bit-for-bit identical** to the naive reference
//! loops (`*_naive` below), enforced by the proptests in
//! `tests/kernel_equivalence.rs`. The invariant that makes this possible:
//! for every output element, partial products are accumulated **in strictly
//! increasing k order, into a single accumulator, starting from `0.0`** —
//! exactly the order the naive triple loop uses. Blocking is therefore only
//! allowed along dimensions that do not reorder a single element's
//! accumulation chain:
//!
//! * m/n tiling picks *which* output elements a pass computes — always safe;
//! * k panels are processed in increasing order and the micro-kernel resumes
//!   from the partial value already stored in the output, so the chain
//!   `((0 + a₀b₀) + a₁b₁) + …` is preserved term for term;
//! * packing only copies operands; it performs no arithmetic;
//! * Rust never contracts `mul` + `add` into an FMA without an explicit
//!   `mul_add`, so the rounding of every term is unchanged.
//!
//! The old naive loops carried an `if a == 0.0 { continue; }` zero-skip; it
//! cost a branch per inner-loop element in the (overwhelmingly common) dense
//! case and is dropped here. Panel-level sparsity skipping was measured and
//! rejected: the operands these kernels see (He-initialised weights,
//! standardized features, conv aggregates) are dense, and a skipped
//! `acc += 0.0 * b` is not even a bitwise no-op in IEEE 754 (`-0.0 + 0.0`
//! flips sign; `0.0 * inf` is NaN), so skipping would break the contract.
//!
//! # Tuning
//!
//! Block sizes live in the constants below; see `crates/mlcore/README.md`
//! for how they map onto the cache hierarchy and how to retune them. They
//! only affect wall clock, never results.

/// Output columns each register micro-kernel accumulates at once. Eight
/// `f64` accumulators span two AVX2 (or four SSE2) vector registers and
/// leave room for the broadcast `a` value; the compiler unrolls the
/// fixed-size loops over `[f64; NR]` completely.
pub const NR: usize = 8;

/// Depth (shared-k extent) of one packed B panel: `KC × NR` panel columns
/// must stay L1-resident while a row of A streams against them.
pub const KC: usize = 128;

/// Width (output columns) of one packed B panel: a `KC × NC` panel is
/// `128 KiB` and sits in L2 while every row of A is swept over it.
pub const NC: usize = 128;

/// Rows of A swept per tile before moving to the next panel; bounds the
/// working set of partially-accumulated output rows.
pub const MC: usize = 64;

/// Rows of A each register micro-kernel accumulates simultaneously. An
/// `MR × NR` accumulator block amortizes every packed-panel load over `MR`
/// rows; `4 × 8` doubles are 16 vector registers of accumulators on AVX2,
/// leaving the rest for the broadcast A column and the B panel row.
pub const MR: usize = 4;

#[inline]
fn check_dims(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &[f64]) {
    debug_assert_eq!(a.len(), m * k, "A must be m*k");
    debug_assert_eq!(b.len(), k * n, "B must be k*n");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
}

/// Blocked `out += A · B` for row-major `A (m×k)`, `B (k×n)`, `out (m×n)`.
///
/// `out` must be zeroed (or hold a partial sum over a k-prefix) on entry;
/// [`crate::Matrix::matmul`] always passes a fresh zero matrix.
pub fn matmul_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    check_dims(m, k, n, a, b, out);
    gebp(
        m,
        k,
        n,
        #[inline(always)]
        |r, kk| a[r * k + kk],
        b,
        out,
    );
}

/// The shared GEBP driver behind [`matmul_nn`] and [`matmul_tn`]:
/// `out += A' · B` where `a_at(r, kk)` reads the logical (possibly
/// transposed) left operand `A'[r][kk]`. The accessor is only used while
/// packing the `MR`-row A block (a pure copy), so a strided accessor costs
/// one gather per packed element, never per multiply.
#[inline]
fn gebp(
    m: usize,
    k: usize,
    n: usize,
    a_at: impl Fn(usize, usize) -> f64,
    b: &[f64],
    out: &mut [f64],
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let mut panel = vec![0.0f64; KC.min(k) * NC.min(n)];
    let mut apack = vec![0.0f64; KC.min(k) * MR];
    for j0 in (0..n).step_by(NC) {
        let jn = NC.min(n - j0);
        // k panels in increasing order: the micro-kernel resumes from the
        // partial sums already in `out`, so each element's accumulation
        // chain stays in global k order.
        for k0 in (0..k).step_by(KC) {
            let kn = KC.min(k - k0);
            // Pack the B panel as NR-wide column strips, each strip a
            // contiguous kn×w block (`panel[js·kn + kk·w + t] =
            // B[k0+kk][j0+js+t]`): the micro-kernel then streams the panel
            // strictly sequentially instead of striding by `jn`.
            let mut js = 0;
            while js < jn {
                let w = NR.min(jn - js);
                let strip = &mut panel[js * kn..(js + w) * kn];
                for kk in 0..kn {
                    let src = (k0 + kk) * n + j0 + js;
                    strip[kk * w..kk * w + w].copy_from_slice(&b[src..src + w]);
                }
                js += w;
            }
            let panel = &panel[..kn * jn];
            for r0 in (0..m).step_by(MC) {
                let r1 = (r0 + MC).min(m);
                let mut r = r0;
                while r + MR <= r1 {
                    // Pack the MR-row A block interleaved
                    // (`apack[kk·MR + i] = A'[r+i][k0+kk]`) so the micro-
                    // kernel reads one contiguous MR-vector per k step.
                    for kk in 0..kn {
                        for i in 0..MR {
                            apack[kk * MR + i] = a_at(r + i, k0 + kk);
                        }
                    }
                    accumulate_row_block(&apack[..kn * MR], panel, kn, jn, r, n, j0, out);
                    r += MR;
                }
                while r < r1 {
                    for (kk, slot) in apack[..kn].iter_mut().enumerate() {
                        *slot = a_at(r, k0 + kk);
                    }
                    let out_row = &mut out[r * n + j0..r * n + j0 + jn];
                    accumulate_row(&apack[..kn], panel, kn, jn, out_row);
                    r += 1;
                }
            }
        }
    }
}

/// The `MR × NR` register micro-kernel: accumulates
/// `out[r+i][j0+js] += Σ_kk apack[kk, i] · strip[kk, t]` for an `MR`-row
/// block, one NR-wide B strip at a time, streaming both packed operands
/// sequentially. Every output element still owns a single accumulator fed
/// in increasing k order, so blocking rows changes nothing bitwise — it
/// only amortizes each strip load over `MR` rows.
#[inline]
#[allow(clippy::too_many_arguments)] // a micro-kernel's geometry really is 8 scalars
fn accumulate_row_block(
    apack: &[f64],
    panel: &[f64],
    kn: usize,
    jn: usize,
    r: usize,
    n: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut js = 0;
    while js < jn {
        let w = NR.min(jn - js);
        let strip = &panel[js * kn..(js + w) * kn];
        let mut acc = [[0.0f64; NR]; MR];
        for (i, acc_row) in acc.iter_mut().enumerate() {
            acc_row[..w].copy_from_slice(&out[(r + i) * n + j0 + js..][..w]);
        }
        if w == NR {
            for (p, a_col) in strip.chunks_exact(NR).zip(apack.chunks_exact(MR)) {
                for (i, acc_row) in acc.iter_mut().enumerate() {
                    let av = a_col[i];
                    for t in 0..NR {
                        acc_row[t] += av * p[t];
                    }
                }
            }
        } else {
            for (p, a_col) in strip.chunks_exact(w).zip(apack.chunks_exact(MR)) {
                for (i, acc_row) in acc.iter_mut().enumerate() {
                    let av = a_col[i];
                    for (t, &pv) in p.iter().enumerate() {
                        acc_row[t] += av * pv;
                    }
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            out[(r + i) * n + j0 + js..][..w].copy_from_slice(&acc_row[..w]);
        }
        js += w;
    }
}

/// Single-row variant of the micro-kernel for the `m % MR` remainder rows:
/// `out_row[js+t] += Σ_kk a_row[kk] · strip[kk, t]`, k in order.
#[inline]
fn accumulate_row(a_row: &[f64], panel: &[f64], kn: usize, jn: usize, out_row: &mut [f64]) {
    let mut js = 0;
    while js < jn {
        let w = NR.min(jn - js);
        let strip = &panel[js * kn..(js + w) * kn];
        let mut acc = [0.0f64; NR];
        acc[..w].copy_from_slice(&out_row[js..js + w]);
        if w == NR {
            for (p, &av) in strip.chunks_exact(NR).zip(a_row) {
                for t in 0..NR {
                    acc[t] += av * p[t];
                }
            }
        } else {
            for (p, &av) in strip.chunks_exact(w).zip(a_row) {
                for (t, &pv) in p.iter().enumerate() {
                    acc[t] += av * pv;
                }
            }
        }
        out_row[js..js + w].copy_from_slice(&acc[..w]);
        js += w;
    }
}

/// Blocked `out += Aᵀ · B` for row-major `A (k×m)`, `B (k×n)`, `out (m×n)`.
/// Like [`matmul_nn`], `out` must be zeroed on entry for a plain product
/// ([`crate::Matrix::matmul_tn`] always passes fresh zeros).
///
/// Reuses the `gebp` driver with a strided accessor: the transpose never
/// materializes — the A-block packing step gathers the needed column
/// entries directly. Per-element accumulation runs in shared-k order either
/// way, so the result is bit-identical to the naive implicit-transpose loop.
pub fn matmul_tn(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m, "A must be k*m");
    debug_assert_eq!(b.len(), k * n, "B must be k*n");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
    gebp(
        m,
        k,
        n,
        #[inline(always)]
        |r, kk| a[kk * m + r],
        b,
        out,
    );
}

/// Blocked `out = A · Bᵀ` for row-major `A (m×k)`, `B (n×k)`, `out (m×n)`.
///
/// Packs `NR` rows of B interleaved (`panel[kk·w + t] = B[c0+t][kk]`) so the
/// micro-kernel reads both operands contiguously while computing `NR`
/// dot products at once; each product accumulates k in order from `0.0`,
/// matching the naive dot-product loop bit for bit.
pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "A must be m*k");
    debug_assert_eq!(b.len(), n * k, "B must be n*k");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
    if m == 0 || n == 0 {
        return; // k == 0 leaves the zeroed output: every dot product is empty
    }
    let mut panel = vec![0.0f64; k * NR];
    for c0 in (0..n).step_by(NR) {
        let w = NR.min(n - c0);
        for t in 0..w {
            for (kk, &v) in b[(c0 + t) * k..(c0 + t + 1) * k].iter().enumerate() {
                panel[kk * w + t] = v;
            }
        }
        let panel = &panel[..k * w];
        // No row blocking here: there is no k-panelling, so the packed B
        // strip is reused identically by every row — MC would be a no-op.
        for r in 0..m {
            let a_row = &a[r * k..(r + 1) * k];
            let out_row = &mut out[r * n + c0..r * n + c0 + w];
            if w == NR {
                let mut acc = [0.0f64; NR];
                for (kk, &av) in a_row.iter().enumerate() {
                    let p = &panel[kk * NR..(kk + 1) * NR];
                    for t in 0..NR {
                        acc[t] += av * p[t];
                    }
                }
                out_row.copy_from_slice(&acc);
            } else {
                let mut acc = [0.0f64; NR];
                for (kk, &av) in a_row.iter().enumerate() {
                    for (t, &pv) in panel[kk * w..(kk + 1) * w].iter().enumerate() {
                        acc[t] += av * pv;
                    }
                }
                out_row.copy_from_slice(&acc[..w]);
            }
        }
    }
}

/// Reference `out += A · B`: the seed's triple loop (minus its zero-skip
/// branch). Kept public for the equivalence proptests and the
/// `matmul_kernels` bench.
pub fn matmul_nn_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    check_dims(m, k, n, a, b, out);
    for r in 0..m {
        let out_row = &mut out[r * n..(r + 1) * n];
        for (kk, &av) in a[r * k..(r + 1) * k].iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Reference `out += Aᵀ · B` without materializing the transpose (`out`
/// zeroed on entry for a plain product, like [`matmul_nn_naive`]).
pub fn matmul_tn_naive(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m, "A must be k*m");
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (r, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Reference `out = A · Bᵀ`: one scalar dot product per output element.
pub fn matmul_nt_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "A must be m*k");
    debug_assert_eq!(b.len(), n * k, "B must be n*k");
    for r in 0..m {
        let a_row = &a[r * k..(r + 1) * k];
        for c in 0..n {
            let b_row = &b[c * k..(c + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[r * n + c] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, start: f64) -> Vec<f64> {
        (0..len).map(|i| start + i as f64 * 0.37 - 3.1).collect()
    }

    fn bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn nn_matches_naive_across_all_block_boundaries() {
        // Straddles NR, MC, KC and NC in every dimension.
        for (m, k, n) in [(1, 1, 1), (7, 5, 9), (65, 129, 131), (3, 300, 17)] {
            let a = seq(m * k, 0.0);
            let b = seq(k * n, 1.0);
            let mut blocked = vec![0.0; m * n];
            let mut naive = vec![0.0; m * n];
            matmul_nn(m, k, n, &a, &b, &mut blocked);
            matmul_nn_naive(m, k, n, &a, &b, &mut naive);
            bits_eq(&blocked, &naive);
        }
    }

    #[test]
    fn tn_and_nt_match_naive() {
        let (k, m, n) = (67, 33, 41);
        let a = seq(k * m, 0.5);
        let b = seq(k * n, -0.5);
        let mut blocked = vec![0.0; m * n];
        let mut naive = vec![0.0; m * n];
        matmul_tn(k, m, n, &a, &b, &mut blocked);
        matmul_tn_naive(k, m, n, &a, &b, &mut naive);
        bits_eq(&blocked, &naive);

        let (m2, k2, n2) = (21, 130, 13);
        let a = seq(m2 * k2, 0.2);
        let b = seq(n2 * k2, 0.9);
        let mut blocked = vec![0.0; m2 * n2];
        let mut naive = vec![0.0; m2 * n2];
        matmul_nt(m2, k2, n2, &a, &b, &mut blocked);
        matmul_nt_naive(m2, k2, n2, &a, &b, &mut naive);
        bits_eq(&blocked, &naive);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = vec![1.0; m * k];
            let b = vec![1.0; k * n];
            let mut out = vec![0.0; m * n];
            matmul_nn(m, k, n, &a, &b, &mut out);
            assert!(out.iter().all(|&v| v == 0.0));
            let b_nt = vec![1.0; n * k];
            let mut out = vec![0.0; m * n];
            matmul_nt(m, k, n, &a, &b_nt, &mut out);
            assert!(out.iter().all(|&v| v == 0.0));
        }
    }
}
