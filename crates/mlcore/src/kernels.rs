//! Register-tiled dense matmul kernels, plus the workspace's own
//! lane-exact [`tanh`] and its row kernel [`tanh_in_place`].
//!
//! Every learned model in this workspace (the bagged-MLP MuxLink backend,
//! the DGCNN conv/dense layers) funnels through the
//! three `Matrix::matmul*` products, so this module is the shared hot core.
//! The products it sees are small (an MLP weight gradient is `16 × 66` at
//! depth 32, a DGCNN conv at most `512 × 22 × 16`), so `matmul_nn` and
//! `matmul_tn` read both operands in place: one body sweeps each `NR`-wide
//! strip of the output in `MR`-row blocks, and each block walks the rows of
//! B in increasing k with an `MR × NR` accumulator block in registers. The
//! two products differ only in how the body reads A's `MR` lanes of a k
//! step: one per row for `nn`, `MR` contiguous entries of one row for `tn`
//! (the transpose never materializes). No explicit SIMD intrinsics are
//! used — the fixed-size `[f64; NR]` accumulator arrays are enough for LLVM
//! to emit packed adds/muls on any target.
//!
//! `matmul_nt` must read B's rows as columns, so it packs `NR` rows of B
//! into an interleaved strip and feeds it to an `MR × NR` accumulator
//! block, `MR` rows of A at a time; the `m % MR` rows and the last `w < NR`
//! strip run a single-row loop.
//!
//! # Shape routes
//!
//! A product with one column or depth one has nothing to tile, and so does
//! `nt` with one row. Each entry point hands those shapes to a vector kernel
//! that runs every output's chain term for term (`a·b == b·a` bitwise, so
//! operand order does not matter):
//!
//! | shape | `matmul_nn` | `matmul_tn` | `matmul_nt` |
//! |-------|-------------|-------------|-------------|
//! | `m = 1` | the body | the body | `matvec` over B |
//! | `n = 1` | `matvec` over A, from `out` | `matvec_t` over A | `matvec` over A |
//! | `k = 1` | one `out += a·b` pass | the body | blocked |
//!
//! `nn` and `tn` keep their `out +=` contract (each chain continues from
//! `out`); `nt` zeroes `out` first, which starts each chain from `+0.0`.
//! The MLP's one-output layer, the DGCNN's one-channel conv and its dense
//! head's last layer take these routes.
//!
//! Each kernel has one portable body. On x86-64 the public entry points also
//! carry an AVX2 build of that body and choose it at run time when the CPU
//! supports AVX2; the result is the same bit for bit (see the crate README,
//! "Runtime AVX2 dispatch"). The `*_naive` reference loops stay portable.
//!
//! # Bit-for-bit contract
//!
//! Tiled results are **bit-for-bit identical** to the naive reference
//! loops (`*_naive` below), enforced by the proptests in
//! `tests/kernel_equivalence.rs`. The invariant that makes this possible:
//! for every output element, partial products are accumulated **in strictly
//! increasing k order, into a single accumulator, starting from its entry
//! value in `out`** (`0.0` for a plain product) — exactly the order the
//! naive triple loop uses. Tiling is therefore only allowed along dimensions
//! that do not reorder a single element's accumulation chain:
//!
//! * m/n tiling picks *which* output elements a pass computes — always safe;
//! * each accumulator loads its entry from `out`, takes one term per k step
//!   in increasing k, and is stored once, so the chain
//!   `((0 + a₀b₀) + a₁b₁) + …` is preserved term for term;
//! * a lane the body computes but does not own (the overlap of a narrow
//!   last strip, see `accumulate_tile`) is never stored;
//! * Rust never contracts `mul` + `add` into an FMA without an explicit
//!   `mul_add`, so the rounding of every term is unchanged.
//!
//! The old naive loops carried an `if a == 0.0 { continue; }` zero-skip; it
//! cost a branch per inner-loop element in the (overwhelmingly common) dense
//! case and is dropped here. Sparsity skipping was measured and rejected:
//! the operands these kernels see (He-initialised weights, standardized
//! features, conv aggregates) are dense, and a skipped `acc += 0.0 * b` is
//! not even a bitwise no-op in IEEE 754 (`-0.0 + 0.0` flips sign;
//! `0.0 * inf` is NaN), so skipping would break the contract.
//!
//! # Tuning
//!
//! The register tile `MR × NR` is the only size in these kernels; see
//! `crates/mlcore/README.md` for how it maps onto the register file. It
//! only affects wall clock, never results.

mod tanh;

pub use tanh::{tanh, tanh_in_place};

/// Output columns each register micro-kernel accumulates at once. Eight
/// `f64` accumulators span two AVX2 `ymm` (or four SSE2 `xmm`) vector
/// registers; the compiler unrolls the fixed-size loops over `[f64; NR]`
/// completely.
pub const NR: usize = 8;

/// Rows of A each register micro-kernel accumulates simultaneously. An
/// `MR × NR` accumulator block amortizes every load of a B row over `MR`
/// rows. The `4 × 8` accumulator doubles fill 8 `ymm` registers on AVX2,
/// leaving 8 for the broadcast A value and the B row; on SSE2 they take all
/// 16 `xmm` registers, which is why the AVX2 build is faster.
pub const MR: usize = 4;

#[inline]
fn check_dims(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &[f64]) {
    debug_assert_eq!(a.len(), m * k, "A must be m*k");
    debug_assert_eq!(b.len(), k * n, "B must be k*n");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
}

avx2_dispatch! {
    /// Tiled `out += A · B` for row-major `A (m×k)`, `B (k×n)`, `out (m×n)`.
    ///
    /// `out` must be zeroed (or hold a partial sum over a k-prefix) on entry;
    /// [`crate::Matrix::matmul`] always passes a fresh zero matrix.
    pub fn matmul_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64])
        => matmul_nn_portable
}

#[inline(always)]
fn matmul_nn_portable(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    check_dims(m, k, n, a, b, out);
    if n == 1 {
        // Each output is a row of A dotted with B's one column.
        matvec_portable(k, a, b, out);
    } else if k == 1 {
        // Each output gains its one term `A[r][0] · B[0][j]`.
        for (r, &av) in a.iter().enumerate() {
            for (o, &bv) in out[r * n..(r + 1) * n].iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    } else {
        matmul_acc(m, n, Rows { a, k }, b, out);
    }
}

/// How the one body reads the left operand `A'` (`m × k`) in place: `R`
/// consecutive rows at a time, one `[f64; R]` column of lanes per k step.
trait LeftOperand: Copy {
    /// `[A'[r][kk], …, A'[r+R-1][kk]]` for `kk = 0, 1, …, k - 1`.
    fn lanes<const R: usize>(self, r: usize) -> impl Iterator<Item = [f64; R]>;
}

/// `A'` is a row-major `m × k` slice (`matmul_nn`): lane `i` walks row
/// `r + i`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    a: &'a [f64],
    k: usize,
}

impl LeftOperand for Rows<'_> {
    #[inline(always)]
    fn lanes<const R: usize>(self, r: usize) -> impl Iterator<Item = [f64; R]> {
        let rows: [&[f64]; R] = std::array::from_fn(|i| &self.a[(r + i) * self.k..][..self.k]);
        (0..self.k).map(move |kk| rows.map(|row| row[kk]))
    }
}

/// `A'` is the transpose of a row-major `k × m` slice (`matmul_tn`): the
/// lanes of step `kk` are `R` contiguous entries of row `kk`.
#[derive(Clone, Copy)]
struct Cols<'a> {
    a: &'a [f64],
    m: usize,
}

impl LeftOperand for Cols<'_> {
    #[inline(always)]
    fn lanes<const R: usize>(self, r: usize) -> impl Iterator<Item = [f64; R]> {
        self.a
            .chunks_exact(self.m)
            .map(move |row| *row[r..].first_chunk().expect("R lanes"))
    }
}

/// The one body behind [`matmul_nn`] and [`matmul_tn`]: `out += A' · B`
/// for the `m × k` left operand `A'`, read in place through `a`, and
/// row-major `B (k×n)`, `out (m×n)`. Neither operand is copied: each
/// `NR`-wide strip of `out` is swept in `MR`-row blocks (then one row at a
/// time for the `m % MR` rows), and each block walks the rows of B in
/// increasing k.
#[inline(always)]
fn matmul_acc(m: usize, n: usize, a: impl LeftOperand, b: &[f64], out: &mut [f64]) {
    for j0 in (0..n).step_by(NR) {
        let mut r = 0;
        while r + MR <= m {
            accumulate_tile::<MR>(a.lanes(r), r, j0, n, b, out);
            r += MR;
        }
        for r in r..m {
            accumulate_tile::<1>(a.lanes(r), r, j0, n, b, out);
        }
    }
}

/// The `R × NR` register micro-kernel: `out[r+i][j0+t] += Σ_kk
/// A'[r+i][kk] · B[kk][j0+t]`, with `lanes` yielding `A'`'s column block
/// one k step at a time. The accumulators load from `out`, take one term
/// per row of B in increasing k, and store back, so every output keeps its
/// chain term for term.
///
/// A last strip narrower than `NR` runs as the window of the last `NR`
/// columns: its lanes left of `j0` belong to the strip before, already
/// final, so they are computed and dropped, never stored. Only a product
/// narrower than `NR` runs the lanes one by one.
#[inline(always)]
fn accumulate_tile<const R: usize>(
    lanes: impl Iterator<Item = [f64; R]>,
    r: usize,
    j0: usize,
    n: usize,
    b: &[f64],
    out: &mut [f64],
) {
    let w = NR.min(n - j0);
    let steps = b.chunks_exact(n).zip(lanes);
    if n >= NR {
        let j = j0 + w - NR;
        let mut acc: [[f64; NR]; R] =
            std::array::from_fn(|i| *out[(r + i) * n + j..].first_chunk().expect("NR columns"));
        for (b_row, av) in steps {
            let p: &[f64; NR] = b_row[j..].first_chunk().expect("NR columns");
            for (acc_row, av) in acc.iter_mut().zip(av) {
                for t in 0..NR {
                    acc_row[t] += av * p[t];
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            out[(r + i) * n + j0..][..w].copy_from_slice(&acc_row[NR - w..]);
        }
    } else {
        let mut acc = [[0.0f64; NR]; R];
        for (i, acc_row) in acc.iter_mut().enumerate() {
            acc_row[..n].copy_from_slice(&out[(r + i) * n..][..n]);
        }
        for (b_row, av) in steps {
            for (acc_row, av) in acc.iter_mut().zip(av) {
                for (slot, &pv) in acc_row.iter_mut().zip(b_row) {
                    *slot += av * pv;
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            out[(r + i) * n..][..n].copy_from_slice(&acc_row[..n]);
        }
    }
}

avx2_dispatch! {
    /// Tiled `out += Aᵀ · B` for row-major `A (k×m)`, `B (k×n)`, `out (m×n)`.
    /// Like [`matmul_nn`], `out` must be zeroed on entry for a plain product
    /// ([`crate::Matrix::matmul_tn`] always passes fresh zeros).
    ///
    /// Runs the body of [`matmul_nn`], reading the `MR` lanes of each k
    /// step as contiguous entries of A's row `kk`: the transpose never
    /// materializes. Per-element accumulation runs in shared-k order, so the
    /// result is bit-identical to the naive implicit-transpose loop.
    pub fn matmul_tn(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64])
        => matmul_tn_portable
}

#[inline(always)]
fn matmul_tn_portable(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), k * m, "A must be k*m");
    debug_assert_eq!(b.len(), k * n, "B must be k*n");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
    if n == 1 {
        // B is one column: row `kk` of A scaled by `B[kk][0]`, k in order.
        matvec_t_portable(m, a, b, out);
    } else {
        matmul_acc(m, n, Cols { a, m }, b, out);
    }
}

avx2_dispatch! {
    /// Blocked `out = A · Bᵀ` for row-major `A (m×k)`, `B (n×k)`, `out (m×n)`.
    ///
    /// Packs `NR` rows of B interleaved (`panel[kk·w + t] = B[c0+t][kk]`) so
    /// the micro-kernel reads the strip contiguously while computing
    /// `MR × NR` dot products at once; each product accumulates k in order
    /// from `0.0`, matching the naive dot-product loop bit for bit. One-row
    /// and one-column products run `matvec` instead (see the module docs).
    pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64])
        => matmul_nt_portable
}

#[inline(always)]
fn matmul_nt_portable(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "A must be m*k");
    debug_assert_eq!(b.len(), n * k, "B must be n*k");
    debug_assert_eq!(out.len(), m * n, "out must be m*n");
    if m == 0 || n == 0 {
        return; // k == 0 leaves the zeroed output: every dot product is empty
    }
    if m == 1 || n == 1 {
        // One row of A against the rows of B, or the rows of A against B's
        // one row: the dot products of `matvec`, each from `0.0`.
        out.fill(0.0);
        let (rows, x) = if m == 1 { (b, a) } else { (a, b) };
        matvec_portable(k, rows, x, out);
        return;
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
        let mut r = 0;
        if w == NR {
            // `MR × NR` accumulators: each packed strip row is loaded once
            // for `MR` rows of A.
            while r + MR <= m {
                let rows: [&[f64]; MR] = std::array::from_fn(|i| &a[(r + i) * k..(r + i + 1) * k]);
                let mut acc = [[0.0f64; NR]; MR];
                for (kk, p) in panel.chunks_exact(NR).enumerate() {
                    for (acc_row, a_row) in acc.iter_mut().zip(rows) {
                        let av = a_row[kk];
                        for t in 0..NR {
                            acc_row[t] += av * p[t];
                        }
                    }
                }
                for (i, acc_row) in acc.iter().enumerate() {
                    out[(r + i) * n + c0..][..NR].copy_from_slice(acc_row);
                }
                r += MR;
            }
        }
        // The `m % MR` rows, and every row of a `w < NR` strip.
        for r in r..m {
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

avx2_dispatch! {
    /// The kernel behind [`crate::Matrix::matvec`]: `out += A · x` for
    /// row-major `A (out.len() × cols)`, four rows at a time; the
    /// `rows mod 4` remainder rows run the serial loop. Each row's chain
    /// starts from its `out` entry, so a zeroed `out` gives the plain
    /// dot products, whose chains start from `+0.0` as well.
    pub(crate) fn matvec(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) => matvec_portable
}

#[inline(always)]
fn matvec_portable(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len() * cols, "A must be rows*cols");
    debug_assert_eq!(x.len(), cols, "x must have cols entries");
    // `chunks_exact` needs a nonzero width; an empty row adds nothing.
    if cols == 0 {
        return;
    }
    let mut blocks = a.chunks_exact(4 * cols);
    let mut outs = out.chunks_exact_mut(4);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [o[0], o[1], o[2], o[3]];
        for ((((a0, a1), a2), a3), b) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
            acc[0] += a0 * b;
            acc[1] += a1 * b;
            acc[2] += a2 * b;
            acc[3] += a3 * b;
        }
        o.copy_from_slice(&acc);
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(cols)
        .zip(outs.into_remainder())
    {
        let mut acc = *o;
        for (a, b) in row.iter().zip(x) {
            acc += a * b;
        }
        *o = acc;
    }
}

avx2_dispatch! {
    /// The kernel behind [`crate::Matrix::matvec_t`]: `out += Aᵀ · x` for
    /// row-major `A (x.len() × cols)`, adding row `r` of A scaled by `x[r]`
    /// in increasing `r` order (`out` zeroed on entry for a plain product).
    pub(crate) fn matvec_t(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) => matvec_t_portable
}

#[inline(always)]
fn matvec_t_portable(cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), x.len() * cols, "A must be rows*cols");
    debug_assert_eq!(out.len(), cols, "out must have cols entries");
    if cols == 0 {
        return;
    }
    for (row, &xr) in a.chunks_exact(cols).zip(x) {
        for (o, av) in out.iter_mut().zip(row) {
            *o += av * xr;
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
pub(crate) mod tests {
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
        // Straddles the MR/NR tiles, with a narrow last strip, and depth and
        // width past 128.
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

    /// `len` values mixing ordinary ones with `+0.0`, `-0.0` and subnormals
    /// of both signs: the IEEE edges where a reordered or fused chain shows.
    pub(crate) fn edge_values(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let specials = [0.0, -0.0, f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 3.0];
        (0..len)
            .map(|_| match rng.gen_range(0..8usize) {
                i @ 0..=3 => specials[i],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// Shapes `(m, k, n)` covering zero-sized dimensions, the `MR`/`NR`
    /// remainder rows and columns, a product narrower than `NR`, depth and
    /// width past 128, and the one-row, one-column and depth-one shapes.
    const EDGE_SHAPES: [(usize, usize, usize); 12] = [
        (0, 5, 7),
        (6, 0, 7),
        (6, 5, 0),
        (1, 1, 1),
        (MR - 1, 3, NR - 1),
        (2 * MR + 3, 17, 2 * NR + 5),
        (MR + 1, 128 + 13, NR + 3),
        (64 + 7, 128 + 13, 128 + NR + 3),
        (9, 2 * 128 + 1, 2),
        (1, 9, 2 * NR + 3),
        (2 * MR + 3, 9, 1),
        (2 * MR + 3, 1, 2 * NR + 3),
    ];

    /// On an AVX2 machine the entry points run the AVX2 build, so these
    /// compare it with the portable build (the only one other machines run)
    /// bit for bit; elsewhere both sides are the portable build.
    #[test]
    fn dispatched_matmuls_match_portable_bodies() {
        type Kernel = fn(usize, usize, usize, &[f64], &[f64], &mut [f64]);
        let pairs: [(&str, Kernel, Kernel); 3] = [
            ("nn", matmul_nn, matmul_nn_portable),
            ("tn", matmul_tn, matmul_tn_portable),
            ("nt", matmul_nt, matmul_nt_portable),
        ];
        for (seed, &(m, k, n)) in EDGE_SHAPES.iter().enumerate() {
            let seed = seed as u64;
            let a = edge_values(m * k, 2 * seed);
            let b = edge_values(k * n, 2 * seed + 1);
            for (name, dispatched, portable) in pairs {
                // `tn` reads its operands as `(k, m, n)`; the element
                // counts are the same.
                let (d0, d1) = if name == "tn" { (k, m) } else { (m, k) };
                let mut got = vec![0.0; m * n];
                let mut want = vec![0.0; m * n];
                dispatched(d0, d1, n, &a, &b, &mut got);
                portable(d0, d1, n, &a, &b, &mut want);
                bits_eq(&got, &want);
            }
        }

        // The `tanh` row kernel, over rows shorter than one 8-lane chunk
        // (1, 3, 5), with a remainder (33) and long (1000): values span the
        // whole range up to saturation, with NaN, the infinities, 22, a
        // subnormal and signed zeros mixed in. The scalar entry point must
        // agree too.
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            22.0,
            -1.0,
            f64::MIN_POSITIVE / 8.0,
            -0.0,
        ];
        for (seed, len) in [1usize, 3, 5, 33, 1000].into_iter().enumerate() {
            let row: Vec<f64> = edge_values(len, 100 + seed as u64)
                .into_iter()
                .enumerate()
                .map(|(i, v)| match i % 5 {
                    4 => specials[(i / 5) % specials.len()],
                    _ => 25.0 * v,
                })
                .collect();
            let (mut got, mut want) = (row.clone(), row.clone());
            tanh_in_place(&mut got);
            tanh::tanh_in_place_portable(&mut want);
            bits_eq(&got, &want);
            let scalar: Vec<f64> = row.iter().map(|&x| tanh(x)).collect();
            bits_eq(&scalar, &want);
        }
    }

    #[test]
    fn dispatched_matvecs_match_portable_bodies() {
        for (seed, &(rows, cols, _)) in EDGE_SHAPES.iter().enumerate() {
            let seed = seed as u64;
            let a = edge_values(rows * cols, 2 * seed);
            let x = edge_values(cols, 2 * seed + 1);
            let (mut got, mut want) = (vec![1.0; rows], vec![1.0; rows]);
            matvec(cols, &a, &x, &mut got);
            matvec_portable(cols, &a, &x, &mut want);
            bits_eq(&got, &want);

            let xt = edge_values(rows, 2 * seed + 1);
            let (mut got, mut want) = (vec![0.0; cols], vec![0.0; cols]);
            matvec_t(cols, &a, &xt, &mut got);
            matvec_t_portable(cols, &a, &xt, &mut want);
            bits_eq(&got, &want);
        }
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
