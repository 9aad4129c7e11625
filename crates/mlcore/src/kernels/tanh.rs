//! The workspace's own `tanh`: fdlibm's algorithm over an `expm1` argument
//! reduction, written so that one lane body runs scalar, SSE2 or AVX2 with
//! the same bits.
//!
//! `f64::tanh` calls the platform libm, so its last bit varies with the
//! libm (glibc, musl, macOS) and, under glibc, with the CPU: glibc picks its
//! `expm1` by CPU features at load time. This body uses only `+ − × ÷`,
//! bit operations and selects. Every candidate value is computed and the
//! right one selected, so the body has no branches and vectorizes. Each
//! vector lane rounds exactly as the scalar instruction does (there is no
//! `mul_add`, and Rust never fuses a `mul` and an `add` on its own), so
//! every build returns the same bits on every machine.
//!
//! Two scalar idioms are replaced to keep the body branch-free:
//! `round(a / ln 2)` is the magic-number sum `a / ln 2 + 1.5 · 2⁵²`, whose
//! low mantissa bits then hold the integer, and `2ᵏ` is built by shifting
//! those bits into the exponent field instead of an `as i64` conversion.
//!
//! The body is written once over `Lanes`, `N` values side by side: each
//! statement runs across all `N` lanes before the next one starts, so
//! LLVM emits it as whole-vector instructions and the dependency chains of
//! `N` elements overlap. The row kernel runs it `LANES` wide; the scalar
//! [`tanh`] runs it one wide.

use std::ops::{Add, Div, Mul, Sub};

// fdlibm's constants, by their bit patterns.
/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
// The rational-approximation coefficients for `expm1` on
// `[−ln2/2, ln2/2]`.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `1.5 · 2⁵²`: adding it to a value below `2⁵¹` in magnitude rounds the
/// value to the nearest integer (ties to even), held in the low mantissa
/// bits.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Below `2⁻⁵⁵` in magnitude, `tanh(x)` rounds to `x`.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// From 22 up, `tanh(x)` rounds to 1.
const HUGE: f64 = 22.0;
const SIGN: u64 = 1 << 63;
/// Keeps the top 26 significant bits of a double.
const HIGH_26: u64 = !((1 << 27) - 1);

/// Elements the row kernel runs through the lane body at once: two AVX2
/// vectors, or four SSE2 ones.
const LANES: usize = 8;

/// `N` doubles operated on element by element.
#[derive(Clone, Copy)]
struct Lanes<const N: usize>([f64; N]);

impl<const N: usize> Lanes<N> {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Lanes([v; N])
    }

    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Lanes(std::array::from_fn(|i| f(self.0[i])))
    }

    #[inline(always)]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Lanes(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    #[inline(always)]
    fn test(self, f: impl Fn(f64) -> bool) -> [bool; N] {
        std::array::from_fn(|i| f(self.0[i]))
    }

    /// `mask ? a : b` per lane. Both sides are already computed, so LLVM
    /// lowers it to a blend, never a branch.
    #[inline(always)]
    fn select(mask: [bool; N], a: Self, b: Self) -> Self {
        Lanes(std::array::from_fn(
            |i| if mask[i] { a.0[i] } else { b.0[i] },
        ))
    }

    /// Each lane's bits ANDed with `mask`.
    #[inline(always)]
    fn and_bits(self, mask: u64) -> Self {
        self.map(|v| f64::from_bits(v.to_bits() & mask))
    }
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const N: usize> $trait for Lanes<N> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a $op b)
            }
        }

        impl<const N: usize> $trait<f64> for Lanes<N> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: f64) -> Self {
                self.map(|a| a $op rhs)
            }
        }

        impl<const N: usize> $trait<Lanes<N>> for f64 {
            type Output = Lanes<N>;
            #[inline(always)]
            fn $method(self, rhs: Lanes<N>) -> Lanes<N> {
                rhs.map(|b| self $op b)
            }
        }
    };
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

/// fdlibm's `expm1(a)` for `a ∈ [0, 44]`, returned unrounded as a sum
/// `(hi, lo)` so that `tanh` does not inherit its last rounding.
///
/// `a = k·ln2 + r + c` with `k = round(a / ln 2) ∈ {0, …, 64}` and
/// `|r| ≤ ln2/2`; fdlibm's rational approximation gives
/// `expm1(r + c) = r + p`, and then `expm1(a) = (2ᵏ − 1) + 2ᵏ·(r + p)`.
/// Every sum after `p` is carried exactly, except that `2ᵏ − 1` rounds to
/// `2ᵏ` for `k > 53`, a relative error below `2⁻⁵³` in a `u` that large,
/// which moves `tanh = 1 − 2/(u + 2)` by less than `2⁻¹⁰⁰`.
#[inline(always)]
fn expm1_parts<const N: usize>(a: Lanes<N>) -> (Lanes<N>, Lanes<N>) {
    let shifted = a * INV_LN2 + ROUND;
    let k = shifted - ROUND;
    let hi = a - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let p = hxs - (r * (e - c) - c);
    // `|p| ≤ |r|` (or `r = p = 0`), so the fast two-sum is exact.
    let v = r + p;
    let v_err = p - (v - r);

    // `2ᵏ` from the low bits of `shifted`: the `1.5 · 2⁵²` part shifts out
    // of the 64-bit word.
    let two_k = shifted.map(|s| f64::from_bits(s.to_bits().wrapping_add(1023) << 52));
    let m = two_k - 1.0;
    // `2ᵏ·v` is exact, and `|m| ≥ |2ᵏ·v|` (or `m = 0`), so the fast
    // two-sum is exact.
    let scaled = two_k * v;
    let sum = m + scaled;
    let sum_err = scaled - (sum - m);
    (sum, sum_err + two_k * v_err)
}

/// The lane body of [`tanh`].
///
/// With `u = expm1(2|x|)`, `tanh |x| = u / (u + 2)`, one formula over the
/// whole range. `u` and `u + 2` are carried as unevaluated sums, and the
/// quotient, cut to 26 bits, is corrected by its residual, which is exact
/// because the cut quotient and the 26/27-bit halves of `u + 2` multiply
/// without rounding. So the only rounding that reaches the result in full
/// is the last addition.
#[inline(always)]
fn tanh_lanes<const N: usize>(x: Lanes<N>) -> Lanes<N> {
    let ax = x.map(f64::abs);
    let below_huge = ax.test(|v| v < HUGE);
    // Clamped so that no lane overflows (or carries a NaN) on the way to
    // the selects below.
    let clamped = Lanes::select(below_huge, ax, Lanes::splat(HUGE));
    let (u, u_lo) = expm1_parts(2.0 * clamped);
    // TwoSum: `d + d_err = u + 2` exactly.
    let d = u + 2.0;
    let bb = d - u;
    let d_err = (u - (d - bb)) + (2.0 - bb);
    let d_lo = d_err + u_lo;
    let inv = 1.0 / d;
    let qh = (u * inv).and_bits(HIGH_26);
    let dh = d.and_bits(HIGH_26);
    let residual = (u - qh * dh) - qh * (d - dh);
    let z = qh + ((residual + u_lo) - qh * d_lo) * inv;
    let z = Lanes::select(below_huge, z, Lanes::splat(1.0));
    // NaN passes through.
    let z = Lanes::select(ax.test(|v| v < TINY || v.is_nan()), ax, z);
    z.zip(x, |z, x| f64::from_bits(z.to_bits() | (x.to_bits() & SIGN)))
}

/// The workspace's `tanh`: fdlibm's `expm1` reduction, branch-free and
/// lane-exact.
///
/// Returns the same bits as every element of [`tanh_in_place`], on every
/// machine, and is within about 0.65 ulp of the true value. `tanh(±0) =
/// ±0`, odd symmetry is exact, `|x| ≥ 22` (the infinities included) gives
/// `±1`, and NaN gives NaN.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    tanh_lanes(Lanes([x])).0[0]
}

avx2_dispatch! {
    /// `tanh` in place over a row: every element becomes [`tanh`] of itself,
    /// bit for bit.
    pub fn tanh_in_place(xs: &mut [f64]) => tanh_in_place_portable
}

#[inline(always)]
pub(super) fn tanh_in_place_portable(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let x: [f64; LANES] = (&*chunk).try_into().expect("chunk of LANES");
        chunk.copy_from_slice(&tanh_lanes(Lanes(x)).0);
    }
    for x in chunks.into_remainder() {
        *x = tanh(*x);
    }
}
