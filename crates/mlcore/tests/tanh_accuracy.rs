//! Accuracy and edge cases of the workspace `tanh` (`kernels::tanh`).
//!
//! The reference is the platform's `f64::tanh` (glibc's is up to about
//! 2 ulp from the true value); the workspace `tanh` must stay within 2 ulp
//! of it.
//! The edge cases (signed zeros, NaN, the infinities, saturation at 22, odd
//! symmetry, monotonicity, `|tanh| ≤ 1`) are checked exactly.

use autolock_mlcore::kernels::{tanh, tanh_in_place};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Maps an `f64` onto the integers in order, so that the difference of two
/// images counts the representable values between them.
fn ordinal(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    if bits < 0 {
        i64::MIN - bits
    } else {
        bits
    }
}

fn ulps(a: f64, b: f64) -> u64 {
    ordinal(a).abs_diff(ordinal(b))
}

/// Asserts that the row kernel puts every input within 2 ulp of
/// `f64::tanh`.
fn assert_close(inputs: &[f64]) {
    let mut got = inputs.to_vec();
    tanh_in_place(&mut got);
    for (&x, &y) in inputs.iter().zip(&got) {
        let d = ulps(y, x.tanh());
        assert!(d <= 2, "tanh({x:e}) = {y:e}, libm {:e}: {d} ulp", x.tanh());
    }
}

/// Consecutive doubles around `center`, `radius` on either side.
fn neighbourhood(center: f64, radius: i64) -> Vec<f64> {
    (-radius..=radius)
        .map(|d| f64::from_bits((center.to_bits() as i64 + d) as u64))
        .collect()
}

#[test]
fn within_two_ulp_of_libm_over_a_seeded_sweep() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A17);
    let inputs: Vec<f64> = (0..1_000_000).map(|_| rng.gen_range(-25.0..25.0)).collect();
    assert_close(&inputs);
}

#[test]
fn within_two_ulp_on_tiny_subnormal_and_boundary_inputs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A18);
    let mut inputs = Vec::new();
    // Tiny: every binade below 2⁻²⁸, both signs.
    for _ in 0..20_000 {
        let x = f64::from_bits(rng.gen_range(1u64 << 52..0x3E30_0000_0000_0000));
        inputs.extend([x, -x]);
    }
    // Subnormals.
    for _ in 0..20_000 {
        let x = f64::from_bits(rng.gen_range(1u64..1 << 52));
        inputs.extend([x, -x]);
    }
    // Where the `expm1(2|x|)` reduction index k steps up (from 0 to 1 and 2,
    // and to 54, where `2ᵏ − 1` starts to round), where the result
    // saturates (22), and the tiny cutoff 2⁻⁵⁵.
    let k_switch = |k: f64| (k - 0.5) * std::f64::consts::LN_2 / 2.0;
    for center in [
        k_switch(1.0),
        k_switch(2.0),
        k_switch(54.0),
        22.0,
        2f64.powi(-55),
    ] {
        for x in neighbourhood(center, 2_000) {
            inputs.extend([x, -x]);
        }
    }
    assert_close(&inputs);
}

#[test]
fn signed_zeros_nan_and_infinities() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
    assert!(tanh(f64::NAN).is_nan());
    assert!(tanh(-f64::NAN).is_nan());
    assert_eq!(tanh(f64::INFINITY), 1.0);
    assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
}

#[test]
fn saturates_to_one_from_22() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A19);
    let mut inputs = vec![22.0, f64::MAX, 1e300, 710.0, 1e6];
    inputs.extend((0..10_000).map(|_| rng.gen_range(22.0..1e3)));
    for x in inputs {
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh({})", -x);
    }
}

#[test]
fn odd_symmetry_is_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A1A);
    for _ in 0..200_000 {
        let x: f64 = rng.gen_range(-30.0..30.0);
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
    }
}

#[test]
fn monotone_and_bounded_over_a_sorted_sweep() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A1B);
    let mut inputs: Vec<f64> = (0..1_000_000).map(|_| rng.gen_range(-25.0..25.0)).collect();
    for center in [std::f64::consts::LN_2 / 4.0, 22.0] {
        inputs.extend(neighbourhood(center, 2_000));
        inputs.extend(neighbourhood(-center, 2_000));
    }
    inputs.sort_by(f64::total_cmp);
    let mut values = inputs.clone();
    tanh_in_place(&mut values);
    for (w, xs) in values.windows(2).zip(inputs.windows(2)) {
        assert!(
            w[0] <= w[1],
            "tanh({:e}) = {:e} > tanh({:e}) = {:e}",
            xs[0],
            w[0],
            xs[1],
            w[1]
        );
    }
    assert!(values.iter().all(|v| v.abs() <= 1.0));
}
