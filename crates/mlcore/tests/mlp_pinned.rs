//! Golden digests of trained [`Mlp`]s.
//!
//! A rewrite of the MLP training step must not change a single bit of what
//! it learns. These tests pin an FNV-1a digest of the serialized network
//! (weights, biases, Adam moments and step count) together with the bits of
//! what training returns, after [`Mlp::train`] and after
//! [`Mlp::train_with_validation`]. They cover no hidden layer, one and two
//! hidden layers, and batch sizes of one example, a full batch with a ragged
//! last batch, and one batch larger than the whole dataset. The digests were
//! captured on the per-example training loop, before training moved to
//! mini-batch matrix products, so a passing run proves that rewrite
//! bit-identical.

use autolock_mlcore::{Dataset, Mlp, MlpConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Number of training examples: 75 = 2·32 + 11, so batch size 32 leaves a
/// ragged last batch and batch size [`WHOLE`] covers everything at once.
const TRAIN_LEN: usize = 75;

/// A batch size larger than the training set.
const WHOLE: usize = 100;

/// Seeded examples with a nonlinear label rule; about one feature in six is
/// an exact zero (signed either way), so ReLU ties and signed-zero products
/// are exercised.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..5)
            .map(|_| match rng.gen_range(0..12usize) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.5..1.5),
            })
            .collect();
        let label = f64::from(row[0] * row[1] + 0.5 * row[2] - row[3].abs() > -0.4);
        rows.push(row);
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).unwrap()
}

fn new_mlp(hidden: &[usize], batch_size: usize, epochs: usize, rng: &mut ChaCha8Rng) -> Mlp {
    Mlp::new(
        MlpConfig {
            input_dim: 5,
            hidden: hidden.to_vec(),
            epochs,
            batch_size,
            patience: 3,
            ..Default::default()
        },
        rng,
    )
}

fn model_digest(mlp: &Mlp, returned: &[u64]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(serde_json::to_string(mlp).unwrap().as_bytes());
    for v in returned {
        fnv.write(&v.to_le_bytes());
    }
    fnv.0
}

/// Digest after [`Mlp::train`], including the final-epoch loss bits.
fn train_digest(hidden: &[usize], batch_size: usize) -> u64 {
    let data = dataset(TRAIN_LEN, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut mlp = new_mlp(hidden, batch_size, 6, &mut rng);
    let loss = mlp.train(&data, &mut rng);
    model_digest(&mlp, &[loss.to_bits()])
}

/// Digest after [`Mlp::train_with_validation`], including the best
/// validation loss bits and the number of epochs run.
fn validation_digest(hidden: &[usize], batch_size: usize) -> u64 {
    let train = dataset(TRAIN_LEN, 5);
    let validation = dataset(24, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let mut mlp = new_mlp(hidden, batch_size, 40, &mut rng);
    let (best, epochs) = mlp.train_with_validation(&train, &validation, &mut rng);
    model_digest(&mlp, &[best.to_bits(), epochs as u64])
}

type Pin = (&'static [usize], usize, u64);

fn assert_pinned(digest: fn(&[usize], usize) -> u64, pins: &[Pin]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter_map(|&(hidden, batch, expected)| {
            let got = digest(hidden, batch);
            (got != expected).then(|| format!("hidden {hidden:?}, batch {batch}: {got:#x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "digests drifted from the pin:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn trained_mlps_match_golden_digests() {
    assert_pinned(
        train_digest,
        &[
            (&[], 1, 0x0171_fdb5_1887_8ccd),
            (&[], 32, 0xb309_04e2_b552_53ad),
            (&[], WHOLE, 0x0db6_8fbb_35a6_72ea),
            (&[16], 1, 0xb7a4_d887_2264_130f),
            (&[16], 32, 0xe984_3c92_0844_718c),
            (&[16], WHOLE, 0xb477_da5d_71ec_d687),
            (&[16, 8], 1, 0x123b_c00b_6840_eb63),
            (&[16, 8], 32, 0x21a2_227c_c438_eda5),
            (&[16, 8], WHOLE, 0x62cc_67e9_f8f7_ceae),
        ],
    );
}

#[test]
fn early_stopped_mlps_match_golden_digests() {
    assert_pinned(
        validation_digest,
        &[
            (&[], 1, 0xe35b_a5fa_1a9a_5f75),
            (&[], 32, 0xb6ec_d5ac_20a0_5b79),
            (&[], WHOLE, 0xc88f_7699_9b08_d7cc),
            (&[16], 1, 0x4378_5134_5986_9fe4),
            (&[16], 32, 0x5c00_b00f_9173_e8f4),
            (&[16], WHOLE, 0xc99f_9663_9264_2498),
            (&[16, 8], 1, 0x6804_3ba2_e4b7_e83e),
            (&[16, 8], 32, 0x4620_61a8_867d_d859),
            (&[16, 8], WHOLE, 0xbca5_2262_487f_62e5),
        ],
    );
}
