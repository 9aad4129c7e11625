//! Golden digests of trained MuxLink models and their candidate scores.
//!
//! Kernel and training-step rewrites must not change a single bit of what
//! the attack learns. These tests pin an FNV-1a digest of the serialized
//! [`TrainedLinkModel`] (weights, biases and Adam state) and of the raw bits
//! of every candidate score for one seeded D-MUX lock, under both backends:
//! the DGCNN (`gnn_fast`) and the bagged MLP (`fast`, which trains through
//! mini-batch matrix products and scores through `Matrix::matvec`), plus the
//! MLP's gate-type-only ablation (`locality_only`). The first two digests
//! were captured before the DGCNN factored head gradient, the
//! row-interleaved `matvec` and the mini-batch MLP step landed, and all
//! three before the attack built one shared `LinkView`, so a passing run
//! proves those rewrites bit-identical.
//!
//! Each digest is checked serially and at the `AUTOLOCK_THREADS` count of
//! the CI thread-matrix leg, so it also pins the thread-count contract.

use autolock_attacks::{MuxLinkAttack, MuxLinkConfig, TrainedLinkModel};
use autolock_circuits::synth_circuit;
use autolock_locking::{DMuxLocking, LockedNetlist, LockingScheme};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Extra thread count folded into the checked set, from the CI
/// thread-matrix leg's `AUTOLOCK_THREADS`.
fn env_threads() -> Option<usize> {
    std::env::var("AUTOLOCK_THREADS").ok()?.parse().ok()
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1];
    counts.extend(env_threads().filter(|&t| t != 1));
    counts
}

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

fn locked() -> LockedNetlist {
    let original = synth_circuit("pin", 10, 4, 120, 23);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    DMuxLocking::default().lock(&original, 8, &mut rng).unwrap()
}

/// The serialized model records the thread count it was trained with (a
/// wall-clock knob, never an outcome); blank it so the digest pins only what
/// was learned.
fn without_thread_knob(json: &str, threads: usize) -> String {
    json.replace(&format!("\"threads\":{threads}"), "\"threads\":_")
        .replace(&format!("\"num_threads\":{threads}"), "\"num_threads\":_")
}

/// `(model digest, score digest)` of one train-then-score run.
fn digests(config: MuxLinkConfig, threads: usize) -> (u64, u64) {
    let locked = locked();
    let attack = MuxLinkAttack::new(config.with_threads(threads));
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let trained = attack.train_model(&locked, &mut rng);
    assert!(
        !matches!(trained, TrainedLinkModel::Uninformative),
        "the pinned lock must yield a trained model"
    );
    let mut model = Fnv::new();
    let json = serde_json::to_string(&trained).unwrap();
    model.write(without_thread_knob(&json, threads).as_bytes());
    let (_, scored) = attack.attack_with_model(&locked, &trained, &mut rng);
    assert!(!scored.is_empty(), "the pinned lock must have candidates");
    let mut scores = Fnv::new();
    for (_, a, b) in &scored {
        scores.write(&a.to_bits().to_le_bytes());
        scores.write(&b.to_bits().to_le_bytes());
    }
    (model.0, scores.0)
}

fn assert_pinned(config: MuxLinkConfig, expected: (u64, u64)) {
    for threads in thread_counts() {
        let got = digests(config.clone(), threads);
        assert_eq!(
            got, expected,
            "{threads} thread(s): digests ({:#x}, {:#x}) drifted from the pin",
            got.0, got.1
        );
    }
}

#[test]
fn dgcnn_model_and_scores_match_golden_digests() {
    let config = MuxLinkConfig {
        epochs: 6,
        ..MuxLinkConfig::gnn_fast()
    };
    assert_pinned(config, (0xad77_0646_c74d_888d, 0x5d9d_8234_096d_8d12));
}

#[test]
fn mlp_model_and_scores_match_golden_digests() {
    let config = MuxLinkConfig {
        epochs: 10,
        ..MuxLinkConfig::fast()
    };
    assert_pinned(config, (0xf8f8_ab06_bddf_b413, 0x6555_1f4b_8a05_06df));
}

#[test]
fn locality_only_model_and_scores_match_golden_digests() {
    let config = MuxLinkConfig {
        epochs: 10,
        ..MuxLinkConfig::locality_only()
    };
    assert_pinned(config, (0x5f8b_5935_c691_8573, 0xd8f4_dd2b_969e_e080));
}
