//! Integration tests for the attack suite on realistic locked circuits.

use autolock_attacks::{
    has_mux_key_gates, KeyRecoveryAttack, MuxLinkAttack, MuxLinkConfig, RandomGuessAttack,
    SatAttack, SatAttackConfig, XorStructuralAttack,
};
use autolock_circuits::{suite_circuit, synth_circuit};
use autolock_locking::{DMuxLocking, LockingScheme, XorLocking};
use autolock_netlist::equiv;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn attack_outcomes_are_well_formed_for_every_attack_and_scheme() {
    let original = synth_circuit("wf", 12, 5, 200, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let lockings = vec![
        XorLocking::default().lock(&original, 12, &mut rng).unwrap(),
        DMuxLocking::default()
            .lock(&original, 12, &mut rng)
            .unwrap(),
    ];
    let attacks: Vec<Box<dyn KeyRecoveryAttack>> = vec![
        Box::new(RandomGuessAttack),
        Box::new(XorStructuralAttack),
        Box::new(MuxLinkAttack::new(MuxLinkConfig::fast())),
        Box::new(MuxLinkAttack::new(MuxLinkConfig::locality_only())),
    ];
    for locked in &lockings {
        for attack in &attacks {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let outcome = attack.attack(locked, &mut rng);
            assert_eq!(outcome.key_len, locked.key_len());
            assert_eq!(outcome.guesses.len(), locked.key_len());
            assert!((0.0..=1.0).contains(&outcome.key_accuracy));
            assert!((0.0..=1.0).contains(&outcome.decided_fraction));
            // Every key bit has exactly one guess and sane confidence.
            let mut bits: Vec<usize> = outcome.guesses.iter().map(|g| g.bit).collect();
            bits.sort_unstable();
            assert_eq!(bits, (0..locked.key_len()).collect::<Vec<_>>());
            for guess in &outcome.guesses {
                assert!((0.5..=1.0).contains(&guess.confidence));
            }
            assert_eq!(outcome.predicted_key().len(), locked.key_len());
            assert_eq!(outcome.scheme, locked.scheme());
        }
    }
    assert!(has_mux_key_gates(&lockings[1]));
    assert!(!has_mux_key_gates(&lockings[0]));
}

#[test]
fn muxlink_candidates_cover_every_key_bit_of_dmux() {
    let original = suite_circuit("s160").unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let locked = DMuxLocking::default()
        .lock(&original, 10, &mut rng)
        .unwrap();
    let candidates = MuxLinkAttack::find_candidates(locked.netlist());
    for bit in 0..10 {
        let n = candidates.iter().filter(|c| c.key_bit == bit).count();
        assert_eq!(n, 2, "key bit {bit} should be covered by exactly 2 MUXes");
    }
    // The candidate drivers of each MUX are exactly the two loci wires.
    for cand in &candidates {
        assert_ne!(cand.cand_key0, cand.cand_key1);
        assert_ne!(cand.sink, cand.mux);
    }
}

#[test]
fn muxlink_accuracy_scales_with_circuit_size() {
    // On larger circuits (lower locking density) the attack should be at least
    // as strong as on smaller ones — the regime the paper evaluates in.
    let small = synth_circuit("small", 12, 5, 150, 11);
    let large = synth_circuit("large", 24, 10, 600, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let locked_small = DMuxLocking::default().lock(&small, 16, &mut rng).unwrap();
    let locked_large = DMuxLocking::default().lock(&large, 16, &mut rng).unwrap();
    let attack = MuxLinkAttack::new(MuxLinkConfig::fast());
    // Five retrains: single-seed accuracy of the `fast` preset swings by
    // ±0.1 on a 16-bit key, so the mean needs a few repeats to be a fair
    // measure of attack strength.
    let acc = |l| {
        let mut total = 0.0;
        for s in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + s);
            total += attack.attack(l, &mut rng).key_accuracy;
        }
        total / 5.0
    };
    let acc_small = acc(&locked_small);
    let acc_large = acc(&locked_large);
    assert!(
        acc_large >= 0.7,
        "expected a strong attack on the low-density locking, got {acc_large}"
    );
    assert!(
        acc_large + 0.15 >= acc_small,
        "small {acc_small}, large {acc_large}"
    );
}

#[test]
fn sat_attack_key_is_always_functionally_correct_when_successful() {
    for seed in [1u64, 2, 3] {
        let original = synth_circuit("satfn", 9, 4, 80, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let locked = DMuxLocking::default().lock(&original, 5, &mut rng).unwrap();
        let outcome = SatAttack::new(SatAttackConfig {
            max_iterations: 400,
            ..SatAttackConfig::default()
        })
        .attack(&locked, &original);
        assert!(outcome.success, "seed {seed}");
        let ok = equiv::random_equivalent(
            &original,
            &[],
            locked.netlist(),
            outcome.recovered_key.bits(),
            8,
            &mut rng,
        )
        .unwrap();
        assert!(
            ok,
            "seed {seed}: recovered key must be functionally correct"
        );
        assert!(outcome.iterations as usize <= 400);
    }
}

#[test]
fn locality_only_attack_is_much_weaker_than_full_muxlink_on_dmux() {
    let original = synth_circuit("loc", 16, 8, 400, 21);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let locked = DMuxLocking::default()
        .lock(&original, 24, &mut rng)
        .unwrap();
    let run = |cfg: MuxLinkConfig| {
        let mut total = 0.0;
        for s in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(50 + s);
            total += MuxLinkAttack::new(cfg.clone())
                .attack(&locked, &mut rng)
                .key_accuracy;
        }
        total / 3.0
    };
    let full = run(MuxLinkConfig::fast());
    let locality = run(MuxLinkConfig::locality_only());
    assert!(
        full > locality + 0.1,
        "full MuxLink ({full}) should clearly beat the locality-only learner ({locality})"
    );
}

#[test]
fn mlp_attack_outcome_is_identical_across_thread_counts() {
    // The MLP backend's bagged ensemble trains from per-member seeded RNGs
    // and reduces predictions in fixed member order, so — like the GNN
    // backend (`gnn_backend.rs`) — its outcome is bit-for-bit identical
    // whether it trains serially or fans members across rayon threads.
    let original = synth_circuit("thr", 12, 5, 200, 31);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let locked = DMuxLocking::default()
        .lock(&original, 12, &mut rng)
        .unwrap();
    let run = |threads: usize| {
        let mut r = ChaCha8Rng::seed_from_u64(11);
        MuxLinkAttack::new(MuxLinkConfig::fast().with_threads(threads)).attack(&locked, &mut r)
    };
    let serial = run(1);
    for threads in [2, 4, 0] {
        let parallel = run(threads);
        assert_eq!(
            parallel.key_accuracy, serial.key_accuracy,
            "key accuracy diverged at threads = {threads}"
        );
        assert_eq!(parallel.guesses.len(), serial.guesses.len());
        for (p, s) in parallel.guesses.iter().zip(&serial.guesses) {
            assert_eq!(p.bit, s.bit);
            assert_eq!(p.value, s.value, "bit {} diverged", p.bit);
            assert_eq!(
                p.confidence.to_bits(),
                s.confidence.to_bits(),
                "confidence of bit {} diverged",
                p.bit
            );
        }
    }
}
