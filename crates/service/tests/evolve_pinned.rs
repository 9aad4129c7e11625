//! Golden digests of the job engine's evolve rows.
//!
//! The `rows.jsonl` bytes an evolve job produces are the service's contract
//! with its consumers. These tests pin an FNV-1a digest of those bytes for a
//! classic `Evolve` job and for `EvolveIslands` jobs with and without
//! surrogate screening. The digests were captured before the service's
//! evolve jobs were rebuilt on `autolock::EvolutionJob`, so a passing run
//! proves that change byte-identical.

use autolock_circuits::synth_circuit;
use autolock_netlist::write_bench;
use autolock_service::{EngineConfig, JobEngine, JobKind, JobSpec, JobStatus};
use std::fs;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs one job in a fresh engine and returns the digest of its rows file.
fn rows_digest(tag: &str, kind: JobKind) -> u64 {
    let dir = std::env::temp_dir().join(format!("autolock_pin_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let spec = JobSpec {
        id: tag.into(),
        circuit: "pin-evo".into(),
        source: write_bench(&synth_circuit("pin-evo", 6, 3, 40, 7)),
        seed: 33,
        sequential: Default::default(),
        kind,
    };
    let engine = JobEngine::new(EngineConfig::rooted(&dir, 1)).unwrap();
    let rows = engine.run(std::slice::from_ref(&spec)).unwrap();
    assert_eq!(rows[0].status, JobStatus::Ok, "{tag}: {:?}", rows[0].error);
    let bytes = fs::read(dir.join("rows.jsonl")).unwrap();
    let _ = fs::remove_dir_all(&dir);
    fnv(&bytes)
}

fn islands(generations: usize, surrogate: bool) -> JobKind {
    JobKind::EvolveIslands {
        key_len: 3,
        population_size: 4,
        generations,
        islands: 2,
        migration_interval: 1,
        migrants: 1,
        surrogate,
    }
}

#[test]
fn evolve_rows_match_golden_digest() {
    let kind = JobKind::Evolve {
        key_len: 3,
        population_size: 4,
        generations: 2,
    };
    let got = rows_digest("evolve", kind);
    assert_eq!(
        got, 0x5326_1ab2_56d2_0e48,
        "digest {got:#x} drifted from the pin"
    );
}

#[test]
fn island_evolve_rows_match_golden_digest() {
    let got = rows_digest("islands", islands(2, false));
    assert_eq!(
        got, 0x0387_167f_d0b8_b005,
        "digest {got:#x} drifted from the pin"
    );
}

#[test]
fn surrogate_island_evolve_rows_match_golden_digest() {
    // One generation: the surrogate path's real fitness is the DGCNN attack.
    let got = rows_digest("surrogate", islands(1, true));
    assert_eq!(
        got, 0xac84_22f9_be63_847a,
        "digest {got:#x} drifted from the pin"
    );
}
