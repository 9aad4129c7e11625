//! Multi-kill chaos: repeated kills that tear the result stream and the
//! checkpoint files at arbitrary byte offsets never change the final
//! stream. Property-based — each case picks different tear points.

use autolock_circuits::synth_circuit;
use autolock_netlist::write_bench;
use autolock_service::{EngineConfig, JobEngine, JobKind, JobSpec, LockSpec};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autolock_chaos_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small, fast jobs covering all three kinds of persistent state: two SAT
/// jobs (mid-solve checkpoints), one evolution job (generation
/// checkpoints), plus the rows stream they all share.
fn chaos_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec {
            id: "sat-a".into(),
            circuit: "chaos-a".into(),
            source: write_bench(&synth_circuit("chaos-a", 8, 4, 60, 41)),
            seed: 51,
            sequential: Default::default(),
            kind: JobKind::SatAttack {
                lock: LockSpec::Xor { key_len: 4 },
                max_propagations_per_solve: None,
                max_iterations: 2000,
            },
        },
        JobSpec {
            id: "evo".into(),
            circuit: "chaos-evo".into(),
            source: write_bench(&synth_circuit("chaos-evo", 8, 3, 80, 42)),
            seed: 52,
            sequential: Default::default(),
            kind: JobKind::Evolve {
                key_len: 4,
                population_size: 3,
                generations: 2,
            },
        },
        JobSpec {
            id: "sat-b".into(),
            circuit: "chaos-b".into(),
            source: write_bench(&synth_circuit("chaos-b", 10, 4, 120, 43)),
            seed: 53,
            sequential: Default::default(),
            kind: JobKind::SatAttack {
                lock: LockSpec::DMux { key_len: 6 },
                max_propagations_per_solve: None,
                max_iterations: 2000,
            },
        },
    ]
}

fn config(dir: &Path) -> EngineConfig {
    let mut config = EngineConfig::rooted(dir, 0);
    // Checkpoint at every conflict so SAT checkpoints exist even on these
    // small instances, and the tear points land on real mid-run state.
    config.sat_step_conflicts = 1;
    config
}

/// The fault-free stream, computed once: what every chaotic life sequence
/// must converge to, byte for byte.
fn reference_bytes() -> &'static [u8] {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = scratch("ref");
        let engine = JobEngine::new(config(&dir)).unwrap();
        engine.run(&chaos_jobs()).unwrap();
        let bytes = fs::read(dir.join("rows.jsonl")).unwrap();
        let _ = fs::remove_dir_all(&dir);
        bytes
    })
}

/// Simulates a kill mid-write: keeps only the first `frac` of the file.
/// `frac` of 1.0 keeps everything — the "killed after the write" no-op.
fn truncate_at(path: &Path, frac: f64) {
    let Ok(bytes) = fs::read(path) else { return };
    let keep = ((bytes.len() as f64) * frac) as usize;
    fs::write(path, &bytes[..keep.min(bytes.len())]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    fn multi_kill_resume_converges_to_the_reference_stream(
        frac1 in 0.0f64..=1.0,
        frac2 in 0.0f64..=1.0,
        ckpt_frac in 0.0f64..=1.0,
    ) {
        let jobs = chaos_jobs();
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = scratch(&format!("case{case}"));
        let rows = dir.join("rows.jsonl");

        // Life 1: finish part of the batch, then die mid-write of the
        // stream.
        JobEngine::new(config(&dir)).unwrap().run(&jobs[..2]).unwrap();
        truncate_at(&rows, frac1);

        // Life 2: run the whole batch, then die again — this time also
        // tearing every checkpoint on disk at an arbitrary offset.
        JobEngine::new(config(&dir)).unwrap().run(&jobs).unwrap();
        truncate_at(&rows, frac2);
        for entry in fs::read_dir(dir.join("checkpoints")).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                truncate_at(&path, ckpt_frac);
            }
        }

        // Life 3: the survivor. Whatever was lost is recomputed; whatever
        // survived is reused; the stream must match the never-killed run.
        JobEngine::new(config(&dir)).unwrap().run(&jobs).unwrap();
        prop_assert_eq!(fs::read(&rows).unwrap(), reference_bytes());
        let _ = fs::remove_dir_all(&dir);
    }
}
