//! Seeded chaos smoke for the fault-tolerant attack service.
//!
//! ```text
//! cargo run --release -p autolock_bench --bin chaos_smoke -- [--seed N] [--out DIR]
//! ```
//!
//! Runs the full demo job matrix (SAT + MuxLink + evolution per circuit)
//! twice: once fault-free to record the reference `rows.jsonl`, once under a
//! seeded random [`FaultPlan`] that injects a worker panic, corrupts every
//! mid-solve SAT checkpoint write for one victim job, and scatters further
//! recoverable faults — then simulates a kill (the victim's finished row is
//! torn out of the stream) and lets a clean engine recover. The run **fails**
//! (exit 1) unless all three gates hold:
//!
//! 1. the recovered stream is byte-for-byte identical to the reference,
//! 2. at least one injected panic was absorbed by the retry loop
//!    (`service.exec_retries` advanced), and
//! 3. at least one corrupt record was detected and quarantined
//!    (`service.store.quarantined` advanced).
//!
//! Every decision derives from `--seed`, so a CI failure reproduces locally
//! with the seed the job prints.

use autolock_bench::demo::write_quick_demo_circuits;
use autolock_service::{
    jobs_from_dir, DirJobConfig, DirJobKinds, EngineConfig, FaultKind, FaultPlan, FaultSpec,
    JobEngine, JobSpec, LockSpec,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    seed: u64,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: chaos_smoke [--seed N] [--out DIR]");
    std::process::exit(1)
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xC0FF_EE00,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => {
                opts.seed = value().parse().unwrap_or_else(|_| {
                    eprintln!("--seed takes a number");
                    usage()
                })
            }
            "--out" => opts.out = Some(PathBuf::from(value())),
            _ => {
                eprintln!("unknown flag: {arg}");
                usage()
            }
        }
    }
    opts
}

/// The demo job matrix: both quick demo circuits, all three job kinds.
fn demo_jobs(circuits: &Path) -> std::io::Result<Vec<JobSpec>> {
    write_quick_demo_circuits(circuits)?;
    let config = DirJobConfig {
        lock: LockSpec::Xor { key_len: 4 },
        seed: 0x0C4A_05C0,
        timeout_ms: 600_000,
        max_propagations_per_solve: None,
        max_iterations: 2000,
        kinds: DirJobKinds {
            sat: true,
            muxlink: true,
            evolve: true,
        },
        evolve_population: 3,
        evolve_generations: 1,
        evolve_islands: 1,
        unroll_frames: 2,
    };
    jobs_from_dir(circuits, &config)
}

/// Engine config shared by the reference and chaos runs: checkpoint every
/// conflict so SAT checkpoints always exist for the corruption to target.
fn engine_config(dir: &Path, faults: Arc<FaultPlan>) -> EngineConfig {
    let mut config = EngineConfig::rooted(dir, 2);
    config.sat_step_conflicts = 1;
    config.faults = faults;
    config
}

/// Builds the seeded fault plan. Two faults are guaranteed (they feed the
/// gates): a panic on some job's first execution attempt, and corruption of
/// every mid-solve checkpoint write for one SAT job. The rest is random
/// scatter over recoverable seams.
fn build_plan(rng: &mut ChaCha8Rng, jobs: &[JobSpec], sat_victim: &str) -> Arc<FaultPlan> {
    let panic_victim = &jobs[rng.gen_range(0..jobs.len())].id;
    let mut specs = vec![FaultSpec::new(
        format!("exec:{panic_victim}#1"),
        1,
        FaultKind::Panic,
    )];
    for occurrence in 1..=512 {
        specs.push(FaultSpec::new(
            format!("store.write:{sat_victim}.sat.json"),
            occurrence,
            FaultKind::CorruptBytes,
        ));
    }
    if rng.gen_bool(0.5) {
        let torn = &jobs[rng.gen_range(0..jobs.len())].id;
        specs.push(FaultSpec::new(
            format!("rows.append:{torn}"),
            1,
            FaultKind::TornWrite,
        ));
    }
    if rng.gen_bool(0.5) {
        specs.push(FaultSpec::new("rows.compact", 1, FaultKind::TornWrite));
    }
    FaultPlan::new(specs)
}

/// Rewrites `rows` without the line for `id` — the simulated kill that
/// forces the next engine life to re-run that job and read (then reject)
/// its corrupt checkpoint.
fn drop_row(rows: &Path, id: &str) -> std::io::Result<()> {
    let needle = format!("\"job_id\":\"{id}\"");
    let text = fs::read_to_string(rows)?;
    let kept: String = text
        .lines()
        .filter(|line| !line.contains(&needle))
        .map(|line| format!("{line}\n"))
        .collect();
    fs::write(rows, kept)
}

fn main() -> ExitCode {
    autolock_obs::enable();
    let opts = parse_args();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    println!("chaos_smoke seed={}", opts.seed);

    let root = opts.out.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("autolock_chaos_smoke_{}", std::process::id()))
    });
    let _ = fs::remove_dir_all(&root);
    let circuits = root.join("circuits");
    let jobs = demo_jobs(&circuits).expect("demo circuits");
    let sat_jobs: Vec<&str> = jobs
        .iter()
        .filter(|j| !j.id.contains('.'))
        .map(|j| j.id.as_str())
        .collect();
    let sat_victim = sat_jobs[rng.gen_range(0..sat_jobs.len())].to_string();

    // Reference: the stream a fault-free run produces.
    let ref_dir = root.join("reference");
    JobEngine::new(engine_config(&ref_dir, FaultPlan::none()))
        .expect("reference engine")
        .run(&jobs)
        .expect("reference run");
    let reference = fs::read(ref_dir.join("rows.jsonl")).expect("reference stream");

    let retries_before = autolock_obs::counter("service.exec_retries").value();
    let quarantined_before = autolock_obs::counter("service.store.quarantined").value();

    // Life 1: run everything under the fault plan. The panic is retried in
    // place; the victim's checkpoints all land corrupt on disk.
    let plan = build_plan(&mut rng, &jobs, &sat_victim);
    let chaos_dir = root.join("chaos");
    JobEngine::new(engine_config(&chaos_dir, Arc::clone(&plan)))
        .expect("chaos engine")
        .run(&jobs)
        .expect("chaos run");
    println!("life 1: {} fault(s) fired", plan.fired());

    // The kill: tear the victim's row out of the stream so life 2 must
    // re-run it — and hit the corrupt checkpoint first.
    let rows = chaos_dir.join("rows.jsonl");
    drop_row(&rows, &sat_victim).expect("drop victim row");

    // Life 2: a clean engine recovers — detects the corrupt checkpoint,
    // quarantines it, recomputes the job from scratch.
    JobEngine::new(engine_config(&chaos_dir, FaultPlan::none()))
        .expect("recovery engine")
        .run(&jobs)
        .expect("recovery run");

    let recovered = fs::read(&rows).expect("recovered stream");
    let retries = autolock_obs::counter("service.exec_retries").value() - retries_before;
    let quarantined =
        autolock_obs::counter("service.store.quarantined").value() - quarantined_before;

    let mut ok = true;
    if recovered == reference {
        println!("gate 1 PASS: recovered stream is byte-identical to the reference");
    } else {
        println!(
            "gate 1 FAIL: recovered stream ({} bytes) differs from reference ({} bytes)",
            recovered.len(),
            reference.len()
        );
        ok = false;
    }
    if retries >= 1 {
        println!("gate 2 PASS: retry loop absorbed {retries} injected failure(s)");
    } else {
        println!("gate 2 FAIL: no retry was exercised");
        ok = false;
    }
    if quarantined >= 1 {
        println!("gate 3 PASS: {quarantined} corrupt record(s) quarantined");
    } else {
        println!("gate 3 FAIL: no quarantine was exercised");
        ok = false;
    }

    if ok {
        let _ = fs::remove_dir_all(&root);
        println!("chaos_smoke PASS (seed={})", opts.seed);
        ExitCode::SUCCESS
    } else {
        println!(
            "chaos_smoke FAIL (seed={}); artifacts kept at {}",
            opts.seed,
            root.display()
        );
        ExitCode::FAILURE
    }
}
