//! End-to-end contracts of the job engine: resume bit-identity, GA
//! checkpoint reuse, registry hits, and directory serving.

use autolock::EvolutionJob;
use autolock_attacks::MuxLinkConfig;
use autolock_circuits::{suite_circuit, synth_circuit};
use autolock_netlist::write_bench;
use autolock_service::{
    jobs_from_dir, DirJobConfig, EngineConfig, FaultKind, FaultPlan, FaultSpec, JobEngine, JobKind,
    JobSpec, JobStatus, LockSpec,
};
use std::fs;
use std::path::PathBuf;

/// A fresh scratch directory unique to this test (and process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autolock_svc_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_source(seed: u64) -> String {
    write_bench(&synth_circuit("svc", 10, 4, 120, seed))
}

/// A mixed batch: two SAT jobs (one easy, one with a deterministic induced
/// timeout on a genuinely hard structured miter), a MuxLink job, a small
/// evolution job, and a malformed circuit.
fn mixed_jobs() -> Vec<JobSpec> {
    let hard = write_bench(&suite_circuit("st6288").expect("suite circuit"));
    vec![
        JobSpec {
            id: "sat-easy".into(),
            circuit: "svc-easy".into(),
            source: tiny_source(3),
            seed: 11,
            sequential: Default::default(),
            kind: JobKind::SatAttack {
                lock: LockSpec::Xor { key_len: 8 },
                timeout_ms: 600_000,
                max_propagations_per_solve: None,
                max_iterations: 2000,
            },
        },
        JobSpec {
            id: "sat-capped".into(),
            circuit: "st6288".into(),
            source: hard,
            seed: 12,
            sequential: Default::default(),
            kind: JobKind::SatAttack {
                lock: LockSpec::DMux { key_len: 16 },
                timeout_ms: 600_000,
                max_propagations_per_solve: Some(20_000),
                max_iterations: 30,
            },
        },
        JobSpec {
            id: "muxlink".into(),
            circuit: "svc-ml".into(),
            source: tiny_source(4),
            seed: 13,
            sequential: Default::default(),
            kind: JobKind::MuxLinkAttack {
                lock: LockSpec::DMux { key_len: 8 },
                attack: MuxLinkConfig::fast(),
            },
        },
        JobSpec {
            id: "evolve".into(),
            circuit: "svc-evo".into(),
            source: write_bench(&synth_circuit("svc-evo", 8, 3, 80, 5)),
            seed: 14,
            sequential: Default::default(),
            kind: JobKind::Evolve {
                key_len: 4,
                population_size: 3,
                generations: 1,
            },
        },
        JobSpec {
            id: "broken".into(),
            circuit: "broken".into(),
            source: "INPUT(a)\nnot bench at all".into(),
            seed: 15,
            sequential: Default::default(),
            kind: JobKind::SatAttack {
                lock: LockSpec::Xor { key_len: 4 },
                timeout_ms: 1000,
                max_propagations_per_solve: None,
                max_iterations: 10,
            },
        },
    ]
}

/// The headline tentpole guarantee: a run that was interrupted (rows
/// already on disk, a torn trailing line from the kill) and then resumed
/// produces a byte-identical result stream to a run that was never
/// interrupted.
#[test]
fn resumed_run_is_bit_identical_to_uninterrupted_run() {
    let jobs = mixed_jobs();

    let dir_a = scratch("uninterrupted");
    let engine_a = JobEngine::new(EngineConfig::rooted(&dir_a, 0)).unwrap();
    let rows_a = engine_a.run(&jobs).unwrap();
    let bytes_a = fs::read(dir_a.join("rows.jsonl")).unwrap();

    // Interrupted variant: finish only the first two jobs, simulate the
    // kill's torn trailing line, then resume with the full batch.
    let dir_b = scratch("resumed");
    let engine_b = JobEngine::new(EngineConfig::rooted(&dir_b, 0)).unwrap();
    engine_b.run(&jobs[..2]).unwrap();
    {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(dir_b.join("rows.jsonl"))
            .unwrap();
        write!(f, "{{\"job_id\":\"torn").unwrap();
    }
    let rows_b = engine_b.run(&jobs).unwrap();
    let bytes_b = fs::read(dir_b.join("rows.jsonl")).unwrap();

    assert_eq!(rows_a, rows_b);
    assert_eq!(bytes_a, bytes_b, "result streams must be byte-identical");

    // Sanity on the row content itself.
    assert_eq!(rows_a.len(), jobs.len());
    assert_eq!(rows_a[0].status, JobStatus::Ok);
    assert!(rows_a[0].success);
    assert_eq!(rows_a[1].status, JobStatus::Timeout);
    assert!(!rows_a[1].success);
    assert_eq!(rows_a[2].status, JobStatus::Ok);
    assert!(rows_a[2].key_accuracy.is_some());
    assert_eq!(rows_a[3].status, JobStatus::Ok);
    assert_eq!(rows_a[3].iterations, 1);
    assert_eq!(rows_a[4].status, JobStatus::Error);
    assert!(rows_a[4].error.is_some());

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

fn evolve_job(generations: usize, seed: u64) -> JobSpec {
    JobSpec {
        id: "evo".into(),
        circuit: "svc-evo".into(),
        source: write_bench(&synth_circuit("svc-evo", 8, 3, 80, 5)),
        seed,
        sequential: Default::default(),
        kind: JobKind::Evolve {
            key_len: 4,
            population_size: 3,
            generations,
        },
    }
}

/// A mid-run GA checkpoint (here: the generation-1 state of a shorter run,
/// which is bit-identical to the generation-1 state of the longer run) is
/// picked up and continued, and the finished row equals the
/// never-interrupted row exactly.
#[test]
fn evolution_resumes_from_generation_checkpoint_bit_identically() {
    // Produce a genuine mid-run checkpoint: run the same job with a
    // 1-generation budget; its final checkpoint is exactly the state a
    // 2-generation run has after generation 1.
    let dir_short = scratch("evo_short");
    let engine_short = JobEngine::new(EngineConfig::rooted(&dir_short, 1)).unwrap();
    engine_short.run(&[evolve_job(1, 21)]).unwrap();
    let ckpt = fs::read(engine_short.checkpoint_path("evo")).unwrap();

    // Resumed run: seed the checkpoint, then ask for 2 generations.
    let dir_resume = scratch("evo_resume");
    let engine_resume = JobEngine::new(EngineConfig::rooted(&dir_resume, 1)).unwrap();
    fs::write(engine_resume.checkpoint_path("evo"), &ckpt).unwrap();
    let rows_resume = engine_resume.run(&[evolve_job(2, 21)]).unwrap();

    // Reference: the same 2-generation job, never interrupted.
    let dir_fresh = scratch("evo_fresh");
    let engine_fresh = JobEngine::new(EngineConfig::rooted(&dir_fresh, 1)).unwrap();
    let rows_fresh = engine_fresh.run(&[evolve_job(2, 21)]).unwrap();

    assert_eq!(rows_resume, rows_fresh);
    assert_eq!(rows_resume[0].iterations, 2);

    // Prove the checkpoint was actually used (not silently recomputed):
    // hand a *finished* checkpoint to a job whose own seed would evolve
    // differently — the row must reflect the checkpointed run.
    let done_ckpt = fs::read(engine_fresh.checkpoint_path("evo")).unwrap();
    let dir_alien = scratch("evo_alien");
    let engine_alien = JobEngine::new(EngineConfig::rooted(&dir_alien, 1)).unwrap();
    fs::write(engine_alien.checkpoint_path("evo"), &done_ckpt).unwrap();
    let rows_alien = engine_alien.run(&[evolve_job(2, 9999)]).unwrap();
    assert_eq!(rows_alien[0].key_accuracy, rows_fresh[0].key_accuracy);

    for d in [dir_short, dir_resume, dir_fresh, dir_alien] {
        let _ = fs::remove_dir_all(&d);
    }
}

fn island_evolve_job(generations: usize, seed: u64) -> JobSpec {
    JobSpec {
        id: "evo-isl".into(),
        circuit: "svc-evo".into(),
        source: write_bench(&synth_circuit("svc-evo", 8, 3, 80, 5)),
        seed,
        sequential: Default::default(),
        kind: JobKind::EvolveIslands {
            key_len: 4,
            population_size: 4,
            generations,
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            surrogate: false,
        },
    }
}

/// An island-evolve job killed at a generation boundary resumes from its
/// `{id}.iga.json` checkpoint — through the unified `Resumable` path — to
/// the exact row an uninterrupted run produces.
#[test]
fn island_evolution_resumes_from_generation_checkpoint_bit_identically() {
    use autolock_evo::Resumable;
    autolock_obs::enable();

    let dir_fresh = scratch("isl_fresh");
    let engine_fresh = JobEngine::new(EngineConfig::rooted(&dir_fresh, 1)).unwrap();
    let rows_fresh = engine_fresh.run(&[island_evolve_job(2, 21)]).unwrap();
    assert_eq!(rows_fresh[0].status, JobStatus::Ok);
    assert_eq!(rows_fresh[0].attack, "evolve");
    assert_eq!(rows_fresh[0].iterations, 2);

    // Reproduce what the engine persists mid-run: build the same job, step
    // it one generation, and park the checkpoint where the engine will look
    // for it.
    let dir_resume = scratch("isl_resume");
    let engine_resume = JobEngine::new(EngineConfig::rooted(&dir_resume, 1)).unwrap();
    {
        let spec = island_evolve_job(2, 21);
        let config = spec.evolution_config().unwrap();
        let job = EvolutionJob::new(&config, &spec.ingest().unwrap().netlist).unwrap();
        let mut state = job.init_state();
        assert!(job.step(&mut state));
        let ckpt = serde_json::to_string(&job.checkpoint(&state)).unwrap();
        engine_resume
            .store()
            .write(
                &JobEngine::island_checkpoint_name("evo-isl"),
                ckpt.as_bytes(),
            )
            .unwrap();
    }
    let resumes_before = autolock_obs::counter("service.evolve_resumes").value();
    let rows_resume = engine_resume.run(&[island_evolve_job(2, 21)]).unwrap();
    assert!(
        autolock_obs::counter("service.evolve_resumes").value() > resumes_before,
        "the engine must resume from the seeded island checkpoint"
    );
    assert_eq!(rows_fresh, rows_resume);
    assert_eq!(
        fs::read(dir_fresh.join("rows.jsonl")).unwrap(),
        fs::read(dir_resume.join("rows.jsonl")).unwrap()
    );

    let _ = fs::remove_dir_all(&dir_fresh);
    let _ = fs::remove_dir_all(&dir_resume);
}

/// Evolve specs the AutoLock engine cannot run fail fast with a structured
/// error row: no panic, no retry, no attempt count. Population 0 reaches the
/// validation too (the elitism mapping must not underflow first), and an
/// island job with fewer than 2 islands is rejected instead of silently
/// running the classic GA.
#[test]
fn invalid_evolve_specs_yield_fatal_error_rows() {
    let evolve = |population_size, key_len| JobKind::Evolve {
        key_len,
        population_size,
        generations: 1,
    };
    let islands = |population_size, islands| JobKind::EvolveIslands {
        key_len: 4,
        population_size,
        generations: 1,
        islands,
        migration_interval: 1,
        migrants: 1,
        surrogate: false,
    };
    let kinds = [
        evolve(0, 4),
        evolve(1, 4),
        evolve(4, 0),
        islands(3, 2),
        islands(4, 1),
        islands(4, 0),
    ];
    let jobs: Vec<JobSpec> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| JobSpec {
            id: format!("bad-{i}"),
            circuit: "svc-evo".into(),
            source: tiny_source(6),
            seed: 5,
            sequential: Default::default(),
            kind,
        })
        .collect();

    let dir = scratch("evolve_invalid");
    let engine = JobEngine::new(EngineConfig::rooted(&dir, 1)).unwrap();
    let rows = engine.run(&jobs).unwrap();
    assert_eq!(rows.len(), jobs.len());
    for row in &rows {
        let error = row.error.as_deref().unwrap_or("");
        assert_eq!(row.status, JobStatus::Error, "{}", row.job_id);
        assert_eq!(row.attempts, None, "{}: retried ({error})", row.job_id);
        assert!(
            error.starts_with("invalid configuration"),
            "{}: {error}",
            row.job_id
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `--evolve-islands`-style configs route evolve jobs through the island
/// engine under the same ids and per-id seeds, so enabling islands never
/// reshuffles the existing rows of the other kinds.
#[test]
fn island_dir_jobs_keep_ids_and_seeds_stable() {
    let bench_dir = scratch("bench_islands");
    fs::write(bench_dir.join("a.bench"), tiny_source(8)).unwrap();

    let base = DirJobConfig {
        lock: LockSpec::Xor { key_len: 4 },
        seed: 1,
        kinds: autolock_service::DirJobKinds {
            sat: true,
            muxlink: true,
            evolve: true,
        },
        evolve_population: 4,
        evolve_generations: 1,
        ..DirJobConfig::default()
    };
    let classic = jobs_from_dir(&bench_dir, &base).unwrap();
    let islands = jobs_from_dir(
        &bench_dir,
        &DirJobConfig {
            evolve_islands: 2,
            ..base
        },
    )
    .unwrap();

    assert_eq!(classic.len(), islands.len());
    for (c, i) in classic.iter().zip(&islands) {
        assert_eq!(c.id, i.id);
        assert_eq!(c.seed, i.seed);
    }
    assert!(matches!(
        islands.iter().find(|j| j.id == "a.evolve").unwrap().kind,
        JobKind::EvolveIslands {
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            surrogate: false,
            ..
        }
    ));
    assert!(matches!(
        classic.iter().find(|j| j.id == "a.evolve").unwrap().kind,
        JobKind::Evolve { .. }
    ));

    let _ = fs::remove_dir_all(&bench_dir);
}

/// A registry hit skips training yet yields a bit-identical row, and the
/// registry holds exactly one model for the repeated (circuit, config,
/// seed) triple.
#[test]
fn registry_hit_reproduces_the_trained_row_exactly() {
    autolock_obs::enable();
    let registry_dir = scratch("registry_shared");
    let job = JobSpec {
        id: "ml".into(),
        circuit: "svc-ml".into(),
        source: tiny_source(4),
        seed: 31,
        sequential: Default::default(),
        kind: JobKind::MuxLinkAttack {
            lock: LockSpec::DMux { key_len: 8 },
            attack: MuxLinkConfig::fast(),
        },
    };

    let run_in = |tag: &str| {
        let dir = scratch(tag);
        let config = EngineConfig {
            registry_dir: Some(registry_dir.clone()),
            threads: 1,
            ..EngineConfig::rooted(&dir, 1)
        };
        let engine = JobEngine::new(config).unwrap();
        let rows = engine.run(std::slice::from_ref(&job)).unwrap();
        let stored = engine.registry().unwrap().len();
        let _ = fs::remove_dir_all(&dir);
        (rows, stored)
    };

    let hits_before = autolock_obs::counter("service.registry.hits").value();
    let (rows_first, stored_first) = run_in("registry_first");
    let (rows_second, stored_second) = run_in("registry_second");
    let hits_after = autolock_obs::counter("service.registry.hits").value();

    assert_eq!(rows_first, rows_second);
    assert_eq!(stored_first, 1);
    assert_eq!(stored_second, 1, "repeat run must reuse the stored model");
    assert!(
        hits_after > hits_before,
        "second run must hit the registry ({hits_before} -> {hits_after})"
    );
    let _ = fs::remove_dir_all(&registry_dir);
}

/// `jobs_from_dir` scans `.bench` files in sorted order, derives stable
/// per-circuit seeds, and the engine emits one status row per instance —
/// malformed files included.
#[test]
fn serves_a_directory_with_one_row_per_instance() {
    let bench_dir = scratch("bench_dir");
    fs::write(bench_dir.join("b.bench"), tiny_source(7)).unwrap();
    fs::write(bench_dir.join("a.bench"), tiny_source(8)).unwrap();
    fs::write(bench_dir.join("zz-broken.bench"), "garbage(").unwrap();
    fs::write(bench_dir.join("notes.txt"), "ignored").unwrap();

    let config = DirJobConfig {
        lock: LockSpec::Xor { key_len: 8 },
        seed: 1,
        ..DirJobConfig::default()
    };
    let jobs = jobs_from_dir(&bench_dir, &config).unwrap();
    let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["a", "b", "zz-broken"]);
    assert_ne!(jobs[0].seed, jobs[1].seed);

    let out_dir = scratch("bench_out");
    let engine = JobEngine::new(EngineConfig::rooted(&out_dir, 0)).unwrap();
    let rows = engine.run(&jobs).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].status, JobStatus::Ok);
    assert_eq!(rows[1].status, JobStatus::Ok);
    assert_eq!(rows[2].status, JobStatus::Error);
    assert!(rows[2].error.as_deref().unwrap_or("").contains("parse"));

    let _ = fs::remove_dir_all(&bench_dir);
    let _ = fs::remove_dir_all(&out_dir);
}

/// `jobs_from_dir` with all kinds enabled emits one job per (circuit,
/// kind), and the engine reports a per-kind status row for each.
#[test]
fn serves_a_directory_with_every_job_kind() {
    let bench_dir = scratch("bench_kinds");
    fs::write(bench_dir.join("a.bench"), tiny_source(8)).unwrap();
    fs::write(bench_dir.join("broken.bench"), "garbage(").unwrap();

    let config = DirJobConfig {
        lock: LockSpec::Xor { key_len: 4 },
        seed: 1,
        kinds: autolock_service::DirJobKinds {
            sat: true,
            muxlink: true,
            evolve: true,
        },
        evolve_population: 3,
        evolve_generations: 1,
        ..DirJobConfig::default()
    };
    let jobs = jobs_from_dir(&bench_dir, &config).unwrap();
    let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "a",
            "a.muxlink",
            "a.evolve",
            "broken",
            "broken.muxlink",
            "broken.evolve"
        ]
    );
    // Per-id seed mixing: enabling more kinds never reshuffles others.
    let sat_only = jobs_from_dir(
        &bench_dir,
        &DirJobConfig {
            lock: LockSpec::Xor { key_len: 4 },
            seed: 1,
            ..DirJobConfig::default()
        },
    )
    .unwrap();
    assert_eq!(sat_only[0].seed, jobs[0].seed);

    let out_dir = scratch("bench_kinds_out");
    let engine = JobEngine::new(EngineConfig::rooted(&out_dir, 0)).unwrap();
    let rows = engine.run(&jobs).unwrap();
    assert_eq!(rows.len(), 6);
    assert_eq!(rows[0].attack, "sat");
    assert!(rows[1].attack.starts_with("muxlink"));
    assert_eq!(rows[2].attack, "evolve");
    for row in &rows[..3] {
        assert_eq!(row.status, JobStatus::Ok, "{row:?}");
    }
    // The malformed circuit fails per kind, with the kind's own label.
    for (row, label) in rows[3..].iter().zip(["sat", "muxlink", "evolve"]) {
        assert_eq!(row.status, JobStatus::Error, "{row:?}");
        assert_eq!(row.attack, label);
    }

    let _ = fs::remove_dir_all(&bench_dir);
    let _ = fs::remove_dir_all(&out_dir);
}

/// A SAT job picks up a mid-run checkpoint (written at a step boundary, as
/// the engine does before a kill) and finishes with the exact row an
/// uninterrupted run produces.
#[test]
fn sat_job_resumes_from_a_mid_run_checkpoint_bit_identically() {
    autolock_obs::enable();
    let job = &mixed_jobs()[0]; // sat-easy
    let granule = 1;

    let dir_a = scratch("sat_ref");
    let mut config_a = EngineConfig::rooted(&dir_a, 1);
    config_a.sat_step_conflicts = granule;
    let engine_a = JobEngine::new(config_a).unwrap();
    let rows_a = engine_a.run(std::slice::from_ref(job)).unwrap();

    // Reproduce what the engine persists mid-run: derive the same locked
    // netlist from the job seed, step the attack three boundaries, and
    // write the framed checkpoint under the job's checkpoint name.
    let dir_b = scratch("sat_resume");
    let mut config_b = EngineConfig::rooted(&dir_b, 1);
    config_b.sat_step_conflicts = granule;
    let engine_b = JobEngine::new(config_b).unwrap();
    {
        use autolock_attacks::{SatAttack, SatAttackConfig};
        use rand::SeedableRng;
        // Same front-door path the engine takes when loading the job.
        let opts = autolock_netlist::ingest::IngestOptions {
            sequential: job.sequential,
            ..Default::default()
        };
        let netlist = autolock_netlist::ingest::parse_auto(&job.circuit, &job.source, &opts)
            .unwrap()
            .netlist;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(job.seed);
        let JobKind::SatAttack { lock, .. } = &job.kind else {
            unreachable!("sat job")
        };
        let locked = lock.apply(&netlist, &mut rng).unwrap();
        let attack = SatAttack::new(SatAttackConfig {
            max_iterations: 2000,
            timeout_ms: 600_000,
            max_propagations_per_solve: None,
            checkpoint_conflicts: Some(granule),
        });
        let mut state = attack.init_state(&locked, &netlist);
        for _ in 0..3 {
            if !attack.step(&mut state, &locked, &netlist) {
                break;
            }
        }
        let ckpt = serde_json::to_string(&attack.checkpoint(&state)).unwrap();
        engine_b
            .store()
            .write("sat-easy.sat.json", ckpt.as_bytes())
            .unwrap();
    }
    let resumes_before = autolock_obs::counter("service.sat_resumes").value();
    let rows_b = engine_b.run(std::slice::from_ref(job)).unwrap();
    assert!(
        autolock_obs::counter("service.sat_resumes").value() > resumes_before,
        "the engine must resume from the seeded checkpoint"
    );
    assert_eq!(rows_a, rows_b);
    assert_eq!(
        fs::read(dir_a.join("rows.jsonl")).unwrap(),
        fs::read(dir_b.join("rows.jsonl")).unwrap()
    );

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// A corrupt (here: truncated mid-record) GA checkpoint is detected,
/// quarantined, and the job recomputes from its seed to the identical row —
/// corruption costs work, never correctness and never a crash.
#[test]
fn corrupt_ga_checkpoint_is_quarantined_and_recomputed() {
    autolock_obs::enable();
    let dir_a = scratch("ga_ref");
    let engine_a = JobEngine::new(EngineConfig::rooted(&dir_a, 1)).unwrap();
    let rows_a = engine_a.run(&[evolve_job(2, 21)]).unwrap();

    let dir_b = scratch("ga_corrupt");
    let engine_b = JobEngine::new(EngineConfig::rooted(&dir_b, 1)).unwrap();
    // A realistic torn write: a valid checkpoint's bytes cut mid-record.
    let good = fs::read(engine_a.checkpoint_path("evo")).unwrap();
    fs::write(engine_b.checkpoint_path("evo"), &good[..good.len() / 2]).unwrap();

    let corrupt_before = autolock_obs::counter("service.store.corrupt").value();
    let rows_b = engine_b.run(&[evolve_job(2, 21)]).unwrap();
    assert_eq!(rows_a, rows_b);
    assert!(
        autolock_obs::counter("service.store.corrupt").value() > corrupt_before,
        "the torn checkpoint must be detected"
    );
    assert!(
        dir_b.join("quarantine").join("evo.ga.json").exists(),
        "the torn checkpoint must be quarantined"
    );

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// A transiently panicking job is retried and its row — and the whole
/// stream — is byte-identical to a run where the panic never happened.
#[test]
fn transient_panic_is_retried_to_an_identical_stream() {
    autolock_obs::enable();
    let jobs = vec![mixed_jobs().swap_remove(0)]; // sat-easy

    let dir_a = scratch("panic_ref");
    let engine_a = JobEngine::new(EngineConfig::rooted(&dir_a, 1)).unwrap();
    engine_a.run(&jobs).unwrap();

    let dir_b = scratch("panic_once");
    let mut config = EngineConfig::rooted(&dir_b, 1);
    config.faults = FaultPlan::new(vec![FaultSpec::new("exec:sat-easy#1", 1, FaultKind::Panic)]);
    let engine_b = JobEngine::new(config).unwrap();
    let retries_before = autolock_obs::counter("service.exec_retries").value();
    let rows = engine_b.run(&jobs).unwrap();
    assert!(
        autolock_obs::counter("service.exec_retries").value() > retries_before,
        "the panic must consume a retry"
    );
    assert_eq!(rows[0].status, JobStatus::Ok);
    assert_eq!(
        rows[0].attempts, None,
        "retried rows carry no attempt count"
    );
    assert_eq!(
        fs::read(dir_a.join("rows.jsonl")).unwrap(),
        fs::read(dir_b.join("rows.jsonl")).unwrap()
    );

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// A job that panics on every attempt exhausts its retry budget, is
/// quarantined, and ends as exactly one structured `error` row carrying
/// the attempt count — the batch and its other rows are unaffected.
#[test]
fn poison_job_is_quarantined_after_exhausting_retries() {
    autolock_obs::enable();
    let mut jobs = mixed_jobs();
    jobs.truncate(1); // sat-easy — the poison victim
    jobs.push(JobSpec {
        id: "healthy".into(),
        circuit: "svc-ok".into(),
        source: tiny_source(6),
        seed: 16,
        sequential: Default::default(),
        kind: JobKind::SatAttack {
            lock: LockSpec::Xor { key_len: 4 },
            timeout_ms: 600_000,
            max_propagations_per_solve: None,
            max_iterations: 2000,
        },
    });

    let dir = scratch("poison");
    let mut config = EngineConfig::rooted(&dir, 1);
    config.max_attempts = 3;
    config.faults = FaultPlan::new(vec![
        FaultSpec::new("exec:sat-easy#1", 1, FaultKind::Panic),
        FaultSpec::new("exec:sat-easy#2", 1, FaultKind::Panic),
        FaultSpec::new("exec:sat-easy#3", 1, FaultKind::Panic),
    ]);
    let engine = JobEngine::new(config).unwrap();
    let quarantined_before = autolock_obs::counter("service.jobs_quarantined").value();
    let rows = engine.run(&jobs).unwrap();

    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].status, JobStatus::Error);
    assert_eq!(rows[0].attempts, Some(3));
    assert!(rows[0].error.as_deref().unwrap_or("").contains("panic"));
    assert_eq!(
        rows[1].status,
        JobStatus::Ok,
        "batch survives the poison job"
    );
    assert!(autolock_obs::counter("service.jobs_quarantined").value() > quarantined_before);
    assert!(
        dir.join("quarantine").join("sat-easy.poison.json").exists(),
        "the poisoned spec must be parked for post-mortem"
    );

    let _ = fs::remove_dir_all(&dir);
}
