//! `serve_dir`: run the attack-as-a-service engine over a directory of
//! circuits — `.bench` and ASCII AIGER `.aag`, mixed freely — and emit one
//! JSONL status row per instance.
//!
//! ```text
//! cargo run --release -p autolock_bench --bin serve_dir -- \
//!     --dir circuits/ --out runs/smoke [--scheme xor|dmux] [--key-len N] \
//!     [--seed N] [--propagations N] [--iterations N] \
//!     [--attacks sat,muxlink,evolve] [--evolve-population N] \
//!     [--evolve-generations N] [--evolve-islands N] [--unroll N] \
//!     [--demo] [--demo-mixed]
//! ```
//!
//! Each circuit file becomes one job per attack in `--attacks` (default
//! `sat`): a SAT-attack job under the file stem, a MuxLink job under
//! `{stem}.muxlink`, an evolution job under `{stem}.evolve` — each with a
//! stable per-job seed and its own status row, so existing `.bench`
//! directories keep their historical ids and seeds. A **sequential**
//! circuit (an `.aag` with latches, or a `.bench` with `DFF`s) instead
//! fans out into two attack targets: the register cut under `{stem}.cut`
//! and the `--unroll N`-frame expansion under `{stem}.u{N}` (default 2),
//! each with the usual per-attack suffixes. Every row records the source
//! format in its `format` column. `--evolve-islands N` with
//! `N > 1` routes the evolve jobs through the island-model engine (ring
//! migration every generation) under the *same* ids and per-id seeds, so
//! enabling islands never reshuffles the other jobs' rows. Rows stream to
//! `<out>/rows.jsonl` as jobs finish; re-running against the same `--out`
//! directory resumes, skipping completed jobs, and the final stream is
//! bit-identical to an uninterrupted run. `--propagations` sets the
//! deterministic per-solve work cap (default
//! [`autolock_attacks::DEFAULT_MAX_PROPAGATIONS_PER_SOLVE`]), which is how
//! CI induces a reproducible `timeout` row; `--demo` first populates
//! `--dir` with two quick synthetic circuits plus the structurally hard
//! `st6288`, and `--demo-mixed` with the quick pair plus a sequential
//! `.aag` (the ingestion smoke set).
//!
//! Exit status is 0 when every row is `ok`, 2 when any row is `timeout` or
//! `error`, and 1 on usage or I/O failures.

use autolock_bench::demo::{write_demo_circuits, write_mixed_demo_circuits};
use autolock_bench::experiment_threads;
use autolock_service::{
    jobs_from_dir, DirJobConfig, DirJobKinds, EngineConfig, JobEngine, JobStatus, LockSpec,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// The command line: the job config plus the flags outside it.
struct Options {
    dir: PathBuf,
    out: PathBuf,
    config: DirJobConfig,
    demo: bool,
    demo_mixed: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_dir --dir <circuits> --out <run-dir> [--scheme xor|dmux] \
         [--key-len N] [--seed N] [--propagations N] \
         [--iterations N] [--attacks sat,muxlink,evolve] [--evolve-population N] \
         [--evolve-generations N] [--evolve-islands N] [--unroll N] [--demo] \
         [--demo-mixed]"
    );
    std::process::exit(1);
}

fn parse_options() -> Options {
    let mut config = DirJobConfig::default();
    let (mut dir, mut out) = (PathBuf::new(), PathBuf::new());
    let mut scheme = "xor".to_string();
    let mut key_len = config.lock.key_len();
    let (mut demo, mut demo_mixed) = (false, false);
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(value(&mut args, "--dir")),
            "--out" => out = PathBuf::from(value(&mut args, "--out")),
            "--scheme" => scheme = value(&mut args, "--scheme"),
            "--key-len" => key_len = parse_num(&value(&mut args, "--key-len")),
            "--seed" => config.seed = parse_num(&value(&mut args, "--seed")),
            "--propagations" => {
                config.max_propagations_per_solve =
                    Some(parse_num(&value(&mut args, "--propagations")));
            }
            "--iterations" => config.max_iterations = parse_num(&value(&mut args, "--iterations")),
            "--attacks" => config.kinds = parse_kinds(&value(&mut args, "--attacks")),
            "--evolve-population" => {
                config.evolve_population = parse_num(&value(&mut args, "--evolve-population"));
            }
            "--evolve-generations" => {
                config.evolve_generations = parse_num(&value(&mut args, "--evolve-generations"));
            }
            "--evolve-islands" => {
                config.evolve_islands = parse_num(&value(&mut args, "--evolve-islands"));
            }
            "--unroll" => config.unroll_frames = parse_num(&value(&mut args, "--unroll")),
            "--demo" => demo = true,
            "--demo-mixed" => demo_mixed = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if dir.as_os_str().is_empty() || out.as_os_str().is_empty() {
        usage();
    }
    config.lock = match scheme.as_str() {
        "xor" => LockSpec::Xor { key_len },
        "dmux" => LockSpec::DMux { key_len },
        other => {
            eprintln!("unknown scheme: {other} (expected xor or dmux)");
            std::process::exit(1);
        }
    };
    Options {
        dir,
        out,
        config,
        demo,
        demo_mixed,
    }
}

fn parse_num<T: std::str::FromStr>(text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {text}");
        usage()
    })
}

/// Parses the comma-separated `--attacks` list into job kinds.
fn parse_kinds(text: &str) -> DirJobKinds {
    let mut kinds = DirJobKinds {
        sat: false,
        muxlink: false,
        evolve: false,
    };
    for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "sat" => kinds.sat = true,
            "muxlink" => kinds.muxlink = true,
            "evolve" => kinds.evolve = true,
            other => {
                eprintln!("unknown attack: {other} (expected sat, muxlink or evolve)");
                usage()
            }
        }
    }
    if !(kinds.sat || kinds.muxlink || kinds.evolve) {
        eprintln!("--attacks needs at least one of sat, muxlink, evolve");
        usage()
    }
    kinds
}

fn main() -> ExitCode {
    let opts = parse_options();
    if opts.demo {
        if let Err(e) = write_demo_circuits(&opts.dir) {
            eprintln!("serve_dir: writing demo circuits: {e}");
            return ExitCode::from(1);
        }
    }
    if opts.demo_mixed {
        if let Err(e) = write_mixed_demo_circuits(&opts.dir) {
            eprintln!("serve_dir: writing mixed demo circuits: {e}");
            return ExitCode::from(1);
        }
    }

    let jobs = match jobs_from_dir(&opts.dir, &opts.config) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("serve_dir: scanning {}: {e}", opts.dir.display());
            return ExitCode::from(1);
        }
    };
    if jobs.is_empty() {
        eprintln!("serve_dir: no .bench/.aag files in {}", opts.dir.display());
        return ExitCode::from(1);
    }
    eprintln!(
        "serve_dir: {} job(s) from {} -> {}",
        jobs.len(),
        opts.dir.display(),
        opts.out.display()
    );

    let engine = match JobEngine::new(EngineConfig::rooted(&opts.out, experiment_threads())) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("serve_dir: opening {}: {e}", opts.out.display());
            return ExitCode::from(1);
        }
    };
    let rows = match engine.run(&jobs) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("serve_dir: running jobs: {e}");
            return ExitCode::from(1);
        }
    };

    let mut all_ok = true;
    for row in &rows {
        let status = match row.status {
            JobStatus::Ok => "ok",
            JobStatus::Timeout => "timeout",
            JobStatus::Error => "error",
        };
        if row.status != JobStatus::Ok {
            all_ok = false;
        }
        println!(
            "{:<24} {:<7} {:<8} {:<8} key_len={} iterations={}{}",
            row.job_id,
            row.format,
            row.attack,
            status,
            row.key_len,
            row.iterations,
            row.error
                .as_deref()
                .map(|e| format!(" error={e}"))
                .unwrap_or_default()
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
