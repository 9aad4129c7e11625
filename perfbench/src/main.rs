//! End-to-end benchmark of the AutoLock workspace.
//!
//! ```text
//! perfbench --workload <sat-dip|muxlink|evolve|serve-batch> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One workload runs per process. Set-up (generate and lock circuits, write
//! the job directory, warm up) runs at least five times and reports its
//! median as `setup_s`. The timed window then repeats the workload's *pass*
//! — a fixed amount of work — until `--seconds` is spent, checks every output after
//! each pass, and reports medians over passes. The gated times are process
//! CPU seconds at a reference machine speed (see `trace`); the report lines
//! also give the raw and wall-clock figures. Every workload runs on one
//! thread, because the reference samples measure the speed of the core they
//! run on: with two threads, dividing by the slowdown widened the spread of
//! the pass times of `muxlink`, `evolve` and `serve-batch` over ten seeds.
//! `--trace 1` alternates
//! untraced and traced passes (benchmark spans plus the `autolock_obs`
//! registry) and reports the per-layer metrics instead of the end-to-end
//! ones. `--smoke` shrinks every workload to its minimum size.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The lines before it are a human-readable report that also carries the
//! workload-specific quality figures (keys recovered, accuracies).
//! `BENCHMARK.json` at the repository root lists the metrics; the README next
//! to this file records why each workload exists and what it stresses.

mod evolve;
mod muxlink;
mod sat_dip;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{median, ratio, Times, Tracer};

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_p50_s", "s"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A layer the
/// workload does not call reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("attacks.sat.encode_s", "s"),
    ("attacks.sat.dip_step_s", "s"),
    ("attacks.sat.dips", "count"),
    ("attacks.sat.unsat_step_s", "s"),
    ("attacks.sat.key_extract_s", "s"),
    ("satsolver.props_per_s", "1/s"),
    ("satsolver.conflicts_per_s", "1/s"),
    ("satsolver.learned_clauses", "count"),
    ("attacks.muxlink.candidates_s", "s"),
    ("attacks.muxlink.mlp.train_s", "s"),
    ("attacks.muxlink.gnn.train_s", "s"),
    ("attacks.muxlink.mlp.score_s", "s"),
    ("attacks.muxlink.gnn.score_s", "s"),
    ("attacks.subgraph_cache.hit_rate.cold", "ratio"),
    ("attacks.subgraph_cache.hit_rate.warm", "ratio"),
    ("attacks.subgraph_cache.misses", "count"),
    ("gnn.train_examples_per_s", "1/s"),
    ("evo.fitness_evals", "count"),
    ("autolock.fitness_cache.hit_rate", "ratio"),
    ("evo.eval_s", "s"),
    ("evo.breed_s", "s"),
    ("netlist.ingest_s", "s"),
    ("locking.lock_s", "s"),
    ("service.cold_run_s", "s"),
    ("service.warm_run_s", "s"),
    ("service.resume_run_s", "s"),
    ("service.registry.hit_rate", "ratio"),
    ("service.checkpoint_bytes", "bytes"),
    ("service.rows_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_coverage", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median. A run sets up at
/// least `SETUPS` times, and more while the set-ups add up to less than
/// `SETUP_CPU_S` CPU seconds (a set-up of a few milliseconds needs many for a
/// steady median), at most `MAX_SETUPS` times.
const SETUPS: usize = 5;
const SETUP_CPU_S: f64 = 1.0;
const MAX_SETUPS: usize = 40;

/// Reference samples before the first set-up and after every set-up and
/// pass (the tracer also samples after every outermost timed call).
const CALIBRATE_SAMPLES: usize = 8;

/// What one pass of a workload did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Time from the first to the last timed call of the pass (output
    /// checks run afterwards and are excluded).
    pub time: Times,
    /// Ops completed.
    pub ops: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// Times of the ops that are timed one by one, keyed by op (the same op
    /// runs once per pass); empty when the ops run inside one library call.
    pub op_times: BTreeMap<String, Vec<Times>>,
}

/// Counters the crates published during the traced passes.
pub type Counters = BTreeMap<String, u64>;

/// A benchmark workload, built by its module's `setup`.
pub trait Workload {
    /// Runs one pass: a fixed amount of work, timed, then checked.
    fn pass(&mut self, tr: &Tracer) -> Pass;

    /// Per-layer metrics from the recorded spans and the counters of
    /// `traced` traced passes.
    fn layers(
        &mut self,
        tr: &Tracer,
        counters: &Counters,
        traced: usize,
    ) -> Vec<(&'static str, f64)>;

    /// Workload-specific result figures for the report (name, value, unit).
    fn quality(&self) -> Vec<(&'static str, f64, &'static str)>;
}

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Where traces and the job directories of a run go (inside the checkout,
/// ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds a workload (`None` for an unknown name).
fn setup(args: &Args, work: &std::path::Path, tr: &Tracer) -> Option<Box<dyn Workload>> {
    let (seed, smoke) = (args.seed, args.smoke);
    Some(match args.workload.as_str() {
        "sat-dip" => Box::new(sat_dip::setup(seed, smoke, tr)),
        "muxlink" => Box::new(muxlink::setup(seed, smoke, tr)),
        "evolve" => Box::new(evolve::setup(seed, smoke, tr)),
        "serve-batch" => Box::new(serve::setup(seed, smoke, work)),
        _ => return None,
    })
}

/// Runs one pass with the obs registry on, returning what it published.
fn traced_pass(w: &mut dyn Workload, tr: &Tracer, counters: &mut Counters) -> Pass {
    autolock_obs::reset();
    autolock_obs::enable();
    tr.set_recording(true);
    let pass = w.pass(tr);
    tr.set_recording(false);
    autolock_obs::disable();
    for (name, value) in autolock_obs::drain().counters {
        *counters.entry(name).or_default() += value;
    }
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sat-dip|muxlink|evolve|serve-batch> --seed <n> \
                 --seconds <s> --trace <0|1> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let work = out_dir().join(format!("work-{}-{}", args.workload, std::process::id()));
    let code = run(&args, &work);
    // Best effort: the job directories are scratch space.
    let _ = std::fs::remove_dir_all(&work);
    code
}

fn run(args: &Args, work: &std::path::Path) -> ExitCode {
    let tr = Tracer::new();
    tr.set_recording(args.trace);
    // The set-ups are divided by the slowdown of the reference samples
    // taken during, before and after them; each pass by that of the samples
    // during it and just before and after it.
    let mut setup_times = Vec::new();
    let (mut raw_setup_cpu, mut setup_speeds) = (Vec::new(), Vec::new());
    let mut workload = None;
    let mut from = tr.calibrate(CALIBRATE_SAMPLES);
    while setup_times.len() < SETUPS
        || (raw_setup_cpu.iter().sum::<f64>() < SETUP_CPU_S && setup_times.len() < MAX_SETUPS)
    {
        let clock = tr.stopwatch();
        let Some(w) = setup(args, work, &tr) else {
            eprintln!("perfbench: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        };
        let mut took = clock.read();
        let next = tr.calibrate(CALIBRATE_SAMPLES);
        let speed = tr.slowdown_since(from);
        from = next;
        raw_setup_cpu.push(took.cpu);
        setup_speeds.push(speed);
        took.cpu = ratio(took.cpu, speed);
        setup_times.push(took);
        workload = Some(w);
    }
    tr.set_recording(false);
    let mut w = workload.expect("SETUPS > 0");

    // The timed window. A traced run alternates untraced and traced passes
    // so both see the same machine state; it needs at least one of each.
    let min_passes = 2;
    let window = std::time::Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut counters = Counters::new();
    let mut coverage = Vec::new();
    // Raw figures for the report lines: every pass, and the untraced ones'
    // CPU times and slowdowns.
    let (mut raw_passes, mut raw_cpu, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut from = tr.calibrate(CALIBRATE_SAMPLES);
    loop {
        let start = std::time::Instant::now();
        let is_traced = args.trace && untraced.len() > traced.len();
        let mut pass = if is_traced {
            let since = tr.now_ns();
            let pass = guarded(&tr, || traced_pass(w.as_mut(), &tr, &mut counters));
            coverage.push(ratio(tr.leaf_cpu_since(since), pass.time.cpu));
            pass
        } else {
            guarded(&tr, || w.pass(&tr))
        };
        let next = tr.calibrate(CALIBRATE_SAMPLES);
        let speed = tr.slowdown_since(from);
        from = next;
        raw_passes.push(format!(
            "{:.3}/{:.3}/{speed:.3}",
            pass.time.wall, pass.time.cpu
        ));
        if !is_traced {
            raw_cpu.push(pass.time.cpu);
            speeds.push(speed);
        }
        pass.time.cpu = ratio(pass.time.cpu, speed);
        for t in pass.op_times.values_mut().flatten() {
            t.cpu = ratio(t.cpu, speed);
        }
        if is_traced {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let took = start.elapsed().as_secs_f64();
        let done = untraced.len() + traced.len();
        let balanced = !args.trace || untraced.len() == traced.len();
        // Stop before a pass that would overrun the window.
        if done >= min_passes && balanced && window.elapsed().as_secs_f64() + took > args.seconds {
            break;
        }
    }

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.ops).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let cpus = |ps: &[Pass]| ps.iter().map(|p| p.time.cpu).collect::<Vec<_>>();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        tr.set_recording(true);
        autolock_obs::enable();
        let mut layers: BTreeMap<&str, f64> =
            w.layers(&tr, &counters, traced.len()).into_iter().collect();
        autolock_obs::disable();
        layers.insert(
            "trace.overhead_ratio",
            ratio(median(&cpus(&traced)), median(&cpus(&untraced))),
        );
        layers.insert("trace.layer_coverage", median(&coverage));
        layers.insert("peak_rss_mb", peak_rss_mb());
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else {
        let values = summary(&setup_times, &untraced, |t| t.cpu);
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    println!(
        "perfbench {} seed={} trace={} passes={} (traced {}) ops={} failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        all.len(),
        traced.len(),
        attempted,
        failed
    );
    println!("  passes (wall s/cpu s/slowdown): {}", raw_passes.join(" "));
    // The wall-clock counterparts of the gated CPU figures, and the CPU
    // figures before normalization.
    let [setup_wall, wall, ops_per_s, op_p50] = summary(&setup_times, &untraced, |t| t.wall);
    let wall_clock = [
        ("setup_slowdown", median(&setup_speeds), "ratio"),
        ("setup_raw_cpu_s", median(&raw_setup_cpu), "s"),
        ("pass_slowdown", median(&speeds), "ratio"),
        ("pass_raw_cpu_s", median(&raw_cpu), "s"),
        ("setup_wall_s", setup_wall, "s"),
        ("wall_s", wall, "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("op_p50_s", op_p50, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let ops_failed_frac = ratio(failed as f64, attempted as f64);
    for (name, value, unit) in metrics
        .iter()
        .copied()
        .chain(wall_clock.into_iter().filter(|_| !args.trace))
        .chain(w.quality())
        .chain([("ops_failed_frac", ops_failed_frac, "ratio")])
    {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs a pass; a pass that panics counts as one failed op.
fn guarded(tr: &Tracer, pass: impl FnOnce() -> Pass) -> Pass {
    std::panic::catch_unwind(AssertUnwindSafe(pass)).unwrap_or_else(|_| {
        tr.close_all();
        tr.set_recording(false);
        autolock_obs::disable();
        Pass {
            ops: 1,
            failed: 1,
            ..Pass::default()
        }
    })
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    autolock_obs::mem::peak_rss_mb().unwrap_or(0.0)
}

/// `[setup, pass, ops per second, op p50]` on one clock (`clock` picks
/// wall or CPU seconds out of [`Times`]): median set-up, median pass, ops
/// over the summed pass time, and [`op_p50`].
fn summary(setups: &[Times], passes: &[Pass], clock: impl Fn(&Times) -> f64) -> [f64; 4] {
    let setup: Vec<f64> = setups.iter().map(&clock).collect();
    let pass: Vec<f64> = passes.iter().map(|p| clock(&p.time)).collect();
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    [
        median(&setup),
        median(&pass),
        ratio(ops as f64, pass.iter().sum()),
        op_p50(passes, &clock),
    ]
}

/// `op_p50`: each op (the same cell, run once per pass) gets its median
/// time over the passes, which filters out passes the machine slowed down;
/// the figure is the mean of those per-op medians over the ops of a pass.
/// (A median across ops would pick one cell, and which cell it picks, and
/// how many DIPs that cell needs, changes with the seed.) Workloads whose
/// ops run inside one library call contribute the median over passes of
/// pass time per op.
fn op_p50(passes: &[Pass], clock: impl Fn(&Times) -> f64) -> f64 {
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (op, times) in &p.op_times {
            by_op
                .entry(op.as_str())
                .or_default()
                .extend(times.iter().map(&clock));
        }
    }
    if by_op.is_empty() {
        let per_op: Vec<f64> = passes
            .iter()
            .map(|p| ratio(clock(&p.time), p.ops as f64))
            .collect();
        return median(&per_op);
    }
    let medians: Vec<f64> = by_op.values().map(|t| median(t)).collect();
    ratio(medians.iter().sum(), medians.len() as f64)
}
