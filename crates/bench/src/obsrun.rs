//! Per-driver observability scope: every `exp_e*` binary opens an [`ObsRun`]
//! before doing work and lets it drop at exit, which writes the run's
//! provenance manifest and span trace under `<results>/obs/`:
//!
//! * `obs/<exp>-manifest.json` — one [`autolock_obs::RunManifest`],
//! * `obs/<exp>-spans.jsonl` — one span event per line, in deterministic
//!   flush order.
//!
//! The guard enables the (otherwise dormant) global registry, so the
//! instrumentation baked into `gnn`/`attacks`/`evo`/`autolock` starts
//! recording; disabling it again on drop returns every site to its one-load
//! idle cost. Recording never changes results — the bit-for-bit contract is
//! pinned by `crates/attacks/tests/obs_equivalence.rs`.
//!
//! `AUTOLOCK_OBS=0` skips the whole scope (no files, registry stays off).

use crate::{experiment_scale, experiment_suite_scale, experiment_threads, results_dir, Scale};
use autolock_obs::manifest::{fingerprint, write_events_jsonl, RunManifest};
use std::time::Instant;

/// RAII scope that records one experiment run and emits manifest + spans
/// JSONL under `<results>/obs/` on drop (`AUTOLOCK_OBS=0` skips it).
pub struct ObsRun {
    experiment: String,
    seed: u64,
    started: Instant,
    root: Option<autolock_obs::SpanGuard>,
}

impl ObsRun {
    /// Starts recording for `experiment` (e.g. `"e13"`). `seed` is the
    /// driver's base RNG seed, recorded for provenance only.
    ///
    /// Returns `None` — and leaves the registry untouched — when the user
    /// opted out (`AUTOLOCK_OBS=0`) or the workspace was built with the obs
    /// `noop` feature.
    pub fn start(experiment: &str, seed: u64) -> Option<ObsRun> {
        if autolock_obs::is_noop() || std::env::var("AUTOLOCK_OBS").as_deref() == Ok("0") {
            return None;
        }
        autolock_obs::reset();
        autolock_obs::enable();
        // Root span: the driver's whole run, named after the experiment.
        // One leaked string per process, so the span name can be 'static.
        let name: &'static str = Box::leak(format!("exp.{experiment}").into_boxed_str());
        Some(ObsRun {
            experiment: experiment.to_string(),
            seed,
            started: Instant::now(),
            root: Some(autolock_obs::span(name)),
        })
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        // Close the root span before draining so it is part of the flush.
        drop(self.root.take());
        autolock_obs::mem::record_rss_gauges();
        let snapshot = autolock_obs::drain();
        autolock_obs::disable();

        let scale = match experiment_scale() {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let tier = format!("{:?}", experiment_suite_scale(experiment_scale())).to_lowercase();
        let threads = experiment_threads();
        let fp = fingerprint(&[
            &self.experiment,
            scale,
            &tier,
            &threads.to_string(),
            &self.seed.to_string(),
        ]);
        let manifest = RunManifest::from_snapshot(
            &snapshot,
            &self.experiment,
            &fp,
            &tier,
            scale,
            self.seed,
            threads,
            self.started.elapsed().as_secs_f64() * 1e3,
        );

        let dir = results_dir().join("obs");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let manifest_path = dir.join(format!("{}-manifest.json", self.experiment));
        match manifest.write(&manifest_path) {
            Ok(()) => println!("(wrote {})", manifest_path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", manifest_path.display()),
        }
        let spans_path = dir.join(format!("{}-spans.jsonl", self.experiment));
        match write_events_jsonl(&spans_path, &snapshot.events) {
            Ok(()) => println!("(wrote {})\n", spans_path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", spans_path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_run_writes_manifest_and_spans() {
        let dir = std::env::temp_dir().join("autolock_obsrun_test");
        std::fs::remove_dir_all(&dir).ok();
        std::env::set_var("AUTOLOCK_RESULTS_DIR", &dir);
        {
            let _run = ObsRun::start("etest", 42).expect("obs enabled by default");
            let _inner = autolock_obs::span!("test.stage");
            autolock_obs::counter("test.rows").add(3);
        }
        std::env::remove_var("AUTOLOCK_RESULTS_DIR");

        let manifest = std::fs::read_to_string(dir.join("obs/etest-manifest.json")).unwrap();
        for key in [
            "\"schema_version\"",
            "\"experiment\"",
            "\"config_fingerprint\"",
            "\"suite_tier\"",
            "\"seed\"",
            "\"threads\"",
            "\"git_describe\"",
            "\"wall_clock_ms\"",
            "\"top_spans\"",
            "\"counters\"",
            "\"gauges\"",
        ] {
            assert!(manifest.contains(key), "manifest missing {key}");
        }
        assert!(manifest.contains("exp.etest"));
        assert!(manifest.contains("test.rows"));

        let spans = std::fs::read_to_string(dir.join("obs/etest-spans.jsonl")).unwrap();
        let lines: Vec<&str> = spans.lines().collect();
        assert_eq!(lines.len(), 2, "inner stage + root span");
        assert!(lines[0].contains("exp.etest/test.stage"));
        assert!(lines[1].contains("\"exp.etest\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
