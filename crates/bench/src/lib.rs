//! Shared experiment harness for the AutoLock reproduction.
//!
//! Every experiment (`e1` … `e15`, run by id through the `exp` binary) uses
//! the helpers in this crate to build circuits, run schemes and attacks, and
//! emit results both as human-readable tables (stdout) and machine-readable
//! JSON (under `results/`). The mapping from experiment id to paper claim is
//! documented in this crate's `README.md`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod demo;
pub mod experiments;
mod obsrun;
pub mod trajectory;

pub use obsrun::ObsRun;

/// A simple result table: named columns plus rows of cells, rendered as
/// GitHub-flavoured markdown and serialized to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct ResultTable {
    /// Experiment identifier (e.g. `"E1"`).
    pub experiment: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(experiment: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        ResultTable {
            experiment: experiment.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.experiment, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the table to stdout and writes `<results_dir>/<experiment>.json`.
    /// Errors writing the file are reported to stderr but not fatal.
    pub fn emit(&self, results_dir: &std::path::Path) {
        println!("{}", self.to_markdown());
        if let Err(e) = std::fs::create_dir_all(results_dir) {
            eprintln!("warning: cannot create {}: {e}", results_dir.display());
            return;
        }
        let path = results_dir.join(format!("{}.json", self.experiment.to_lowercase()));
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    println!("(wrote {})\n", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize results: {e}"),
        }
    }
}

/// Default results directory: `./results` relative to the workspace root (or
/// the current directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    std::env::var_os("AUTOLOCK_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Reads the scale of the experiments from the `AUTOLOCK_SCALE` environment
/// variable: `"quick"` (default, CI-sized) or `"full"` (paper-sized; slower).
pub fn experiment_scale() -> Scale {
    match std::env::var("AUTOLOCK_SCALE").ok().as_deref() {
        Some("full") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// The benchmark-suite tier the experiment drivers draw circuits from
/// (E10/E11/E12 and the attack-suite tests honour this): the
/// `AUTOLOCK_SUITE_SCALE` environment variable when set (`quick`/`full`,
/// via [`autolock_circuits::SuiteScale::from_env`]), otherwise the tier
/// matching the experiment depth `scale`. CI exports nothing and gets the
/// Quick tier; a nightly or manual dispatch exports
/// `AUTOLOCK_SUITE_SCALE=full` to sweep the `xl` member and the structured
/// E10/E11 targets without touching code.
pub fn experiment_suite_scale(scale: Scale) -> autolock_circuits::SuiteScale {
    if std::env::var_os("AUTOLOCK_SUITE_SCALE").is_some() {
        return autolock_circuits::SuiteScale::from_env();
    }
    match scale {
        Scale::Quick => autolock_circuits::SuiteScale::Quick,
        Scale::Full => autolock_circuits::SuiteScale::Full,
    }
}

/// Worker count for the experiment drivers' own fan-outs (independent
/// attack repeats, per-circuit runs): the `AUTOLOCK_THREADS` environment
/// variable, `0`/unset = all available cores, `1` = serial: a wall-clock
/// knob whose fan-outs follow the nesting rule of
/// [`autolock_mlcore::parallel::pooled_map`].
pub fn experiment_threads() -> usize {
    std::env::var("AUTOLOCK_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Order-preserving parallel map across [`experiment_threads`] workers:
/// `out[i]` answers `items[i]` no matter which thread computed it, so any
/// fixed-order reduction over the result is identical to the serial loop.
/// Serial when `AUTOLOCK_THREADS=1` or for singleton batches. (The shared
/// pooled-map pattern lives in `autolock_mlcore::parallel`.)
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    autolock_mlcore::parallel::pooled_map(experiment_threads(), items, f)
}

/// Peak resident-set size of this process in mebibytes — a re-export of
/// [`autolock_obs::mem::peak_rss_mb`], which replaced this crate's old
/// ad-hoc `VmHWM` parser. Returns `None` where procfs is unavailable
/// (non-Linux dev machines) — callers should print `n/a`.
///
/// The value is process-wide and monotone non-decreasing, so in a table
/// whose rows run in one process, each row's number is "the largest
/// footprint any cell needed *so far*" and the final row records the run's
/// peak. That is exactly what the memory-regression record needs: the E13
/// table turns the streamed-DGCNN memory claim into a committed number.
pub fn peak_rss_mb() -> Option<f64> {
    autolock_obs::mem::peak_rss_mb()
}

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small circuits / few generations so the whole suite runs in minutes.
    Quick,
    /// Larger circuits / more generations (closer to the paper's setting).
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = ResultTable::new("E0", "smoke", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn wrong_row_length_panics() {
        let mut t = ResultTable::new("E0", "smoke", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.256), "25.6%");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0, "VmHWM should be positive, got {mb}");
        }
    }

    #[test]
    fn scale_defaults_to_quick() {
        std::env::remove_var("AUTOLOCK_SCALE");
        assert_eq!(experiment_scale(), Scale::Quick);
    }

    #[test]
    fn suite_scale_follows_experiment_scale_unless_overridden() {
        use autolock_circuits::SuiteScale;
        std::env::remove_var("AUTOLOCK_SUITE_SCALE");
        assert_eq!(experiment_suite_scale(Scale::Quick), SuiteScale::Quick);
        assert_eq!(experiment_suite_scale(Scale::Full), SuiteScale::Full);
        std::env::set_var("AUTOLOCK_SUITE_SCALE", "quick");
        assert_eq!(experiment_suite_scale(Scale::Full), SuiteScale::Quick);
        std::env::set_var("AUTOLOCK_SUITE_SCALE", "full");
        assert_eq!(experiment_suite_scale(Scale::Quick), SuiteScale::Full);
        std::env::remove_var("AUTOLOCK_SUITE_SCALE");
    }
}
