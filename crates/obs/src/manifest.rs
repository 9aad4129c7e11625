//! Per-run provenance manifests and the spans JSONL export.
//!
//! Every experiment driver writes two files under `results/obs/`:
//!
//! * `<exp>-manifest.json` — one [`RunManifest`]: what ran (experiment id,
//!   config fingerprint, suite tier, seed, thread count, git describe) and
//!   the headline numbers (wall clock per top-level span, all counters and
//!   gauges, RSS), so any results table can be traced back to the exact
//!   configuration that produced it.
//! * `<exp>-spans.jsonl` — one [`SpanEvent`] JSON object
//!   per line, in the deterministic [`drain`](crate::drain) order.
//!
//! Maps are exported as sorted arrays of `{name, value}` rows rather than
//! JSON objects, so the byte output is deterministic and trivially
//! diffable.

use crate::{Snapshot, SpanEvent};
use serde::Serialize;
use std::io::Write as _;
use std::path::Path;

/// Manifest schema version; the CI sanity check pins the required keys.
pub const SCHEMA_VERSION: u32 = 1;

/// One aggregated top-level span (depth 0 on its thread) in a manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRow {
    /// Span path.
    pub path: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total wall-clock milliseconds across occurrences.
    pub total_ms: f64,
}

/// A named counter value in a manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterRow {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A named gauge value in a manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeRow {
    /// Gauge name.
    pub name: String,
    /// Last written value.
    pub value: f64,
}

/// The per-run provenance record. See the [module docs](self) for the file
/// layout and `crates/bench/README.md` for the emitted schema.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunManifest {
    /// Manifest schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment identifier (e.g. `"e13"`).
    pub experiment: String,
    /// FNV-1a fingerprint (hex) of the run configuration, via
    /// [`fingerprint`].
    pub config_fingerprint: String,
    /// Benchmark-suite tier the run drew circuits from (`"quick"`/`"full"`).
    pub suite_tier: String,
    /// Experiment depth scale (`"quick"`/`"full"`).
    pub scale: String,
    /// Base RNG seed recorded for provenance (experiments additionally use
    /// fixed per-cell seeds; see the driver).
    pub seed: u64,
    /// Worker-thread knob the run saw (`AUTOLOCK_THREADS`; 0 = all cores).
    pub threads: usize,
    /// `git describe --always --dirty` of the built tree, or `"unknown"`.
    pub git_describe: String,
    /// Wall clock of the whole run, milliseconds.
    pub wall_clock_ms: f64,
    /// Aggregated top-level spans (depth 0), sorted by path.
    pub top_spans: Vec<SpanRow>,
    /// Every registry counter, sorted by name.
    pub counters: Vec<CounterRow>,
    /// Every registry gauge, sorted by name.
    pub gauges: Vec<GaugeRow>,
    /// Peak RSS at flush time, mebibytes ([`crate::mem`]).
    pub peak_rss_mb: Option<f64>,
    /// Current RSS at flush time, mebibytes.
    pub current_rss_mb: Option<f64>,
    /// Span events captured in the companion JSONL file.
    pub events_recorded: u64,
    /// Span events dropped by the buffer cap (aggregates still count them).
    pub events_dropped: u64,
}

impl RunManifest {
    /// Assembles a manifest from a drained [`Snapshot`] plus the run
    /// identity the driver knows.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot(
        snapshot: &Snapshot,
        experiment: &str,
        config_fingerprint: &str,
        suite_tier: &str,
        scale: &str,
        seed: u64,
        threads: usize,
        wall_clock_ms: f64,
    ) -> Self {
        let mem = crate::mem::probe();
        RunManifest {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            config_fingerprint: config_fingerprint.to_string(),
            suite_tier: suite_tier.to_string(),
            scale: scale.to_string(),
            seed,
            threads,
            git_describe: git_describe(),
            wall_clock_ms,
            top_spans: snapshot
                .spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| SpanRow {
                    path: s.path.clone(),
                    count: s.count,
                    total_ms: s.total_ns as f64 / 1e6,
                })
                .collect(),
            counters: snapshot
                .counters
                .iter()
                .map(|(name, value)| CounterRow {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            gauges: snapshot
                .gauges
                .iter()
                .map(|(name, value)| GaugeRow {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            peak_rss_mb: mem.peak_rss_mb,
            current_rss_mb: mem.current_rss_mb,
            events_recorded: snapshot.events.len() as u64,
            events_dropped: snapshot.events_dropped,
        }
    }

    /// Writes the manifest as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization itself cannot fail for
    /// this type.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }
}

/// Writes one JSON object per event, in input (sequence) order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_events_jsonl(path: &Path, events: &[SpanEvent]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for event in events {
        let line = serde_json::to_string(event)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a 64-bit FNV-1a hash from state `h` over `bytes`; start from
/// [`FNV1A_OFFSET`]. The workspace's one FNV-1a: manifest fingerprints,
/// fitness-cache keys, store checksums and job seeds all hash through it.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// FNV-1a hash of the given configuration facets, formatted as 16 hex
/// digits. Two runs with the same fingerprint saw the same knobs.
pub fn fingerprint(facets: &[&str]) -> String {
    // A 0xff separator after each facet, so ["ab","c"] and ["a","bc"]
    // differ.
    let h = facets.iter().fold(FNV1A_OFFSET, |h, facet| {
        fnv1a_extend(fnv1a_extend(h, facet.as_bytes()), &[0xff])
    });
    format!("{h:016x}")
}

/// `git describe --always --dirty` of the current tree, `"unknown"` when
/// git or the repository is unavailable (e.g. a tarball build).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_separator_sensitive() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    /// The published 64-bit FNV-1a test vectors, and one fingerprint worked
    /// out by hand, pin every key, checksum and seed hashed through here.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fingerprint(&["locking-fitness", "ab"]), "b3e378579278c0d8");
    }

    #[test]
    fn manifest_serializes_with_required_keys() {
        let snap = Snapshot {
            counters: vec![("c.a".into(), 3)],
            gauges: vec![("g.b".into(), 1.5)],
            spans: vec![
                crate::SpanSummary {
                    path: "root".into(),
                    depth: 0,
                    count: 1,
                    total_ns: 2_000_000,
                    min_ns: 2_000_000,
                    max_ns: 2_000_000,
                },
                crate::SpanSummary {
                    path: "root/leaf".into(),
                    depth: 1,
                    count: 4,
                    total_ns: 10,
                    min_ns: 1,
                    max_ns: 5,
                },
            ],
            events: vec![],
            events_dropped: 0,
        };
        let m = RunManifest::from_snapshot(&snap, "e1", "deadbeef", "quick", "quick", 7, 2, 12.5);
        assert_eq!(m.top_spans.len(), 1, "only depth-0 spans are top-level");
        assert_eq!(m.top_spans[0].total_ms, 2.0);
        let json = serde_json::to_string_pretty(&m).unwrap();
        for key in [
            "schema_version",
            "experiment",
            "config_fingerprint",
            "suite_tier",
            "scale",
            "seed",
            "threads",
            "git_describe",
            "wall_clock_ms",
            "top_spans",
            "counters",
            "gauges",
            "events_recorded",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
        }
    }

    #[test]
    fn events_jsonl_round_trips_one_object_per_line() {
        let dir = std::env::temp_dir().join("autolock_obs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        let events = vec![
            SpanEvent {
                path: "a".into(),
                depth: 0,
                thread: 0,
                seq: 0,
                start_ns: 5,
                dur_ns: 10,
            },
            SpanEvent {
                path: "a/b".into(),
                depth: 1,
                thread: 1,
                seq: 1,
                start_ns: 6,
                dur_ns: 2,
            },
        ];
        write_events_jsonl(&path, &events).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"path\""));
        assert!(lines[1].contains("a/b"));
        std::fs::remove_file(&path).ok();
    }
}
