//! The standard benchmark suite used by every experiment in this repository.
//!
//! The suite mirrors the ISCAS-85 family — c432, c880, c1355, c1908, c2670,
//! c3540, c5315, c6288 and c7552 — in three tiers:
//!
//! * **real circuits**: c17 and the c432 reconstruction, embedded as
//!   `.bench` text ([`crate::c17`], [`crate::c432_bench_text`]);
//! * **random synthetic stand-ins** (`s<gates>`): netlists from the
//!   locality-biased random generator ([`crate::generator`]) whose interface
//!   and gate counts match a classic benchmark — kept for continuity with
//!   the small-circuit experiments;
//! * **structured stand-ins** (`st<iscas-number>`): datapath compositions
//!   from [`crate::structured`] (adder trees, carry-select adders, array
//!   multipliers, mux/decode control) with realistic depth, fanout and
//!   reconvergence. `st6288` is the array-multiplier member standing in for
//!   c6288, which has no random stand-in because uniform random gates
//!   cannot imitate a multiplier grid.
//!
//! A fourth tier exercises the AIGER ingestion front door: **round-trip
//! members** (`<base>_aig`) are existing members serialized to ASCII AIGER
//! (`.aag`) and re-ingested through
//! [`autolock_netlist::ingest::parse_aag`], so the AND/inverter-graph
//! lowering and AIG simplification pass run inside the suite itself. Their
//! interfaces match the base member; their gate counts are the measured
//! post-round-trip values, pinned by tests.
//!
//! [`SuiteScale`] selects how much of the suite an experiment sees:
//! [`SuiteScale::Quick`] is the CI-sized tier (everything up to the
//! c7552-class member), [`SuiteScale::Full`] adds the beyond-ISCAS `xl`
//! member for paper-scale runs. The `AUTOLOCK_SUITE_SCALE` environment
//! variable (`quick`/`full`) picks the scale at runtime via
//! [`SuiteScale::from_env`].

use crate::generator::synth_circuit;
use crate::iscas::{c17, c432};
use crate::structured::{synth_structured, StructuredBlock, StructuredConfig};
use autolock_netlist::Netlist;
use serde::{Deserialize, Serialize};

/// How much of the suite an experiment instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SuiteScale {
    /// The CI-sized tier: every member up to the c7552-class structured
    /// circuit (~3.5k gates).
    #[default]
    Quick,
    /// Everything, including the beyond-ISCAS `xl` member (~11k gates).
    Full,
}

impl SuiteScale {
    /// Reads the scale from the `AUTOLOCK_SUITE_SCALE` environment variable:
    /// `"full"` selects [`SuiteScale::Full`], anything else (or unset)
    /// selects [`SuiteScale::Quick`].
    pub fn from_env() -> Self {
        match std::env::var("AUTOLOCK_SUITE_SCALE").ok().as_deref() {
            Some("full") | Some("FULL") | Some("Full") => SuiteScale::Full,
            _ => SuiteScale::Quick,
        }
    }
}

/// Descriptor of one suite member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteEntry {
    /// Circuit name (e.g. `c17`, `s432`, `st6288`).
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic gates (exact for every member).
    pub gates: usize,
    /// ISCAS-85 benchmark this member stands in for (`None` for real
    /// circuits and the beyond-ISCAS `xl` member).
    pub stands_in_for: Option<String>,
    /// `true` for members built by the structured (datapath) generator.
    pub structured: bool,
}

/// Descriptors of all members at the given scale, in increasing size.
pub fn suite_entries(scale: SuiteScale) -> Vec<SuiteEntry> {
    let synth =
        |name: &str, inputs: usize, outputs: usize, gates: usize, original: &str| SuiteEntry {
            name: name.to_string(),
            inputs,
            outputs,
            gates,
            stands_in_for: Some(original.to_string()),
            structured: false,
        };
    let real = |name: &str, inputs: usize, outputs: usize, gates: usize| SuiteEntry {
        name: name.to_string(),
        inputs,
        outputs,
        gates,
        stands_in_for: None,
        structured: false,
    };
    let aig = |name: &str, inputs: usize, outputs: usize, gates: usize, base: &str| SuiteEntry {
        name: name.to_string(),
        inputs,
        outputs,
        gates,
        stands_in_for: Some(base.to_string()),
        structured: false,
    };
    let mut entries = vec![
        real("c17", 5, 2, 6),
        real("c432", 36, 7, 142),
        aig("c17_aig", 5, 2, 14, "c17"),
        aig("s160_aig", 36, 7, 131, "s160"),
        synth("s160", 36, 7, 160, "c432"),
        synth("s380", 60, 26, 380, "c880"),
        synth("s540", 41, 32, 540, "c1355"),
        synth("s880", 33, 25, 880, "c1908"),
        synth("s1190", 233, 140, 1190, "c2670"),
        synth("s1660", 50, 22, 1660, "c3540"),
        synth("s2300", 178, 123, 2300, "c5315"),
        synth("s3500", 207, 108, 3500, "c7552"),
    ];
    entries.extend(structured_entries(scale));
    entries.sort_by_key(|e| e.gates);
    entries
}

/// Descriptors of only the structured (datapath) members at the given
/// scale, in increasing size. The interface and gate counts are the
/// measured values of the deterministic generator output, pinned by tests.
pub fn structured_entries(scale: SuiteScale) -> Vec<SuiteEntry> {
    let structured =
        |name: &str, inputs: usize, outputs: usize, gates: usize, original: Option<&str>| {
            SuiteEntry {
                name: name.to_string(),
                inputs,
                outputs,
                gates,
                stands_in_for: original.map(str::to_string),
                structured: true,
            }
        };
    let mut entries = vec![
        structured("st1355", 41, 19, 559, Some("c1355")),
        structured("st2670", 128, 86, 1193, Some("c2670")),
        structured("st3540", 50, 119, 1669, Some("c3540")),
        structured("st5315", 178, 164, 2307, Some("c5315")),
        structured("st6288", 40, 83, 2406, Some("c6288")),
        structured("st7552", 207, 231, 3512, Some("c7552")),
    ];
    if scale == SuiteScale::Full {
        entries.push(structured("xl11k", 256, 386, 11143, None));
    }
    entries
}

/// The structured-generator configuration of a structured suite member.
///
/// Block shapes are chosen so the deterministic output lands on the
/// benchmark's published gate count (glue gates make up the remainder);
/// the `xl` member extends the same recipe past ISCAS-85 scale.
pub fn structured_spec(name: &str) -> Option<StructuredConfig> {
    use StructuredBlock::*;
    let (num_inputs, blocks, glue_gates) = match name {
        "st1355" => (
            41,
            vec![AdderTree {
                width: 16,
                lanes: 8,
            }],
            0,
        ),
        "st2670" => (
            128,
            vec![
                MuxDecode {
                    select_bits: 5,
                    data_words: 24,
                    word_bits: 16,
                },
                AdderTree {
                    width: 16,
                    lanes: 4,
                },
                CarrySelectAdder {
                    width: 24,
                    block: 6,
                },
            ],
            130,
        ),
        "st3540" => (
            50,
            vec![
                ArrayMultiplier { width: 12 },
                CarrySelectAdder {
                    width: 32,
                    block: 4,
                },
                AdderTree {
                    width: 12,
                    lanes: 6,
                },
            ],
            314,
        ),
        "st5315" => (
            178,
            vec![
                MuxDecode {
                    select_bits: 5,
                    data_words: 20,
                    word_bits: 24,
                },
                CarrySelectAdder {
                    width: 48,
                    block: 6,
                },
                ArrayMultiplier { width: 10 },
                AdderTree {
                    width: 20,
                    lanes: 4,
                },
            ],
            282,
        ),
        "st6288" => (40, vec![ArrayMultiplier { width: 20 }], 166),
        "st7552" => (
            207,
            vec![
                ArrayMultiplier { width: 14 },
                CarrySelectAdder {
                    width: 40,
                    block: 5,
                },
                MuxDecode {
                    select_bits: 5,
                    data_words: 28,
                    word_bits: 20,
                },
                AdderTree {
                    width: 16,
                    lanes: 8,
                },
            ],
            630,
        ),
        "xl11k" => (
            256,
            vec![
                ArrayMultiplier { width: 24 },
                ArrayMultiplier { width: 18 },
                CarrySelectAdder {
                    width: 64,
                    block: 8,
                },
                MuxDecode {
                    select_bits: 6,
                    data_words: 48,
                    word_bits: 32,
                },
                AdderTree {
                    width: 32,
                    lanes: 6,
                },
                AdderTree {
                    width: 24,
                    lanes: 10,
                },
            ],
            1200,
        ),
        _ => return None,
    };
    Some(StructuredConfig {
        name: name.to_string(),
        num_inputs,
        blocks,
        glue_gates,
        seed: seed_for(name),
    })
}

/// Deterministic per-circuit seed so every suite member is stable across runs.
fn seed_for(name: &str) -> u64 {
    // FNV-1a over the name, fixed offset.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Instantiates a suite member by name (any scale).
///
/// Returns `None` for unknown names.
pub fn suite_circuit(name: &str) -> Option<Netlist> {
    if let Some(base) = name.strip_suffix("_aig") {
        // Round-trip member: serialize the base member to ASCII AIGER and
        // re-ingest it, exercising the AND/inverter lowering + AIG
        // simplification pass on a known-good circuit.
        let base_nl = suite_circuit(base)?;
        let text = autolock_netlist::ingest::write_aag(&base_nl)
            .expect("suite members serialize to AIGER");
        let seq = autolock_netlist::ingest::parse_aag(name, &text)
            .expect("suite AIGER writer output parses");
        return seq.into_combinational().ok();
    }
    if name == "c17" {
        return Some(c17());
    }
    if name == "c432" {
        return Some(c432());
    }
    if let Some(spec) = structured_spec(name) {
        return Some(synth_structured(&spec));
    }
    let entry = suite_entries(SuiteScale::Full)
        .into_iter()
        .find(|e| e.name == name)?;
    Some(synth_circuit(
        &entry.name,
        entry.inputs,
        entry.outputs,
        entry.gates,
        seed_for(&entry.name),
    ))
}

/// Instantiates the whole suite at a scale (sorted by size ascending).
pub fn standard_suite(scale: SuiteScale) -> Vec<Netlist> {
    suite_entries(scale)
        .iter()
        .map(|e| suite_circuit(&e.name).expect("suite entries are instantiable"))
        .collect()
}

/// The subset of the suite small enough for fast experiments (used by unit
/// tests and CI-scale benchmark runs): c17 plus the two smallest synthetic
/// members.
pub fn small_suite() -> Vec<Netlist> {
    ["c17", "s160", "s380"]
        .iter()
        .map(|n| suite_circuit(n).expect("known members"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_entries_instantiate_and_validate() {
        for entry in suite_entries(SuiteScale::Full) {
            let nl = suite_circuit(&entry.name).unwrap();
            nl.validate().unwrap();
            assert_eq!(nl.num_inputs(), entry.inputs, "{}", entry.name);
            assert_eq!(nl.num_outputs(), entry.outputs, "{}", entry.name);
            assert_eq!(nl.num_logic_gates(), entry.gates, "{}", entry.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = suite_circuit("s380").unwrap();
        let b = suite_circuit("s380").unwrap();
        assert_eq!(a, b);
        let a = suite_circuit("st3540").unwrap();
        let b = suite_circuit("st3540").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(suite_circuit("nope").is_none());
        assert!(suite_circuit("nope_aig").is_none());
    }

    #[test]
    fn aiger_round_trip_member_is_equivalent_to_its_base() {
        let base = suite_circuit("c17").unwrap();
        let rt = suite_circuit("c17_aig").unwrap();
        assert_eq!(rt.num_inputs(), base.num_inputs());
        assert_eq!(rt.num_outputs(), base.num_outputs());
        assert!(autolock_netlist::equiv::exhaustive_equivalent(&base, &[], &rt, &[]).unwrap());
    }

    #[test]
    fn small_suite_members() {
        let s = small_suite();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name(), "c17");
    }

    #[test]
    fn entries_sorted_by_size_at_both_scales() {
        for scale in [SuiteScale::Quick, SuiteScale::Full] {
            let sizes: Vec<usize> = suite_entries(scale).iter().map(|e| e.gates).collect();
            let mut sorted = sizes.clone();
            sorted.sort();
            assert_eq!(sizes, sorted);
        }
    }

    #[test]
    fn full_scale_extends_quick() {
        let quick = suite_entries(SuiteScale::Quick);
        let full = suite_entries(SuiteScale::Full);
        assert!(full.len() > quick.len());
        for e in &quick {
            assert!(full.contains(e), "{} missing at full scale", e.name);
        }
    }

    #[test]
    fn stand_ins_are_documented() {
        let entries = suite_entries(SuiteScale::Full);
        assert!(entries
            .iter()
            .filter(|e| e.name.starts_with('s'))
            .all(|e| e.stands_in_for.is_some() || e.structured));
        // Every big ISCAS-85 member named in the module docs has a stand-in
        // (or is embedded): the c6288 slot is covered by st6288.
        for original in [
            "c432", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
        ] {
            assert!(
                entries
                    .iter()
                    .any(|e| e.stands_in_for.as_deref() == Some(original) || e.name == original),
                "{original} has no suite member"
            );
        }
    }

    #[test]
    fn structured_members_are_flagged_and_large() {
        let quick = structured_entries(SuiteScale::Quick);
        assert!(quick.iter().all(|e| e.structured));
        // The E12 regime needs at least four quick structured members with
        // >= 1000 gates.
        assert!(quick.iter().filter(|e| e.gates >= 1000).count() >= 4);
    }

    #[test]
    fn scale_from_env() {
        std::env::remove_var("AUTOLOCK_SUITE_SCALE");
        assert_eq!(SuiteScale::from_env(), SuiteScale::Quick);
        std::env::set_var("AUTOLOCK_SUITE_SCALE", "full");
        assert_eq!(SuiteScale::from_env(), SuiteScale::Full);
        std::env::set_var("AUTOLOCK_SUITE_SCALE", "quick");
        assert_eq!(SuiteScale::from_env(), SuiteScale::Quick);
        std::env::remove_var("AUTOLOCK_SUITE_SCALE");
    }
}
