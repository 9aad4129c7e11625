//! Parser for the ISCAS-89 style `.bench` netlist format.
//!
//! The accepted grammar (one statement per line):
//!
//! ```text
//! # comment
//! INPUT(a)
//! OUTPUT(y)
//! KEYINPUT(keyinput0)          # extension used by locked netlists
//! y = NAND(a, b)
//! m = MUX(sel, a, b)
//! ```
//!
//! Key inputs may also be declared with the common convention of an ordinary
//! `INPUT(keyinputN)` whose name starts with `keyinput`; the parser promotes
//! those to [`GateKind::KeyInput`] automatically.
//!
//! Real-world `.bench` dialects (the circulating ISCAS-85/89 distributions
//! and tool exports) are accepted beyond the strict grammar:
//!
//! * keywords are case-insensitive (`nand(...)`, `input(...)`),
//! * signal names may start with digits (`1gat = not(115gat)`),
//! * CRLF line endings, tabs and trailing comments are ignored (via the
//!   shared [`crate::normalize`] helpers, so every parser of this crate
//!   behaves identically),
//! * repeated `OUTPUT` declarations of the same signal collapse to one,
//! * degenerate single-input `AND`/`OR` (resp. `NAND`/`NOR`) gates — common
//!   in mechanically generated benches — are promoted to `BUF` (resp. `NOT`)
//!   by [`crate::normalize::promote_degenerate`],
//! * simple sequential elements (`q = DFF(d)`, `q = LATCH(d)`) parse into a
//!   [`SequentialCircuit`] via [`parse_bench_sequential`]; the combinational
//!   [`parse_bench`] front produces a dedicated
//!   [`NetlistError::Sequential`] for them instead of a generic "unknown
//!   gate type". Set/reset flavors (`DFFSR`, `SDFF`) stay unsupported.

use crate::ingest::{Latch, SequentialCircuit};
use crate::normalize::{promote_degenerate, source_lines};
use crate::{GateId, GateKind, Netlist, NetlistError, Result};
use std::collections::HashMap;

/// Parses a `.bench` source into a combinational [`Netlist`].
///
/// This is a thin wrapper over `parse_bench_sequential` that additionally
/// rejects sources containing latches; prefer the [`crate::ingest`] front
/// door ([`crate::ingest::parse_auto`] / [`crate::ingest::parse_path`]) in
/// new code — it detects formats and offers sequential handling.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnknownSignal`] / [`NetlistError::UndefinedOutput`] for
/// dangling references, [`NetlistError::Sequential`] for sources with
/// latches, and any error [`Netlist::validate`] reports.
pub fn parse_bench(name: &str, source: &str) -> Result<Netlist> {
    match parse_bench_sequential(name, source)?.into_combinational() {
        Ok(nl) => Ok(nl),
        Err(seq) => Err(NetlistError::Sequential {
            latches: seq.num_latches(),
        }),
    }
}

/// Parses a `.bench` source, accepting `DFF`/`LATCH` elements, into a
/// [`SequentialCircuit`]. Combinational sources yield zero latches.
///
/// Latch semantics: `q = DFF(d)` makes `q` a pseudo primary input of the
/// combinational core and records `d` as its next-state function; `.bench`
/// has no init-value syntax, so registers reset to `0`.
///
/// # Errors
///
/// Same classes as [`parse_bench`], except that latches are accepted.
pub(crate) fn parse_bench_sequential(name: &str, source: &str) -> Result<SequentialCircuit> {
    // First pass: collect declarations so gates can be created in dependency
    // order regardless of textual order.
    struct GateDecl {
        line: usize,
        name: String,
        kind: GateKind,
        fanin_names: Vec<String>,
    }

    struct LatchDecl {
        line: usize,
        name: String,
        data_name: String,
    }

    let mut input_names: Vec<(usize, String)> = Vec::new();
    let mut key_input_names: Vec<(usize, String)> = Vec::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut decls: Vec<GateDecl> = Vec::new();
    let mut latch_decls: Vec<LatchDecl> = Vec::new();

    for (line, raw) in source_lines(source) {
        let text = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = strip_directive(text, "INPUT") {
            let sig = parse_single_arg(rest, line)?;
            if sig.to_ascii_lowercase().starts_with("keyinput") {
                key_input_names.push((line, sig));
            } else {
                input_names.push((line, sig));
            }
        } else if let Some(rest) = strip_directive(text, "KEYINPUT") {
            let sig = parse_single_arg(rest, line)?;
            key_input_names.push((line, sig));
        } else if let Some(rest) = strip_directive(text, "OUTPUT") {
            let sig = parse_single_arg(rest, line)?;
            output_names.push((line, sig));
        } else if let Some(eq) = text.find('=') {
            let lhs = text[..eq].trim();
            let rhs = text[eq + 1..].trim();
            if lhs.is_empty() {
                return Err(NetlistError::Parse {
                    line,
                    message: "missing signal name before `=`".into(),
                });
            }
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line,
                message: format!("expected `KIND(...)` on right-hand side, got `{rhs}`"),
            })?;
            let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                line,
                message: "missing closing parenthesis".into(),
            })?;
            if close < open {
                return Err(NetlistError::Parse {
                    line,
                    message: "mismatched parentheses".into(),
                });
            }
            let kw = rhs[..open].trim();
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            match kw.to_ascii_uppercase().as_str() {
                "DFF" | "LATCH" => {
                    if args.len() != 1 {
                        return Err(NetlistError::Parse {
                            line,
                            message: format!(
                                "sequential element `{kw}` takes exactly one data signal, \
                                 got {}",
                                args.len()
                            ),
                        });
                    }
                    latch_decls.push(LatchDecl {
                        line,
                        name: lhs.to_string(),
                        data_name: args[0].clone(),
                    });
                    continue;
                }
                "DFFSR" | "SDFF" => {
                    return Err(NetlistError::Parse {
                        line,
                        message: format!(
                            "sequential element `{kw}` with set/reset is not supported \
                             (plain `DFF`/`LATCH` are)"
                        ),
                    });
                }
                _ => {}
            }
            let kind = GateKind::from_bench_keyword(kw).ok_or_else(|| NetlistError::Parse {
                line,
                message: format!("unknown gate type `{kw}`"),
            })?;
            // Dialect tolerance: mechanically generated benches contain
            // degenerate single-input AND/OR/NAND/NOR gates; promote them to
            // their one-input equivalent instead of failing arity validation.
            let kind = promote_degenerate(kind, args.len());
            decls.push(GateDecl {
                line,
                name: lhs.to_string(),
                kind,
                fanin_names: args,
            });
        } else {
            return Err(NetlistError::Parse {
                line,
                message: format!("unrecognized statement `{text}`"),
            });
        }
    }

    let mut nl = Netlist::new(name);
    let mut ids: HashMap<String, GateId> = HashMap::new();

    for (line, sig) in &input_names {
        let id = nl.try_add_input(sig.clone()).map_err(|e| match e {
            NetlistError::DuplicateName(n) => NetlistError::Parse {
                line: *line,
                message: format!("duplicate input `{n}`"),
            },
            other => other,
        })?;
        ids.insert(sig.clone(), id);
    }
    for (line, sig) in &key_input_names {
        let id = nl.add_key_input(sig.clone()).map_err(|e| match e {
            NetlistError::DuplicateName(n) => NetlistError::Parse {
                line: *line,
                message: format!("duplicate key input `{n}`"),
            },
            other => other,
        })?;
        ids.insert(sig.clone(), id);
    }
    // Latch outputs are pseudo primary inputs of the combinational core, so
    // they must exist before the worklist runs (logic may feed from them, and
    // a DFF legitimately breaks what would otherwise be a cycle).
    let mut latch_states: Vec<GateId> = Vec::with_capacity(latch_decls.len());
    for decl in &latch_decls {
        let id = nl.try_add_input(decl.name.clone()).map_err(|e| match e {
            NetlistError::DuplicateName(n) => NetlistError::Parse {
                line: decl.line,
                message: format!("signal `{n}` defined twice"),
            },
            other => other,
        })?;
        ids.insert(decl.name.clone(), id);
        latch_states.push(id);
    }

    // Insert logic gates in dependency order with a simple worklist: a decl is
    // ready once all its fan-in names are defined.
    let mut pending: Vec<GateDecl> = decls;
    loop {
        let before = pending.len();
        let mut still_pending = Vec::new();
        for decl in pending {
            let ready = decl.fanin_names.iter().all(|n| ids.contains_key(n));
            if ready {
                let fanin: Vec<GateId> = decl.fanin_names.iter().map(|n| ids[n]).collect();
                let id = nl
                    .add_gate(decl.name.clone(), decl.kind, fanin)
                    .map_err(|e| match e {
                        NetlistError::DuplicateName(n) => NetlistError::Parse {
                            line: decl.line,
                            message: format!("signal `{n}` defined twice"),
                        },
                        NetlistError::BadArity { gate, kind, got } => NetlistError::Parse {
                            line: decl.line,
                            message: format!(
                                "gate `{gate}` of kind {kind} has invalid fan-in count {got}"
                            ),
                        },
                        other => other,
                    })?;
                ids.insert(decl.name, id);
            } else {
                still_pending.push(decl);
            }
        }
        if still_pending.is_empty() {
            break;
        }
        if still_pending.len() == before {
            // No progress: either an unknown signal or a cycle.
            let decl = &still_pending[0];
            let missing = decl
                .fanin_names
                .iter()
                .find(|n| !ids.contains_key(*n))
                .cloned()
                .unwrap_or_default();
            let defined_later = still_pending.iter().any(|d| d.name == missing);
            return Err(if defined_later {
                NetlistError::CombinationalCycle(missing)
            } else {
                NetlistError::Parse {
                    line: decl.line,
                    message: format!("unknown signal `{missing}`"),
                }
            });
        }
        pending = still_pending;
    }

    for (_, sig) in &output_names {
        let id = *ids
            .get(sig)
            .ok_or_else(|| NetlistError::UndefinedOutput(sig.clone()))?;
        nl.mark_output(id);
    }

    let mut latches = Vec::with_capacity(latch_decls.len());
    for (decl, &state) in latch_decls.iter().zip(&latch_states) {
        let next = *ids
            .get(&decl.data_name)
            .ok_or_else(|| NetlistError::Parse {
                line: decl.line,
                message: format!("unknown signal `{}`", decl.data_name),
            })?;
        latches.push(Latch {
            state,
            next,
            init: false,
        });
    }

    nl.validate()?;
    SequentialCircuit::new(nl, latches)
}

fn strip_directive<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = text.to_ascii_uppercase();
    if upper.starts_with(keyword)
        && text[keyword.len()..].trim_start().starts_with('(')
        // Guard against e.g. "INPUTX(" matching "INPUT".
        && !upper
            .as_bytes()
            .get(keyword.len())
            .map(|b| b.is_ascii_alphanumeric() || *b == b'_')
            .unwrap_or(false)
    {
        Some(text[keyword.len()..].trim_start())
    } else {
        None
    }
}

fn parse_single_arg(rest: &str, line: usize) -> Result<String> {
    let rest = rest.trim();
    if !rest.starts_with('(') || !rest.ends_with(')') {
        return Err(NetlistError::Parse {
            line,
            message: format!("expected `(signal)`, got `{rest}`"),
        });
    }
    let sig = rest[1..rest.len() - 1].trim();
    if sig.is_empty() || sig.contains(',') {
        return Err(NetlistError::Parse {
            line,
            message: "expected exactly one signal name".into(),
        });
    }
    Ok(sig.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17_LIKE: &str = "
# small test circuit
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G7)
G5 = NAND(G1, G2)
G6 = NAND(G2, G3)
G7 = NAND(G5, G6)
";

    #[test]
    fn parse_simple_circuit() {
        let nl = parse_bench("c17ish", C17_LIKE).unwrap();
        assert_eq!(nl.num_inputs(), 3);
        assert_eq!(nl.num_outputs(), 1);
        assert_eq!(nl.num_logic_gates(), 3);
        // NAND(NAND(1,1), NAND(1,1)) = NAND(0,0) = 1
        assert_eq!(nl.evaluate(&[true, true, true]).unwrap(), vec![true]);
    }

    #[test]
    fn out_of_order_definitions_ok() {
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(x, b)
x = NOT(a)
";
        let nl = parse_bench("ooo", src).unwrap();
        assert_eq!(nl.evaluate(&[false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn keyinput_directive_and_prefix_promotion() {
        let src = "
INPUT(a)
INPUT(keyinput0)
KEYINPUT(keyinput1)
OUTPUT(y)
t = XOR(a, keyinput0)
y = XNOR(t, keyinput1)
";
        let nl = parse_bench("keys", src).unwrap();
        assert_eq!(nl.num_inputs(), 1);
        assert_eq!(nl.num_key_inputs(), 2);
    }

    #[test]
    fn unknown_gate_type_rejected() {
        let err = parse_bench("x", "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
        assert!(err.to_string().contains("FROB"));
    }

    #[test]
    fn unknown_signal_rejected() {
        let err = parse_bench("x", "INPUT(a)\nOUTPUT(y)\ny = AND(a, nosuch)\n").unwrap_err();
        assert!(err.to_string().contains("nosuch"));
    }

    #[test]
    fn undefined_output_rejected() {
        let err = parse_bench("x", "INPUT(a)\nOUTPUT(zzz)\n").unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedOutput(_)));
    }

    #[test]
    fn cycle_rejected() {
        let err = parse_bench("x", "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\n").unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle(_)));
    }

    #[test]
    fn bad_arity_in_source_rejected() {
        let err = parse_bench("x", "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn mux_gate_parses() {
        let src = "
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
y = MUX(s, a, b)
";
        let nl = parse_bench("m", src).unwrap();
        assert_eq!(nl.evaluate(&[false, true, false]).unwrap(), vec![true]);
        assert_eq!(nl.evaluate(&[true, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n\n# header\nINPUT(a)  # trailing\nOUTPUT(y)\ny = BUF(a) # gate\n\n";
        let nl = parse_bench("c", src).unwrap();
        assert_eq!(nl.num_logic_gates(), 1);
    }

    #[test]
    fn lowercase_dialect_with_crlf_and_numeric_names_parses() {
        let src = "# iscas-style\r\ninput(1gat)\r\ninput(4gat)\r\noutput(10gat)\r\n\t10gat = nand(1gat, 4gat)\r\n";
        let nl = parse_bench("dialect", src).unwrap();
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_outputs(), 1);
        assert_eq!(nl.evaluate(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn single_input_and_or_promote_to_buf_not() {
        let src = "
INPUT(a)
OUTPUT(w)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
w = AND(a)
x = OR(a)
y = NAND(a)
z = NOR(a)
";
        let nl = parse_bench("degenerate", src).unwrap();
        use crate::GateKind;
        assert_eq!(nl.gate(nl.find("w").unwrap()).kind, GateKind::Buf);
        assert_eq!(nl.gate(nl.find("x").unwrap()).kind, GateKind::Buf);
        assert_eq!(nl.gate(nl.find("y").unwrap()).kind, GateKind::Not);
        assert_eq!(nl.gate(nl.find("z").unwrap()).kind, GateKind::Not);
        assert_eq!(
            nl.evaluate(&[true]).unwrap(),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn repeated_output_declarations_collapse() {
        let src = "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n";
        let nl = parse_bench("dup_out", src).unwrap();
        assert_eq!(nl.num_outputs(), 1);
    }

    #[test]
    fn sequential_elements_get_a_dedicated_error() {
        let err = parse_bench("seq", "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sequential"), "got: {msg}");
        assert!(matches!(err, NetlistError::Sequential { latches: 1 }));
    }

    #[test]
    fn dff_parses_into_a_sequential_circuit() {
        let src = "INPUT(en)\nOUTPUT(y)\nq = DFF(nxt)\nnxt = XOR(q, en)\ny = BUF(q)\n";
        let seq = parse_bench_sequential("toggle", src).unwrap();
        assert_eq!(seq.num_latches(), 1);
        // `q` is a pseudo primary input of the core.
        assert_eq!(seq.core().num_inputs(), 2);
        let cut = seq.cut();
        assert_eq!(cut.num_outputs(), 2); // y + next-state
                                          // q feeds back through XOR: the DFF legitimately breaks the cycle.
        let u2 = seq.unroll(2).unwrap();
        assert_eq!(u2.evaluate(&[true, false]).unwrap(), vec![false, true]);
    }

    #[test]
    fn latch_keyword_is_accepted_like_dff() {
        let src = "INPUT(d)\nOUTPUT(q)\nq = LATCH(d)\n";
        let seq = parse_bench_sequential("l", src).unwrap();
        assert_eq!(seq.num_latches(), 1);
        assert!(!seq.latches()[0].init, ".bench registers reset to 0");
    }

    #[test]
    fn set_reset_flavors_stay_rejected() {
        for kw in ["DFFSR", "SDFF"] {
            let src = format!("INPUT(d)\nOUTPUT(q)\nq = {kw}(d, d, d)\n");
            let err = parse_bench_sequential("sr", &src).unwrap_err();
            assert!(err.to_string().contains(kw), "got: {err}");
        }
    }

    #[test]
    fn dff_with_wrong_arity_rejected() {
        let err =
            parse_bench_sequential("bad", "INPUT(d)\nOUTPUT(q)\nq = DFF(d, d)\n").unwrap_err();
        assert!(err.to_string().contains("exactly one"), "got: {err}");
    }

    #[test]
    fn dff_with_unknown_data_signal_rejected() {
        let err =
            parse_bench_sequential("bad", "INPUT(d)\nOUTPUT(q)\nq = DFF(ghost)\n").unwrap_err();
        assert!(err.to_string().contains("ghost"), "got: {err}");
    }

    #[test]
    fn duplicate_definition_rejected() {
        let err = parse_bench("d", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n").unwrap_err();
        assert!(err.to_string().contains("twice") || err.to_string().contains("duplicate"));
    }
}
