//! Gate and gate-kind definitions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a gate inside a [`crate::Netlist`].
///
/// Gate ids are dense indices into the netlist's internal arena. They are only
/// meaningful relative to the netlist they were created by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GateId(pub u32);

impl GateId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GateId {
    fn from(v: u32) -> Self {
        GateId(v)
    }
}

/// The logic function computed by a gate.
///
/// The set matches what ISCAS-85/89 `.bench` files use, plus two first-class
/// node kinds needed by logic locking: [`GateKind::KeyInput`] for key bits and
/// [`GateKind::Mux`] for 2:1 key-controlled multiplexers
/// (`MUX(sel, a, b) = if sel { b } else { a }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Primary input of the circuit.
    Input,
    /// Key input (a special primary input carrying one key bit).
    KeyInput,
    /// Constant logic zero.
    Const0,
    /// Constant logic one.
    Const1,
    /// Buffer (identity).
    Buf,
    /// Inverter.
    Not,
    /// Logical AND of all fan-ins.
    And,
    /// Logical NAND of all fan-ins.
    Nand,
    /// Logical OR of all fan-ins.
    Or,
    /// Logical NOR of all fan-ins.
    Nor,
    /// Logical XOR of all fan-ins.
    Xor,
    /// Logical XNOR of all fan-ins.
    Xnor,
    /// 2:1 multiplexer; fan-ins are `[select, in0, in1]` and the output is
    /// `in0` when `select` is 0, `in1` when `select` is 1.
    Mux,
}

impl GateKind {
    /// Returns `true` if this kind represents a primary or key input.
    #[inline]
    pub fn is_input(self) -> bool {
        matches!(self, GateKind::Input | GateKind::KeyInput)
    }

    /// Returns `true` if this kind is a constant.
    #[inline]
    pub fn is_constant(self) -> bool {
        matches!(self, GateKind::Const0 | GateKind::Const1)
    }

    /// The valid fan-in arity range `(min, max)` for this gate kind.
    /// `max == usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::KeyInput | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::Mux => (3, 3),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (2, usize::MAX),
        }
    }

    /// Evaluates the gate function over boolean fan-in values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`GateKind::arity`]; callers are
    /// expected to operate on validated netlists.
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Input | GateKind::KeyInput => {
                panic!("inputs have no logic function; supply their value directly")
            }
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Evaluates the gate function over 64 packed patterns per word.
    ///
    /// Each bit position of the `u64` words is an independent input pattern.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Input | GateKind::KeyInput => {
                panic!("inputs have no logic function; supply their value directly")
            }
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Mux => {
                let sel = inputs[0];
                (!sel & inputs[1]) | (sel & inputs[2])
            }
        }
    }

    /// The canonical `.bench` keyword for this kind, if it has one.
    pub fn bench_keyword(self) -> Option<&'static str> {
        match self {
            GateKind::Input | GateKind::KeyInput => None,
            GateKind::Const0 => Some("CONST0"),
            GateKind::Const1 => Some("CONST1"),
            GateKind::Buf => Some("BUF"),
            GateKind::Not => Some("NOT"),
            GateKind::And => Some("AND"),
            GateKind::Nand => Some("NAND"),
            GateKind::Or => Some("OR"),
            GateKind::Nor => Some("NOR"),
            GateKind::Xor => Some("XOR"),
            GateKind::Xnor => Some("XNOR"),
            GateKind::Mux => Some("MUX"),
        }
    }

    /// Parses a `.bench` gate keyword (case-insensitive).
    pub fn from_bench_keyword(kw: &str) -> Option<GateKind> {
        Some(match kw.to_ascii_uppercase().as_str() {
            "CONST0" | "GND" => GateKind::Const0,
            "CONST1" | "VDD" => GateKind::Const1,
            "BUF" | "BUFF" => GateKind::Buf,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "MUX" => GateKind::Mux,
            _ => return None,
        })
    }

    /// All kinds that represent ordinary combinational logic (no inputs,
    /// no constants). Useful for synthetic circuit generation and feature
    /// encodings.
    pub const LOGIC_KINDS: [GateKind; 9] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];

    /// A stable small integer code for feature encodings (one-hot indices).
    pub fn code(self) -> usize {
        match self {
            GateKind::Input => 0,
            GateKind::KeyInput => 1,
            GateKind::Const0 => 2,
            GateKind::Const1 => 3,
            GateKind::Buf => 4,
            GateKind::Not => 5,
            GateKind::And => 6,
            GateKind::Nand => 7,
            GateKind::Or => 8,
            GateKind::Nor => 9,
            GateKind::Xor => 10,
            GateKind::Xnor => 11,
            GateKind::Mux => 12,
        }
    }

    /// Number of distinct codes returned by [`GateKind::code`].
    pub const NUM_CODES: usize = 13;
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            GateKind::KeyInput => "KEYINPUT",
            other => other.bench_keyword().unwrap_or("?"),
        };
        f.write_str(s)
    }
}

/// One gate (node) of a netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    /// Unique, human-readable signal name driving this gate's output.
    pub name: String,
    /// Logic function of the gate.
    pub kind: GateKind,
    /// Fan-in gate ids in positional order (order matters for [`GateKind::Mux`]).
    pub fanin: Vec<GateId>,
}

impl Gate {
    /// Creates a new gate value (not yet inserted in a netlist).
    pub fn new(name: impl Into<String>, kind: GateKind, fanin: Vec<GateId>) -> Self {
        Gate {
            name: name.into(),
            kind,
            fanin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_bounds() {
        assert_eq!(GateKind::Input.arity(), (0, 0));
        assert_eq!(GateKind::Not.arity(), (1, 1));
        assert_eq!(GateKind::Mux.arity(), (3, 3));
        assert_eq!(GateKind::And.arity().0, 2);
    }

    #[test]
    fn eval_bool_basic_gates() {
        assert!(GateKind::And.eval_bool(&[true, true]));
        assert!(!GateKind::And.eval_bool(&[true, false]));
        assert!(!GateKind::Nand.eval_bool(&[true, true]));
        assert!(GateKind::Or.eval_bool(&[false, true]));
        assert!(!GateKind::Nor.eval_bool(&[false, true]));
        assert!(GateKind::Xor.eval_bool(&[true, false]));
        assert!(!GateKind::Xor.eval_bool(&[true, true]));
        assert!(GateKind::Xnor.eval_bool(&[true, true]));
        assert!(GateKind::Not.eval_bool(&[false]));
        assert!(GateKind::Buf.eval_bool(&[true]));
        assert!(!GateKind::Const0.eval_bool(&[]));
        assert!(GateKind::Const1.eval_bool(&[]));
    }

    #[test]
    fn eval_bool_mux_selects_correct_branch() {
        // MUX(sel, a, b): sel=0 -> a, sel=1 -> b
        assert!(!GateKind::Mux.eval_bool(&[false, false, true]));
        assert!(GateKind::Mux.eval_bool(&[true, false, true]));
        assert!(GateKind::Mux.eval_bool(&[false, true, false]));
        assert!(!GateKind::Mux.eval_bool(&[true, true, false]));
    }

    #[test]
    fn eval_word_matches_eval_bool() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for a in [false, true] {
                for b in [false, true] {
                    let word_a = if a { u64::MAX } else { 0 };
                    let word_b = if b { u64::MAX } else { 0 };
                    let expect = kind.eval_bool(&[a, b]);
                    let got = kind.eval_word(&[word_a, word_b]);
                    assert_eq!(got, if expect { u64::MAX } else { 0 }, "{kind:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn eval_word_mux_per_bit() {
        // Per-bit independence: alternate select bits.
        let sel = 0b1010;
        let a = 0b1100;
        let b = 0b0011;
        let out = GateKind::Mux.eval_word(&[sel, a, b]);
        // bit0: sel=0 -> a bit0 = 0 ; bit1: sel=1 -> b bit1 = 1
        // bit2: sel=0 -> a bit2 = 1 ; bit3: sel=1 -> b bit3 = 0
        assert_eq!(out & 0xF, 0b0110);
    }

    #[test]
    fn bench_keyword_roundtrip() {
        for kind in GateKind::LOGIC_KINDS {
            let kw = kind.bench_keyword().unwrap();
            assert_eq!(GateKind::from_bench_keyword(kw), Some(kind));
        }
        assert_eq!(GateKind::from_bench_keyword("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_keyword("bogus"), None);
    }

    #[test]
    fn codes_are_unique_and_dense() {
        let mut seen = vec![false; GateKind::NUM_CODES];
        let all = [
            GateKind::Input,
            GateKind::KeyInput,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
        ];
        for k in all {
            let c = k.code();
            assert!(!seen[c], "duplicate code {c}");
            seen[c] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn multi_input_gates() {
        assert!(GateKind::And.eval_bool(&[true, true, true, true]));
        assert!(!GateKind::And.eval_bool(&[true, true, false, true]));
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, true, true]));
    }

    #[test]
    fn gate_id_display_and_index() {
        let id = GateId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "g7");
        assert_eq!(GateId::from(3u32), GateId(3));
    }
}
