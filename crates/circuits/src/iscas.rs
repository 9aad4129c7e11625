//! Embedded ISCAS-85 benchmark circuits.
//!
//! Two members of the family ship as `.bench` source text:
//!
//! * **c17** — the tiny 6-NAND benchmark, reproduced exactly from its public
//!   `.bench` description.
//! * **c432** — the 27-channel interrupt controller. The verbatim gate list
//!   of the circulating `c432.bench` is not redistributable from this
//!   offline workspace, so the embedded text is a **documented
//!   reconstruction** built from the published high-level model (Hansen,
//!   Yalçın & Hayes, *Unveiling the ISCAS-85 Benchmarks*, IEEE D&T 1999):
//!   the canonical interface (36 primary inputs, 7 primary outputs, ISCAS
//!   numeric signal names), the same function (three 9-bit request buses
//!   with bus priority A > B > C, per-channel enables, priority encoding of
//!   the winning channel), and a gate inventory in the same class as the
//!   original's 160 gates (142 here: 36 inverters feeding inverted-phase
//!   NOR/OR logic, AND priority chain, OR merge trees). Every algorithm in
//!   this repository consumes gate-level *structure*, so the reconstruction
//!   exercises the identical code paths — including the `.bench` dialect
//!   quirks of the real distribution (lowercase keywords, digit-leading
//!   signal names) that the parser must accept.
//!
//! Input mapping of the reconstruction (channel-major): channel `i` reads
//! request bits `A_i`, `B_i`, `C_i` and enable `E_i` from the canonical
//! input names in declaration order, four per channel. Outputs: `223gat`,
//! `329gat`, `370gat` are the bus-grant flags PA, PB, PC; `421gat`,
//! `432gat`, `431gat`, `430gat` encode the winning channel index (bit 3
//! down to bit 0), gated by "any grant".

use autolock_netlist::{parse_bench, Netlist};

/// The canonical `.bench` text of ISCAS-85 c17 (5 inputs, 2 outputs, 6 NAND
/// gates).
pub const C17_BENCH: &str = "\
# c17 ISCAS-85 benchmark
INPUT(G1gat)
INPUT(G2gat)
INPUT(G3gat)
INPUT(G6gat)
INPUT(G7gat)
OUTPUT(G22gat)
OUTPUT(G23gat)
G10gat = NAND(G1gat, G3gat)
G11gat = NAND(G3gat, G6gat)
G16gat = NAND(G2gat, G11gat)
G19gat = NAND(G11gat, G7gat)
G22gat = NAND(G10gat, G16gat)
G23gat = NAND(G16gat, G19gat)
";

/// Returns the c17 `.bench` source text.
pub fn c17_bench_text() -> &'static str {
    C17_BENCH
}

/// Parses and returns the c17 netlist.
///
/// # Panics
///
/// Never panics in practice; the embedded text is valid.
pub fn c17() -> Netlist {
    parse_bench("c17", C17_BENCH).expect("embedded c17 is valid")
}

/// `.bench` text of the c432 reconstruction (see the [module
/// documentation](self) for provenance): 36 inputs, 7 outputs, 142 gates
/// (36 NOT, 35 NOR, 52 OR, 19 AND). Lowercase gate keywords and
/// digit-leading names follow the circulating ISCAS-85 distribution.
pub const C432_BENCH: &str = "\
# c432 27-channel interrupt controller (reconstruction from the published
# high-level model; canonical interface, see autolock_circuits::iscas docs)
# 36 inputs, 7 outputs, 142 gates
INPUT(1gat)
INPUT(4gat)
INPUT(8gat)
INPUT(11gat)
INPUT(14gat)
INPUT(17gat)
INPUT(21gat)
INPUT(24gat)
INPUT(27gat)
INPUT(30gat)
INPUT(34gat)
INPUT(37gat)
INPUT(40gat)
INPUT(43gat)
INPUT(47gat)
INPUT(50gat)
INPUT(53gat)
INPUT(56gat)
INPUT(60gat)
INPUT(63gat)
INPUT(66gat)
INPUT(69gat)
INPUT(73gat)
INPUT(76gat)
INPUT(79gat)
INPUT(82gat)
INPUT(86gat)
INPUT(89gat)
INPUT(92gat)
INPUT(95gat)
INPUT(99gat)
INPUT(102gat)
INPUT(105gat)
INPUT(108gat)
INPUT(112gat)
INPUT(115gat)
OUTPUT(223gat)
OUTPUT(329gat)
OUTPUT(370gat)
OUTPUT(421gat)
OUTPUT(430gat)
OUTPUT(431gat)
OUTPUT(432gat)
# channel 0: A=1gat B=4gat C=8gat E=11gat
na0gat = not(1gat)
nb0gat = not(4gat)
nc0gat = not(8gat)
ne0gat = not(11gat)
ae0gat = nor(na0gat, ne0gat)
nbe0gat = or(nb0gat, ne0gat)
bq0gat = nor(nbe0gat, 1gat)
nce0gat = or(nc0gat, ne0gat)
cq0gat = nor(nce0gat, 1gat, 4gat)
g0gat = or(ae0gat, bq0gat, cq0gat)
# channel 1: A=14gat B=17gat C=21gat E=24gat
na1gat = not(14gat)
nb1gat = not(17gat)
nc1gat = not(21gat)
ne1gat = not(24gat)
ae1gat = nor(na1gat, ne1gat)
nbe1gat = or(nb1gat, ne1gat)
bq1gat = nor(nbe1gat, 14gat)
nce1gat = or(nc1gat, ne1gat)
cq1gat = nor(nce1gat, 14gat, 17gat)
g1gat = or(ae1gat, bq1gat, cq1gat)
ng1gat = nor(ae1gat, bq1gat, cq1gat)
# channel 2: A=27gat B=30gat C=34gat E=37gat
na2gat = not(27gat)
nb2gat = not(30gat)
nc2gat = not(34gat)
ne2gat = not(37gat)
ae2gat = nor(na2gat, ne2gat)
nbe2gat = or(nb2gat, ne2gat)
bq2gat = nor(nbe2gat, 27gat)
nce2gat = or(nc2gat, ne2gat)
cq2gat = nor(nce2gat, 27gat, 30gat)
g2gat = or(ae2gat, bq2gat, cq2gat)
ng2gat = nor(ae2gat, bq2gat, cq2gat)
# channel 3: A=40gat B=43gat C=47gat E=50gat
na3gat = not(40gat)
nb3gat = not(43gat)
nc3gat = not(47gat)
ne3gat = not(50gat)
ae3gat = nor(na3gat, ne3gat)
nbe3gat = or(nb3gat, ne3gat)
bq3gat = nor(nbe3gat, 40gat)
nce3gat = or(nc3gat, ne3gat)
cq3gat = nor(nce3gat, 40gat, 43gat)
g3gat = or(ae3gat, bq3gat, cq3gat)
ng3gat = nor(ae3gat, bq3gat, cq3gat)
# channel 4: A=53gat B=56gat C=60gat E=63gat
na4gat = not(53gat)
nb4gat = not(56gat)
nc4gat = not(60gat)
ne4gat = not(63gat)
ae4gat = nor(na4gat, ne4gat)
nbe4gat = or(nb4gat, ne4gat)
bq4gat = nor(nbe4gat, 53gat)
nce4gat = or(nc4gat, ne4gat)
cq4gat = nor(nce4gat, 53gat, 56gat)
g4gat = or(ae4gat, bq4gat, cq4gat)
ng4gat = nor(ae4gat, bq4gat, cq4gat)
# channel 5: A=66gat B=69gat C=73gat E=76gat
na5gat = not(66gat)
nb5gat = not(69gat)
nc5gat = not(73gat)
ne5gat = not(76gat)
ae5gat = nor(na5gat, ne5gat)
nbe5gat = or(nb5gat, ne5gat)
bq5gat = nor(nbe5gat, 66gat)
nce5gat = or(nc5gat, ne5gat)
cq5gat = nor(nce5gat, 66gat, 69gat)
g5gat = or(ae5gat, bq5gat, cq5gat)
ng5gat = nor(ae5gat, bq5gat, cq5gat)
# channel 6: A=79gat B=82gat C=86gat E=89gat
na6gat = not(79gat)
nb6gat = not(82gat)
nc6gat = not(86gat)
ne6gat = not(89gat)
ae6gat = nor(na6gat, ne6gat)
nbe6gat = or(nb6gat, ne6gat)
bq6gat = nor(nbe6gat, 79gat)
nce6gat = or(nc6gat, ne6gat)
cq6gat = nor(nce6gat, 79gat, 82gat)
g6gat = or(ae6gat, bq6gat, cq6gat)
ng6gat = nor(ae6gat, bq6gat, cq6gat)
# channel 7: A=92gat B=95gat C=99gat E=102gat
na7gat = not(92gat)
nb7gat = not(95gat)
nc7gat = not(99gat)
ne7gat = not(102gat)
ae7gat = nor(na7gat, ne7gat)
nbe7gat = or(nb7gat, ne7gat)
bq7gat = nor(nbe7gat, 92gat)
nce7gat = or(nc7gat, ne7gat)
cq7gat = nor(nce7gat, 92gat, 95gat)
g7gat = or(ae7gat, bq7gat, cq7gat)
ng7gat = nor(ae7gat, bq7gat, cq7gat)
# channel 8: A=105gat B=108gat C=112gat E=115gat
na8gat = not(105gat)
nb8gat = not(108gat)
nc8gat = not(112gat)
ne8gat = not(115gat)
ae8gat = nor(na8gat, ne8gat)
nbe8gat = or(nb8gat, ne8gat)
bq8gat = nor(nbe8gat, 105gat)
nce8gat = or(nc8gat, ne8gat)
cq8gat = nor(nce8gat, 105gat, 108gat)
g8gat = or(ae8gat, bq8gat, cq8gat)
ng8gat = nor(ae8gat, bq8gat, cq8gat)
# priority chain: channel 8 highest
h7gat = and(g7gat, ng8gat)
cum6gat = and(ng8gat, ng7gat)
h6gat = and(g6gat, cum6gat)
cum5gat = and(cum6gat, ng6gat)
h5gat = and(g5gat, cum5gat)
cum4gat = and(cum5gat, ng5gat)
h4gat = and(g4gat, cum4gat)
cum3gat = and(cum4gat, ng4gat)
h3gat = and(g3gat, cum3gat)
cum2gat = and(cum3gat, ng3gat)
h2gat = and(g2gat, cum2gat)
cum1gat = and(cum2gat, ng2gat)
h1gat = and(g1gat, cum1gat)
cum0gat = and(cum1gat, ng1gat)
h0gat = and(g0gat, cum0gat)
# bus grant flags PA / PB / PC
pa1gat = or(ae0gat, ae1gat, ae2gat)
pa2gat = or(ae3gat, ae4gat, ae5gat)
pa3gat = or(ae6gat, ae7gat, ae8gat)
223gat = or(pa1gat, pa2gat, pa3gat)
pb1gat = or(bq0gat, bq1gat, bq2gat)
pb2gat = or(bq3gat, bq4gat, bq5gat)
pb3gat = or(bq6gat, bq7gat, bq8gat)
329gat = or(pb1gat, pb2gat, pb3gat)
pc1gat = or(cq0gat, cq1gat, cq2gat)
pc2gat = or(cq3gat, cq4gat, cq5gat)
pc3gat = or(cq6gat, cq7gat, cq8gat)
370gat = or(pc1gat, pc2gat, pc3gat)
# any-grant flag over the one-hot channel vector
any1gat = or(h0gat, h1gat, h2gat)
any2gat = or(h3gat, h4gat, h5gat)
any3gat = or(h6gat, h7gat, g8gat)
anygat = or(any1gat, any2gat, any3gat)
# winning-channel address, gated by any-grant
b0agat = or(h1gat, h3gat)
b0bgat = or(h5gat, h7gat)
b0gat = or(b0agat, b0bgat)
430gat = and(b0gat, anygat)
b1agat = or(h2gat, h3gat)
b1bgat = or(h6gat, h7gat)
b1gat = or(b1agat, b1bgat)
431gat = and(b1gat, anygat)
b2agat = or(h4gat, h5gat)
b2bgat = or(h6gat, h7gat)
b2gat = or(b2agat, b2bgat)
432gat = and(b2gat, anygat)
421gat = and(g8gat, anygat)
";

/// Returns the c432 `.bench` source text.
pub fn c432_bench_text() -> &'static str {
    C432_BENCH
}

/// Parses and returns the c432 netlist.
///
/// # Panics
///
/// Never panics in practice; the embedded text is valid.
pub fn c432() -> Netlist {
    parse_bench("c432", C432_BENCH).expect("embedded c432 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_shape() {
        let nl = c17();
        assert_eq!(nl.num_inputs(), 5);
        assert_eq!(nl.num_outputs(), 2);
        assert_eq!(nl.num_logic_gates(), 6);
        nl.validate().unwrap();
    }

    #[test]
    fn c17_truth_spot_checks() {
        let nl = c17();
        // Inputs in declaration order: G1, G2, G3, G6, G7.
        // All zeros: G10 = NAND(0,0)=1, G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
        // G22=NAND(1,1)=0, G23=NAND(1,1)=0.
        assert_eq!(
            nl.evaluate(&[false, false, false, false, false]).unwrap(),
            vec![false, false]
        );
        // All ones: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
        // G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        assert_eq!(
            nl.evaluate(&[true, true, true, true, true]).unwrap(),
            vec![true, false]
        );
    }

    #[test]
    fn c17_all_gates_are_nand() {
        let nl = c17();
        use autolock_netlist::GateKind;
        for (_, g) in nl.iter() {
            if !g.kind.is_input() {
                assert_eq!(g.kind, GateKind::Nand);
            }
        }
    }

    #[test]
    fn c432_shape() {
        let nl = c432();
        assert_eq!(nl.num_inputs(), 36);
        assert_eq!(nl.num_outputs(), 7);
        assert_eq!(nl.num_logic_gates(), 142);
        nl.validate().unwrap();
    }

    #[test]
    fn c432_gate_inventory() {
        use autolock_netlist::GateKind;
        let nl = c432();
        let count = |k: GateKind| nl.iter().filter(|(_, g)| g.kind == k).count();
        assert_eq!(count(GateKind::Not), 36);
        assert_eq!(count(GateKind::Nor), 35);
        assert_eq!(count(GateKind::Or), 52);
        assert_eq!(count(GateKind::And), 19);
    }

    /// Sets `A_ch`/`B_ch`/`C_ch` request bits with their enables and checks
    /// the seven outputs (PA, PB, PC, addr3, addr0, addr1, addr2).
    fn eval_c432(requests: &[(char, usize)]) -> Vec<bool> {
        let nl = c432();
        let mut inputs = vec![false; 36];
        for &(bus, ch) in requests {
            let lane = match bus {
                'A' => 0,
                'B' => 1,
                'C' => 2,
                _ => panic!("bus must be A/B/C"),
            };
            inputs[4 * ch + lane] = true;
            inputs[4 * ch + 3] = true; // enable the channel
        }
        nl.evaluate(&inputs).unwrap()
    }

    #[test]
    fn c432_idle_bus_is_all_zero() {
        assert_eq!(eval_c432(&[]), vec![false; 7]);
    }

    #[test]
    fn c432_channel0_request_raises_pa_with_address_zero() {
        // PA=1, PB=PC=0, address 0, any-grant folded into the address bits.
        assert_eq!(
            eval_c432(&[('A', 0)]),
            vec![true, false, false, false, false, false, false]
        );
    }

    #[test]
    fn c432_highest_channel_wins_priority_encoding() {
        // B request on channel 3 and C request on channel 5: both buses
        // grant (B beats nothing on ch3, C unopposed on ch5), and the
        // priority encoder reports channel 5 (binary 0101 -> bit0, bit2).
        assert_eq!(
            eval_c432(&[('B', 3), ('C', 5)]),
            vec![false, true, true, false, true, false, true]
        );
    }

    #[test]
    fn c432_bus_priority_a_beats_b_beats_c() {
        // All three buses request channel 2: only bus A is granted.
        let out = eval_c432(&[('A', 2), ('B', 2), ('C', 2)]);
        assert!(out[0], "PA");
        assert!(!out[1], "PB masked by A");
        assert!(!out[2], "PC masked by A and B");
        // Address = 2 -> bit1 only.
        assert_eq!(&out[3..], &[false, false, true, false]);
    }

    #[test]
    fn c432_channel8_sets_address_bit3() {
        let out = eval_c432(&[('A', 8)]);
        assert!(out[0], "PA");
        assert_eq!(&out[3..], &[true, false, false, false]);
    }
}
