//! Golden digests of D-MUX `Localized` pair selection.
//!
//! `PairSelectionStrategy::Localized` filters partner wires by an undirected
//! hop ball around the first wire's driver. These tests pin an FNV-1a digest
//! of the loci `select_loci` returns (every gate index and key bit, in
//! order), so a change to the graph behind that ball cannot move a single
//! selected pair. The digests were captured before the selection moved to
//! `CsrGraph`, so a passing run proves that port bit-identical.

use autolock_circuits::{suite_circuit, synth_circuit};
use autolock_locking::mux::MuxPairLocus;
use autolock_locking::{DMuxLocking, PairSelectionStrategy};
use autolock_netlist::Netlist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(loci: &[MuxPairLocus]) -> u64 {
    let mut h = Fnv::new();
    for l in loci {
        for id in [l.f_i, l.g_i, l.f_j, l.g_j] {
            h.write(&(id.index() as u64).to_le_bytes());
        }
        h.write(&[u8::from(l.key_bit)]);
    }
    h.0
}

fn localized_digest(original: &Netlist, radius: usize, key_len: usize, seed: u64) -> u64 {
    let scheme = DMuxLocking::new(PairSelectionStrategy::Localized { radius });
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let loci = scheme.select_loci(original, key_len, &mut rng).unwrap();
    assert_eq!(loci.len(), key_len);
    digest(&loci)
}

#[test]
fn localized_selection_on_structured_circuit_is_pinned() {
    let st1355 = suite_circuit("st1355").unwrap();
    assert_eq!(localized_digest(&st1355, 4, 16, 1), 10412350163224825621);
    assert_eq!(localized_digest(&st1355, 4, 32, 2), 17511247428209464662);
}

#[test]
fn localized_selection_on_random_circuit_is_pinned() {
    let original = synth_circuit("loc", 16, 8, 400, 13);
    assert_eq!(localized_digest(&original, 4, 16, 6), 6969525521623217720);
    // Radius 0 is widened to one hop; radius 1 is the tightest ball.
    assert_eq!(localized_digest(&original, 0, 8, 7), 6997690318343421693);
    assert_eq!(localized_digest(&original, 1, 8, 7), 6997690318343421693);
}
