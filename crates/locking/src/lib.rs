//! Logic-locking schemes and shared key machinery.
//!
//! This crate implements the defence side of the AutoLock reproduction:
//!
//! * [`Key`] — a vector of key bits with helpers (random generation, Hamming
//!   distance, hex formatting),
//! * [`LockedNetlist`] — the result of locking: the locked circuit, the
//!   correct key and per-key-gate provenance (ground truth used only for
//!   evaluation),
//! * [`XorLocking`] — classic random XOR/XNOR key-gate insertion (RLL/EPIC
//!   style), the oldest baseline,
//! * [`mux`] — the MUX-pair insertion primitive shared by D-MUX and AutoLock:
//!   a [`mux::MuxPairLocus`] `{f_i, f_j, g_i, g_j, k}` describes one locking
//!   location exactly as in the AutoLock genotype,
//! * [`DMuxLocking`] — the D-MUX scheme (random, deceptive MUX-pair
//!   insertion) that AutoLock starts from and is compared against,
//! * [`overhead`] — structural area / delay / switching-activity proxies.
//!
//! ```
//! use autolock_circuits::c17;
//! use autolock_locking::{DMuxLocking, LockingScheme};
//! use rand::SeedableRng;
//!
//! let original = c17();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let locked = DMuxLocking::default().lock(&original, 2, &mut rng).unwrap();
//! assert_eq!(locked.key().len(), 2);
//! // The locked netlist with the correct key is functionally equivalent.
//! assert!(locked.verify_functional(&original, 64, &mut rng).unwrap());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod error;
mod key;
mod locked;
pub mod mux;
pub mod overhead;
mod scheme;

mod dmux;
mod xor;

pub use dmux::{DMuxLocking, PairSelectionStrategy};
pub use error::LockError;
pub use key::Key;
pub use locked::{KeyGateProvenance, LockedNetlist};
pub use mux::{apply_loci, MuxPairLocus};
pub use scheme::LockingScheme;
pub use xor::XorLocking;

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LockError>;
