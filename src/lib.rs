//! Umbrella crate for the AutoLock reproduction: re-exports the workspace
//! crates so examples and integration tests can use a single dependency.

#![forbid(unsafe_code)]

pub use autolock;
pub use autolock_attacks as attacks;
pub use autolock_circuits as circuits;
pub use autolock_evo as evo;
pub use autolock_gnn as gnn;
pub use autolock_locking as locking;
pub use autolock_mlcore as mlcore;
pub use autolock_netlist as netlist;
pub use autolock_satsolver as satsolver;
