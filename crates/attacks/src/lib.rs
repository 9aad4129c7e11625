//! Attack suite for the AutoLock reproduction.
//!
//! Three families of attacks are implemented, covering the threat models the
//! AutoLock paper discusses:
//!
//! * [`MuxLinkAttack`] — the oracle-less, ML-based link-prediction attack
//!   (MuxLink, DATE 2022) with two selectable backends
//!   ([`MuxLinkBackend`]): a from-scratch feature extractor + bagged
//!   [`autolock_mlcore`] MLP ensemble, or the paper-faithful DGCNN from
//!   [`autolock_gnn`] operating on raw enclosing subgraphs. This is the
//!   attack AutoLock's genetic algorithm uses as its fitness oracle (either
//!   backend can serve as the adversary).
//!   [`LinkView`] is the one place that decides what MuxLink sees of a
//!   locked netlist (key inputs and key-controlled MUXes hidden); each
//!   attack builds it once and shares it between training and scoring.
//! * [`SatAttack`] — the classic oracle-guided SAT attack (Subramanyan et
//!   al.), built on the [`autolock_satsolver`] CDCL solver. Used by the
//!   multi-objective experiments (E5, E8).
//! * Baselines: [`RandomGuessAttack`] and the locality-only variant of
//!   MuxLink ([`FeatureMode::LocalityOnly`]), which model the pre-MuxLink
//!   structural attacks that D-MUX was designed to resist (E4).
//!
//! All oracle-less attacks implement [`KeyRecoveryAttack`]; the SAT attack has
//! its own entry point because it additionally needs an I/O oracle (we use the
//! original netlist as the oracle, standing in for an unlocked chip).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod baselines;
mod cache;
mod features;
mod muxlink;
mod report;
mod sat;
mod view;

pub use autolock_gnn::SortPoolK;
pub use baselines::{has_mux_key_gates, RandomGuessAttack, XorStructuralAttack};
pub use cache::{netlist_fingerprint, CacheStats, SubgraphCache};
pub use features::{FeatureMode, LinkFeatureConfig, LinkFeatureExtractor};
pub use muxlink::{MuxCandidate, MuxLinkAttack, MuxLinkBackend, MuxLinkConfig, TrainedLinkModel};
pub use report::{AttackOutcome, KeyGuess};
pub use sat::{
    ResumableSatAttack, SatAttack, SatAttackCheckpoint, SatAttackConfig, SatAttackOutcome,
    SatAttackState, DEFAULT_MAX_PROPAGATIONS_PER_SOLVE,
};
pub use view::LinkView;

use autolock_locking::LockedNetlist;
use rand::RngCore;

/// An oracle-less key-recovery attack: it sees only the locked netlist.
pub trait KeyRecoveryAttack {
    /// Short, stable identifier used in result tables.
    fn name(&self) -> &str;

    /// Runs the attack and returns its key guess together with bookkeeping.
    fn attack(&self, locked: &LockedNetlist, rng: &mut dyn RngCore) -> AttackOutcome;
}
