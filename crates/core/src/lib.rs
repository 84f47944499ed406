//! BDD_for_CF: characteristic-function BDDs for incompletely specified
//! multiple-output logic functions, and the paper's width-reduction
//! algorithms.
//!
//! This crate is the primary contribution of Sasao & Matsuura (DAC 2005):
//!
//! * [`CfLayout`] / [`IsfBdds`] / [`Cf`] — construction of the
//!   characteristic function
//!   `χ(X,Y) = ∧ᵢ ( ȳᵢ·f_i0(X) ∨ yᵢ·f_i1(X) ∨ f_id(X) )`
//!   (Definition 2.3) and its BDD with every output variable ordered below
//!   the support of its function (Definition 2.4).
//! * [`compat`] — compatibility of sub-characteristic-functions, the
//!   semantic engine behind every merge (Definition 3.7 / Lemma 3.1).
//! * [`alg31`] — Algorithm 3.1, recursive merging of compatible children.
//! * [`cover`] — compatibility graphs and Algorithm 3.2, the heuristic
//!   minimal clique cover.
//! * [`alg33`] — Algorithm 3.3, level-by-level width reduction via clique
//!   covers of the column functions.
//! * [`support`] — §3.3, removal of redundant input variables by don't-care
//!   assignment.
//! * [`partition`] — §5.1, output set bi-partitioning.
//! * [`sift`] — variable-order optimization of a `Cf` by constrained
//!   sifting with the paper's sum-of-widths cost.
//!
//! # Orientation
//!
//! A [`Cf`] owns its [`BddManager`](bddcf_bdd::BddManager): the manager, the
//! layout (which variable plays which role) and the root evolve together
//! through reordering and reduction, and tying them into one value keeps
//! every `NodeId` valid by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg31;
pub mod alg33;
pub mod cf;
pub mod checkpoint;
pub mod compat;
pub mod cover;
pub mod degrade;
pub mod driver;
pub mod layout;
pub mod partition;
pub mod sift;
pub mod support;

pub use alg33::Alg33Options;
pub use cf::{Cf, ChoiceError, IsfBdds};
pub use checkpoint::{
    latest_checkpoint, latest_checkpoint_vfs, latest_valid_checkpoint_vfs, load_checkpoint,
    load_checkpoint_vfs, quarantine_name, CheckpointError, Checkpointer, FixpointCursor,
    LoadedCheckpoint, Progress,
};
pub use cover::CompatGraph;
pub use degrade::{DegradationEvent, DegradationReport, DegradeAction, Phase};
pub use driver::FixpointStats;
pub use layout::{CfLayout, Role};
