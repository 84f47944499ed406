//! LUT cascade synthesis from BDD_for_CFs and the auxiliary-memory
//! address-generator architecture (Fig. 8 of the paper).
//!
//! An LUT cascade realizes a multiple-output function as a chain of memory
//! cells: cell `i` receives the *rails* from cell `i-1` plus a group of
//! primary inputs, and produces the rails for cell `i+1` plus the primary
//! outputs whose variables fall inside its group. By Theorem 3.1 the rail
//! count at a cut is `⌈log₂ W⌉` for the BDD_for_CF width `W` there —
//! shrinking widths (crate `bddcf-core`) is what shrinks cascades.
//!
//! * [`cell`] — materialized LUT cells with explicit tables and memory-bit
//!   accounting.
//! * [`synth`] — greedy segmentation of a [`Cf`](bddcf_core::Cf) into cells
//!   under (inputs ≤ K, outputs ≤ L) constraints, table extraction, and
//!   bit-accurate cascade simulation.
//! * [`multi`] — output-partitioned realizations: recursive bisection of
//!   the output set until every group fits a single cascade (the `#Cas`
//!   column of Table 6).
//! * [`addrgen`] — the Fig. 8 architecture: a cascade computes a candidate
//!   index, an auxiliary `2^m × n` memory plus comparator rejects
//!   non-members.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrgen;
pub mod cell;
pub mod multi;
pub mod synth;

pub use addrgen::AddressGenerator;
pub use cell::LutCell;
pub use multi::{synthesize_partitioned, try_synthesize_partitioned, MultiCascade};
pub use synth::{
    synthesize, synthesize_governed, Cascade, CascadeOptions, Segmentation, SynthesisError,
};
