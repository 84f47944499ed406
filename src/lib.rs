//! `bddcf` — facade crate re-exporting the whole workspace.
//!
//! Reproduction of Sasao & Matsuura, *"BDD representation for incompletely
//! specified multiple-output logic functions and its applications to
//! functional decomposition"* (DAC 2005 / IEICE Trans. Fundamentals 2007).
//!
//! See the individual crates for details:
//!
//! * [`bdd`] — the ROBDD/MTBDD engine.
//! * [`logic`] — ternary logic, truth tables, ISF specifications.
//! * [`core`] — BDD_for_CF construction and width-reduction algorithms
//!   (the paper's contribution).
//! * [`decomp`] — decomposition charts and functional decomposition.
//! * [`cascade`] — LUT cascade synthesis and the auxiliary-memory address
//!   generator architecture.
//! * [`funcs`] — benchmark function generators.
//! * [`io`] — PLA input/output and Verilog emission.
//! * [`check`] — layered structural/semantic invariant analysis
//!   (`bddcf check`, and phase-boundary assertions behind the `check`
//!   cargo feature).
//! * [`serve`] — the fault-tolerant synthesis daemon (`bddcf serve`) and
//!   its fault harness (`bddcf chaos`): admission control, deadlines,
//!   worker quarantine, crash recovery over a durable spool.
//! * [`bench`] — the Table-4 measurement pipeline behind the table
//!   binaries, and the shapes and engine counters `perfbench` reports.

#![forbid(unsafe_code)]

pub use bddcf_bdd as bdd;
pub use bddcf_bench as bench;
pub use bddcf_cascade as cascade;
pub use bddcf_check as check;
pub use bddcf_core as core;
pub use bddcf_decomp as decomp;
pub use bddcf_funcs as funcs;
pub use bddcf_io as io;
pub use bddcf_logic as logic;
pub use bddcf_serve as serve;
