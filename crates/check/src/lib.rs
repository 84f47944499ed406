//! Workspace-wide structural and semantic invariant analysis for the
//! `BDD_for_CF` pipeline (`bddcf check`).
//!
//! The paper's pipeline — characteristic-function construction
//! (Definition 2.3), width reductions (Algorithms 3.1/3.3, support-variable
//! removal), and LUT-cascade synthesis (Theorem 3.1) — relies on a stack of
//! invariants that the implementation crates *assume* but do not audit on
//! every operation. This crate re-derives them from first principles and
//! checks real pipeline states against them, in four layers:
//!
//! 1. **Manager integrity** ([`check_manager`]) — the ROBDD arena audit of
//!    [`bddcf_bdd::BddManager::check_integrity`]: canonical unique-table ↔
//!    arena bijection, strict reduction, level monotonicity under the
//!    current variable permutation, live operation caches.
//! 2. **CF lints** ([`check_cf`]) — semantic well-formedness of a
//!    `BDD_for_CF`: the Definition-2.4 ordering rule (each output variable
//!    below the support of its function), no output variable repeated on
//!    any path of χ, ON/OFF/DC partitioning the input space, and validity
//!    `∀X ∃Y. χ = 1`.
//! 3. **Refinement oracle** ([`check_refinement`]) — reductions may only
//!    complete don't cares: the current χ must imply the χ rebuilt from the
//!    preserved original specification, and the incremental
//!    [`bddcf_bdd::WidthProfile`] must agree with an independent
//!    per-cut recount of Definition 3.5.
//! 4. **Cascade lints** ([`check_cascade`],
//!    [`check_cascade_against_oracle`]) — Theorem 3.1 rail counts
//!    (`⌈log₂ W⌉` at every cell boundary) and sampled agreement of the cell
//!    tables with the specification oracle.
//!
//! [`check_benchmark`] chains all four layers over the standard pipeline
//! (build → reduce to fixpoint → synthesize) for one registry benchmark;
//! the `bddcf check` CLI subcommand is a thin wrapper around it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod audit;
pub mod cascade;
pub mod cf;
pub mod inject;
pub mod lint;
pub mod manager;
pub mod netlist;
pub mod pipeline;
pub mod quarantine;
pub mod refine;

pub use audit::audit_artifact_text;
pub use cascade::{
    check_cascade, check_cascade_against_oracle, check_multi_cascade_against_oracle,
};
pub use cf::{check_cascade_ready, check_cf};
pub use inject::inject_budget_faults;
pub use lint::{lint_benchmark, lint_cascade_artifacts, BenchmarkLint, LintOptions};
pub use manager::check_manager;
pub use netlist::{
    cascade_structural_diff, cascade_to_netlist, check_netlist_refinement, lint_netlist,
    lint_netlist_with_spec, lint_rail_bounds, netlist_chi, netlist_from_verilog,
    netlist_to_cascade, LintFinding, LintReport, Netlist,
};
pub use pipeline::{check_benchmark, BenchmarkCheck, CheckOptions};
pub use quarantine::{
    panic_payload_text, quarantine_op, run_quarantined, with_quiet_panics, FindingProbe,
    PanicProbe, Quarantine, PANIC_PROBE_MESSAGE,
};
pub use refine::{check_refinement, naive_width_profile};

/// The four analysis layers, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// ROBDD arena / unique-table / cache integrity.
    Manager,
    /// `BDD_for_CF` semantic lints (Definitions 2.3 and 2.4).
    CfLints,
    /// Reduction refinement (`χ' ⇒ χ`) and width-profile recount.
    Refinement,
    /// LUT-cascade structure (Theorem 3.1) and sampled semantics.
    Cascade,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Manager => "manager",
            Layer::CfLints => "cf",
            Layer::Refinement => "refinement",
            Layer::Cascade => "cascade",
        })
    }
}

/// One invariant violation, attributed to a layer and (optionally) the
/// pipeline phase that produced the state.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which analysis layer flagged it.
    pub layer: Layer,
    /// Pipeline phase label (`"build"`, `"fixpoint"`, …) or empty when the
    /// check ran on a free-standing object.
    pub phase: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phase.is_empty() {
            write!(f, "[{}] {}", self.layer, self.message)
        } else {
            write!(f, "[{}/{}] {}", self.layer, self.phase, self.message)
        }
    }
}

/// The outcome of one or more checks: a (possibly empty) list of findings.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    findings: Vec<Finding>,
}

impl CheckReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// Records a violation.
    pub fn push(&mut self, layer: Layer, message: impl Into<String>) {
        self.findings.push(Finding {
            layer,
            phase: String::new(),
            message: message.into(),
        });
    }

    /// Absorbs another report, tagging its findings with `phase` (existing
    /// phase labels are kept).
    pub fn absorb(&mut self, phase: &str, other: CheckReport) {
        for mut finding in other.findings {
            if finding.phase.is_empty() {
                finding.phase = phase.to_owned();
            }
            self.findings.push(finding);
        }
    }

    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// All findings, in discovery order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Panics with the full report when it is not clean. The `check`
    /// feature of `bddcf-core` and `bddcf-bench` uses this as a
    /// phase-boundary assertion.
    #[track_caller]
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "invariant check failed at {context}:\n{self}"
        );
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "clean: no invariant violations");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(f, "{} violation(s)", self.findings.len())
    }
}
