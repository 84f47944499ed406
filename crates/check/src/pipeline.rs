//! Phase-by-phase analysis of the full pipeline for one benchmark.
//!
//! [`check_benchmark`] drives the standard flow — build the ISF and χ,
//! reduce to a fixpoint, synthesize a partitioned cascade — and runs every
//! applicable layer at each phase boundary, collecting all findings into
//! one report. This is what the `bddcf check` CLI subcommand executes.

use crate::cascade::check_multi_cascade_against_oracle;
use crate::{
    check_cascade, check_cascade_ready, check_cf, check_manager, check_refinement, CheckReport,
    Layer,
};
use bddcf_cascade::{try_synthesize_partitioned, CascadeOptions};
use bddcf_core::Cf;
use bddcf_funcs::{build_isf_pieces, Benchmark};

/// Knobs for [`check_benchmark`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Random input samples per cascade for the semantic lints.
    pub samples: u64,
    /// Iteration cap for the reduction fixpoint.
    pub max_iterations: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            samples: 128,
            max_iterations: 4,
        }
    }
}

/// Outcome of [`check_benchmark`] for one registry function.
#[derive(Debug)]
pub struct BenchmarkCheck {
    /// The benchmark's display name.
    pub label: String,
    /// All findings across every phase (empty = the pipeline is sound
    /// on this function).
    pub report: CheckReport,
    /// Maximum χ width before and after the reduction fixpoint.
    pub max_width: (usize, usize),
    /// Cascades in the final partitioned realization (0 when synthesis
    /// failed).
    pub num_cascades: usize,
    /// Total LUT cells over all cascades.
    pub num_cells: usize,
}

/// Builds, reduces, and synthesizes `benchmark`, checking every layer at
/// each phase boundary:
///
/// * after **build**: manager integrity + CF lints on the fresh χ;
/// * after the reduction **fixpoint**: those two plus the refinement
///   oracle (`χ' ⇒ χ`, width recount);
/// * after **synthesis**: per-partition refinement and cascade lints
///   (Theorem-3.1 rails, sampled cell-table semantics), plus the sampled
///   full-word check against the benchmark's own oracle.
///
/// Algorithm 3.3 and synthesis run with their default options.
pub fn check_benchmark(benchmark: &dyn Benchmark, options: &CheckOptions) -> BenchmarkCheck {
    let mut report = CheckReport::new();
    let (mgr, layout, isf) = build_isf_pieces(benchmark);

    // Phase 1: construction.
    let mut cf = Cf::from_isf(mgr.clone(), layout.clone(), isf.clone());
    let width_before = cf.max_width();
    report.absorb("build", check_manager(cf.manager()));
    report.absorb("build", check_cf(&mut cf));

    // Phase 2: reduction fixpoint.
    cf.reduce_to_fixpoint(options.max_iterations);
    let width_after = cf.max_width();
    report.absorb("fixpoint", check_manager(cf.manager()));
    report.absorb("fixpoint", check_cf(&mut cf));
    report.absorb("fixpoint", check_refinement(&mut cf));

    // Phase 3: partitioned synthesis (bi-partition like §5.1, splitting
    // further only where the cell constraints force it).
    let m = layout.num_outputs();
    #[allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
    let initial = if m <= 1 {
        vec![0..m]
    } else {
        vec![0..m.div_ceil(2), m.div_ceil(2)..m]
    };
    let cascade_options = CascadeOptions::default();
    let (num_cascades, num_cells) =
        match try_synthesize_partitioned(&mgr, &layout, &isf, &initial, &cascade_options, |part| {
            part.reduce_to_fixpoint(options.max_iterations);
        }) {
            Ok(multi) => {
                for (i, (cascade, part)) in multi.cascades.iter().zip(&multi.parts).enumerate() {
                    let mut part = part.clone();
                    report.absorb(&format!("synthesis[{i}]"), check_refinement(&mut part));
                    report.absorb(&format!("synthesis[{i}]"), check_cascade_ready(&mut part));
                    report.absorb(
                        &format!("synthesis[{i}]"),
                        check_cascade(cascade, &mut part, options.samples),
                    );
                }
                report.absorb(
                    "synthesis",
                    check_multi_cascade_against_oracle(&multi, benchmark, options.samples),
                );
                (multi.num_cascades(), multi.num_cells())
            }
            Err((range, err)) => {
                report.push(
                    Layer::Cascade,
                    format!(
                        "output {} cannot be synthesized under the cell \
                     constraints: {err}",
                        range.start
                    ),
                );
                (0, 0)
            }
        };

    BenchmarkCheck {
        label: benchmark.name(),
        report,
        max_width: (width_before, width_after),
        num_cascades,
        num_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_funcs::RadixConverter;

    #[test]
    fn small_converter_pipeline_is_sound() {
        let check = check_benchmark(&RadixConverter::new(3, 2), &CheckOptions::default());
        assert!(check.report.is_clean(), "{}", check.report);
        assert!(check.num_cascades >= 1);
        assert!(check.max_width.1 <= check.max_width.0);
    }
}
