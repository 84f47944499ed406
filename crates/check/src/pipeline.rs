//! The registry audit: every layer over the §5.1 realization of one
//! benchmark.
//!
//! [`check_benchmark`] synthesizes the benchmark's partitioned realization
//! once — each output part is built, reduced to a fixpoint and realized
//! separately, as the paper prepares each half — and runs layers 1–5 on
//! each part of it, collecting all findings into two reports: the
//! in-memory layers' [`CheckReport`] and the artifact lints'
//! [`LintReport`]. This is what the `bddcf check` CLI subcommand executes.

use crate::cascade::check_multi_cascade_against_oracle;
use crate::lint::slug;
use crate::{
    check_cascade, check_cascade_ready, check_cf, check_manager, check_refinement,
    lint_cascade_artifacts, CheckReport, Layer, LintReport,
};
use bddcf_cascade::{try_synthesize_partitioned, CascadeOptions};
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
    /// Findings of layers 1–4 across every phase.
    pub report: CheckReport,
    /// Findings of layer 5 over every emitted artifact.
    pub artifacts: LintReport,
    /// Maximum χ width of the widest part before and after its reduction
    /// fixpoint.
    pub max_width: (usize, usize),
    /// Cascades in the final partitioned realization (0 when synthesis
    /// failed).
    pub num_cascades: usize,
    /// Total LUT cells over all cascades.
    pub num_cells: usize,
}

impl BenchmarkCheck {
    /// True when neither report has a finding: the pipeline is sound on
    /// this function.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.artifacts.is_clean()
    }
}

/// Synthesizes the partitioned realization of `benchmark` (a §5.1
/// bi-partition, split further only where the cell constraints force it)
/// and checks every layer on each part:
///
/// * after **build**: manager integrity + CF lints on the part's fresh χ;
/// * after the reduction **fixpoint**: those two plus the refinement
///   oracle (`χ' ⇒ χ`, width recount) — synthesis does not change χ;
/// * after **synthesis**: the cascade-readiness lint, the cascade lints
///   (Theorem-3.1 rails, sampled cell-table semantics) and the artifact
///   lints of both emitted formats, plus the sampled full-word check of
///   the whole realization against the benchmark's own oracle.
///
/// The audits leave what is synthesized unchanged. Algorithm 3.3 and
/// synthesis run with their default options.
pub fn check_benchmark(benchmark: &dyn Benchmark, options: &CheckOptions) -> BenchmarkCheck {
    let mut report = CheckReport::new();
    let mut artifacts = LintReport::new();
    let mut max_width = (0, 0);
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    let m = layout.num_outputs();
    #[allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
    let initial = if m <= 1 {
        vec![0..m]
    } else {
        vec![0..m.div_ceil(2), m.div_ceil(2)..m]
    };
    let synthesized = try_synthesize_partitioned(
        &mgr,
        &layout,
        &isf,
        &initial,
        &CascadeOptions::default(),
        |part| {
            max_width.0 = max_width.0.max(part.max_width());
            report.absorb("build", check_manager(part.manager()));
            report.absorb("build", check_cf(part));
            // Drop the audit's scratch nodes, so the reduction sees the
            // same arena, and mints the same NodeIds, as an unaudited run.
            part.collect();
            part.reduce_to_fixpoint(options.max_iterations);
            max_width.1 = max_width.1.max(part.max_width());
            report.absorb("fixpoint", check_manager(part.manager()));
            report.absorb("fixpoint", check_cf(part));
            report.absorb("fixpoint", check_refinement(part));
        },
    );
    let (num_cascades, num_cells) = match synthesized {
        Ok(mut multi) => {
            let base = slug(&benchmark.name());
            for (i, (cascade, part)) in multi.cascades.iter().zip(&mut multi.parts).enumerate() {
                let (phase, stem) = (format!("synthesis[{i}]"), format!("{base}_p{i}"));
                report.absorb(&phase, check_cascade_ready(part));
                report.absorb(&phase, check_cascade(cascade, part, options.samples));
                artifacts.extend(lint_cascade_artifacts(cascade, part, &stem));
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
                    "output {} cannot be synthesized under the cell constraints: {err}",
                    range.start
                ),
            );
            (0, 0)
        }
    };

    BenchmarkCheck {
        label: benchmark.name(),
        report,
        artifacts,
        max_width,
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
        assert!(check.artifacts.is_clean(), "{}", check.artifacts);
        assert!(check.num_cascades >= 1);
        assert!(check.max_width.1 <= check.max_width.0);
    }
}
