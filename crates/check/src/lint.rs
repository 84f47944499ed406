//! Layer 5, part 2: the artifact lint pipeline (`bddcf lint`).
//!
//! [`lint_benchmark`] drives the standard flow for one registry
//! benchmark — build, reduce, partitioned synthesis — then, for every
//! cascade of the realization, *emits both artifact formats and analyzes
//! the artifacts* instead of the in-memory objects:
//!
//! 1. Verilog: emit → parse → lower to the netlist IR → structural
//!    lints → reconstruct a cascade → byte-faithful re-emission →
//!    Theorem-3.1 rail recount → symbolic `χ_netlist ⇒ χ_spec` proof.
//! 2. Cascade text: write → read → lower → the same battery.
//!
//! A clean report certifies the whole translation chain, not just the
//! synthesizer: any emitter, parser, or format drift shows up as a
//! `TV…` finding with the artifact file and line.

use crate::netlist::{
    cascade_structural_diff, cascade_to_netlist, check_netlist_refinement, lint_netlist_with_spec,
    lint_rail_bounds, netlist_from_verilog, netlist_to_cascade, LintReport, TV001_PARSE,
    TV002_ROUNDTRIP, TV003_RECONSTRUCTION,
};
use bddcf_cascade::{try_synthesize_partitioned, Cascade, CascadeOptions};
use bddcf_core::{Alg33Options, Cf};
use bddcf_funcs::{build_isf_pieces, Benchmark};
use bddcf_io::{
    cascade_to_verilog, is_valid_module_name, parse_verilog, read_cascade, write_cascade,
};

/// Knobs for [`lint_benchmark`].
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Iteration cap for the reduction fixpoint.
    pub max_iterations: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { max_iterations: 4 }
    }
}

/// Outcome of [`lint_benchmark`] for one registry function.
#[derive(Debug)]
pub struct BenchmarkLint {
    /// The benchmark's display name.
    pub label: String,
    /// All findings over every emitted artifact (empty = the translation
    /// chain is sound on this function).
    pub report: LintReport,
    /// Artifacts analyzed (two per cascade: `.v` and `.cas`).
    pub artifacts: usize,
}

/// A Verilog-safe artifact stem for a benchmark label.
fn slug(label: &str) -> String {
    let mut s: String = label
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if !is_valid_module_name(&s) {
        s = format!("m_{s}");
    }
    s
}

/// 1-based line of the first difference between two texts (0 when one is
/// a strict prefix of the other at a line boundary).
fn first_diff_line(a: &str, b: &str) -> usize {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return i + 1;
        }
    }
    if a.lines().count() == b.lines().count() {
        0
    } else {
        a.lines().count().min(b.lines().count()) + 1
    }
}

/// Builds, reduces, and synthesizes `benchmark`, then runs the full
/// artifact-lint battery ([`lint_cascade_artifacts`]) over every cascade
/// of the partitioned realization. Algorithm 3.3 and synthesis run with
/// their default options.
pub fn lint_benchmark(benchmark: &dyn Benchmark, options: &LintOptions) -> BenchmarkLint {
    let mut report = LintReport::new();
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    let stem_base = slug(&benchmark.name());

    // The same §5.1 bi-partition `bddcf check` uses.
    let m = layout.num_outputs();
    #[allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
    let initial = if m <= 1 {
        vec![0..m]
    } else {
        vec![0..m.div_ceil(2), m.div_ceil(2)..m]
    };
    let (alg33, cascade_options) = (Alg33Options::default(), CascadeOptions::default());
    let mut artifacts = 0usize;
    match try_synthesize_partitioned(&mgr, &layout, &isf, &initial, &cascade_options, |part| {
        part.reduce_to_fixpoint(&alg33, options.max_iterations);
    }) {
        Ok(multi) => {
            for (i, (cascade, part)) in multi.cascades.iter().zip(&multi.parts).enumerate() {
                let mut part = part.clone();
                let stem = format!("{stem_base}_p{i}");
                report.extend(lint_cascade_artifacts(cascade, &mut part, &stem));
                artifacts += 2;
            }
        }
        Err((range, err)) => {
            report.push(
                &stem_base,
                0,
                TV001_PARSE,
                format!(
                    "no artifact to lint: output {} cannot be synthesized under \
                     the cell constraints: {err}",
                    range.start
                ),
            );
        }
    }
    BenchmarkLint {
        label: benchmark.name(),
        report,
        artifacts,
    }
}

/// Emits both artifact formats for one cascade and runs every artifact
/// analysis on them. `cf` is the (reduced) specification the cascade was
/// synthesized from; `stem` names the artifacts (`<stem>.v`,
/// `<stem>.cas`).
pub fn lint_cascade_artifacts(cascade: &Cascade, cf: &mut Cf, stem: &str) -> LintReport {
    let mut report = LintReport::new();
    let module = slug(stem);

    // Inputs χ no longer depends on (reductions or widened-benchmark
    // padding): cells still consume those layout levels, so address bits
    // fed by them are expected to be vacuous — not NL007 defects.
    let live = cf.support_inputs();
    let spec_vacuous: Vec<usize> = (0..cf.layout().num_inputs())
        .filter(|i| !live.contains(i))
        .collect();

    // --- The Verilog artifact ---------------------------------------
    let vfile = format!("{stem}.v");
    match cascade_to_verilog(cascade, &module) {
        Err(e) => report.push(&vfile, 0, TV001_PARSE, format!("emission failed: {e}")),
        Ok(text) => match parse_verilog(&text) {
            Err(e) => report.push(&vfile, e.line, TV001_PARSE, e.message),
            Ok(parsed) => {
                let (net, lowering) = netlist_from_verilog(&parsed, &vfile);
                report.extend(lowering);
                report.extend(lint_netlist_with_spec(&net, &vfile, &spec_vacuous));
                // The artifact contains only the live cells; the rail
                // recount runs on the full cascade (whose cell boundaries
                // cover every layout level), and the reconstruction must
                // match the cascade with no-op cells pruned.
                report.extend(lint_rail_bounds(cascade, cf, &vfile));
                let reference = cascade.without_noop_cells();
                match netlist_to_cascade(&net, &vfile) {
                    Ok(rebuilt) => {
                        if let Some(diff) = cascade_structural_diff(&reference, &rebuilt) {
                            report.push(
                                &vfile,
                                0,
                                TV003_RECONSTRUCTION,
                                format!(
                                    "reconstructed cascade differs from the synthesized \
                                     one: {diff}"
                                ),
                            );
                        }
                        match cascade_to_verilog(&rebuilt, &module) {
                            Ok(second) if second == text => {}
                            Ok(second) => report.push(
                                &vfile,
                                first_diff_line(&text, &second),
                                TV002_ROUNDTRIP,
                                "emit → parse → re-emit is not byte-faithful",
                            ),
                            Err(e) => report.push(
                                &vfile,
                                0,
                                TV001_PARSE,
                                format!("re-emission failed: {e}"),
                            ),
                        }
                    }
                    Err(r) => report.extend(r),
                }
                report.extend(check_netlist_refinement(&net, cf, &vfile));
            }
        },
    }

    // --- The cascade-text artifact ----------------------------------
    let casfile = format!("{stem}.cas");
    let cas_text = write_cascade(cascade);
    match read_cascade(&cas_text) {
        Err(e) => report.push(&casfile, e.line, TV001_PARSE, e.message),
        Ok(loaded) => {
            let second = write_cascade(&loaded);
            if second != cas_text {
                report.push(
                    &casfile,
                    first_diff_line(&cas_text, &second),
                    TV002_ROUNDTRIP,
                    "write → read → re-write is not byte-faithful",
                );
            }
            if let Some(diff) = cascade_structural_diff(cascade, &loaded) {
                report.push(
                    &casfile,
                    0,
                    TV003_RECONSTRUCTION,
                    format!("loaded cascade differs from the synthesized one: {diff}"),
                );
            }
            let net = cascade_to_netlist(&loaded, stem);
            report.extend(lint_netlist_with_spec(&net, &casfile, &spec_vacuous));
            report.extend(check_netlist_refinement(&net, cf, &casfile));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_funcs::RadixConverter;

    #[test]
    fn small_converter_artifacts_lint_clean() {
        let lint = lint_benchmark(&RadixConverter::new(3, 2), &LintOptions::default());
        assert!(lint.report.is_clean(), "{}", lint.report);
        assert!(lint.artifacts >= 2, "at least one cascade, two artifacts");
    }

    #[test]
    fn slugs_are_valid_module_names() {
        for label in ["3-5 RNS", "12 words", "1-digit decimal adder", ""] {
            assert!(bddcf_io::is_valid_module_name(&slug(label)), "{label:?}");
        }
    }
}
