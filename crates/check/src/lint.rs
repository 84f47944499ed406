//! Layer 5, part 2: the artifact lints of one synthesized cascade.
//!
//! [`lint_cascade_artifacts`] *emits both artifact formats and analyzes
//! the artifacts* instead of the in-memory objects:
//!
//! 1. Verilog: emit → parse → lower to the netlist IR → structural
//!    lints → reconstruct a cascade → byte-faithful re-emission →
//!    symbolic `χ_netlist ⇒ χ_spec` proof.
//! 2. Cascade text: write → read → lower → the same battery.
//!
//! A clean report certifies the whole translation chain, not just the
//! synthesizer: any emitter, parser, or format drift shows up as a
//! `TV…` finding with the artifact file and line. `bddcf check` runs it
//! on every cascade of a benchmark's realization
//! ([`check_benchmark`](crate::check_benchmark)).

use crate::netlist::{
    cascade_structural_diff, cascade_to_netlist, check_netlist_refinement, lint_netlist_with_spec,
    netlist_from_verilog, netlist_to_cascade, LintReport, TV001_PARSE, TV002_ROUNDTRIP,
    TV003_RECONSTRUCTION,
};
use bddcf_cascade::Cascade;
use bddcf_core::Cf;
use bddcf_io::{
    cascade_to_verilog, is_valid_module_name, parse_verilog, read_cascade, write_cascade,
};

/// A Verilog-safe artifact stem for a benchmark label.
pub(crate) fn slug(label: &str) -> String {
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
                // The artifact contains only the live cells, so the
                // reconstruction must match the cascade with no-op cells
                // pruned.
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

    #[test]
    fn slugs_are_valid_module_names() {
        for label in ["3-5 RNS", "12 words", "1-digit decimal adder", ""] {
            assert!(bddcf_io::is_valid_module_name(&slug(label)), "{label:?}");
        }
    }
}
