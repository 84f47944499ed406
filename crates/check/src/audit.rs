//! Artifact audit for *received* artifacts (serving-layer cache hits and
//! the chaos harness).
//!
//! [`crate::lint_cascade_artifacts`] validates artifacts the process just
//! emitted itself. The serving layer has the dual problem: it holds
//! artifact **text** that crossed a trust boundary — a cache entry that
//! may have rotted, a response recovered from a crashed daemon's spool —
//! plus the specification it claims to realize, and must decide whether to
//! vouch for it. [`audit_artifact_text`] re-derives everything from the
//! text alone:
//!
//! 1. the cascade text parses ([`TV001`](crate::netlist::TV001_PARSE)) and
//!    re-emits byte-faithfully ([`TV002`](crate::netlist::TV002_ROUNDTRIP));
//! 2. the Verilog text equals the canonical emission of the parsed cascade
//!    (same catalog ids — the pair must describe *one* circuit);
//! 3. the parsed cascade's χ refines the specification χ
//!    ([`TV004`](crate::netlist::TV004_REFINEMENT)) — the same symbolic
//!    `χ_netlist ⇒ χ_spec` proof `bddcf check` runs, against a χ built
//!    fresh from the spec, so a stale or corrupted artifact can never be
//!    served as if it still answered the request.

use crate::netlist::{
    cascade_to_netlist, check_netlist_refinement, LintReport, TV001_PARSE, TV002_ROUNDTRIP,
};
use bddcf_core::Cf;
use bddcf_io::{cascade_to_verilog, read_cascade, write_cascade};

/// Audits received artifact text against a freshly built specification χ.
///
/// `spec_cf` must be the *unreduced* `BDD_for_CF` of the request (any
/// correctly reduced artifact refines it, since reductions only complete
/// don't cares). `stem` labels findings (e.g. `"cache:<hash>"`).
pub fn audit_artifact_text(
    cascade_text: &str,
    verilog_text: &str,
    module: &str,
    spec_cf: &mut Cf,
    stem: &str,
) -> LintReport {
    let mut report = LintReport::new();
    let cas_file = format!("{stem}.cas");
    let v_file = format!("{stem}.v");

    // 1. The cascade text is the canonical serialization of a real cascade.
    let cascade = match read_cascade(cascade_text) {
        Ok(cascade) => cascade,
        Err(e) => {
            report.push(&cas_file, 0, TV001_PARSE, format!("cascade text: {e}"));
            return report;
        }
    };
    let reemitted = write_cascade(&cascade);
    if reemitted != cascade_text {
        report.push(
            &cas_file,
            0,
            TV002_ROUNDTRIP,
            "cascade text is not the canonical emission of the cascade it parses to",
        );
    }

    // 2. The Verilog is the canonical emission of the *same* cascade.
    match cascade_to_verilog(&cascade, module) {
        Ok(expected) => {
            if expected != verilog_text {
                report.push(
                    &v_file,
                    0,
                    TV002_ROUNDTRIP,
                    "verilog text differs from the canonical emission of the cascade artifact",
                );
            }
        }
        Err(e) => {
            report.push(&v_file, 0, TV001_PARSE, format!("verilog re-emission: {e}"));
        }
    }

    // 3. Refinement: χ_netlist ⇒ χ_spec on the BDDs.
    let net = cascade_to_netlist(&cascade, module);
    report.extend(check_netlist_refinement(&net, spec_cf, &v_file));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_logic::TruthTable;

    fn paper_artifacts() -> (Cf, String, String) {
        use bddcf_cascade::{synthesize, CascadeOptions};

        let table = TruthTable::paper_table1();
        let mut cf = Cf::from_truth_table(&table);
        cf.reduce_to_fixpoint(4);
        let cascade = synthesize(
            &mut cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("paper function synthesizes");
        let cas = write_cascade(&cascade);
        let v = cascade_to_verilog(&cascade, "m_audit").expect("emit");
        (Cf::from_truth_table(&table), cas, v)
    }

    #[test]
    fn clean_artifacts_audit_clean() {
        let (mut spec_cf, cas, v) = paper_artifacts();
        let report = audit_artifact_text(&cas, &v, "m_audit", &mut spec_cf, "audit");
        assert!(report.is_clean(), "{:?}", report.findings());
    }

    #[test]
    fn artifact_for_the_wrong_function_is_caught() {
        use bddcf_cascade::{synthesize, CascadeOptions};
        use bddcf_logic::Ternary;

        // Two fully specified 2-input functions that differ on care
        // points: AND and OR. A cascade realizing AND can never refine
        // the OR specification.
        let mut and_table = TruthTable::new(2, 1);
        let mut or_table = TruthTable::new(2, 1);
        for row in 0..4usize {
            let (a, b) = (row & 1 == 1, row >> 1 & 1 == 1);
            and_table.set(row, 0, Ternary::from_bool(a && b));
            or_table.set(row, 0, Ternary::from_bool(a || b));
        }
        let mut and_cf = Cf::from_truth_table(&and_table);
        let cascade = synthesize(
            &mut and_cf,
            &CascadeOptions {
                max_cell_inputs: 4,
                max_cell_outputs: 4,
                ..CascadeOptions::default()
            },
        )
        .expect("AND synthesizes");
        let cas = write_cascade(&cascade);
        let v = cascade_to_verilog(&cascade, "m_audit").expect("emit");
        let mut or_cf = Cf::from_truth_table(&or_table);
        let report = audit_artifact_text(&cas, &v, "m_audit", &mut or_cf, "audit");
        assert!(
            !report.is_clean(),
            "an AND cascade must not audit clean against an OR spec"
        );
    }

    #[test]
    fn mismatched_verilog_is_caught() {
        let (mut spec_cf, cas, v) = paper_artifacts();
        let wrong_v = v.replace("m_audit", "m_other");
        let report = audit_artifact_text(&cas, &wrong_v, "m_audit", &mut spec_cf, "audit");
        assert!(report.has(TV002_ROUNDTRIP), "{:?}", report.findings());
    }

    #[test]
    fn unparsable_text_is_a_tv001() {
        let (mut spec_cf, _, v) = paper_artifacts();
        let report = audit_artifact_text("not a cascade", &v, "m_audit", &mut spec_cf, "audit");
        assert!(report.has(TV001_PARSE));
    }
}
