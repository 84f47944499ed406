//! Seeded-defect corpus: every lint of the artifact catalog (NL001–NL007,
//! NL009, TV001–TV004) demonstrated to fire on a minimal corruption, plus
//! the Theorem 3.1 rail recount of the cascade lints (layer 4).
//!
//! Each test takes a known-clean artifact (the emitted Verilog of the
//! paper's Table 1 function, or a small hand-written module), plants one
//! defect, and asserts the expected finding — and, where cheap, that *no
//! other* lint drowns it out. This is the lint suite's own regression
//! net: a refactor that silently stops detecting a defect class fails
//! here, not in the field.

use bddcf_cascade::{synthesize, Cascade, CascadeOptions, LutCell, Segmentation};
use bddcf_check::netlist::{
    NL001_MULTIPLE_DRIVERS, NL002_UNDRIVEN, NL003_UNUSED_WIRE, NL004_COMB_LOOP,
    NL005_CASE_INCOMPLETE, NL006_CASE_OVERLAP, NL007_UNUSED_ADDRESS_BIT, NL009_STRUCTURE,
    TV003_RECONSTRUCTION, TV004_REFINEMENT,
};
use bddcf_check::{
    check_cascade, check_netlist_refinement, lint_netlist, netlist_from_verilog,
    netlist_to_cascade, Layer, LintReport, Netlist,
};
use bddcf_core::Cf;
use bddcf_io::{cascade_to_verilog, parse_verilog};
use bddcf_logic::TruthTable;

/// The emitted Verilog of the paper's Table 1 function plus the pieces
/// needed for semantic checks.
fn table1_artifact() -> (String, Cascade, Cf) {
    let table = TruthTable::paper_table1();
    let mut cf = Cf::from_truth_table(&table);
    let cascade = synthesize(
        &mut cf,
        &CascadeOptions {
            max_cell_inputs: 4,
            max_cell_outputs: 4,
            segmentation: Segmentation::MinCells,
        },
    )
    .expect("paper_table1 fits a 4-input cell");
    let text = cascade_to_verilog(&cascade, "m").expect("valid module name");
    (text, cascade, cf)
}

/// Parses and lints `text`, returning the netlist and the merged report
/// (lowering findings + structural lints).
fn lint(text: &str) -> (Netlist, LintReport) {
    let parsed = parse_verilog(text).expect("corpus input parses");
    let (net, mut report) = netlist_from_verilog(&parsed, "corpus.v");
    report.extend(lint_netlist(&net, "corpus.v"));
    (net, report)
}

/// Replaces the first occurrence of `from` in `text`, asserting it exists
/// so a changed emitter cannot silently neuter a corruption.
fn corrupt(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "corruption anchor {from:?} not found");
    text.replacen(from, to, 1)
}

#[test]
fn the_clean_artifact_has_no_findings() {
    let (text, _, _) = table1_artifact();
    let (_, report) = lint(&text);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn nl001_duplicate_driver() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(
        &text,
        "  assign y[0] = data0[0];",
        "  assign y[0] = data0[0];\n  assign y[0] = data0[1];",
    );
    let (_, report) = lint(&text);
    assert!(report.has(NL001_MULTIPLE_DRIVERS), "{report}");
}

#[test]
fn nl002_undriven_output() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(&text, "  assign y[0] = data0[0];\n", "");
    let (_, report) = lint(&text);
    assert!(report.has(NL002_UNDRIVEN), "{report}");
}

#[test]
fn nl003_unused_wire() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(
        &text,
        "  reg [1:0] data0;",
        "  wire [0:0] dead;\n  reg [1:0] data0;",
    );
    let (_, report) = lint(&text);
    assert!(report.has(NL003_UNUSED_WIRE), "{report}");
    // The planted wire is also undriven-but-unread; NL002 must NOT fire
    // for a bit nothing reads.
    assert!(!report.has(NL002_UNDRIVEN), "{report}");
}

#[test]
fn nl004_combinational_loop() {
    let text = "\
module m (
  input  wire [0:0] x,
  output wire [0:0] y
);
  wire [0:0] a;
  wire [0:0] b;
  assign a[0] = b[0];
  assign b[0] = a[0];
  assign y[0] = a[0];
endmodule
";
    let (_, report) = lint(text);
    assert!(report.has(NL004_COMB_LOOP), "{report}");
}

#[test]
fn nl005_incomplete_case() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(&text, "      4'd4: data0 = 2'd0;\n", "");
    let (_, report) = lint(&text);
    assert!(report.has(NL005_CASE_INCOMPLETE), "{report}");
    let rendered = report.to_string();
    assert!(
        rendered.contains("default"),
        "the finding must mention the zero-filling default: {rendered}"
    );
}

#[test]
fn nl006_overlapping_case() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(
        &text,
        "      4'd4: data0 = 2'd0;",
        "      4'd4: data0 = 2'd0;\n      4'd4: data0 = 2'd1;",
    );
    let (_, report) = lint(&text);
    assert!(report.has(NL006_CASE_OVERLAP), "{report}");
}

#[test]
fn nl007_vacuous_address_bit() {
    // Bit 1 of the address never changes the word: the ROM is really a
    // 1-address-bit memory burning double the cells.
    let text = "\
module m (
  input  wire [1:0] x,
  output wire [0:0] y
);
  wire [1:0] addr0 = {x[1], x[0]};
  reg [0:0] data0;
  always @* begin
    case (addr0)
      2'd0: data0 = 1'd0;
      2'd1: data0 = 1'd1;
      2'd2: data0 = 1'd0;
      2'd3: data0 = 1'd1;
    endcase
  end
  assign y[0] = data0[0];
endmodule
";
    let (_, report) = lint(text);
    assert!(report.has(NL007_UNUSED_ADDRESS_BIT), "{report}");
    let rendered = report.to_string();
    assert!(rendered.contains("addr0[1]"), "{rendered}");
    assert!(!rendered.contains("addr0[0]"), "bit 0 is live: {rendered}");
}

#[test]
fn rail_bundle_wider_than_theorem_3_1() {
    // A hand-built chain claiming 3 rails between its cells; Theorem 3.1
    // on the paper's Table 1 function allows at most ⌈log₂ W⌉ < 3 at any
    // cut, so layer 4's recount must flag the declared bundle.
    let cells = vec![
        LutCell::new(0, vec![0, 1], 3, vec![], vec![0, 1, 2, 3]),
        LutCell::new(3, vec![2, 3], 0, vec![0, 1], vec![0; 32]),
    ];
    let cascade = Cascade::from_cells(cells, 4, 2).expect("geometry is consistent");
    let mut cf = Cf::from_truth_table(&TruthTable::paper_table1());
    let report = check_cascade(&cascade, &mut cf, 0);
    assert!(
        report
            .findings()
            .iter()
            .any(|f| f.layer == Layer::Cascade && f.message.contains("cell 1 has 3 incoming rails")),
        "{report}"
    );
}

#[test]
fn nl009_unknown_bus() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(&text, "assign y[0] = data0[0];", "assign y[0] = bogus[0];");
    let parsed = parse_verilog(&text).expect("still parses");
    let (_, report) = netlist_from_verilog(&parsed, "corpus.v");
    assert!(report.has(NL009_STRUCTURE), "{report}");
}

#[test]
fn nl009_rom_words_wider_than_64_bits() {
    // The IR stores words as `u64`: a 70-bit data bus cannot be read, so
    // lowering reports it and the symbolic passes refuse it instead of
    // building a 70-bit cell word or reading bit 65 as bit 1.
    let (text, _, mut cf) = table1_artifact();
    let text = corrupt(&text, "reg [1:0] data0;", "reg [69:0] data0;");
    assert!(text.contains("data0 = 2'd"), "the arms store 2-bit words");
    let text = text.replace("data0 = 2'd", "data0 = 70'd");
    let (net, report) = netlist_from_verilog(&parse_verilog(&text).expect("parses"), "corpus.v");
    assert!(report.has(NL009_STRUCTURE), "{report}");
    let report = netlist_to_cascade(&net, "corpus.v").expect_err("words too wide");
    assert!(report.has(TV003_RECONSTRUCTION), "{report}");

    let text = corrupt(&text, "assign y[0] = data0[0];", "assign y[0] = data0[65];");
    let (net, _) = netlist_from_verilog(&parse_verilog(&text).expect("parses"), "corpus.v");
    let report = check_netlist_refinement(&net, &mut cf, "corpus.v");
    assert!(report.has(TV003_RECONSTRUCTION), "{report}");
}

#[test]
fn tv001_truncated_artifact_fails_to_parse() {
    let (text, _, _) = table1_artifact();
    let cut = text.len() / 2;
    let e = parse_verilog(&text[..cut]).expect_err("truncation must not parse");
    // Line 0 marks end-of-input errors; anything else must point into the
    // truncated text.
    assert!(
        e.line <= text[..cut].lines().count(),
        "{}: {}",
        e.line,
        e.message
    );
}

#[test]
fn tv002_reformatted_artifact_is_detected_by_reemission() {
    // Semantics-preserving formatting drift: the netlist is unchanged, so
    // the rebuilt cascade re-emits the *canonical* text — catching that
    // the artifact on disk is not byte-identical to what bddcf writes.
    let (text, cascade, _) = table1_artifact();
    let drifted = corrupt(&text, "\nendmodule", "\n\nendmodule");
    let parsed = parse_verilog(&drifted).expect("formatting drift still parses");
    let (net, report) = netlist_from_verilog(&parsed, "corpus.v");
    assert!(report.is_clean(), "{report}");
    let rebuilt = netlist_to_cascade(&net, "corpus.v").expect("topology unchanged");
    let reemitted = cascade_to_verilog(&rebuilt, "m").expect("valid module name");
    assert_eq!(reemitted, text, "re-emission restores the canonical bytes");
    assert_ne!(reemitted, drifted, "so the drifted artifact is caught");
    assert!(
        bddcf_check::cascade_structural_diff(&cascade, &rebuilt).is_none(),
        "the drift is formatting-only"
    );
}

#[test]
fn tv003_output_wired_to_input() {
    let (text, _, _) = table1_artifact();
    let text = corrupt(&text, "assign y[0] = data0[0];", "assign y[0] = x[0];");
    let (net, _) = lint(&text);
    let report = netlist_to_cascade(&net, "corpus.v").expect_err("not a cascade");
    assert!(report.has(TV003_RECONSTRUCTION), "{report}");
}

#[test]
fn tv004_flipped_care_word_breaks_refinement() {
    // Table 1 row x1x2x3x4 = 0010 is a care row specifying y = 00; it is
    // ROM address 4 (inputs are the low address bits, LSB-first). Flipping
    // its word to 01 contradicts χ, which the symbolic proof must catch.
    let (text, _, mut cf) = table1_artifact();
    let text = corrupt(&text, "4'd4: data0 = 2'd0;", "4'd4: data0 = 2'd1;");
    let (net, structural) = lint(&text);
    assert!(structural.is_clean(), "the corruption is purely semantic");
    let report = check_netlist_refinement(&net, &mut cf, "corpus.v");
    assert!(report.has(TV004_REFINEMENT), "{report}");
}
