//! Integration tests for the `bddcf check` analysis: the five invariant
//! layers over registry benchmarks (clean pipelines pass, seeded
//! corruptions are caught, and the CLI exits zero on a clean suite).

use bddcf::bdd::manager::TestCorruption;
use bddcf::check::{
    check_benchmark, check_cf, check_manager, check_refinement, CheckOptions, Layer,
};
use bddcf::core::Cf;
use bddcf::funcs::small_benchmarks;
use bddcf::logic::TruthTable;
use std::process::Command;

fn bddcf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bddcf"))
}

#[test]
fn registry_benchmarks_pass_all_five_layers() {
    // Acceptance: `bddcf check` runs every layer on at least two registry
    // functions. The library entry point is exercised directly here; the
    // CLI wrapper is covered below and in tests/cli.rs.
    let options = CheckOptions {
        samples: 64,
        ..CheckOptions::default()
    };
    let mut checked = 0;
    for entry in small_benchmarks().into_iter().take(2) {
        let result = check_benchmark(entry.benchmark.as_ref(), &options);
        assert!(
            result.report.is_clean(),
            "{}: {}",
            entry.label,
            result.report
        );
        assert!(
            result.artifacts.is_clean(),
            "{}: {}",
            entry.label,
            result.artifacts
        );
        assert!(result.num_cascades >= 1, "{}: no cascade", entry.label);
        checked += 1;
    }
    assert_eq!(checked, 2);
}

#[test]
fn seeded_manager_corruption_is_caught() {
    let table = TruthTable::paper_table1();
    let mut cf = Cf::from_truth_table(&table);
    assert!(check_manager(cf.manager()).is_clean());
    cf.manager_mut()
        .corrupt_for_testing(TestCorruption::RedundantNode);
    let report = check_manager(cf.manager());
    assert!(!report.is_clean(), "redundant node must be flagged");
    assert!(report.findings().iter().all(|f| f.layer == Layer::Manager));
}

#[test]
fn seeded_cf_corruption_is_caught() {
    // Swap χ for an out-of-thin-air function (ȳ₁). It is a perfectly
    // well-formed characteristic function — the CF lints accept it — but
    // it does not refine the recorded specification, so the refinement
    // oracle must flag it.
    let table = TruthTable::paper_table1();
    let mut cf = Cf::from_truth_table(&table);
    assert!(check_cf(&mut cf).is_clean());
    assert!(check_refinement(&mut cf).is_clean());
    let broken = {
        let mgr = cf.manager_mut();
        let y0 = mgr.var(bddcf::bdd::Var(4));
        mgr.not(y0)
    };
    cf.set_root_for_testing(broken);
    let report = check_refinement(&mut cf);
    assert!(!report.is_clean(), "a non-refining root must be flagged");
    assert!(report
        .findings()
        .iter()
        .all(|f| f.layer == Layer::Refinement));
}

#[test]
#[should_panic(expected = "invariant check failed")]
fn assert_clean_panics_on_findings() {
    let table = TruthTable::paper_table1();
    let mut cf = Cf::from_truth_table(&table);
    cf.manager_mut()
        .corrupt_for_testing(TestCorruption::DanglingCacheEntry);
    check_manager(cf.manager()).assert_clean("seeded corruption");
}

#[test]
fn cli_check_exits_zero_on_clean_suite() {
    let output = bddcf()
        .args(["check", "--suite", "small", "--samples", "32", "3-nary"])
        .output()
        .expect("run bddcf check");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("pass every invariant layer"), "{stdout}");
}
