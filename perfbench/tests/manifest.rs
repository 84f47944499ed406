//! `BENCHMARK.json` names exactly the metrics the benchmark prints.

use bddcf_perfbench::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_lists_every_printed_metric_once() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert_eq!(manifest.matches(&entry).count(), 1, "{name} ({unit})");
    }
    let workloads = ["words", "arith", "serve"];
    for workload in workloads {
        assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
    }
    assert_eq!(
        manifest.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + workloads.len(),
        "no metric beyond the printed ones"
    );
}
