//! Experiment harness: the shared pipeline behind the binaries that
//! regenerate the paper's tables and figures.
//!
//! | Target | Reproduces |
//! |--------|-----------|
//! | `cargo run --release -p bddcf-bench --bin table4` | Table 4 (widths & node counts: DC=0 / DC=1 / ISF / Alg3.1 / Alg3.3) |
//! | `cargo run --release -p bddcf-bench --bin table5` | §5.2 (reconstructed): LUT cascades for the arithmetic functions |
//! | `cargo run --release -p bddcf-bench --bin table6` | Table 6: word lists, plain cascades vs the Fig. 8 architecture |
//! | `cargo run --release -p bddcf-bench --bin fig9`   | Fig. 9: cascade structure of the 5-7-11-13 RNS converter |
//! | `cargo run --release -p bddcf-bench --bin mtbdd_compare` | §1's MTBDD vs BDD_for_CF size claim |
//! | `cargo run --release -p bddcf-bench --bin ablations` | Ablations: output partitioning, sifting cost, Alg. 3.3 cover engine, segmentation |
//!
//! End-to-end and per-layer timing lives in `perfbench/`, the repository
//! benchmark that `BENCHMARK.json` declares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod report;

pub use pipeline::{
    measure_benchmark, measure_benchmark_quarantined, EngineFigures, HalfMeasurement, Measurement,
    PipelineOptions,
};
pub use report::TableWriter;
