//! Regenerates **Table 4** of the paper: maximum width and node count of
//! the BDD_for_CF under five treatments — DC=0, DC=1, ISF (ternary),
//! Algorithm 3.1, Algorithm 3.3 — with the outputs bi-partitioned and each
//! half sifted (sum-of-widths cost) first.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bddcf-bench --bin table4 [--quick]
//! ```
//!
//! `--quick` replaces the three word lists by smaller ones (200/400/600
//! words) and uses one sifting pass, for a fast smoke run.

use bddcf_bench::{measure_benchmark_quarantined, Measurement, PipelineOptions, TableWriter};
use bddcf_funcs::{table4_benchmarks, BenchmarkEntry, WordList};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut entries = table4_benchmarks();
    let mut options = PipelineOptions::default();
    if quick {
        options.sift_passes = 1;
        entries.truncate(13);
        for (label, size) in [("200 words", 200), ("400 words", 400), ("600 words", 600)] {
            entries.push(BenchmarkEntry {
                label: Box::leak(label.to_string().into_boxed_str()),
                benchmark: Box::new(WordList::synthetic(size, true)),
            });
        }
    }

    let mut table = TableWriter::new(&[
        "Function", "In", "Out", "DC%", "half", "W:DC=0", "W:DC=1", "W:ISF", "W:Alg3.1",
        "W:Alg3.3", "N:DC=0", "N:DC=1", "N:ISF", "N:Alg3.1", "N:Alg3.3", "t3.1[s]", "t3.3[s]",
    ]);

    let mut measurements: Vec<Measurement> = Vec::new();
    let mut quarantined: Vec<(&str, String)> = Vec::new();
    for entry in &entries {
        eprintln!("measuring {} …", entry.label);
        let m = match measure_benchmark_quarantined(entry.benchmark.as_ref(), &options) {
            Ok(m) => m,
            Err(payload) => {
                // One bad benchmark must not cost the rest of the table.
                quarantined.push((entry.label, payload));
                continue;
            }
        };
        for (hi, h) in m.halves.iter().enumerate() {
            table.row(&[
                if hi == 0 {
                    m.label.clone()
                } else {
                    String::new()
                },
                if hi == 0 {
                    m.inputs.to_string()
                } else {
                    String::new()
                },
                if hi == 0 {
                    m.outputs.to_string()
                } else {
                    String::new()
                },
                if hi == 0 {
                    dc_percent(m.dc_ratio)
                } else {
                    String::new()
                },
                format!("F{}", hi + 1),
                h.dc0.max_width.to_string(),
                h.dc1.max_width.to_string(),
                h.isf.max_width.to_string(),
                h.alg31.max_width.to_string(),
                h.alg33.max_width.to_string(),
                h.dc0.nodes.to_string(),
                h.dc1.nodes.to_string(),
                h.isf.nodes.to_string(),
                h.alg31.nodes.to_string(),
                h.alg33.nodes.to_string(),
                format!("{:.3}", h.time_alg31.as_secs_f64()),
                format!("{:.3}", h.time_alg33.as_secs_f64()),
            ]);
        }
        measurements.push(m);
    }

    println!("\nTable 4 — maximum width and number of nodes in BDD_for_CF");
    println!("(outputs bi-partitioned: F1 = most significant half, F2 = rest)\n");
    println!("{table}");

    // The paper's final "Ratio" row: geometric-mean-free average of each
    // column normalized to DC=0 (as the paper does with arithmetic means).
    let mut ratio = [0.0f64; 10];
    let mut count = 0usize;
    for m in &measurements {
        for h in &m.halves {
            let w0 = h.dc0.max_width.max(1) as f64;
            let n0 = h.dc0.nodes.max(1) as f64;
            let ws = [
                h.dc0.max_width,
                h.dc1.max_width,
                h.isf.max_width,
                h.alg31.max_width,
                h.alg33.max_width,
            ];
            let ns = [
                h.dc0.nodes,
                h.dc1.nodes,
                h.isf.nodes,
                h.alg31.nodes,
                h.alg33.nodes,
            ];
            for (k, w) in ws.iter().enumerate() {
                ratio[k] += *w as f64 / w0;
            }
            for (k, n) in ns.iter().enumerate() {
                ratio[5 + k] += *n as f64 / n0;
            }
            count += 1;
        }
    }
    print!("Ratio (vs DC=0):  widths");
    for r in &ratio[..5] {
        print!(" {:.3}", r / count as f64);
    }
    print!("   nodes");
    for r in &ratio[5..] {
        print!(" {:.3}", r / count as f64);
    }
    println!();
    println!(
        "\nPaper's ratio row: widths 1.000 0.970 0.833 0.735 0.540   nodes 1.000 0.982 0.807 0.580 0.583"
    );

    if !quarantined.is_empty() {
        eprintln!(
            "\n{} benchmark(s) quarantined after panicking:",
            quarantined.len()
        );
        for (label, payload) in &quarantined {
            eprintln!("  {label}: {payload}");
        }
        std::process::exit(1);
    }
}

/// The DC% column: the percentage to the nearest tenth, as the paper
/// prints it, except that a ratio below 1 prints at most 99.9 (the word
/// lists' 99.9998% is not 100.0).
fn dc_percent(ratio: f64) -> String {
    let mut tenths = (ratio * 1000.0).round();
    if ratio < 1.0 {
        tenths = tenths.min(999.0);
    }
    format!("{:.1}", tenths / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_column_prints_the_papers_values() {
        let printed: Vec<String> = table4_benchmarks()
            .iter()
            .map(|entry| dc_percent(entry.benchmark.dc_ratio()))
            .collect();
        let paper = [
            "69.5", "74.0", "72.2", "77.7", "56.4", "90.5", "94.0", "82.2", "55.1", "94.4", "94.0",
            "97.7", "84.7", "99.9", "99.9", "99.9",
        ];
        assert_eq!(printed, paper);
        assert_eq!(dc_percent(1.0), "100.0");
    }
}
