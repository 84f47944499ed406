//! `arith`: the arithmetic Table-4 functions from spec to verified LUT
//! cascade.
//!
//! Per function: χ build → `try_synthesize_partitioned` over the two
//! output halves, whose `prepare` callback sifts, records the Table-4
//! shapes (completions, Alg. 3.1 fork) and runs Alg. 3.3 → 12-in/10-out
//! cells → `write_cascade` + `cascade_to_verilog` → `audit_artifact_text`
//! per part. Alg. 3.3 and sifting share most of the time, with χ
//! construction and cascade/emit/audit visible too — the counterpart of
//! `words`.
//!
//! Oracle, after the timed region: `check_multi_cascade_against_oracle`
//! against the generator, and the seeded sample inputs (drawn at set-up
//! from the generator's specified rows) evaluated exactly.

#![allow(clippy::single_range_in_vec_init)] // the partition API takes lists of ranges
use crate::engine::{figures, EngineFigures};
use crate::half::{reduce_half, HalfReport, Quality};
use crate::trace::Tracer;
use crate::{mix, run_batches, Outcome, RunConfig};
use bddcf_bdd::snapshot::fnv1a64;
use bddcf_cascade::{try_synthesize_partitioned, CascadeOptions, MultiCascade};
use bddcf_check::{audit_artifact_text, check_multi_cascade_against_oracle};
use bddcf_funcs::{build_isf_pieces, small_benchmarks, table4_benchmarks, BenchmarkEntry};
use bddcf_io::{cascade_to_verilog, write_cascade};
use bddcf_logic::Response;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Table-4 row labels to run; empty means the scaled-down
    /// `small_benchmarks()` siblings (minus the word list).
    pub rows: &'static [&'static str],
    /// Seeded specified inputs per function evaluated exactly, and inputs
    /// `check_multi_cascade_against_oracle` samples per function.
    pub samples: usize,
    /// Set-ups timed before each batch (the median is reported).
    pub setup_reps: usize,
    /// Batches run at least, whatever the window.
    pub min_reps: usize,
}

/// The Table-4 rows the benchmark runs: one or more of each family (RNS,
/// radix converter, decimal adder, decimal multiplier). Among the radix
/// converters these are the rows where Alg. 3.3 costs most next to
/// sifting and the artifact audit; among the RNS rows, the larger ones
/// spend a smaller share in Alg. 3.3 here, because their audit grows
/// faster.
pub const ROWS: &[&str] = &[
    "5-7-11-13 RNS",
    "4-digit 13-nary to binary",
    "5-digit 10-nary to binary",
    "6-digit 5-nary to binary",
    "3-digit decimal adder",
    "2-digit decimal multiplier",
];

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            rows: ROWS,
            samples: 2000,
            setup_reps: 9,
            min_reps: 3,
        }
    }

    /// A miniature for tests.
    pub fn mini() -> Scale {
        Scale {
            rows: &[],
            samples: 64,
            setup_reps: 1,
            min_reps: 1,
        }
    }
}

/// One function with its seeded sample inputs and expected outputs.
pub struct Function {
    entry: BenchmarkEntry,
    samples: Vec<(Vec<bool>, u64)>,
}

/// The seeded inputs: the generators plus, per function, `samples`
/// specified input rows with the generator's answer.
pub fn generate(seed: u64, scale: &Scale) -> Vec<Function> {
    let entries: Vec<BenchmarkEntry> = if scale.rows.is_empty() {
        small_benchmarks()
            .into_iter()
            .filter(|e| !e.label.contains("words"))
            .collect()
    } else {
        table4_benchmarks()
            .into_iter()
            .filter(|e| scale.rows.contains(&e.label))
            .collect()
    };
    entries
        .into_iter()
        .enumerate()
        .map(|(f, entry)| {
            let n = entry.benchmark.num_inputs();
            let mut samples = Vec::with_capacity(scale.samples);
            let mut draw = 0u64;
            // Rejection sampling; every generator specifies at least 2% of
            // its rows, so the cap is never the binding limit.
            while samples.len() < scale.samples && draw < 1000 * scale.samples as u64 {
                let bits = mix(seed, 2 + f as u64, draw);
                draw += 1;
                let input: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                if let Response::Value(word) = entry.benchmark.respond(&input) {
                    samples.push((input, word));
                }
            }
            Function { entry, samples }
        })
        .collect()
}

/// What one function's pipeline produced.
struct Realized {
    multi: MultiCascade,
    halves: Vec<HalfReport>,
    prepared: usize,
    texts: Vec<(String, String)>,
    engine: EngineFigures,
}

fn run_function(function: &Function, tracer: &mut Tracer) -> Result<Realized, String> {
    let benchmark = function.entry.benchmark.as_ref();
    tracer.enter("funcs.build");
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    tracer.exit();
    let mut engine = figures(&mgr.engine_stats());

    let m = layout.num_outputs();
    let half = m.div_ceil(2);
    let parts = if half == m {
        vec![0..m]
    } else {
        vec![0..half, half..m]
    };
    let mut halves = Vec::new();
    tracer.enter("cascade.synth");
    let synthesized = try_synthesize_partitioned(
        &mgr,
        &layout,
        &isf,
        &parts,
        &CascadeOptions::default(),
        |cf| halves.push(reduce_half(cf, tracer).0),
    );
    tracer.exit();
    let mut multi = synthesized.map_err(|(range, e)| format!("outputs {range:?}: {e}"))?;
    let prepared = halves.len();
    for half in &halves {
        engine.absorb(&half.engine);
    }

    tracer.enter("io.emit");
    let mut texts = Vec::with_capacity(multi.cascades.len());
    for (k, cascade) in multi.cascades.iter().enumerate() {
        let verilog = cascade_to_verilog(cascade, &format!("part{k}"))
            .map_err(|e| format!("part {k}: verilog: {e}"))?;
        texts.push((write_cascade(cascade), verilog));
    }
    tracer.exit();

    tracer.enter("check.audit");
    for (k, (part, (cas, verilog))) in multi.parts.iter_mut().zip(&texts).enumerate() {
        let report = audit_artifact_text(cas, verilog, &format!("part{k}"), part, "arith");
        if !report.is_clean() {
            return Err(format!("part {k} fails its artifact audit"));
        }
    }
    tracer.exit();
    Ok(Realized {
        multi,
        halves,
        prepared,
        texts,
        engine,
    })
}

/// The oracle: sampled agreement with the generator, then the seeded
/// specified rows evaluated exactly.
fn check_function(function: &Function, multi: &MultiCascade) -> Result<(), String> {
    let report = check_multi_cascade_against_oracle(
        multi,
        function.entry.benchmark.as_ref(),
        function.samples.len() as u64,
    );
    if !report.is_clean() {
        return Err(report.to_string());
    }
    for (input, want) in &function.samples {
        let got = multi.eval(input);
        if got != *want {
            return Err(format!(
                "cascade computes {got:#x}, generator says {want:#x}"
            ));
        }
    }
    Ok(())
}

/// Runs the workload for the configured window.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut engine = EngineFigures::default();
    let mut counts = (0usize, 0usize); // columns merged, bisections
    let mut cascade = (0usize, 0u64); // cells, memory bits (batch 0)
    let mut quality = Quality::default();
    let batches = run_batches(
        "arith",
        cfg,
        (scale.setup_reps, scale.min_reps),
        || {
            let functions = generate(cfg.seed, scale).into_iter();
            functions.map(|f| (f.entry.label.to_string(), f)).collect()
        },
        run_function,
        |function, realized, first, lines| {
            if first {
                check_function(function, &realized.multi)?;
                cascade.0 += realized.multi.num_cells();
                cascade.1 += realized.multi.memory_bits();
            }
            engine.absorb(&realized.engine);
            counts.1 += realized.prepared - realized.multi.num_cascades();
            for half in &realized.halves {
                counts.0 += half.columns_merged;
                lines.push(half.describe());
                if first {
                    quality.add(half);
                }
            }
            for (cas, verilog) in &realized.texts {
                lines.push(format!(
                    "cascade {:016x} verilog {:016x}",
                    fnv1a64(cas.as_bytes()),
                    fnv1a64(verilog.as_bytes())
                ));
            }
            Ok(())
        },
    );
    let reps = batches.reps as f64;
    let mut out = batches.finish(cfg, "arith", &engine);
    out.set("core.alg33_columns_merged", counts.0 as f64 / reps);
    out.set("cascade.bisections", counts.1 as f64 / reps);
    out.set("cascade.cells", cascade.0 as f64);
    out.set("cascade.memory_bits", cascade.1 as f64);
    let line = quality.report(&mut out);
    out.fingerprint.push(format!(
        "{line} cells {} memory_bits {}",
        cascade.0, cascade.1
    ));
    out
}
