//! `words`: seeded synthetic word lists through the Table-4 pipeline.
//!
//! Per list: χ build → bi-partition → per half sift → DC=0/DC=1
//! completions → Alg. 3.1 fork → Alg. 3.3. The workload stops at the
//! reduced χ (word lists need the Fig. 8 architecture to become cascades).
//! Sifting takes most of the time, so a sifting change shows here and an
//! Alg. 3.3 change should barely move it.
//!
//! Oracle, after the timed region: `check_refinement` on every reduced
//! half (Alg. 3.1 and Alg. 3.3), and every listed word must still map to
//! its index, as the list's own lookup table says.

use crate::engine::{figures, EngineFigures};
use crate::half::{reduce_half, HalfReport, Quality};
use crate::trace::Tracer;
use crate::{mix, run_batches, Outcome, RunConfig};
use bddcf_check::check_refinement;
use bddcf_core::partition::bipartition;
use bddcf_core::Cf;
use bddcf_funcs::words::synthetic_words;
use bddcf_funcs::{build_isf_pieces, WordList};
use bddcf_logic::{MultiOracle, Response};
use std::ops::Range;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Word lists per batch.
    pub lists: usize,
    /// Words per list.
    pub words_per_list: usize,
    /// Set-ups timed before each batch (the median is reported).
    pub setup_reps: usize,
    /// Batches run at least, whatever the window.
    pub min_reps: usize,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            lists: 12,
            words_per_list: 50,
            setup_reps: 101,
            min_reps: 3,
        }
    }

    /// A miniature for tests.
    pub fn mini() -> Scale {
        Scale {
            lists: 2,
            words_per_list: 24,
            setup_reps: 1,
            min_reps: 1,
        }
    }
}

/// The seeded inputs: one widened word list per entry.
pub fn generate(seed: u64, scale: &Scale) -> Vec<WordList> {
    (0..scale.lists)
        .map(|i| {
            let words = synthetic_words(scale.words_per_list, mix(seed, 1, i as u64));
            WordList::new(words, true)
        })
        .collect()
}

/// One reduced output half.
struct Half {
    range: Range<usize>,
    alg33: Cf,
    alg31: Cf,
    report: HalfReport,
}

fn run_list(list: &WordList, tracer: &mut Tracer) -> (Vec<Half>, EngineFigures) {
    tracer.enter("funcs.build");
    let (mgr, layout, isf) = build_isf_pieces(list);
    tracer.exit();
    tracer.enter("core.partition");
    let parts = bipartition(&mgr, &layout, &isf);
    tracer.exit();
    let mut engine = figures(&mgr.engine_stats());
    drop(mgr);

    // bipartition: F1 = the first ⌈m/2⌉ outputs, F2 the rest (if any).
    let half = layout.num_outputs().div_ceil(2);
    let ranges = [0..half, half..layout.num_outputs()];
    let mut halves = Vec::with_capacity(parts.len());
    for (mut cf, range) in parts.into_iter().zip(ranges) {
        let (report, alg31) = reduce_half(&mut cf, tracer);
        engine.absorb(&report.engine);
        halves.push(Half {
            range,
            alg33: cf,
            alg31,
            report,
        });
    }
    (halves, engine)
}

/// The oracle: refinement of every reduced half, and every listed word
/// still answered with its index.
fn check_list(list: &WordList, halves: &mut [Half]) -> Result<(), String> {
    for half in halves.iter_mut() {
        for (which, cf) in [("Alg. 3.1", &mut half.alg31), ("Alg. 3.3", &mut half.alg33)] {
            let report = check_refinement(cf);
            if !report.is_clean() {
                return Err(format!("{which} half {:?}: {report}", half.range));
            }
        }
    }
    let n = list.num_inputs();
    for &code in list.encoded() {
        let input: Vec<bool> = (0..n).map(|i| code >> i & 1 == 1).collect();
        let Response::Value(word) = list.respond(&input) else {
            return Err(format!("listed word {code:#x} reads as don't care"));
        };
        for half in halves.iter_mut() {
            let width = half.range.len();
            let part = (word >> half.range.start) & ((1u64 << width) - 1);
            if !half.alg33.admits(&input, part) || !half.alg31.admits(&input, part) {
                return Err(format!(
                    "word {code:#x}: half {:?} rejects index bits {part:#b}",
                    half.range
                ));
            }
        }
    }
    Ok(())
}

/// Runs the workload for the configured window.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut engine = EngineFigures::default();
    let mut merged = 0usize;
    let mut quality = Quality::default();
    let batches = run_batches(
        "words",
        cfg,
        (scale.setup_reps, scale.min_reps),
        || {
            let lists = generate(cfg.seed, scale).into_iter().enumerate();
            lists.map(|(i, list)| (format!("list {i}"), list)).collect()
        },
        |list, tracer| Ok(run_list(list, tracer)),
        |list, (mut halves, list_engine), first, lines| {
            // Every batch: the lines carry the halves' shapes, not the χ.
            check_list(list, &mut halves)?;
            engine.absorb(&list_engine);
            for half in &halves {
                merged += half.report.columns_merged;
                lines.push(format!("half {:?}: {}", half.range, half.report.describe()));
                if first {
                    quality.add(&half.report);
                }
            }
            Ok(())
        },
    );
    let reps = batches.reps;
    let mut out = batches.finish(cfg, "words", &engine);
    out.set("core.alg33_columns_merged", merged as f64 / reps as f64);
    let line = quality.report(&mut out);
    out.fingerprint.push(line);
    out
}
