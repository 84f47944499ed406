//! The §5.1 measurement pipeline shared by the table binaries.
//!
//! For one benchmark function:
//!
//! 1. build the ISF symbolically and bi-partition the outputs
//!    (`F₁` = most significant half, `F₂` = rest);
//! 2. per half: sift the BDD_for_CF with the sum-of-widths cost;
//! 3. measure the ISF representation, then — in the same (sifted) variable
//!    order — the `DC=0` and `DC=1` completions, then Algorithm 3.1 and
//!    Algorithm 3.3 applied to forks of the sifted ISF.
//!
//! [`Shape`] and [`EngineFigures`] are also what `perfbench` (the
//! repository benchmark) records per half.

use bddcf_bdd::ReorderCost;
use bddcf_core::partition::bipartition;
use bddcf_core::Cf;
use bddcf_funcs::{build_isf_pieces, Benchmark};
use std::time::{Duration, Instant};

/// Knobs for [`measure_benchmark`]. Algorithm 3.3 always runs with its
/// default options ([`Cf::reduce_alg33_default`]).
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Sifting passes over each half with the sum-of-widths cost (0
    /// disables reordering).
    pub sift_passes: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { sift_passes: 2 }
    }
}

/// Engine-health counters summed over several managers (arena, unique
/// table, op caches, GC).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineFigures {
    /// Highest live interior node count observed.
    pub peak_nodes: u64,
    /// Highest arena footprint in bytes (capacity × node size).
    pub peak_arena_bytes: u64,
    /// Unique-table lookups.
    pub unique_lookups: u64,
    /// Chain links followed across all unique-table lookups (probe length
    /// = `unique_probes / unique_lookups`).
    pub unique_probes: u64,
    /// Computed-table hits, summed over the four op caches.
    pub cache_hits: u64,
    /// Computed-table misses, summed over the four op caches.
    pub cache_misses: u64,
    /// Live computed-table entries overwritten by a colliding insert.
    pub cache_evictions: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Total wall time spent inside GC.
    pub gc_pause_ns: u64,
}

impl EngineFigures {
    /// Accumulates another set of figures into this one (peaks max,
    /// counters add).
    pub fn absorb(&mut self, other: &EngineFigures) {
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.unique_lookups += other.unique_lookups;
        self.unique_probes += other.unique_probes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.gc_runs += other.gc_runs;
        self.gc_pause_ns += other.gc_pause_ns;
    }
}

/// Width/node metrics of one representation of one output half.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shape {
    /// Maximum BDD_for_CF width (Definition 3.5).
    pub max_width: usize,
    /// Non-terminal node count.
    pub nodes: usize,
}

/// All representations of one output half (one "upper/lower" row pair cell
/// of Table 4).
#[derive(Clone, Debug)]
pub struct HalfMeasurement {
    /// Constant-0 completion.
    pub dc0: Shape,
    /// Constant-1 completion.
    pub dc1: Shape,
    /// Incompletely specified (ternary) representation.
    pub isf: Shape,
    /// After Algorithm 3.1.
    pub alg31: Shape,
    /// After Algorithm 3.3.
    pub alg33: Shape,
    /// Time spent in Algorithm 3.1.
    pub time_alg31: Duration,
    /// Time spent in Algorithm 3.3.
    pub time_alg33: Duration,
}

/// Table-4 measurements of one benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Row label.
    pub label: String,
    /// Inputs `n`.
    pub inputs: usize,
    /// Outputs `m`.
    pub outputs: usize,
    /// Analytic don't-care ratio.
    pub dc_ratio: f64,
    /// One entry per output half (`F₁` first).
    pub halves: Vec<HalfMeasurement>,
    /// Sifting time over all halves.
    pub time_sift: Duration,
}

/// Phase-boundary audit (``check`` feature only): manager integrity, the
/// CF lints, and the refinement oracle must all hold before a shape is
/// recorded in a table.
#[cfg(feature = "check")]
fn audit(cf: &mut Cf, phase: &str) {
    let mut report = bddcf_check::CheckReport::new();
    report.absorb(phase, bddcf_check::check_manager(cf.manager()));
    report.absorb(phase, bddcf_check::check_cf(cf));
    report.absorb(phase, bddcf_check::check_refinement(cf));
    report.assert_clean("bench pipeline");
}

#[cfg(not(feature = "check"))]
fn audit(_cf: &mut Cf, _phase: &str) {}

fn shape_of(cf: &Cf) -> Shape {
    Shape {
        max_width: cf.max_width(),
        nodes: cf.node_count(),
    }
}

/// Shape of a completion variant: same input order as the sifted ISF, but
/// output positions legalized against the completion's own Definition-2.4
/// constraints (see [`Cf::completion_variant`] — this is what makes the
/// DC=0 adder baselines blow up exactly as in the paper).
fn completion_shape(cf: &Cf, fill: bool) -> Shape {
    shape_of(&cf.completion_variant(fill))
}

/// Runs the full Table-4 pipeline on one benchmark.
pub fn measure_benchmark(benchmark: &dyn Benchmark, options: &PipelineOptions) -> Measurement {
    let (mgr, layout, isf) = build_isf_pieces(benchmark);
    let halves_cf = bipartition(&mgr, &layout, &isf);
    drop(mgr);

    let mut time_sift = Duration::ZERO;
    let mut halves = Vec::new();
    for mut cf in halves_cf {
        let t0 = Instant::now();
        if options.sift_passes > 0 {
            cf.optimize_order(ReorderCost::SumOfWidths, options.sift_passes);
        }
        time_sift += t0.elapsed();

        audit(&mut cf, "after sift");

        let isf_shape = shape_of(&cf);
        let dc0 = completion_shape(&cf, false);
        let dc1 = completion_shape(&cf, true);

        let mut cf31 = cf.clone();
        let t31 = Instant::now();
        cf31.reduce_alg31();
        let time_alg31 = t31.elapsed();
        audit(&mut cf31, "after Algorithm 3.1");

        let mut cf33 = cf;
        let t33 = Instant::now();
        cf33.reduce_alg33_default();
        let time_alg33 = t33.elapsed();
        audit(&mut cf33, "after Algorithm 3.3");

        halves.push(HalfMeasurement {
            dc0,
            dc1,
            isf: isf_shape,
            alg31: shape_of(&cf31),
            alg33: shape_of(&cf33),
            time_alg31,
            time_alg33,
        });
    }

    Measurement {
        label: benchmark.name(),
        inputs: layout.num_inputs(),
        outputs: layout.num_outputs(),
        dc_ratio: benchmark.dc_ratio(),
        halves,
        time_sift,
    }
}

/// [`measure_benchmark`] inside a panic quarantine: a panicking benchmark
/// yields `Err(payload)` instead of aborting the whole table run, so batch
/// binaries can record the casualty and keep measuring the rest.
///
/// The panicked run's manager is dropped wholesale (nothing of it is
/// reused), which is the batch-level analogue of poisoning a shared one.
///
/// # Errors
///
/// Returns the panic payload, rendered as text.
pub fn measure_benchmark_quarantined(
    benchmark: &dyn Benchmark,
    options: &PipelineOptions,
) -> Result<Measurement, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        measure_benchmark(benchmark, options)
    }))
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_owned()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddcf_funcs::RadixConverter;

    #[test]
    fn pipeline_on_a_small_converter() {
        let conv = RadixConverter::new(3, 3);
        let m = measure_benchmark(&conv, &PipelineOptions { sift_passes: 1 });
        assert_eq!(m.inputs, 6);
        assert_eq!(m.halves.len(), 2);
        for h in &m.halves {
            assert!(h.isf.max_width <= h.dc0.max_width + h.dc0.max_width);
            assert!(h.alg33.max_width <= h.isf.max_width);
            assert!(h.alg31.max_width <= h.isf.max_width);
            assert!(h.alg31.nodes > 0);
        }
    }

    #[test]
    fn pipeline_without_sifting() {
        let conv = RadixConverter::new(5, 2);
        let m = measure_benchmark(&conv, &PipelineOptions { sift_passes: 0 });
        assert!(m.time_sift < Duration::from_millis(1), "sifting skipped");
        assert!(m.halves[0].isf.max_width >= 1);
    }
}
