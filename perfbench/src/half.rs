//! The Table-4 treatment of one output half, shared by `words` and
//! `arith`: sift with the sum-of-widths cost, measure the ISF, the DC=0
//! and DC=1 completions (legalized in the sifted order), an Algorithm 3.1
//! fork, and Algorithm 3.3 applied in place.

use crate::engine::{delta, figures, EngineFigures};
use crate::trace::Tracer;
use bddcf_bdd::ReorderCost;
use bddcf_bench::pipeline::Shape;
use bddcf_core::{Alg33Options, Cf};

/// Sifting passes per half (the §5.1 pipeline).
pub const SIFT_PASSES: usize = 2;

fn shape_of(cf: &Cf) -> Shape {
    Shape {
        max_width: cf.max_width(),
        nodes: cf.node_count(),
    }
}

/// Table-4 shapes of one half plus what the run cost the engine.
#[derive(Clone, Debug)]
pub struct HalfReport {
    /// Constant-0 completion.
    pub dc0: Shape,
    /// Constant-1 completion.
    pub dc1: Shape,
    /// The sifted ISF.
    pub isf: Shape,
    /// After Algorithm 3.1 (on a fork).
    pub alg31: Shape,
    /// After Algorithm 3.3 (in place).
    pub alg33: Shape,
    /// Columns Algorithm 3.3 merged, over all cuts.
    pub columns_merged: usize,
    /// Engine counters of the half's manager and its forks.
    pub engine: EngineFigures,
}

impl HalfReport {
    /// The paper's summary-row terms: (Alg. 3.1 nodes, Alg. 3.3 width),
    /// each normalized to DC=0.
    pub fn ratios(&self) -> (f64, f64) {
        let base_nodes = self.dc0.nodes.max(1) as f64;
        let base_width = self.dc0.max_width.max(1) as f64;
        (
            self.alg31.nodes as f64 / base_nodes,
            self.alg33.max_width as f64 / base_width,
        )
    }

    /// The shapes as one line, for fingerprints.
    pub fn describe(&self) -> String {
        let s = |x: Shape| format!("{}/{}", x.max_width, x.nodes);
        format!(
            "dc0 {} dc1 {} isf {} alg31 {} alg33 {} merged {}",
            s(self.dc0),
            s(self.dc1),
            s(self.isf),
            s(self.alg31),
            s(self.alg33),
            self.columns_merged
        )
    }
}

/// The quality figures of a run: Alg. 3.3 widths summed over halves, and
/// the per-half summary ratios (see [`HalfReport::ratios`]).
#[derive(Clone, Debug, Default)]
pub struct Quality {
    width_sum: usize,
    node_ratios: Vec<f64>,
    width_ratios: Vec<f64>,
}

impl Quality {
    /// Adds one half.
    pub fn add(&mut self, half: &HalfReport) {
        let (nodes31, width33) = half.ratios();
        self.width_sum += half.alg33.max_width;
        self.node_ratios.push(nodes31);
        self.width_ratios.push(width33);
    }

    /// Sets `alg33_width_sum`, `alg31_node_ratio` and `alg33_width_ratio`
    /// and returns them as one fingerprint line.
    pub fn report(&self, out: &mut crate::Outcome) -> String {
        let node_ratio = crate::stats::mean(&self.node_ratios);
        let width_ratio = crate::stats::mean(&self.width_ratios);
        out.set("alg33_width_sum", self.width_sum as f64);
        out.set("alg31_node_ratio", node_ratio);
        out.set("alg33_width_ratio", width_ratio);
        format!(
            "alg33_width_sum {} alg31_node_ratio {node_ratio:?} alg33_width_ratio {width_ratio:?}",
            self.width_sum
        )
    }
}

/// Runs the treatment on `cf`, which ends reduced by Algorithm 3.3.
/// Returns the report and the Algorithm 3.1 fork.
pub fn reduce_half(cf: &mut Cf, tracer: &mut Tracer) -> (HalfReport, Cf) {
    tracer.enter("core.sift");
    cf.optimize_order(ReorderCost::SumOfWidths, SIFT_PASSES);
    tracer.exit();

    tracer.enter("core.measure");
    let isf = shape_of(cf);
    tracer.exit();
    let base = figures(&cf.manager().engine_stats());

    tracer.enter("core.legalize");
    let dc0_cf = cf.completion_variant(false);
    let dc1_cf = cf.completion_variant(true);
    tracer.exit();
    tracer.enter("core.measure");
    let (dc0, dc1) = (shape_of(&dc0_cf), shape_of(&dc1_cf));
    tracer.exit();

    tracer.enter("core.alg31");
    let mut alg31_cf = cf.clone();
    alg31_cf.reduce_alg31();
    tracer.exit();

    tracer.enter("core.alg33");
    let merged = cf.reduce_alg33(&Alg33Options::default()).columns_merged;
    tracer.exit();

    tracer.enter("core.measure");
    let (alg31, alg33) = (shape_of(&alg31_cf), shape_of(cf));
    tracer.exit();

    let mut engine = figures(&cf.manager().engine_stats());
    for fork in [&dc0_cf, &dc1_cf, &alg31_cf] {
        engine.absorb(&delta(&figures(&fork.manager().engine_stats()), &base));
    }
    let report = HalfReport {
        dc0,
        dc1,
        isf,
        alg31,
        alg33,
        columns_merged: merged,
        engine,
    };
    (report, alg31_cf)
}
