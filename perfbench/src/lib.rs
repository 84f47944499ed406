//! The bddcf benchmark: three seeded workloads, each timed end to end
//! from outside the program and, in a separate traced run, layer by layer.
//!
//! * [`words`] — synthetic word lists through the Table-4 pipeline
//!   (χ build → bi-partition → sift → DC=0/DC=1 completions → Alg. 3.1
//!   fork → Alg. 3.3); sifting dominates.
//! * [`arith`] — the arithmetic Table-4 functions from spec to verified
//!   LUT cascade; Alg. 3.3 and sifting share the time.
//! * [`serve`] — an in-process `bddcf serve` daemon driven closed loop
//!   with seeded PLA specs, a share of them repeated so the cache is used.
//!
//! End-to-end times are processor time scaled to a reference speed
//! ([`clock`]), so a shared host's changing speed cancels out. Layers are
//! timed by wrapping calls to the public functions of the `bddcf-*`
//! crates in [`trace`] spans; nothing inside the program is instrumented.
//! Every output is checked after the timed region against an oracle that
//! does not go through the pipeline.

pub mod arith;
pub mod clock;
pub mod engine;
pub mod half;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod words;

use clock::{Meter, Sample};
use engine::EngineFigures;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Record layer spans (the per-layer run) instead of end-to-end figures.
    pub trace: bool,
    /// Directory for scratch files (spools, trace dumps), relative to the
    /// working directory.
    pub work_dir: PathBuf,
}

/// End-to-end metrics (the untraced run), with units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("alg31_node_ratio", "ratio"),
    ("alg33_width_ratio", "ratio"),
    ("alg33_width_sum", "count"),
];

/// Per-layer metrics (the traced run), with units, in output order. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("funcs.build_s", "s"),
    ("core.partition_s", "s"),
    ("core.sift_s", "s"),
    ("core.legalize_s", "s"),
    ("core.alg31_s", "s"),
    ("core.alg33_s", "s"),
    ("core.measure_s", "s"),
    ("cascade.synth_s", "s"),
    ("io.emit_s", "s"),
    ("check.audit_s", "s"),
    ("serve.closed_loop_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.cache_lookup_s", "s"),
    ("bdd.vfs.write_atomic_s", "s"),
    ("bench.calibrate_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("core.alg33_columns_merged", "count"),
    ("cascade.bisections", "count"),
    ("cascade.cells", "count"),
    ("cascade.memory_bits", "bits"),
    ("bdd.peak_nodes", "count"),
    ("bdd.unique_probes_per_lookup", "ratio"),
    ("bdd.op_cache_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_pause_s", "s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.wall_p50_ms", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("bdd.vfs.write_atomic_ms", "ms"),
    ("serve.rejected", "count"),
    ("op.p99_ms", "ms"),
    ("op.samples", "count"),
    ("bench.kernel_ms", "ms"),
];

/// What a workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (specs processed or requests sent).
    pub attempted: u64,
    /// Operations refused, wrong, or panicked.
    pub failed: u64,
    /// Measured figures by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Deterministic per seed: quality figures and artifact digests, for
    /// the determinism test.
    pub fingerprint: Vec<String>,
}

impl Outcome {
    /// Records a figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// True when every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` — every end-to-end metric, or with `trace`
    /// every per-layer one.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload did not measure.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            // `{:?}` prints every digit and always a JSON number.
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The `n`-th generated value of the stream `stream` of `seed`.
pub fn mix(seed: u64, stream: u64, n: u64) -> u64 {
    bddcf_bdd::splitmix64(
        seed ^ bddcf_bdd::splitmix64(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n),
    )
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Processor times of a batch workload: every spec in every batch.
#[derive(Default)]
pub struct BatchTimes {
    batches: Vec<Vec<Sample>>,
}

impl BatchTimes {
    /// Starts a batch.
    pub fn batch(&mut self) {
        self.batches.push(Vec::new());
    }

    /// Records the next spec of the current batch.
    pub fn spec(&mut self, sample: Sample) {
        if let Some(batch) = self.batches.last_mut() {
            batch.push(sample);
        }
    }

    /// `cpu_s` is the median batch, each batch the sum of its specs'
    /// scaled times; each spec's time is its median over the batches, and
    /// the `op_*` quantiles are taken across specs, so one disturbed batch
    /// moves none of them.
    pub fn report(&self, workload: &str, meter: &Meter, out: &mut Outcome) {
        let scaled: Vec<Vec<f64>> = self
            .batches
            .iter()
            .map(|batch| batch.iter().map(|&s| meter.scaled(s)).collect())
            .collect();
        let batch_s: Vec<f64> = scaled.iter().map(|b| b.iter().sum()).collect();
        let specs = scaled.iter().map(Vec::len).max().unwrap_or(0);
        let per_spec_ms: Vec<f64> = (0..specs)
            .map(|i| {
                let runs: Vec<f64> = scaled.iter().filter_map(|b| b.get(i).copied()).collect();
                stats::median(&runs) * 1e3
            })
            .collect();
        out.set("cpu_s", stats::median(&batch_s));
        out.set("op_p50_ms", stats::quantile(&per_spec_ms, 0.5));
        out.set("op_p90_ms", stats::quantile(&per_spec_ms, 0.9));
        out.set("op.p99_ms", stats::quantile(&per_spec_ms, 0.99));
        out.set(
            "op.samples",
            scaled.iter().map(Vec::len).sum::<usize>() as f64,
        );
        out.set("bench.kernel_ms", meter.kernel_median_s() * 1e3);
        let show = |v: Vec<f64>| {
            v.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let unscaled = self
            .batches
            .iter()
            .map(|b| b.iter().map(|&s| Meter::unscaled(s)).sum());
        eprintln!(
            "{workload}: batches [{}] s at the reference speed, [{}] s as measured; kernel median {:.2} ms",
            show(batch_s.clone()),
            show(unscaled.collect()),
            meter.kernel_median_s() * 1e3
        );
    }
}

/// A finished batch run: the outcome so far, the recorded spans, and the
/// number of batches.
pub struct Batches {
    /// Attempted/failed, `cpu_s`, the `op_*` quantiles, and batch 0's
    /// lines as the fingerprint.
    pub out: Outcome,
    /// The spans (empty when untraced).
    pub tracer: trace::Tracer,
    /// Batches run.
    pub reps: usize,
}

impl Batches {
    /// Sets `peak_rss_mib` and, on a traced run, the layer figures and the
    /// engine counters `engine` (both per batch), and writes the spans.
    pub fn finish(mut self, cfg: &RunConfig, workload: &str, engine: &EngineFigures) -> Outcome {
        self.out.set("peak_rss_mib", peak_rss_mib());
        if cfg.trace {
            trace::layer_metrics(&self.tracer, self.reps, &mut self.out);
            engine::push_metrics(engine, self.reps, &mut self.out);
            write_trace(cfg, workload, &self.tracer);
        }
        self.out
    }
}

/// Runs a batch workload: batches of every spec, repeated until the next
/// batch would overrun the window (at least `min_reps` of them).
///
/// `setup` makes the labelled specs from the seed. It runs once for the
/// specs and then `setup_reps` more times before every batch; `setup_s` is
/// the median of all those set-ups, so it samples the whole run as
/// `cpu_s` does rather than one moment at its start.
///
/// Inside a batch each spec is `realize`d, timed, with panics quarantined,
/// and the reference kernel runs after every spec (and every set-up
/// group), so each time is scaled by the host's speed around it.
/// After the batch, untimed, `check` gets each product and whether this is
/// batch 0; it runs the oracle (on batch 0 at least) and appends the
/// product's deterministic lines (shapes, quality figures, artifact
/// digests), which the runner prefixes with the spec's label. Every later
/// batch must produce batch 0's lines exactly, so where the lines cover
/// the whole product the oracle's verdict on batch 0 carries over.
/// A panicked, refused (`Err`) or wrong product, or a batch that differs
/// from batch 0, counts as failed.
pub fn run_batches<S, R>(
    workload: &str,
    cfg: &RunConfig,
    (setup_reps, min_reps): (usize, usize),
    mut setup: impl FnMut() -> Vec<(String, S)>,
    mut realize: impl FnMut(&S, &mut trace::Tracer) -> Result<R, String>,
    mut check: impl FnMut(&S, R, bool, &mut Vec<String>) -> Result<(), String>,
) -> Batches {
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    let (specs, sample) = meter.time(|| std::hint::black_box(setup()));
    setups.push(sample);
    meter.calibrate();
    let mut tracer = trace::Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let mut times = BatchTimes::default();
    let mut first: Option<Vec<String>> = None;
    let window = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    let mut reps = 0;
    loop {
        for _ in 0..setup_reps {
            let (again, sample) = meter.time(|| std::hint::black_box(setup()));
            drop(again);
            setups.push(sample);
        }
        meter.calibrate();
        tracer.enter("run.batch");
        times.batch();
        let mut products = Vec::with_capacity(specs.len());
        for (i, (label, spec)) in specs.iter().enumerate() {
            tracer.set_group(i as u64);
            let depth = tracer.depth();
            let (product, sample) =
                meter.time(|| bddcf_check::run_quarantined(label, || realize(spec, &mut tracer)));
            times.spec(sample);
            tracer.unwind_to(depth);
            products.push(product);
            tracer.enter("bench.calibrate");
            meter.calibrate();
            tracer.exit();
        }
        tracer.exit();

        let mut lines = Vec::new();
        for ((label, spec), product) in specs.iter().zip(products) {
            out.attempted += 1;
            let verdict = match product {
                Ok(Ok(product)) => {
                    let from = lines.len();
                    let verdict = check(spec, product, reps == 0, &mut lines);
                    for line in &mut lines[from..] {
                        *line = format!("{label}: {line}");
                    }
                    verdict.map_err(|why| format!("fails its oracle: {why}"))
                }
                Ok(Err(why)) => Err(why),
                Err(quarantine) => Err(format!("panicked: {}", quarantine.payload)),
            };
            if let Err(why) = verdict {
                eprintln!("{workload}: {label}: {why}");
                out.failed += 1;
            }
        }
        match &first {
            None => first = Some(lines),
            Some(expected) if *expected != lines => {
                eprintln!("{workload}: batch {reps} differs from batch 0");
                out.failed += 1;
            }
            Some(_) => {}
        }

        reps += 1;
        let elapsed = start.elapsed();
        if reps >= min_reps && elapsed + elapsed / reps as u32 > window {
            break;
        }
    }
    let setup_s: Vec<f64> = setups.iter().map(|&s| meter.scaled(s)).collect();
    out.set("setup_s", stats::median(&setup_s));
    times.report(workload, &meter, &mut out);
    out.fingerprint = first.unwrap_or_default();
    Batches { out, tracer, reps }
}

/// Writes the traced run's spans to `<work_dir>/trace-<workload>-seed<seed>.jsonl`.
pub fn write_trace(cfg: &RunConfig, workload: &str, tracer: &trace::Tracer) {
    let path = cfg
        .work_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}
