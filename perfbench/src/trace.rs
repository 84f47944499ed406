//! In-memory span recorder for the per-layer run.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! group (spec or request) it belongs to. Spans are kept in memory and
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part covered by its child spans; spans whose names
//! start with `run.` are containers, and their self time is the
//! unattributed remainder. With tracing off every call is a no-op, so the
//! end-to-end run pays nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Prefix of container spans (not a layer of the program).
pub const CONTAINER: &str = "run.";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.sift`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spec or request the span belongs to.
    pub group: u64,
}

/// The recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            group: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags the spans entered from now on with `group`.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes spans left open (by a quarantined panic) down to `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Self time in seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Wall time covered by top-level spans, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time of container spans: wall time no layer span covers.
    pub fn unattributed_s(&self) -> f64 {
        self.self_times()
            .iter()
            .filter(|(name, _)| name.starts_with(CONTAINER))
            .map(|(_, s)| s)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.group
            )?;
        }
        out.flush()
    }
}

/// Seconds one enter/exit pair costs, measured on a scratch recorder.
pub fn span_cost_s() -> f64 {
    const PAIRS: usize = 20_000;
    let mut scratch = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        scratch.enter("run.calibrate");
        scratch.exit();
    }
    std::hint::black_box(scratch.spans.len());
    t0.elapsed().as_secs_f64() / PAIRS as f64
}

/// The per-layer figures every traced run reports: the self time of each
/// layer span named in [`crate::PER_LAYER`], the unattributed remainder,
/// the traced wall, and the tracing overhead (recorded spans times the
/// measured cost of one span, as a share of the traced wall). Times are
/// divided by `reps` so they read per batch.
pub fn layer_metrics(tracer: &Tracer, reps: usize, out: &mut crate::Outcome) {
    let own = tracer.self_times();
    let per = 1.0 / reps.max(1) as f64;
    for (&name, &own_s) in &own {
        if let Some(&(metric, _)) = crate::PER_LAYER
            .iter()
            .find(|(metric, _)| metric.strip_suffix("_s") == Some(name))
        {
            out.set(metric, own_s * per);
        }
    }
    let wall = tracer.wall_s();
    out.set("trace.unattributed_s", tracer.unattributed_s() * per);
    out.set("trace.wall_s", wall * per);
    let overhead = if wall > 0.0 {
        tracer.spans().len() as f64 * span_cost_s() / wall
    } else {
        0.0
    };
    out.set("trace.overhead", overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_add_up_to_the_wall() {
        let mut t = Tracer::new(true);
        t.enter("run.batch");
        t.enter("core.sift");
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.exit();
        t.enter("core.alg33");
        t.enter("core.sift");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit();
        let own = t.self_times();
        let layers: f64 = own
            .iter()
            .filter(|(n, _)| !n.starts_with(CONTAINER))
            .map(|(_, s)| s)
            .sum();
        assert!((layers + t.unattributed_s() - t.wall_s()).abs() < 1e-9);
        assert!(own["core.sift"] >= 0.005);
        assert!(t.unattributed_s() >= 0.001);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("core.sift");
        t.exit();
        assert!(t.spans().is_empty());
        assert_eq!(t.wall_s(), 0.0);
    }
}
