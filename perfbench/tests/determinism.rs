//! A miniature of each workload, run twice with one seed, yields identical
//! quality metrics and artifacts; the traced run's layer times add up to
//! its traced wall.

use bddcf_perfbench::{arith, serve, words, Outcome, RunConfig, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const QUALITY: [&str; 3] = ["alg31_node_ratio", "alg33_width_ratio", "alg33_width_sum"];

fn config(seed: u64, seconds: f64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
    }
}

fn assert_repeatable(run: impl Fn(&RunConfig) -> Outcome, seconds: f64) -> Outcome {
    let cfg = config(7, seconds, false);
    let a = run(&cfg);
    let b = run(&cfg);
    assert!(a.correct(), "{} of {} failed", a.failed, a.attempted);
    assert!(b.correct(), "{} of {} failed", b.failed, b.attempted);
    assert!(!a.fingerprint.is_empty());
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "artifacts differ between runs"
    );
    for name in QUALITY {
        assert_eq!(
            a.values[name], b.values[name],
            "{name} differs between runs"
        );
        assert!(a.values[name] > 0.0, "{name} must not be 0");
    }
    let line = a.to_json(false).expect("every end-to-end metric measured");
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    a
}

/// Layer self times plus the unattributed remainder equal the traced wall.
fn assert_adds_up(traced: &Outcome) {
    let layers: f64 = PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| {
            name.ends_with("_s") && !name.starts_with("trace.") && *name != "bdd.gc_pause_s"
        })
        .map(|name| traced.values.get(name).copied().unwrap_or(0.0))
        .sum();
    let wall = traced.values["trace.wall_s"];
    let unattributed = traced.values["trace.unattributed_s"];
    assert!(wall > 0.0);
    assert!(
        (layers + unattributed - wall).abs() <= 1e-6 * wall.max(1.0),
        "layers {layers} + unattributed {unattributed} != wall {wall}"
    );
    assert!(traced.values.contains_key("trace.overhead"));
    let line = traced.to_json(true).expect("per-layer line");
    for (name, _) in PER_LAYER {
        assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
    }
}

#[test]
fn words_miniature_is_deterministic() {
    let scale = words::Scale::mini();
    assert_repeatable(|cfg| words::run(cfg, &scale), 0.0);
    let other = words::run(&config(8, 0.0, false), &scale);
    let again = words::run(&config(7, 0.0, false), &scale);
    assert_ne!(
        other.fingerprint, again.fingerprint,
        "the seed must change the inputs"
    );
    assert_adds_up(&words::run(&config(7, 0.0, true), &scale));
}

#[test]
fn arith_miniature_is_deterministic() {
    let scale = arith::Scale::mini();
    let outcome = assert_repeatable(|cfg| arith::run(cfg, &scale), 0.0);
    assert!(outcome.values["cascade.cells"] > 0.0);
    assert_adds_up(&arith::run(&config(7, 0.0, true), &scale));
}

#[test]
fn serve_miniature_is_deterministic() {
    let scale = serve::Scale::mini();
    let outcome = assert_repeatable(|cfg| serve::run(cfg, &scale), 1.0);
    assert!(
        outcome.values["serve.cache_hit_share"] > 0.0,
        "repeats must hit the cache"
    );
    assert_eq!(outcome.values["serve.rejected"], 0.0);
    assert_adds_up(&serve::run(&config(7, 1.0, true), &scale));
}
