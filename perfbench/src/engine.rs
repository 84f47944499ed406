//! Engine counters read from `BddManager::engine_stats()`, summed over
//! managers and forks in `bddcf-bench`'s [`EngineFigures`].
//!
//! A forked manager (a `Cf` clone) inherits the monotone counters of the
//! shared prefix; summing a fork's [`delta`] from the fork point keeps the
//! prefix from being counted once per fork. Peaks take the maximum.

use bddcf_bdd::EngineStats;
pub use bddcf_bench::EngineFigures;

/// The counters of one manager.
pub fn figures(stats: &EngineStats) -> EngineFigures {
    let cache = stats.cache_total();
    EngineFigures {
        peak_nodes: stats.peak_nodes,
        peak_arena_bytes: stats.peak_arena_bytes,
        unique_lookups: stats.unique_lookups,
        unique_probes: stats.unique_probes,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        gc_runs: stats.gc_runs,
        gc_pause_ns: stats.gc_pause_ns,
    }
}

/// What a fork accrued beyond its fork point `base`; peaks pass through.
pub fn delta(fork: &EngineFigures, base: &EngineFigures) -> EngineFigures {
    let d = |after: u64, before: u64| after.saturating_sub(before);
    EngineFigures {
        unique_lookups: d(fork.unique_lookups, base.unique_lookups),
        unique_probes: d(fork.unique_probes, base.unique_probes),
        cache_hits: d(fork.cache_hits, base.cache_hits),
        cache_misses: d(fork.cache_misses, base.cache_misses),
        cache_evictions: d(fork.cache_evictions, base.cache_evictions),
        gc_runs: d(fork.gc_runs, base.gc_runs),
        gc_pause_ns: d(fork.gc_pause_ns, base.gc_pause_ns),
        ..*fork
    }
}

/// The `bdd.*` per-layer figures; counts and pauses are divided by `reps`
/// so they read per batch.
pub fn push_metrics(engine: &EngineFigures, reps: usize, out: &mut crate::Outcome) {
    let per = 1.0 / reps.max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("bdd.peak_nodes", engine.peak_nodes as f64);
    out.set(
        "bdd.unique_probes_per_lookup",
        ratio(engine.unique_probes, engine.unique_lookups),
    );
    out.set(
        "bdd.op_cache_hit_rate",
        ratio(engine.cache_hits, engine.cache_hits + engine.cache_misses),
    );
    out.set("bdd.gc_runs", engine.gc_runs as f64 * per);
    out.set("bdd.gc_pause_s", engine.gc_pause_ns as f64 * 1e-9 * per);
}
