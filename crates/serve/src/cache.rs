//! A validated LRU response cache keyed by spec hash.
//!
//! Caching a synthesis response is only sound if a hit is *still* a
//! correct answer, so every hit is re-audited before it is served
//! ([`bddcf_check::audit_artifact_text`]): the cached cascade text must
//! parse and re-emit byte-faithfully, the cached Verilog must match it,
//! and the circuit's χ must still refine a specification χ rebuilt fresh
//! from the request. An entry that fails any of those is evicted and the
//! job re-runs — a rotten cache line costs one recomputation, never a
//! wrong answer.
//!
//! Only **clean** (non-degraded) results are cached: a degradation caused
//! by wall-clock pressure is a property of one overloaded moment, not of
//! the spec, and must not be replayed to a later, idle server.

use crate::job::passes_audit;
use crate::protocol::{SynthResult, SynthSpec};
use bddcf_bdd::snapshot::fnv1a64;

/// Cache observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits that validated and were served.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Hits whose artifacts failed re-validation (entry evicted).
    pub invalidated: u64,
    /// Entries evicted by capacity pressure.
    pub evicted: u64,
}

struct Entry {
    hash: u64,
    result: SynthResult,
    checksum: u64,
    last_used: u64,
}

/// The LRU cache. Not internally synchronized — the server wraps it in
/// its shared-state mutex.
pub struct ResponseCache {
    capacity: usize,
    tick: u64,
    entries: Vec<Entry>,
    stats: CacheStats,
}

fn checksum(result: &SynthResult) -> u64 {
    let mut bytes = Vec::with_capacity(result.cascade.len() + result.verilog.len() + 1);
    bytes.extend_from_slice(result.cascade.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(result.verilog.as_bytes());
    fnv1a64(&bytes)
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity,
            tick: 0,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `spec`'s result; a hit is served only after the full
    /// artifact re-audit passes. Failing entries are evicted.
    pub fn lookup(&mut self, spec: &SynthSpec) -> Option<SynthResult> {
        let hash = spec.hash();
        let Some(idx) = self.entries.iter().position(|e| e.hash == hash) else {
            self.stats.misses += 1;
            return None;
        };
        let valid = self.entries[idx].checksum == checksum(&self.entries[idx].result)
            && self.validate(spec, idx);
        if !valid {
            self.entries.remove(idx);
            self.stats.invalidated += 1;
            return None;
        }
        self.tick += 1;
        self.entries[idx].last_used = self.tick;
        self.stats.hits += 1;
        Some(self.entries[idx].result.clone())
    }

    fn validate(&self, spec: &SynthSpec, idx: usize) -> bool {
        let entry = &self.entries[idx];
        passes_audit(spec, &entry.result, &format!("cache:{:016x}", entry.hash))
    }

    /// Inserts a clean result, evicting the least recently used entry at
    /// capacity. No-op when `capacity` is 0 or the result is degraded.
    pub fn insert(&mut self, spec: &SynthSpec, result: &SynthResult, degraded: bool) {
        if self.capacity == 0 || degraded {
            return;
        }
        let hash = spec.hash();
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.hash == hash) {
            entry.result = result.clone();
            entry.checksum = checksum(result);
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(idx) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.remove(idx);
                self.stats.evicted += 1;
            }
        }
        self.entries.push(Entry {
            hash,
            result: result.clone(),
            checksum: checksum(result),
            last_used: self.tick,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::execute;
    use crate::protocol::Source;

    fn tiny_spec(tag: u8) -> SynthSpec {
        // A 2-input function parameterized by `tag` so specs differ.
        let out = if tag & 1 == 0 { "1" } else { "0" };
        SynthSpec::new(Source::Pla(format!(".i 2\n.o 1\n11 {out}\n00 1\n.e\n")))
    }

    fn result_of(spec: &SynthSpec) -> SynthResult {
        execute(spec, None, None, false)
            .expect("tiny spec runs")
            .result
    }

    #[test]
    fn hit_after_insert_validates_and_serves() {
        let mut cache = ResponseCache::new(4);
        let spec = tiny_spec(0);
        assert!(cache.lookup(&spec).is_none());
        let result = result_of(&spec);
        cache.insert(&spec, &result, false);
        let hit = cache.lookup(&spec).expect("validated hit");
        assert_eq!(hit, result);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn corrupted_entries_are_evicted_not_served() {
        let mut cache = ResponseCache::new(4);
        let spec = tiny_spec(0);
        let mut result = result_of(&spec);
        cache.insert(&spec, &result, false);
        // Corrupt the stored artifact in place via a poisoned re-insert
        // (same hash, altered verilog so the audit must fail).
        result.verilog.push_str("// tampered\n");
        cache.insert(&spec, &result, false);
        assert!(
            cache.lookup(&spec).is_none(),
            "tampered entry must not serve"
        );
        assert_eq!(cache.stats().invalidated, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let mut cache = ResponseCache::new(4);
        let spec = tiny_spec(0);
        cache.insert(&spec, &result_of(&spec), true);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = ResponseCache::new(2);
        let specs: Vec<SynthSpec> = (0..3).map(tiny_spec).collect();
        // tag 0 and 2 are distinct functions; tag 1 differs from both.
        cache.insert(&specs[0], &result_of(&specs[0]), false);
        cache.insert(&specs[1], &result_of(&specs[1]), false);
        // Touch spec 0 so spec 1 is the LRU victim.
        assert!(cache.lookup(&specs[0]).is_some());
        let third = SynthSpec::new(Source::Pla(".i 2\n.o 1\n01 1\n.e\n".into()));
        cache.insert(&third, &result_of(&third), false);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evicted, 1);
        assert!(cache.lookup(&specs[1]).is_none(), "LRU victim gone");
        assert!(cache.lookup(&third).is_some());
    }
}
