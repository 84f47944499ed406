//! `bddcf` — command-line front end.
//!
//! ```text
//! bddcf stats   <file.pla> [--sift N]
//!     BDD_for_CF widths/nodes for DC=0, DC=1, ISF, Alg 3.1, Alg 3.3.
//!
//! bddcf reduce  <file.pla> [--method alg31|alg33|fixpoint] [--sift N] [-o out.pla]
//!     Reduce and (for ≤ 16 inputs) write the completed function as a PLA.
//!
//! bddcf cascade <file.pla> [--max-in K] [--max-out L] [--sift N]
//!               [--verilog out.v] [--save out.cas]
//!     Synthesize an LUT cascade; optionally emit Verilog and/or save the
//!     cell tables.
//!
//! bddcf sim <file.cas> <bits>
//!     Evaluate a saved cascade on an input bit string (input 0 first).
//!
//! bddcf check [label-substring...] [--suite small|table4] [--samples N]
//!             [--max-iter N]
//!     Run the bddcf-check invariant layers (manager integrity, CF lints,
//!     refinement oracle, cascade lints) over registry benchmarks; exits
//!     nonzero if any layer reports a finding.
//!
//! bddcf lint [label-substring...] [--suite small|table4] [--max-iter N]
//!     Static translation validation of emitted artifacts: synthesize each
//!     benchmark, emit Verilog and cascade text, parse them back, run the
//!     netlist lints (NL001–NL009), require a byte-faithful re-emission,
//!     and prove χ_netlist ⇒ χ_spec on the BDDs. Findings are printed
//!     machine-readably as `file:line: [ID] message`; exits nonzero on any.
//!
//! bddcf inject [label-substring...] [--suite small|table4] [--seed N]
//!              [--points N] [--max-iter N] [--samples N]
//!     Seeded fault injection: exhaust node/step budgets and fire
//!     cancellations at random points of the governed pipeline, auditing
//!     every survivor; exits nonzero on any invariant violation.
//!
//! bddcf resume <file.bddcfck> [--max-iter N] [--max-in K] [--max-out L]
//!              [--save out.cas] [--verilog out.v]
//!     Reconstruct a reduction from a crash-safe checkpoint and continue it
//!     from the recorded level; optionally synthesize the cascade.
//!
//! bddcf bench [--suite small|table4|table5[,…]] [--json] [-o report.json]
//!             [--diff BASELINE.json] [--tolerance FRACTION]
//!     Run the measurement suites (wall clock, peak nodes, probe lengths,
//!     cache hit rates per registry benchmark) and emit the figures as
//!     deterministic JSON; `--diff` compares the run against a committed
//!     baseline with calibration-normalized wall clocks and exits 1 on a
//!     regression beyond the tolerance (default 0.20).
//!
//! bddcf serve [--addr A] [--workers N] [--queue-cap N]
//!             [--max-inflight-nodes N] [--spool D] [--cache-cap N]
//!     Run the fault-tolerant synthesis daemon (length-prefixed JSON over
//!     TCP; see bddcf_serve::protocol). Prints `listening on ADDR` once
//!     bound and serves until a protocol drain/checkpoint shutdown.
//!
//! bddcf loadtest [--requests N] [--clients N] [--seed N] [--dir D]
//!                [--no-kill] [--in-process]
//!     Chaos/load harness: drives a spawned `bddcf serve` child with a
//!     seeded mix of valid, duplicate, malformed, oversized, deadline-zero,
//!     and deliberately panicking requests, SIGKILLs it mid-batch, restarts
//!     it on the same spool, and exits nonzero unless no accepted request
//!     was lost and every artifact is byte-identical and passes the audit
//!     stack.
//!
//! bddcf diskchaos [label-substring...] [--suite small|table4] [--seed N]
//!                 [--points N] [--requests N] [--drop-dir-sync]
//!     Hostile-disk and crash-recovery harness: records every storage event
//!     of the checkpointed reductions (a built-in PLA plus the selected
//!     registry benchmarks) and of a spooled serve session on a
//!     fault-injecting VFS, then sweeps power-loss crash prefixes
//!     (fsync-lies model) and seeded ENOSPC/EIO/short-write faults,
//!     asserting recovery never panics, resumes byte-identically, loses no
//!     accepted-and-replied request, and every surviving artifact passes
//!     the audit stack. --drop-dir-sync is the negative control: directory
//!     fsyncs silently lie and the sweep must fail.
//! ```
//!
//! `check`, `lint`, and `inject` run each benchmark inside a panic
//! quarantine: a panicking benchmark poisons only its own run, the batch
//! continues, and the quarantined entries are listed (with the panic
//! payload) at the end.
//!
//! `stats`, `reduce`, and `cascade` accept resource-governor flags
//! `--node-limit N`, `--step-limit N`, and `--time-budget SECONDS`. Under a
//! budget the reductions *degrade gracefully*: steps that do not fit are
//! downgraded or skipped (reported on stderr) and the result is a less
//! reduced but still valid BDD_for_CF; only construction or synthesis that
//! cannot complete at all exits nonzero, with a typed error and no panic.
//!
//! PLA semantics follow `bddcf_io::pla` (`fr`-type: uncovered minterms are
//! don't cares; add `.type fd` to the file for unlisted-means-0).

#![forbid(unsafe_code)]

use bddcf::bdd::{Budget, ReorderCost};
use bddcf::cascade::{synthesize_governed, CascadeOptions, SynthesisError};
use bddcf::core::degrade::{DegradationReport, DegradeAction, Phase};
use bddcf::core::{Alg33Options, Cf};
use bddcf::io::{emit_cascade, emit_verilog, parse_pla, read_cascade, write_pla};
use bddcf::logic::{Ternary, TruthTable};
use std::process::ExitCode;
use std::time::Duration;

/// What a verification subcommand concluded. The distinction drives the
/// exit code: findings are a *successful* run that discovered problems
/// (exit 1), unlike usage or internal errors (exit 2).
enum Outcome {
    /// Everything checked out.
    Clean,
    /// The run completed and surfaced findings (already printed).
    Findings,
}

/// Why a subcommand failed. The distinction drives the exit code: a run
/// that its resource budget (or deadline) cut short is a *governed*
/// failure (exit 3) a caller can respond to by raising the budget, unlike
/// usage or internal errors (exit 2).
enum CliError {
    /// Bad invocation or an internal failure (exit 2).
    Usage(String),
    /// The run's budget or deadline was exhausted before completion, or
    /// `--require-complete` rejected a degraded result (exit 3).
    Budget(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Findings) => ExitCode::FAILURE,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("run `bddcf help` for usage");
            ExitCode::from(2)
        }
        Err(CliError::Budget(message)) => {
            eprintln!("budget exhausted: {message}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<Outcome, CliError> {
    let Some(command) = args.first() else {
        return Err("missing subcommand (stats | reduce | cascade | help)"
            .to_string()
            .into());
    };
    let clean = |()| Outcome::Clean;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", USAGE);
            Ok(Outcome::Clean)
        }
        "stats" => stats(&args[1..]).map(clean).map_err(Into::into),
        "reduce" => reduce(&args[1..]).map(clean),
        "cascade" => cascade(&args[1..]).map(clean),
        "sim" => sim(&args[1..]).map(clean).map_err(Into::into),
        "check" => check(&args[1..]).map_err(Into::into),
        "lint" => lint(&args[1..]).map_err(Into::into),
        "inject" => inject(&args[1..]).map_err(Into::into),
        "resume" => resume(&args[1..]).map(clean),
        "bench" => bench(&args[1..]).map_err(Into::into),
        "serve" => serve(&args[1..]).map(clean).map_err(Into::into),
        "loadtest" => loadtest(&args[1..]).map_err(Into::into),
        "diskchaos" => diskchaos(&args[1..]).map_err(Into::into),
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

const USAGE: &str = "\
bddcf — BDD_for_CF width reduction and LUT cascade synthesis

USAGE:
  bddcf stats   <file.pla> [--sift N]
  bddcf reduce  <file.pla> [--method alg31|alg33|fixpoint] [--sift N] [-o out.pla]
  bddcf cascade <file.pla> [--max-in K] [--max-out L] [--sift N]
                [--verilog out.v] [--save out.cas]
  bddcf sim <file.cas> <input-bits>
  bddcf check [label-substring...] [--suite small|table4] [--samples N]
              [--max-iter N]
  bddcf lint  [label-substring...] [--suite small|table4] [--max-iter N]
  bddcf inject [label-substring...] [--suite small|table4] [--seed N]
               [--points N] [--max-iter N] [--samples N]
  bddcf resume <file.bddcfck> [--max-iter N] [--max-in K] [--max-out L]
               [--save out.cas] [--verilog out.v]
  bddcf bench [--suite small|table4|table5[,…]] [--json] [-o report.json]
              [--diff BASELINE.json] [--tolerance FRACTION]
  bddcf serve [--addr A] [--workers N] [--queue-cap N]
              [--max-inflight-nodes N] [--spool D] [--cache-cap N]
  bddcf loadtest [--requests N] [--clients N] [--seed N] [--dir D]
                 [--no-kill] [--in-process]
  bddcf diskchaos [label-substring...] [--suite small|table4] [--seed N]
                  [--points N] [--requests N] [--drop-dir-sync]

RESOURCE GOVERNOR (stats | reduce | cascade):
  --node-limit N       cap the BDD arena at N nodes
  --step-limit N       cap charged operation steps at N
  --time-budget SECS   wall-clock allowance (fractional seconds ok)
  --require-complete   (reduce | cascade) treat any budget downgrade as a
                       failure: exit 3 instead of printing a degraded result
  Reductions degrade gracefully under a budget (downgrades reported on
  stderr, result stays valid); hard exhaustion exits 3, no panic.

BENCHMARKING (bench):
  Runs the measurement suites (default table4,table5; --suite accepts a
  comma-separated list) and prints a human summary, or with --json the
  deterministic bddcf-bench-v1 report (to -o FILE when given). Every
  report embeds a machine-calibration figure; --diff BASELINE.json
  compares calibration-normalized wall clocks and exits 1 when a shared
  suite regressed beyond --tolerance (default 0.20).

SERVING (serve | loadtest):
  serve binds a TCP daemon speaking u32-length-prefixed JSON frames and
  prints `listening on ADDR`; shut it down over the protocol with a
  `shutdown` request (`drain` finishes the queue, `checkpoint` parks
  in-flight jobs for a byte-identical resume on restart). loadtest spawns
  `bddcf serve` as a child on a shared spool, fires a seeded request mix,
  SIGKILLs and restarts the daemon mid-batch, and audits that no accepted
  request was lost.

STORAGE FAULTS AND CRASH RECOVERY (diskchaos):
  Runs checkpointed reductions (a built-in PLA, plus the registry
  benchmarks named by label or --suite) and an in-process spooled daemon
  over a fault-injecting VFS, then replays power-loss crash states at
  --points storage-event prefixes per phase (0 = every event) plus seeded
  ENOSPC/EIO/short-write faults. Every recovered reduction must resume
  byte-identically. Exits 1 on any recovery-contract violation.
  --drop-dir-sync makes every directory fsync a silent lie — the negative
  control proving the harness checks rename durability.

CRASH SAFETY:
  reduce --method fixpoint --checkpoint-dir D
      write an atomic checkpoint into D at every Algorithm 3.3 level
      boundary (resume later with `bddcf resume D/ckpt-NNNNNN.bddcfck`)
  check | lint | inject --panic-probe
      append a deliberately panicking benchmark to prove quarantine
  check | lint | inject --finding-probe
      append a benchmark that violates Definition 2.4 to prove the
      findings exit path (exit 1)

EXIT CODES:
  0  clean                1  findings reported
  2  usage or internal    3  budget/deadline exhausted before completion
";

struct Flags {
    positional: Vec<String>,
    sift: usize,
    method: String,
    output: Option<String>,
    max_in: usize,
    max_out: usize,
    verilog: Option<String>,
    save: Option<String>,
    suite: String,
    samples: u64,
    max_iter: usize,
    node_limit: Option<usize>,
    step_limit: Option<u64>,
    time_budget: Option<f64>,
    seed: u64,
    points: usize,
    checkpoint_dir: Option<String>,
    dir: Option<String>,
    panic_probe: bool,
    finding_probe: bool,
    require_complete: bool,
    addr: String,
    workers: usize,
    queue_cap: usize,
    max_inflight_nodes: Option<usize>,
    spool: Option<String>,
    cache_cap: usize,
    requests: usize,
    clients: usize,
    no_kill: bool,
    in_process: bool,
    drop_dir_sync: bool,
    suite_given: bool,
    requests_given: bool,
    points_given: bool,
    json: bool,
    diff: Option<String>,
    tolerance: f64,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        sift: 1,
        method: "alg33".into(),
        output: None,
        max_in: 12,
        max_out: 10,
        verilog: None,
        save: None,
        suite: "small".into(),
        samples: 128,
        max_iter: 4,
        node_limit: None,
        step_limit: None,
        time_budget: None,
        seed: 0xb0d0_cf5e,
        points: 100,
        checkpoint_dir: None,
        dir: None,
        panic_probe: false,
        finding_probe: false,
        require_complete: false,
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 16,
        max_inflight_nodes: None,
        spool: None,
        cache_cap: 64,
        requests: 200,
        clients: 4,
        no_kill: false,
        in_process: false,
        drop_dir_sync: false,
        suite_given: false,
        requests_given: false,
        points_given: false,
        json: false,
        diff: None,
        tolerance: 0.20,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut grab = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--sift" => {
                flags.sift = grab("--sift")?
                    .parse()
                    .map_err(|e| format!("--sift: {e}"))?
            }
            "--method" => flags.method = grab("--method")?,
            "-o" | "--output" => flags.output = Some(grab("-o")?),
            "--max-in" => {
                flags.max_in = grab("--max-in")?
                    .parse()
                    .map_err(|e| format!("--max-in: {e}"))?
            }
            "--max-out" => {
                flags.max_out = grab("--max-out")?
                    .parse()
                    .map_err(|e| format!("--max-out: {e}"))?
            }
            "--verilog" => flags.verilog = Some(grab("--verilog")?),
            "--save" => flags.save = Some(grab("--save")?),
            "--suite" => {
                flags.suite = grab("--suite")?;
                flags.suite_given = true;
            }
            "--json" => flags.json = true,
            "--diff" => flags.diff = Some(grab("--diff")?),
            "--tolerance" => {
                let t: f64 = grab("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err("--tolerance needs a non-negative fraction".into());
                }
                flags.tolerance = t;
            }
            "--samples" => {
                flags.samples = grab("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?
            }
            "--max-iter" => {
                flags.max_iter = grab("--max-iter")?
                    .parse()
                    .map_err(|e| format!("--max-iter: {e}"))?
            }
            "--node-limit" => {
                flags.node_limit = Some(
                    grab("--node-limit")?
                        .parse()
                        .map_err(|e| format!("--node-limit: {e}"))?,
                )
            }
            "--step-limit" => {
                flags.step_limit = Some(
                    grab("--step-limit")?
                        .parse()
                        .map_err(|e| format!("--step-limit: {e}"))?,
                )
            }
            "--time-budget" => {
                let secs: f64 = grab("--time-budget")?
                    .parse()
                    .map_err(|e| format!("--time-budget: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--time-budget needs a positive number of seconds".into());
                }
                flags.time_budget = Some(secs);
            }
            "--seed" => {
                flags.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--points" => {
                flags.points = grab("--points")?
                    .parse()
                    .map_err(|e| format!("--points: {e}"))?;
                flags.points_given = true;
            }
            "--checkpoint-dir" => flags.checkpoint_dir = Some(grab("--checkpoint-dir")?),
            "--dir" => flags.dir = Some(grab("--dir")?),
            "--panic-probe" => flags.panic_probe = true,
            "--finding-probe" => flags.finding_probe = true,
            "--require-complete" => flags.require_complete = true,
            "--addr" => flags.addr = grab("--addr")?,
            "--workers" => {
                flags.workers = grab("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-cap" => {
                flags.queue_cap = grab("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--max-inflight-nodes" => {
                flags.max_inflight_nodes = Some(
                    grab("--max-inflight-nodes")?
                        .parse()
                        .map_err(|e| format!("--max-inflight-nodes: {e}"))?,
                )
            }
            "--spool" => flags.spool = Some(grab("--spool")?),
            "--cache-cap" => {
                flags.cache_cap = grab("--cache-cap")?
                    .parse()
                    .map_err(|e| format!("--cache-cap: {e}"))?
            }
            "--requests" => {
                flags.requests = grab("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
                flags.requests_given = true;
            }
            "--clients" => {
                flags.clients = grab("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--no-kill" => flags.no_kill = true,
            "--in-process" => flags.in_process = true,
            "--drop-dir-sync" => flags.drop_dir_sync = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

impl Flags {
    /// The resource budget requested on the command line, if any.
    fn budget(&self) -> Option<Budget> {
        if self.node_limit.is_none() && self.step_limit.is_none() && self.time_budget.is_none() {
            return None;
        }
        let mut budget = Budget::default();
        if let Some(n) = self.node_limit {
            budget = budget.with_node_limit(n);
        }
        if let Some(s) = self.step_limit {
            budget = budget.with_step_limit(s);
        }
        if let Some(secs) = self.time_budget {
            budget = budget.with_time_budget(Duration::from_secs_f64(secs));
        }
        Some(budget)
    }
}

/// Prints a non-empty degradation report to stderr: the result the command
/// goes on to print is less reduced than an unbudgeted run's, but valid.
fn report_degradations(report: &DegradationReport) {
    if report.is_clean() {
        return;
    }
    eprintln!(
        "budget pressure: {} downgrade(s); the result is less reduced but still valid:",
        report.len()
    );
    for line in report.render().lines() {
        eprintln!("  {line}");
    }
}

/// [`emit_verilog`] with the typed emission error folded into `io::Error`,
/// so it can stream through [`write_file_with`]. An invalid module name is
/// reported as `InvalidInput` instead of a panic.
fn emit_verilog_io<W: std::io::Write>(
    cascade: &bddcf::cascade::Cascade,
    module_name: &str,
    w: &mut W,
) -> std::io::Result<()> {
    emit_verilog(cascade, module_name, w).map_err(|e| match e {
        bddcf::io::VerilogEmitError::Io(e) => e,
        other => std::io::Error::new(std::io::ErrorKind::InvalidInput, other.to_string()),
    })
}

/// Streams `emit` into `path` through a `BufWriter`, so writer failures
/// (disk full, permissions) surface as errors instead of being dropped
/// with a partially written file mistaken for a complete one.
fn write_file_with(
    path: &str,
    emit: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    use std::io::Write as _;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    emit(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{path}: {e}"))
}

fn load_cf(path: &str, sift_passes: usize) -> Result<Cf, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let pla = parse_pla(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut cf = pla.to_cf().map_err(|e| format!("{path}: {e}"))?;
    if sift_passes > 0 {
        cf.optimize_order(ReorderCost::SumOfWidths, sift_passes);
    }
    Ok(cf)
}

fn stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("stats takes exactly one PLA file".into());
    };
    let cf = load_cf(path, flags.sift)?;
    println!(
        "{}: {} inputs, {} outputs",
        path,
        cf.layout().num_inputs(),
        cf.layout().num_outputs()
    );
    println!(
        "ISF:      width {:>6}  nodes {:>7}",
        cf.max_width(),
        cf.node_count()
    );
    let budget = flags.budget();
    let mut degradations = DegradationReport::new();
    let mut a31 = cf.clone();
    if let Some(b) = budget.clone() {
        a31.manager_mut().set_budget(b);
    }
    match a31.try_reduce_alg31() {
        Ok(s31) => println!(
            "Alg 3.1:  width {:>6}  nodes {:>7}  ({} merges)",
            s31.max_width_after, s31.nodes_after, s31.merges
        ),
        Err(cause) => {
            degradations.record(Phase::Alg31, None, DegradeAction::SkippedPhase, cause);
            println!("Alg 3.1:  (skipped: {cause})");
        }
    }
    let mut a33 = cf.clone();
    if let Some(b) = budget.clone() {
        a33.manager_mut().set_budget(b);
    }
    let s33 = a33.reduce_alg33_governed(&Alg33Options::default(), &mut degradations);
    println!(
        "Alg 3.3:  width {:>6}  nodes {:>7}  ({} columns merged)",
        s33.max_width_after, s33.nodes_after, s33.columns_merged
    );
    let mut sup = cf;
    if let Some(b) = budget {
        sup.manager_mut().set_budget(b);
    }
    let removed = sup.reduce_support_variables_governed(&mut degradations);
    println!(
        "§3.3:     {} redundant input(s) removable: {:?}",
        removed.len(),
        removed
            .iter()
            .map(|i| format!("x{}", i + 1))
            .collect::<Vec<_>>()
    );
    print_engine_stats(&a33.manager().engine_stats());
    report_degradations(&degradations);
    Ok(())
}

/// Engine-health block of `bddcf stats`: the counters of the manager that
/// ran the load + sift + Algorithm 3.3 line (the representative path).
fn print_engine_stats(stats: &bddcf::bdd::EngineStats) {
    let cache = stats.cache_total();
    let lookups = stats.unique_lookups.max(1);
    let cache_lookups = (cache.hits + cache.misses).max(1);
    println!(
        "engine:   peak {} nodes ({} KiB arena)",
        stats.peak_nodes,
        stats.peak_arena_bytes / 1024
    );
    println!(
        "          unique table {}/{} live/buckets, {:.2} mean probes/lookup",
        stats.unique_len,
        stats.unique_capacity,
        stats.unique_probes as f64 / lookups as f64
    );
    println!(
        "          op caches {:.1}% hit ({} hits, {} misses, {} evictions)",
        100.0 * cache.hits as f64 / cache_lookups as f64,
        cache.hits,
        cache.misses,
        cache.evictions
    );
    println!(
        "          gc {} run(s), {:.3} ms paused",
        stats.gc_runs,
        stats.gc_pause_ns as f64 / 1e6
    );
}

fn reduce(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("reduce takes exactly one PLA file".to_string().into());
    };
    if flags.checkpoint_dir.is_some() && flags.method != "fixpoint" {
        return Err("--checkpoint-dir requires --method fixpoint"
            .to_string()
            .into());
    }
    let mut cf = load_cf(path, flags.sift)?;
    let before = (cf.max_width(), cf.node_count());
    let mut degradations = DegradationReport::new();
    if let Some(budget) = flags.budget() {
        cf.manager_mut().set_budget(budget);
    }
    match flags.method.as_str() {
        "alg31" => {
            if let Err(cause) = cf.try_reduce_alg31() {
                degradations.record(Phase::Alg31, None, DegradeAction::SkippedPhase, cause);
            }
        }
        "alg33" => {
            cf.reduce_alg33_governed(&Alg33Options::default(), &mut degradations);
        }
        "fixpoint" => {
            if let Some(dir) = &flags.checkpoint_dir {
                let mut ck = bddcf::core::Checkpointer::new(dir)
                    .map_err(|e| format!("--checkpoint-dir {dir}: {e}"))?;
                cf.reduce_to_fixpoint_checkpointed(
                    &Alg33Options::default(),
                    flags.max_iter,
                    &mut degradations,
                    &mut ck,
                    false,
                )
                .map_err(|e| format!("checkpointing into {dir} failed: {e}"))?;
                if let Some(path) = ck.last_path() {
                    eprintln!("last checkpoint: {}", path.display());
                }
            } else {
                cf.reduce_to_fixpoint_governed(&Alg33Options::default(), 4, &mut degradations);
            }
        }
        other => return Err(format!("unknown --method {other}").into()),
    }
    let _ = cf.manager_mut().take_budget();
    report_degradations(&degradations);
    if flags.require_complete && !degradations.is_clean() {
        return Err(CliError::Budget(format!(
            "reduction downgraded {} step(s) under the budget and \
             --require-complete was set",
            degradations.len()
        )));
    }
    println!(
        "width {} -> {}, nodes {} -> {}",
        before.0,
        cf.max_width(),
        before.1,
        cf.node_count()
    );
    if let Some(out_path) = flags.output {
        let n = cf.layout().num_inputs();
        if n > 16 {
            return Err("-o only supported for functions with <= 16 inputs"
                .to_string()
                .into());
        }
        let m = cf.layout().num_outputs();
        let mut table = TruthTable::new(n, m);
        for r in 0..1usize << n {
            let input: Vec<bool> = (0..n).map(|i| r >> i & 1 == 1).collect();
            let word = cf.eval_completed(&input);
            for j in 0..m {
                table.set(r, j, Ternary::from_bool(word >> j & 1 == 1));
            }
        }
        std::fs::write(&out_path, write_pla(&table, None))
            .map_err(|e| format!("{out_path}: {e}"))?;
        println!("completed function written to {out_path}");
    }
    Ok(())
}

fn cascade(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("cascade takes exactly one PLA file".to_string().into());
    };
    let mut cf = load_cf(path, flags.sift)?;
    let mut degradations = DegradationReport::new();
    if let Some(budget) = flags.budget() {
        cf.manager_mut().set_budget(budget);
    }
    cf.reduce_alg33_governed(&Alg33Options::default(), &mut degradations);
    let options = CascadeOptions {
        max_cell_inputs: flags.max_in,
        max_cell_outputs: flags.max_out,
        ..CascadeOptions::default()
    };
    let result =
        synthesize_governed(&mut cf, &options, &mut degradations).map_err(|e| match e {
            SynthesisError::Budget(cause) => {
                report_degradations(&degradations);
                CliError::Budget(format!("cascade synthesis could not complete: {cause}"))
            }
            other => CliError::Usage(format!(
                "{other} — try larger cells or split the outputs (see bddcf_cascade::multi)"
            )),
        })?;
    let _ = cf.manager_mut().take_budget();
    report_degradations(&degradations);
    if flags.require_complete && !degradations.is_clean() {
        return Err(CliError::Budget(format!(
            "synthesis downgraded {} step(s) under the budget and \
             --require-complete was set",
            degradations.len()
        )));
    }
    println!(
        "cascade: {} cells, {} LUT outputs, {} memory bits, max {} rails",
        result.num_cells(),
        result.lut_outputs(),
        result.memory_bits(),
        result.max_rails()
    );
    for (i, cell) in result.cells().iter().enumerate() {
        println!(
            "  cell {i}: {} rails + inputs {:?} -> {} rails + outputs {:?}",
            cell.rails_in(),
            cell.input_ids().iter().map(|i| i + 1).collect::<Vec<_>>(),
            cell.rails_out(),
            cell.output_ids().iter().map(|j| j + 1).collect::<Vec<_>>()
        );
    }
    if let Some(cas_path) = flags.save {
        write_file_with(&cas_path, |w| emit_cascade(&result, w))?;
        println!("cell tables written to {cas_path}");
    }
    if let Some(v_path) = flags.verilog {
        let mut module = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("cascade")
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        if !bddcf::io::is_valid_module_name(&module) {
            module = format!("m_{module}");
        }
        write_file_with(&v_path, |w| emit_verilog_io(&result, &module, w))?;
        println!("Verilog written to {v_path}");
    }
    Ok(())
}

fn sim(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [path, bits] = flags.positional.as_slice() else {
        return Err("sim takes a .cas file and an input bit string".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cascade = read_cascade(&text).map_err(|e| format!("{path}: {e}"))?;
    if bits.len() != cascade.num_inputs() {
        return Err(format!(
            "expected {} input bits, got {}",
            cascade.num_inputs(),
            bits.len()
        ));
    }
    let input: Vec<bool> = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid input bit {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let word = cascade.eval(&input);
    let rendered: String = (0..cascade.num_outputs())
        .map(|j| if word >> j & 1 == 1 { '1' } else { '0' })
        .collect();
    println!("{rendered}");
    Ok(())
}

fn select_suite(flags: &Flags) -> Result<Vec<bddcf::funcs::BenchmarkEntry>, String> {
    let suite = match flags.suite.as_str() {
        "small" => bddcf::funcs::small_benchmarks(),
        "table4" => bddcf::funcs::table4_benchmarks(),
        other => return Err(format!("unknown --suite {other} (small | table4)")),
    };
    let selected: Vec<_> = suite
        .into_iter()
        .filter(|entry| {
            flags.positional.is_empty()
                || flags
                    .positional
                    .iter()
                    .any(|needle| entry.label.to_lowercase().contains(&needle.to_lowercase()))
        })
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "no benchmark in the {:?} suite matches {:?}",
            flags.suite, flags.positional
        ));
    }
    Ok(selected)
}

/// The shared loop of `check`, `lint`, and `inject`: runs `run` on each
/// selected benchmark, plus any requested probe, inside a panic
/// quarantine, lists the quarantined entries, and folds both into the
/// verdict. `run` prints the benchmark's lines and returns whether it was
/// clean; `failed` completes the stderr summary of a failing batch and
/// `passed` renders the closing line from the number of selected
/// benchmarks.
fn quarantined_batch(
    flags: &Flags,
    failed: &str,
    passed: impl FnOnce(usize) -> String,
    mut run: impl FnMut(&str, &dyn bddcf::funcs::Benchmark) -> bool,
) -> Result<Outcome, String> {
    let selected = select_suite(flags)?;
    let mut entries: Vec<(&str, &dyn bddcf::funcs::Benchmark)> = selected
        .iter()
        .map(|entry| (entry.label, entry.benchmark.as_ref()))
        .collect();
    if flags.panic_probe {
        entries.push(("panic probe", &bddcf::check::PanicProbe));
    }
    if flags.finding_probe {
        entries.push(("finding probe", &bddcf::check::FindingProbe));
    }
    let mut failures = 0usize;
    let mut quarantined = Vec::new();
    bddcf::check::with_quiet_panics(|| {
        for (label, benchmark) in entries {
            match bddcf::check::run_quarantined(label, || run(label, benchmark)) {
                Ok(true) => {}
                Ok(false) => failures += 1,
                Err(q) => quarantined.push(q),
            }
        }
    });
    for q in &quarantined {
        println!("QUAR {q}");
    }
    if failures > 0 || quarantined.len() != usize::from(flags.panic_probe) {
        eprintln!(
            "{failures} benchmark(s) {failed}, {} quarantined",
            quarantined.len()
        );
        return Ok(Outcome::Findings);
    }
    println!("{}", passed(selected.len()));
    Ok(Outcome::Clean)
}

fn check(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    let options = bddcf::check::CheckOptions {
        samples: flags.samples,
        max_iterations: flags.max_iter,
        ..bddcf::check::CheckOptions::default()
    };
    quarantined_batch(
        &flags,
        "violated pipeline invariants",
        |n| format!("all {n} benchmark(s) pass every invariant layer"),
        |label, benchmark| {
            let result = bddcf::check::check_benchmark(benchmark, &options);
            let clean = result.report.is_clean();
            println!(
                "{:4} {label:<28} width {} -> {}, {} cascade(s), {} cell(s)",
                if clean { "ok" } else { "FAIL" },
                result.max_width.0,
                result.max_width.1,
                result.num_cascades,
                result.num_cells
            );
            for finding in result.report.findings() {
                println!("     {finding}");
            }
            clean
        },
    )
}

fn lint(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    let options = bddcf::check::LintOptions {
        max_iterations: flags.max_iter,
        ..bddcf::check::LintOptions::default()
    };
    quarantined_batch(
        &flags,
        "produced artifacts with lint findings",
        |n| {
            format!(
                "all {n} benchmark(s) emit artifacts that parse back, round-trip \
                 byte-faithfully, and refine their specifications"
            )
        },
        |label, benchmark| {
            let result = bddcf::check::lint_benchmark(benchmark, &options);
            let clean = result.report.is_clean();
            println!(
                "{:4} {label:<28} {} artifact(s) analyzed",
                if clean { "ok" } else { "FAIL" },
                result.artifacts
            );
            for finding in result.report.findings() {
                println!("{finding}");
            }
            clean
        },
    )
}

fn inject(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    let options = bddcf::check::InjectionOptions {
        seed: flags.seed,
        points: flags.points,
        max_iterations: flags.max_iter,
        samples: flags.samples.min(64),
        ..bddcf::check::InjectionOptions::default()
    };
    quarantined_batch(
        &flags,
        "violated an invariant under fault injection",
        |n| {
            format!(
                "all {n} benchmark(s) survive {} fault injection(s) each (seed {:#x})",
                flags.points, flags.seed
            )
        },
        |_, benchmark| {
            let outcome = bddcf::check::run_injection(benchmark, &options);
            println!("{}", outcome.summary());
            for finding in outcome.report.findings() {
                println!("     {finding}");
            }
            outcome.is_clean()
        },
    )
}

fn resume(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("resume takes exactly one checkpoint file"
            .to_string()
            .into());
    };
    let ckpt_path = std::path::Path::new(path);
    let loaded = bddcf::core::load_checkpoint(ckpt_path).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} inputs, {} outputs, width {}, {} nodes, at {}",
        loaded.cf.layout().num_inputs(),
        loaded.cf.layout().num_outputs(),
        loaded.cf.max_width(),
        loaded.cf.node_count(),
        loaded.progress
    );
    // Continue checkpointing in the directory the checkpoint came from,
    // after the sequence number it was part of.
    let dir = ckpt_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::Path::new("."));
    let mut ck =
        bddcf::core::Checkpointer::new(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut cf, mut report, stats) = loaded
        .resume(&Alg33Options::default(), flags.max_iter, &mut ck, false)
        .map_err(|e| format!("resume failed: {e}"))?;
    // Without `abort_on_cancel` the fixpoint loop always finishes, even
    // from a `ReductionDone` checkpoint.
    let stats = stats.expect("invariant: only a crash-simulating resume ends without stats");
    println!(
        "resumed: {} iteration(s), width {} -> {}, nodes {} -> {}",
        stats.iterations, stats.max_width.0, stats.max_width.1, stats.nodes.0, stats.nodes.1
    );
    if let Some(last) = ck.last_path() {
        println!("last checkpoint: {}", last.display());
    }
    if flags.save.is_some() || flags.verilog.is_some() {
        let options = CascadeOptions {
            max_cell_inputs: flags.max_in,
            max_cell_outputs: flags.max_out,
            ..CascadeOptions::default()
        };
        let result = synthesize_governed(&mut cf, &options, &mut report).map_err(|e| match e {
            SynthesisError::Budget(cause) => CliError::Budget(format!(
                "cascade synthesis after resume could not complete: {cause}"
            )),
            other => CliError::Usage(format!("cascade synthesis after resume failed: {other}")),
        })?;
        println!(
            "cascade: {} cells, {} LUT outputs, {} memory bits",
            result.num_cells(),
            result.lut_outputs(),
            result.memory_bits()
        );
        if let Some(cas_path) = flags.save {
            write_file_with(&cas_path, |w| emit_cascade(&result, w))?;
            println!("cell tables written to {cas_path}");
        }
        if let Some(v_path) = flags.verilog {
            write_file_with(&v_path, |w| emit_verilog_io(&result, "resumed", w))?;
            println!("Verilog written to {v_path}");
        }
    }
    report_degradations(&report);
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let defaults = bddcf::serve::ServerConfig::default();
    let config = bddcf::serve::ServerConfig {
        addr: flags.addr.clone(),
        workers: flags.workers.max(1),
        queue_capacity: flags.queue_cap.max(1),
        max_inflight_nodes: flags
            .max_inflight_nodes
            .unwrap_or(defaults.max_inflight_nodes),
        cache_capacity: flags.cache_cap,
        spool_dir: flags.spool.as_ref().map(std::path::PathBuf::from),
        ..defaults
    };
    // Probe jobs panic *by design* (quarantined per worker); the default
    // hook would spray backtraces over the daemon's log stream.
    bddcf::check::with_quiet_panics(|| -> Result<(), String> {
        let server = bddcf::serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
        // The chaos harness spawns this subcommand and parses exactly this
        // line off stdout; keep the prefix stable and flush past the pipe.
        println!("listening on {}", server.local_addr());
        use std::io::Write as _;
        std::io::stdout()
            .flush()
            .map_err(|e| format!("stdout: {e}"))?;
        let stats = server.wait();
        println!(
            "served {} connection(s): {} completed, {} degraded, {} failed, \
             {} panicked, {} deadline-shed, {} parked",
            stats.connections,
            stats.pool.completed,
            stats.pool.degraded,
            stats.pool.failed,
            stats.pool.panicked,
            stats.pool.shed_deadline,
            stats.pool.parked
        );
        println!(
            "rejections: {} queue-full, {} overloaded, {} draining, {} breaker; \
             cache: {} hit(s), {} invalidated; {} spool entr(ies) recovered",
            stats.pool.rejected_queue_full,
            stats.pool.rejected_overloaded,
            stats.pool.rejected_draining,
            stats.pool.rejected_breaker,
            stats.cache.hits,
            stats.cache.invalidated,
            stats.recovered
        );
        Ok(())
    })
}

fn loadtest(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err("loadtest takes no positional arguments".into());
    }
    let spool_dir = flags
        .dir
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("bddcf-loadtest-{}", std::process::id()))
        });
    let server_bin = if flags.in_process {
        None
    } else {
        Some(std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?)
    };
    let config = bddcf::serve::LoadTestConfig {
        requests: flags.requests,
        clients: flags.clients.max(1),
        seed: flags.seed,
        kill: !flags.no_kill,
        spool_dir,
        server_bin,
        workers: flags.workers.max(1),
        queue_capacity: flags.queue_cap.max(1),
    };
    let report = bddcf::serve::run_loadtest(&config)?;
    print!("{}", report.render());
    if report.passed() {
        Ok(Outcome::Clean)
    } else {
        Ok(Outcome::Findings)
    }
}

fn diskchaos(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    // Labels (or an explicit --suite) add registry benchmarks to the
    // reduction sweep; without them only the built-in PLA is swept.
    let specs = if flags.positional.is_empty() && !flags.suite_given {
        Vec::new()
    } else {
        select_suite(&flags)?
            .iter()
            .map(|entry| {
                bddcf::serve::SynthSpec::new(bddcf::serve::Source::Registry(entry.label.into()))
            })
            .collect()
    };
    let config = bddcf::serve::DiskChaosConfig {
        seed: flags.seed,
        // inject's 100-point default would subsample; the contract is a
        // crash at *every* storage event unless the user narrows it.
        points: if flags.points_given { flags.points } else { 0 },
        // loadtest's 200-request default would make the sweep quadratic;
        // the harness needs only a handful of requests per session.
        requests: if flags.requests_given {
            flags.requests
        } else {
            6
        },
        drop_dir_sync: flags.drop_dir_sync,
        specs,
    };
    let report = bddcf::serve::run_diskchaos(&config)?;
    print!("{}", report.render());
    if report.passed() {
        Ok(Outcome::Clean)
    } else {
        Ok(Outcome::Findings)
    }
}

/// One suite's wall clock pulled out of a bddcf-bench-v1 report.
struct SuiteFigure {
    name: String,
    total_wall_ns: u64,
}

/// Parses a bddcf-bench-v1 JSON report down to the figures the diff
/// needs: the calibration time and each suite's total wall clock.
fn parse_bench_figures(text: &str, origin: &str) -> Result<(u64, Vec<SuiteFigure>), String> {
    let root = bddcf::serve::json::parse(text.as_bytes()).map_err(|e| format!("{origin}: {e}"))?;
    let format = root
        .get("format")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{origin}: missing \"format\""))?;
    if format != bddcf::bench::BENCH_FORMAT {
        return Err(format!(
            "{origin}: format {format:?}, expected {:?}",
            bddcf::bench::BENCH_FORMAT
        ));
    }
    let calibration_ns = root
        .get("calibration_ns")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{origin}: missing \"calibration_ns\""))?;
    let mut suites = Vec::new();
    for suite in root
        .get("suites")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("{origin}: missing \"suites\""))?
    {
        let name = suite
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{origin}: suite without \"name\""))?;
        let total_wall_ns = suite
            .get("total_wall_ns")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("{origin}: suite {name:?} without \"total_wall_ns\""))?;
        suites.push(SuiteFigure {
            name: name.to_string(),
            total_wall_ns,
        });
    }
    Ok((calibration_ns, suites))
}

/// Compares a fresh report against a committed baseline. Wall clocks are
/// normalized by each report's own calibration figure, so the comparison
/// is per unit of this machine's speed; a suite counts as regressed when
/// its normalized wall clock exceeds the baseline's by more than
/// `tolerance` (a fraction, e.g. 0.20). Suites present in only one report
/// are reported but not failed, so baselines can grow suites over time.
fn diff_bench_reports(
    current_json: &str,
    baseline_json: &str,
    baseline_origin: &str,
    tolerance: f64,
) -> Result<Outcome, String> {
    let (current_cal, current) = parse_bench_figures(current_json, "current run")?;
    let (baseline_cal, baseline) = parse_bench_figures(baseline_json, baseline_origin)?;
    if current_cal == 0 || baseline_cal == 0 {
        return Err("calibration figure of zero; cannot normalize".into());
    }
    let mut regressions = 0usize;
    for base in &baseline {
        let Some(cur) = current.iter().find(|s| s.name == base.name) else {
            println!(
                "bench-diff: suite {:?} only in baseline (skipped)",
                base.name
            );
            continue;
        };
        // Wall clocks per unit of calibration work: dimensionless ratios
        // comparable across machines of different speeds.
        let cur_norm = cur.total_wall_ns as f64 / current_cal as f64;
        let base_norm = base.total_wall_ns as f64 / baseline_cal as f64;
        let ratio = cur_norm / base_norm;
        let verdict = if ratio > 1.0 + tolerance {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench-diff: {:<8} {:>7.3}x baseline (normalized; tolerance {:.0}%) {}",
            base.name,
            ratio,
            tolerance * 100.0,
            verdict
        );
    }
    for cur in &current {
        if !baseline.iter().any(|s| s.name == cur.name) {
            println!("bench-diff: suite {:?} not in baseline (skipped)", cur.name);
        }
    }
    if regressions > 0 {
        eprintln!("bench-diff: {regressions} suite(s) regressed beyond the tolerance");
        return Ok(Outcome::Findings);
    }
    Ok(Outcome::Clean)
}

fn bench(args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "bench takes no positional arguments (got {:?})",
            flags.positional
        ));
    }
    let suites: Vec<String> = if flags.suite_given {
        flags.suite.split(',').map(str::to_string).collect()
    } else {
        vec!["table4".into(), "table5".into()]
    };
    let report = bddcf::bench::run_bench(&suites, true)?;
    let json = report.to_json();
    if let Some(path) = &flags.output {
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench report written to {path}");
    }
    if flags.json && flags.output.is_none() {
        print!("{json}");
    }
    if !flags.json {
        for suite in &report.suites {
            println!(
                "{:<8} {:>10.3} ms over {} benchmark(s)",
                suite.name,
                suite.total_wall_ns as f64 / 1e6,
                suite.entries.len()
            );
            for (label, payload) in &suite.quarantined {
                println!("  quarantined {label}: {payload}");
            }
        }
        println!(
            "calibration: {:.3} ms (fixed workload; used to normalize --diff)",
            report.calibration_ns as f64 / 1e6
        );
    }
    match &flags.diff {
        Some(path) => {
            let baseline =
                std::fs::read_to_string(path).map_err(|e| format!("--diff {path}: {e}"))?;
            diff_bench_reports(&json, &baseline, path, flags.tolerance)
        }
        None => Ok(Outcome::Clean),
    }
}
