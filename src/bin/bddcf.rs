//! `bddcf` — command-line front end. Run `bddcf help` for usage.
//!
//! Each subcommand's synopsis in [`COMMANDS`] is what `bddcf help` prints
//! and is also its flag list: `[--flag VALUE]` takes a value, `[--flag]` is
//! a switch, and any other flag is a usage error (exit 2). A subcommand
//! parses every value before it starts work, and a flag left out takes its
//! default from the options type it sets.
//!
//! `check` and `lint` run each benchmark inside a panic quarantine: a
//! panicking benchmark poisons only its own run, the batch continues, and
//! the quarantined entries are listed (with the panic payload) at the end.
//! `chaos` quarantines each phase subject the same way and reports a
//! panic as a violation.
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
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
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

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
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

/// A subcommand's name, synopsis, and entry point. The synopsis is both
/// what `bddcf help` prints (wrapped at its line breaks) and the flags
/// [`Args::parse`] accepts.
type Command = (
    &'static str,
    &'static str,
    fn(&Args) -> Result<Outcome, CliError>,
);

const COMMANDS: &[Command] = &[
    (
        "stats",
        "<file.pla> [--sift N]
[--node-limit N] [--step-limit N] [--time-budget SECS]",
        stats,
    ),
    (
        "reduce",
        "<file.pla> [--method alg31|alg33|fixpoint] [--sift N] [-o out.pla]
[--max-iter N] [--checkpoint-dir D] [--require-complete]
[--node-limit N] [--step-limit N] [--time-budget SECS]",
        reduce,
    ),
    (
        "cascade",
        "<file.pla> [--max-in K] [--max-out L] [--sift N]
[--verilog out.v] [--save out.cas] [--require-complete]
[--node-limit N] [--step-limit N] [--time-budget SECS]",
        cascade,
    ),
    ("sim", "<file.cas> <input-bits>", sim),
    (
        "check",
        "[label-substring...] [--suite small|table4] [--samples N]
[--max-iter N] [--panic-probe] [--finding-probe]",
        check,
    ),
    (
        "lint",
        "[label-substring...] [--suite small|table4] [--max-iter N]
[--panic-probe] [--finding-probe]",
        lint,
    ),
    (
        "resume",
        "<file.bddcfck> [--max-iter N] [--max-in K] [--max-out L]
[--save out.cas] [--verilog out.v]",
        resume,
    ),
    (
        "serve",
        "[--addr A] [--workers N] [--queue-cap N]
[--max-inflight-nodes N] [--spool D] [--cache-cap N]",
        serve,
    ),
    (
        "chaos",
        "[label-substring...] [--suite small|table4] [--seed N]
[--points N] [--requests N] [--dir D] [--drop-dir-sync]",
        chaos,
    ),
];

fn run(args: &[String]) -> Result<Outcome, CliError> {
    let Some(command) = args.first() else {
        return Err("missing subcommand (stats | reduce | cascade | help)".into());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return Ok(Outcome::Clean);
    }
    let Some((name, synopsis, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown subcommand {command:?}").into());
    };
    run(&Args::parse(name, synopsis, &args[1..])?)
}

/// The text of `bddcf help`: every subcommand's synopsis, then [`HELP`].
fn usage() -> String {
    let mut text =
        String::from("bddcf — BDD_for_CF width reduction and LUT cascade synthesis\n\nUSAGE:\n");
    for (name, synopsis, _) in COMMANDS {
        let head = format!("  bddcf {name} ");
        let indent = format!("\n{:1$}", "", head.len());
        text += &format!("{head}{}\n", synopsis.replace('\n', &indent));
    }
    text + HELP
}

const HELP: &str = "
RESOURCE GOVERNOR (stats | reduce | cascade):
  --node-limit N       cap the BDD arena at N nodes
  --step-limit N       cap charged operation steps at N
  --time-budget SECS   wall-clock allowance (fractional seconds ok)
  --require-complete   (reduce | cascade) treat any budget downgrade as a
                       failure: exit 3 instead of printing a degraded result
  Reductions degrade gracefully under a budget (downgrades reported on
  stderr, result stays valid); hard exhaustion exits 3, no panic.

SERVING (serve):
  serve binds a TCP daemon speaking u32-length-prefixed JSON frames and
  prints `listening on ADDR`; shut it down over the protocol with a
  `shutdown` request (`drain` finishes the queue, `checkpoint` parks
  in-flight jobs for a byte-identical resume on restart).

FAULT HARNESS (chaos):
  Three seeded phases over the selected benchmarks (default: --suite
  small), exit 1 on any violation:
  budget   --points node quotas, step quotas and cancellations per
           benchmark; every survivor must pass the invariant layers
  storage  power loss at every storage event of each checkpointed
           reduction (plus a built-in PLA) and of a spooled serve
           session, plus seeded ENOSPC/EIO/short writes; every recovery
           must reproduce the uninterrupted run's artifacts
  process  --requests seeded requests against `bddcf serve` as a child
           on the spool --dir, SIGKILLed and restarted mid-batch; no
           accepted request may be lost
  --drop-dir-sync makes every directory fsync a silent lie — the negative
  control proving the storage phase checks rename durability.

CRASH SAFETY:
  reduce --method fixpoint --checkpoint-dir D
      write an atomic checkpoint into D at every Algorithm 3.3 level
      boundary (resume later with `bddcf resume D/ckpt-NNNNNN.bddcfck`)
  check | lint --panic-probe
      append a deliberately panicking benchmark to prove quarantine
  check | lint --finding-probe
      append a benchmark that violates Definition 2.4 to prove the
      findings exit path (exit 1)

EXIT CODES:
  0  clean                1  findings reported
  2  usage or internal    3  budget/deadline exhausted before completion
";

/// Sifting passes before any reduction, unless `--sift` says otherwise.
const SIFT_PASSES: usize = 1;
/// Fixpoint iterations of `reduce` and `resume`, unless `--max-iter` says
/// otherwise.
const MAX_ITER: usize = 4;

/// A subcommand's arguments, checked against its synopsis: the positional
/// arguments, and each flag given with its value (`None` for a switch).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `args` into positionals and flags, rejecting a flag that
    /// `synopsis` does not list and a value flag with no value after it.
    fn parse(command: &str, synopsis: &str, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                parsed.positional.push(arg.clone());
                continue;
            }
            // `[--flag VALUE]` opens with the flag; `[--flag]` closes on it.
            let takes_value = synopsis
                .split_whitespace()
                .find_map(|token| {
                    let listed = token.strip_prefix('[')?;
                    let flag = listed.strip_suffix(']').unwrap_or(listed);
                    (flag == arg).then_some(flag.len() == listed.len())
                })
                .ok_or_else(|| format!("{command} does not take {arg}"))?;
            let value = takes_value
                .then(|| {
                    args.next()
                        .cloned()
                        .ok_or_else(|| format!("{arg} needs a value"))
                })
                .transpose()?;
            parsed.flags.push((arg.clone(), value));
        }
        Ok(parsed)
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(given, _)| given == flag)
    }

    /// The value of `flag`; the last one when it was given more than once.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(given, _)| given == flag)?
            .1
            .as_deref()
    }

    /// The value of `flag` parsed as a `T`.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|value| value.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`, or `default` when it is absent.
    fn or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(flag)?.unwrap_or(default))
    }
}

/// The resource budget `--node-limit`, `--step-limit` and `--time-budget`
/// ask for, or `None` when none of them is given.
fn budget(args: &Args) -> Result<Option<Budget>, String> {
    let node_limit = args.get("--node-limit")?;
    let step_limit = args.get("--step-limit")?;
    let time_budget: Option<f64> = args.get("--time-budget")?;
    if time_budget.is_some_and(|secs| !secs.is_finite() || secs <= 0.0) {
        return Err("--time-budget needs a positive number of seconds".into());
    }
    if node_limit.is_none() && step_limit.is_none() && time_budget.is_none() {
        return Ok(None);
    }
    let mut budget = Budget::default();
    if let Some(n) = node_limit {
        budget = budget.with_node_limit(n);
    }
    if let Some(s) = step_limit {
        budget = budget.with_step_limit(s);
    }
    if let Some(secs) = time_budget {
        budget = budget.with_time_budget(Duration::from_secs_f64(secs));
    }
    Ok(Some(budget))
}

/// The cell constraints `--max-in` and `--max-out` ask for.
fn cascade_options(args: &Args) -> Result<CascadeOptions, String> {
    let defaults = CascadeOptions::default();
    Ok(CascadeOptions {
        max_cell_inputs: args.or("--max-in", defaults.max_cell_inputs)?,
        max_cell_outputs: args.or("--max-out", defaults.max_cell_outputs)?,
        ..defaults
    })
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

fn stats(args: &Args) -> Result<Outcome, CliError> {
    let sift = args.or("--sift", SIFT_PASSES)?;
    let budget = budget(args)?;
    let [path] = args.positional.as_slice() else {
        return Err("stats takes exactly one PLA file".into());
    };
    let cf = load_cf(path, sift)?;
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
    Ok(Outcome::Clean)
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

fn reduce(args: &Args) -> Result<Outcome, CliError> {
    let sift = args.or("--sift", SIFT_PASSES)?;
    let max_iter = args.or("--max-iter", MAX_ITER)?;
    let budget = budget(args)?;
    let method = args.value("--method").unwrap_or("alg33");
    let checkpoint_dir = args.value("--checkpoint-dir");
    let [path] = args.positional.as_slice() else {
        return Err("reduce takes exactly one PLA file".into());
    };
    if checkpoint_dir.is_some() && method != "fixpoint" {
        return Err("--checkpoint-dir requires --method fixpoint".into());
    }
    let mut cf = load_cf(path, sift)?;
    let before = (cf.max_width(), cf.node_count());
    let mut degradations = DegradationReport::new();
    if let Some(budget) = budget {
        cf.manager_mut().set_budget(budget);
    }
    match method {
        "alg31" => {
            if let Err(cause) = cf.try_reduce_alg31() {
                degradations.record(Phase::Alg31, None, DegradeAction::SkippedPhase, cause);
            }
        }
        "alg33" => {
            cf.reduce_alg33_governed(&Alg33Options::default(), &mut degradations);
        }
        "fixpoint" => {
            if let Some(dir) = checkpoint_dir {
                let mut ck = bddcf::core::Checkpointer::new(dir)
                    .map_err(|e| format!("--checkpoint-dir {dir}: {e}"))?;
                cf.reduce_to_fixpoint_checkpointed(
                    &Alg33Options::default(),
                    max_iter,
                    &mut degradations,
                    &mut ck,
                    false,
                )
                .map_err(|e| format!("checkpointing into {dir} failed: {e}"))?;
                if let Some(path) = ck.last_path() {
                    eprintln!("last checkpoint: {}", path.display());
                }
            } else {
                cf.reduce_to_fixpoint_governed(
                    &Alg33Options::default(),
                    max_iter,
                    &mut degradations,
                );
            }
        }
        other => return Err(format!("unknown --method {other}").into()),
    }
    let _ = cf.manager_mut().take_budget();
    report_degradations(&degradations);
    if args.has("--require-complete") && !degradations.is_clean() {
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
    if let Some(out_path) = args.value("-o") {
        let n = cf.layout().num_inputs();
        if n > 16 {
            return Err("-o only supported for functions with <= 16 inputs".into());
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
        std::fs::write(out_path, write_pla(&table, None))
            .map_err(|e| format!("{out_path}: {e}"))?;
        println!("completed function written to {out_path}");
    }
    Ok(Outcome::Clean)
}

fn cascade(args: &Args) -> Result<Outcome, CliError> {
    let sift = args.or("--sift", SIFT_PASSES)?;
    let budget = budget(args)?;
    let options = cascade_options(args)?;
    let [path] = args.positional.as_slice() else {
        return Err("cascade takes exactly one PLA file".into());
    };
    let mut cf = load_cf(path, sift)?;
    let mut degradations = DegradationReport::new();
    if let Some(budget) = budget {
        cf.manager_mut().set_budget(budget);
    }
    cf.reduce_alg33_governed(&Alg33Options::default(), &mut degradations);
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
    if args.has("--require-complete") && !degradations.is_clean() {
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
    if let Some(cas_path) = args.value("--save") {
        write_file_with(cas_path, |w| emit_cascade(&result, w))?;
        println!("cell tables written to {cas_path}");
    }
    if let Some(v_path) = args.value("--verilog") {
        let mut module = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("cascade")
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        if !bddcf::io::is_valid_module_name(&module) {
            module = format!("m_{module}");
        }
        write_file_with(v_path, |w| emit_verilog_io(&result, &module, w))?;
        println!("Verilog written to {v_path}");
    }
    Ok(Outcome::Clean)
}

fn sim(args: &Args) -> Result<Outcome, CliError> {
    let [path, bits] = args.positional.as_slice() else {
        return Err("sim takes a .cas file and an input bit string".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cascade = read_cascade(&text).map_err(|e| format!("{path}: {e}"))?;
    if bits.len() != cascade.num_inputs() {
        return Err(format!(
            "expected {} input bits, got {}",
            cascade.num_inputs(),
            bits.len()
        )
        .into());
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
    Ok(Outcome::Clean)
}

fn select_suite(args: &Args) -> Result<Vec<bddcf::funcs::BenchmarkEntry>, String> {
    let suite_name = args.value("--suite").unwrap_or("small");
    let suite = match suite_name {
        "small" => bddcf::funcs::small_benchmarks(),
        "table4" => bddcf::funcs::table4_benchmarks(),
        other => return Err(format!("unknown --suite {other} (small | table4)")),
    };
    let selected: Vec<_> = suite
        .into_iter()
        .filter(|entry| {
            args.positional.is_empty()
                || args
                    .positional
                    .iter()
                    .any(|needle| entry.label.to_lowercase().contains(&needle.to_lowercase()))
        })
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "no benchmark in the {suite_name:?} suite matches {:?}",
            args.positional
        ));
    }
    Ok(selected)
}

/// The shared loop of `check` and `lint`: runs `run` on each
/// selected benchmark, plus any requested probe, inside a panic
/// quarantine, lists the quarantined entries, and folds both into the
/// verdict. `run` prints the benchmark's lines and returns whether it was
/// clean; `failed` completes the stderr summary of a failing batch and
/// `passed` renders the closing line from the number of selected
/// benchmarks.
fn quarantined_batch(
    args: &Args,
    failed: &str,
    passed: impl FnOnce(usize) -> String,
    mut run: impl FnMut(&str, &dyn bddcf::funcs::Benchmark) -> bool,
) -> Result<Outcome, CliError> {
    let selected = select_suite(args)?;
    let panic_probe = args.has("--panic-probe");
    let mut entries: Vec<(&str, &dyn bddcf::funcs::Benchmark)> = selected
        .iter()
        .map(|entry| (entry.label, entry.benchmark.as_ref()))
        .collect();
    if panic_probe {
        entries.push(("panic probe", &bddcf::check::PanicProbe));
    }
    if args.has("--finding-probe") {
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
    if failures > 0 || quarantined.len() != usize::from(panic_probe) {
        eprintln!(
            "{failures} benchmark(s) {failed}, {} quarantined",
            quarantined.len()
        );
        return Ok(Outcome::Findings);
    }
    println!("{}", passed(selected.len()));
    Ok(Outcome::Clean)
}

fn check(args: &Args) -> Result<Outcome, CliError> {
    let defaults = bddcf::check::CheckOptions::default();
    let options = bddcf::check::CheckOptions {
        samples: args.or("--samples", defaults.samples)?,
        max_iterations: args.or("--max-iter", defaults.max_iterations)?,
    };
    quarantined_batch(
        args,
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

fn lint(args: &Args) -> Result<Outcome, CliError> {
    let defaults = bddcf::check::LintOptions::default();
    let options = bddcf::check::LintOptions {
        max_iterations: args.or("--max-iter", defaults.max_iterations)?,
    };
    quarantined_batch(
        args,
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

fn resume(args: &Args) -> Result<Outcome, CliError> {
    let max_iter = args.or("--max-iter", MAX_ITER)?;
    let options = cascade_options(args)?;
    let (save, verilog) = (args.value("--save"), args.value("--verilog"));
    let [path] = args.positional.as_slice() else {
        return Err("resume takes exactly one checkpoint file".into());
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
        .resume(&Alg33Options::default(), max_iter, &mut ck, false)
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
    if save.is_some() || verilog.is_some() {
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
        if let Some(cas_path) = save {
            write_file_with(cas_path, |w| emit_cascade(&result, w))?;
            println!("cell tables written to {cas_path}");
        }
        if let Some(v_path) = verilog {
            write_file_with(v_path, |w| emit_verilog_io(&result, "resumed", w))?;
            println!("Verilog written to {v_path}");
        }
    }
    report_degradations(&report);
    Ok(Outcome::Clean)
}

fn serve(args: &Args) -> Result<Outcome, CliError> {
    let defaults = bddcf::serve::ServerConfig::default();
    let config = bddcf::serve::ServerConfig {
        addr: args.or("--addr", defaults.addr)?,
        workers: args.or("--workers", defaults.workers)?.max(1),
        queue_capacity: args.or("--queue-cap", defaults.queue_capacity)?.max(1),
        max_inflight_nodes: args.or("--max-inflight-nodes", defaults.max_inflight_nodes)?,
        cache_capacity: args.or("--cache-cap", defaults.cache_capacity)?,
        spool_dir: args.get("--spool")?.or(defaults.spool_dir),
        ..defaults
    };
    if !args.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
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
    })?;
    Ok(Outcome::Clean)
}

fn chaos(args: &Args) -> Result<Outcome, CliError> {
    let defaults = bddcf::serve::ChaosConfig::default();
    let config = bddcf::serve::ChaosConfig {
        benchmarks: select_suite(args)?
            .iter()
            .map(|entry| entry.label.to_owned())
            .collect(),
        seed: args.or("--seed", defaults.seed)?,
        points: args.or("--points", defaults.points)?,
        requests: args.or("--requests", defaults.requests)?,
        dir: args.or("--dir", defaults.dir)?,
        drop_dir_sync: args.has("--drop-dir-sync"),
        server_bin: Some(std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?),
    };
    let report = bddcf::serve::run_chaos(&config)?;
    print!("{}", report.render());
    Ok(if report.passed() {
        Outcome::Clean
    } else {
        Outcome::Findings
    })
}
