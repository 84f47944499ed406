//! `perfbench --workload <words|arith|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Diagnostics go to standard error.

use bddcf_perfbench::{arith, serve, words, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <words|arith|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a finite number >= 0, not {}",
            cfg.seconds
        ));
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "words" => words::run(&cfg, &words::Scale::full()),
        "arith" => arith::run(&cfg, &arith::Scale::full()),
        "serve" => serve::run(&cfg, &serve::Scale::full()),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome.to_json(cfg.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
