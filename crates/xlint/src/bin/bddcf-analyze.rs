//! `bddcf-analyze`: runs every workspace source lint series — XL0xx
//! (infallible ops on governed paths, format-magic leaks, ungated
//! budgeted entry points), the XL1xx dataflow series (NodeId provenance,
//! GC-escape, budget-poll, panic-surface, concurrency-readiness,
//! undocumented unsafe) and the XL2xx concurrency series (lock-order
//! graphs, blocking-under-guard, Condvar discipline, atomics ordering,
//! spawn-capture provenance) — over the workspace and prints
//! machine-readable findings (`file:line: [ID] message`).
//!
//! Usage: `bddcf-analyze [workspace-root]` (default: the current
//! directory). Exits 0 when clean, 1 when any finding survives, 2 on
//! usage or I/O errors.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => ".".to_string(),
        [root] => root.clone(),
        _ => {
            eprintln!("usage: bddcf-analyze [workspace-root]");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&root).is_dir() {
        eprintln!("analyze: `{root}` is not a directory");
        return ExitCode::from(2);
    }
    match bddcf_xlint::analyze::analyze_workspace(Path::new(&root)) {
        Ok(findings) if findings.is_empty() => {
            println!("analyze: workspace clean (XL001–XL003, XL101–XL106, XL201–XL205)");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("analyze: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("analyze: cannot walk `{root}`: {e}");
            ExitCode::from(2)
        }
    }
}
