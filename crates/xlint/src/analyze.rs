//! `bddcf-analyze` — every workspace lint series in one pass.
//!
//! Each file is parsed once. The XL0xx lints (XL001–XL003, see the crate
//! root) check its items and flat tokens; the XL1xx passes analyze
//! statement-structured bodies (via the vendored `syn` body parser and CFG
//! builder) with workspace-wide function summaries:
//!
//! - **XL101** NodeId provenance — node ids must stay with the manager
//!   that created them (across lets, reassignments, fields, and calls
//!   with known manager/node parameter shapes).
//! - **XL102** GC-escape — a node id stored into a field or collection
//!   that is live across a later `gc()` must be rooted (or carry an
//!   `// xlint: rooted` waiver).
//! - **XL103** budget-poll — every working loop on a governed path must
//!   poll `Budget`/`CancelToken` on every iteration path.
//! - **XL104** panic-surface — no raw indexing/slicing or `*_unchecked`
//!   calls on governed paths.
//! - **XL105** concurrency-readiness — no interior mutability in modules
//!   the ROADMAP schedules for sharding.
//! - **XL106** undocumented `unsafe` — every `unsafe` needs a
//!   `// SAFETY:` comment.
//!
//! The XL2xx concurrency series builds on the same body IR plus
//! interprocedural lock/blocking summaries ([`crate::dataflow::ConcSummaries`]):
//!
//! - **XL201** lock-order inversion — a cycle in the whole-program
//!   lock-acquisition graph; the finding carries every witness path.
//! - **XL202** blocking-under-guard — I/O, `join`, channel receives,
//!   `sleep`, or governed synthesis while a guard is live
//!   (`Condvar::wait` is the one legal block).
//! - **XL203** Condvar discipline — waits must sit in predicate loops
//!   re-checked on the back-edge, and each condvar pairs with exactly
//!   one mutex.
//! - **XL204** atomics ordering — a `Relaxed` store observed cross-thread
//!   needs a Release/Acquire pair or an `// xlint: relaxed-ok` waiver.
//! - **XL205** spawn-capture provenance — spawn closures must not
//!   capture `NodeId`s or manager references without an
//!   `// xlint: rooted` marker.
//!
//! Waivers use the same `// xlint: allow(XLnnn)` comment syntax as the
//! XL0xx series (same line or the line above).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::dataflow::{ConcSummaries, Summaries};
use crate::{allow_map, lint_parsed, passes, Finding, XL000_PARSE};

/// Analyzes a set of `(workspace-relative path, source)` files as one
/// unit: summaries are built across all of them, then XL001–XL003 and
/// every XL1xx/XL2xx pass run on each. An unparseable file surfaces as one
/// [`XL000_PARSE`] finding.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for (rel, source) in files {
        match syn::parse_file(source) {
            Ok(file) => parsed.push((rel.clone(), file)),
            Err(e) => findings.push(Finding {
                file: rel.clone(),
                line: e.line,
                id: XL000_PARSE,
                message: format!("cannot parse: {}", e.message),
            }),
        }
    }
    let summaries = Summaries::build(&parsed);
    let conc = ConcSummaries::build(&parsed);
    let allows: HashMap<String, HashMap<usize, Vec<String>>> = files
        .iter()
        .map(|(rel, source)| (rel.clone(), allow_map(source)))
        .collect();
    let no_allow = HashMap::new();
    for (rel, source) in files {
        let Some((_, file)) = parsed.iter().find(|(r, _)| r == rel) else {
            continue;
        };
        let allow = allows.get(rel).unwrap_or(&no_allow);
        passes::provenance::run(rel, file, allow, &summaries, &mut findings);
        passes::gc_escape::run(rel, file, source, allow, &summaries, &mut findings);
        passes::budget_poll::run(rel, file, allow, &summaries, &mut findings);
        passes::panic_surface::run(rel, file, allow, &mut findings);
        passes::blocking::run(rel, file, allow, &conc, &mut findings);
        passes::spawn_capture::run(rel, file, source, allow, &summaries, &mut findings);
        if let Ok(tokens) = syn::tokenize(source) {
            lint_parsed(rel, file, &tokens, allow, &mut findings);
            passes::concurrency::run(rel, &tokens, allow, &mut findings);
            passes::unsafe_doc::run(rel, &tokens, source, allow, &mut findings);
        }
    }
    passes::lock_order::run(&parsed, &allows, &conc, &mut findings);
    passes::condvar::run(&parsed, &allows, &conc, &mut findings);
    passes::atomics::run(files, &parsed, &allows, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
    findings
}

/// Analyzes one file in isolation (fixture helper; summaries come from
/// that file alone).
pub fn analyze_source(rel: &str, source: &str) -> Vec<Finding> {
    analyze_sources(&[(rel.to_string(), source.to_string())])
}

/// Runs every series over each `.rs` file under `<root>/src` and
/// `<root>/crates/*/src` (the lint crate itself excluded — its fixtures
/// would trip the rules).
///
/// # Errors
///
/// Propagates filesystem errors from the directory walk.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs_files(&src, &mut paths)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xlint"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut paths)?;
            }
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(&path)?));
    }
    Ok(analyze_sources(&files))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/xlint sits two levels below the root");
        let findings = analyze_workspace(root).expect("workspace readable");
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(findings.is_empty(), "{}", rendered.join("\n"));
    }
}
