//! Workspace-specific source lints for the governed BDD paths
//! (`bddcf-analyze`).
//!
//! The resource governor (PR 2) splits every `BddManager` operation into
//! an infallible twin (`and`, panics when poisoned / ignores budgets) and
//! a budgeted one (`try_and`, returns `Error`). The governed call paths —
//! the reduction driver, checkpointing, cascade synthesis, and the
//! `try_*`/`*_governed` entry points of the core algorithms — must stay on
//! the budgeted side, and the two binary-format modules must keep their
//! magic constants private to their framing code. Those are cross-cutting
//! conventions no compiler lint knows about; this crate enforces them
//! statically, on the parsed source (via the vendored `syn` mini-parser).
//!
//! # Catalog
//!
//! - **XL001** — a governed function calls an infallible `BddManager` op
//!   (`.and(…)`, `.ite(…)`, …) that has a `try_*` twin.
//! - **XL002** — a snapshot/checkpoint magic or version constant is
//!   referenced outside its defining module.
//! - **XL003** — a `pub fn try_*` budgeted entry point of the manager
//!   neither gates on the poison/budget state (`poisoned`, `charge`) nor
//!   delegates to another budgeted `try_*`/`*_rec` helper.
//!
//! A finding on line `L` can be waived with `// xlint: allow(XLnnn)` on
//! line `L` or `L-1`. `#[cfg(test)]` subtrees are never linted.
//!
//! The XL1xx and XL2xx series — dataflow and concurrency analyses over
//! statement-structured bodies — live in [`analyze`], which also runs
//! XL001–XL003 on every parsed file; see that module and the catalog
//! constants below.

#![forbid(unsafe_code)]

pub mod analyze;
pub(crate) mod cfg;
pub(crate) mod dataflow;
pub(crate) mod guards;
pub(crate) mod passes;

use std::collections::HashMap;
use std::fmt;

use syn::{File, Item, ItemFn, TokenStream};

/// XL000: a workspace source file failed to parse (a lint-harness defect,
/// surfaced loudly rather than silently skipping the file).
pub const XL000_PARSE: &str = "XL000";
/// XL001: infallible `BddManager` op on a governed path.
pub const XL001_INFALLIBLE_OP: &str = "XL001";
/// XL002: format magic referenced outside its defining module.
pub const XL002_MAGIC_LEAK: &str = "XL002";
/// XL003: a budgeted entry point without a poison/budget gate.
pub const XL003_UNGATED_ENTRY: &str = "XL003";
/// XL101: a `NodeId` from one manager flows into a different manager.
pub const XL101_PROVENANCE: &str = "XL101";
/// XL102: a stored `NodeId` is live across a `gc()` without being rooted.
pub const XL102_GC_ESCAPE: &str = "XL102";
/// XL103: a governed loop has an iteration path that never polls the
/// budget/cancel state.
pub const XL103_BUDGET_POLL: &str = "XL103";
/// XL104: raw indexing/slicing or `*_unchecked` call on a governed path.
pub const XL104_PANIC_SURFACE: &str = "XL104";
/// XL105: interior mutability / non-`Send` state in a module the ROADMAP
/// names for sharding.
pub const XL105_CONCURRENCY: &str = "XL105";
/// XL106: an `unsafe` block/fn/impl without a `// SAFETY:` comment.
pub const XL106_UNDOC_UNSAFE: &str = "XL106";
/// XL201: a cycle (including a re-entrant self-loop) in the
/// whole-program lock-acquisition-order graph.
pub const XL201_LOCK_ORDER: &str = "XL201";
/// XL202: a blocking operation (I/O, `join`, channel `recv`, `sleep`, a
/// governed `reduce_*`/`synthesize_*` call) runs while a lock guard is
/// live; `Condvar::wait` is the one legal block under a guard.
pub const XL202_BLOCKING_UNDER_GUARD: &str = "XL202";
/// XL203: `Condvar` discipline — every `wait` must sit in a predicate
/// loop re-checked on the back-edge, and each condvar must pair with
/// exactly one mutex.
pub const XL203_CONDVAR: &str = "XL203";
/// XL204: a `Relaxed` atomic store whose value another function loads
/// on a cross-thread path, without a Release/Acquire pair (waive with
/// `// xlint: relaxed-ok` when the value carries no data dependency).
pub const XL204_ATOMICS: &str = "XL204";
/// XL205: a thread-spawn closure captures a `NodeId` or a manager
/// reference without going through a rooted snapshot (`// xlint:
/// rooted`).
pub const XL205_SPAWN_CAPTURE: &str = "XL205";

/// Files whose *every* function is a governed path.
pub(crate) const GOVERNED_FILES: &[&str] = &[
    "crates/core/src/driver.rs",
    "crates/core/src/checkpoint.rs",
    "crates/cascade/src/synth.rs",
];

/// Files where only the `try_*` / `*_governed` functions are governed
/// (they coexist with intentionally-infallible convenience wrappers).
pub(crate) const GOVERNED_FN_FILES: &[&str] = &[
    "crates/core/src/cf.rs",
    "crates/core/src/alg31.rs",
    "crates/core/src/alg33.rs",
    "crates/core/src/support.rs",
];

/// `BddManager` methods with a budgeted `try_*` twin; calling the bare
/// name on a governed path bypasses budgets and the poison gate.
pub(crate) const INFALLIBLE_OPS: &[&str] = &[
    "mk",
    "literal",
    "cube",
    "from_minterms",
    "ite",
    "not",
    "and",
    "or",
    "xor",
    "iff",
    "implies",
    "apply",
    "and_many",
    "or_many",
    "restrict",
    "restrict_cube",
    "compose",
    "exists",
    "exists_cube",
    "forall",
    "and_exists",
    "restrict_care",
];

/// Binary-format magic/version constants and the single file allowed to
/// reference each (the module that owns the framing).
const MAGIC_CONSTANTS: &[(&str, &str)] = &[
    ("SNAPSHOT_MAGIC", "crates/bdd/src/snapshot.rs"),
    ("SNAPSHOT_VERSION", "crates/bdd/src/snapshot.rs"),
    ("CHECKPOINT_MAGIC", "crates/core/src/checkpoint.rs"),
    ("CHECKPOINT_VERSION", "crates/core/src/checkpoint.rs"),
    ("CHECKPOINT_EXT", "crates/core/src/checkpoint.rs"),
];

/// The file holding the budgeted `BddManager` entry points XL003 audits.
const MANAGER_FILE: &str = "crates/bdd/src/manager.rs";

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Catalog id (`XL001`, …).
    pub id: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.id, self.message
        )
    }
}

/// Lines carrying `// xlint: allow(XLnnn, …)` waivers, by line number.
pub(crate) fn allow_map(source: &str) -> HashMap<usize, Vec<String>> {
    let mut map = HashMap::new();
    for (i, text) in source.lines().enumerate() {
        let Some(pos) = text.find("xlint: allow(") else {
            continue;
        };
        let rest = &text[pos + "xlint: allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let ids: Vec<String> = rest[..end]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        map.insert(i + 1, ids);
    }
    map
}

pub(crate) fn is_waived(allow: &HashMap<usize, Vec<String>>, line: usize, id: &str) -> bool {
    let hit = |l: usize| allow.get(&l).is_some_and(|ids| ids.iter().any(|i| i == id));
    hit(line) || (line > 1 && hit(line - 1))
}

pub(crate) fn is_test_only(attrs: &[syn::Attribute]) -> bool {
    attrs
        .iter()
        .any(|a| a.path() == "cfg" && a.text.contains("test"))
}

/// Walks every non-`#[cfg(test)]` function of `items`, depth first.
pub(crate) fn for_each_fn<'a>(items: &'a [Item], f: &mut impl FnMut(&'a ItemFn)) {
    for item in items {
        match item {
            Item::Fn(func) if !is_test_only(&func.attrs) => f(func),
            Item::Impl(imp) if !is_test_only(&imp.attrs) => {
                for func in &imp.fns {
                    if !is_test_only(&func.attrs) {
                        f(func);
                    }
                }
            }
            Item::Mod(m) if !is_test_only(&m.attrs) => {
                if let Some(content) = &m.content {
                    for_each_fn(content, f);
                }
            }
            _ => {}
        }
    }
}

pub(crate) fn is_governed_fn_name(name: &str) -> bool {
    name.starts_with("try_") || name.ends_with("_governed") || name.contains("_governed_")
}

/// XL001 over one file's governed functions.
fn lint_infallible_ops(
    rel: &str,
    file: &File,
    allow: &HashMap<usize, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let whole_file = GOVERNED_FILES.contains(&rel);
    let by_name = GOVERNED_FN_FILES.contains(&rel);
    if !whole_file && !by_name {
        return;
    }
    for_each_fn(&file.items, &mut |func| {
        let name = &func.sig.ident.name;
        if by_name && !is_governed_fn_name(name) {
            return;
        }
        let Some(body) = &func.block else { return };
        for call in body.method_calls() {
            if !INFALLIBLE_OPS.contains(&call.text.as_str()) {
                continue;
            }
            if is_waived(allow, call.line, XL001_INFALLIBLE_OP) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_string(),
                line: call.line,
                id: XL001_INFALLIBLE_OP,
                message: format!(
                    "governed path `{name}` calls infallible `.{op}(…)`; use \
                     `try_{op}` and surface the budget error",
                    op = call.text
                ),
            });
        }
    });
}

/// XL002 over one file's raw token stream (catches `use` re-exports too).
fn lint_magic_leaks(
    rel: &str,
    tokens: &TokenStream,
    allow: &HashMap<usize, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for token in tokens.idents() {
        let Some(&(name, home)) = MAGIC_CONSTANTS.iter().find(|(name, _)| *name == token.text)
        else {
            continue;
        };
        if rel == home || is_waived(allow, token.line, XL002_MAGIC_LEAK) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: token.line,
            id: XL002_MAGIC_LEAK,
            message: format!(
                "format constant `{name}` referenced outside its defining \
                 module `{home}`; route through that module's typed API"
            ),
        });
    }
}

/// XL003 over the manager's budgeted entry points.
///
/// A function is *gated* when its body touches the poison/budget state
/// (`poisoned`, `charge`) directly, references another gated function of
/// the same file (computed to a fixpoint, so `try_from_minterms →
/// build_sorted_minterms → charge` counts), or calls some `try_*` name.
/// Every `pub fn try_*` returning the budget `Error` must be gated;
/// validation-only entries returning other error types are exempt.
fn lint_ungated_entries(
    rel: &str,
    file: &File,
    allow: &HashMap<usize, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    if rel != MANAGER_FILE {
        return;
    }
    let mut fns: Vec<&ItemFn> = Vec::new();
    for_each_fn(&file.items, &mut |func| fns.push(func));

    let mut gated: std::collections::HashSet<&str> = fns
        .iter()
        .filter(|f| {
            f.block.as_ref().is_some_and(|b| {
                b.idents()
                    .any(|t| t.text == "poisoned" || t.text == "charge")
            })
        })
        .map(|f| f.sig.ident.name.as_str())
        .collect();
    loop {
        let before = gated.len();
        for func in &fns {
            let name = func.sig.ident.name.as_str();
            if gated.contains(name) {
                continue;
            }
            let delegates = func.block.as_ref().is_some_and(|b| {
                b.idents()
                    .any(|t| t.text != name && gated.contains(t.text.as_str()))
            });
            if delegates {
                gated.insert(name);
            }
        }
        if gated.len() == before {
            break;
        }
    }

    for func in &fns {
        let name = &func.sig.ident.name;
        if !func.vis.is_pub()
            || !name.starts_with("try_")
            || !func.sig.tokens.contains_ident("Error")
            || func.block.is_none()
        {
            continue;
        }
        let conventionally_gated = func.block.as_ref().is_some_and(|b| {
            b.idents()
                .any(|t| t.text.starts_with("try_") && &t.text != name)
        });
        if gated.contains(name.as_str())
            || conventionally_gated
            || is_waived(allow, func.sig.ident.line, XL003_UNGATED_ENTRY)
        {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: func.sig.ident.line,
            id: XL003_UNGATED_ENTRY,
            message: format!(
                "budgeted entry point `{name}` neither checks `poisoned`/\
                 `charge` nor delegates to a budgeted helper"
            ),
        });
    }
}

/// XL001–XL003 over one parsed file (`tokens` is its raw token stream);
/// [`analyze::analyze_sources`] runs it on every file it parses.
pub(crate) fn lint_parsed(
    rel: &str,
    file: &File,
    tokens: &TokenStream,
    allow: &HashMap<usize, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    lint_magic_leaks(rel, tokens, allow, findings);
    lint_infallible_ops(rel, file, allow, findings);
    lint_ungated_entries(rel, file, allow, findings);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.id).collect()
    }

    #[test]
    fn xl001_fires_on_an_infallible_op_in_a_governed_file() {
        let src = "fn step(mgr: &mut BddManager, a: NodeId, b: NodeId) -> NodeId {\n\
                   \x20   mgr.and(a, b)\n}\n";
        let findings = analyze::analyze_source("crates/core/src/driver.rs", src);
        assert_eq!(ids(&findings), [XL001_INFALLIBLE_OP]);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("try_and"));
    }

    #[test]
    fn xl001_respects_fn_granularity_in_mixed_files() {
        let src = "impl Cf {\n\
                   \x20   pub fn quick(&mut self) { self.mgr.or(a, b); }\n\
                   \x20   pub fn try_reduce(&mut self) { self.mgr.or(a, b); }\n\
                   \x20   pub fn reduce_alg33_governed(&mut self) { self.mgr.ite(f, g, h); }\n\
                   }\n";
        let findings = analyze::analyze_source("crates/core/src/cf.rs", src);
        assert_eq!(ids(&findings), [XL001_INFALLIBLE_OP, XL001_INFALLIBLE_OP]);
        assert_eq!(findings[0].line, 3);
        assert_eq!(findings[1].line, 4);
    }

    #[test]
    fn xl001_skips_test_modules_and_ungoverned_files() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(mgr: &mut M) { mgr.and(a, b); }\n}\n";
        assert!(analyze::analyze_source("crates/core/src/driver.rs", src).is_empty());
        let src = "fn free(mgr: &mut M) { mgr.and(a, b); }\n";
        assert!(analyze::analyze_source("crates/decomp/src/lib.rs", src).is_empty());
    }

    #[test]
    fn xl001_allow_comment_waives_one_line() {
        let src = "fn step(mgr: &mut M) {\n\
                   \x20   // xlint: allow(XL001)\n\
                   \x20   mgr.and(a, b);\n\
                   \x20   mgr.or(a, b);\n}\n";
        let findings = analyze::analyze_source("crates/cascade/src/synth.rs", src);
        assert_eq!(ids(&findings), [XL001_INFALLIBLE_OP]);
        assert_eq!(findings[0].line, 4, "only the unwaived call remains");
    }

    #[test]
    fn xl002_fires_outside_the_defining_module_only() {
        let src = "use crate::snapshot::SNAPSHOT_MAGIC;\n";
        let findings = analyze::analyze_source("crates/bdd/src/manager.rs", src);
        assert_eq!(ids(&findings), [XL002_MAGIC_LEAK]);
        assert_eq!(findings[0].line, 1);
        assert!(analyze::analyze_source("crates/bdd/src/snapshot.rs", src).is_empty());
        // Mentions in comments or strings do not count.
        let src = "// SNAPSHOT_MAGIC\nfn f() { let s = \"SNAPSHOT_MAGIC\"; }\n";
        assert!(analyze::analyze_source("crates/io/src/verilog.rs", src).is_empty());
    }

    #[test]
    fn xl003_fires_on_an_ungated_budgeted_entry() {
        let src = "impl BddManager {\n\
                   \x20   pub fn try_shiny(&mut self, f: NodeId) -> Result<NodeId, Error> {\n\
                   \x20       Ok(f)\n\
                   \x20   }\n\
                   }\n";
        let findings = analyze::analyze_source(MANAGER_FILE, src);
        assert_eq!(ids(&findings), [XL003_UNGATED_ENTRY]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn xl003_accepts_each_gate_form_and_other_error_types() {
        let gated = [
            "if self.poisoned { return Err(Error::Poisoned); } Ok(f)",
            "self.charge()?; Ok(f)",
            "self.try_mk(v, f, f)",
        ];
        for body in gated {
            let src = format!(
                "impl BddManager {{\n    pub fn try_x(&mut self, f: NodeId) \
                 -> Result<NodeId, Error> {{ {body} }}\n}}\n"
            );
            assert!(
                analyze::analyze_source(MANAGER_FILE, &src).is_empty(),
                "{body}"
            );
        }
        // Transitive gating: the entry delegates to a private helper that
        // charges (the `try_from_minterms` shape).
        let src = "impl BddManager {\n\
                   \x20   pub fn try_x(&mut self, f: NodeId) -> Result<NodeId, Error> {\n\
                   \x20       self.walk(f)\n\
                   \x20   }\n\
                   \x20   fn walk(&mut self, f: NodeId) -> Result<NodeId, Error> {\n\
                   \x20       self.charge()?;\n\
                   \x20       Ok(f)\n\
                   \x20   }\n\
                   }\n";
        assert!(
            analyze::analyze_source(MANAGER_FILE, src).is_empty(),
            "transitive gate"
        );
        // Validation-only entries returning another error type are exempt.
        let src = "impl BddManager {\n    pub fn try_set_order(&mut self) \
                   -> Result<(), OrderError> { Ok(()) }\n}\n";
        assert!(analyze::analyze_source(MANAGER_FILE, src).is_empty());
        // Private helpers are exempt (the pub surface is the contract).
        let src = "impl BddManager {\n    fn try_quiet(&mut self) \
                   -> Result<NodeId, Error> { Ok(FALSE) }\n}\n";
        assert!(analyze::analyze_source(MANAGER_FILE, src).is_empty());
    }

    #[test]
    fn an_unparseable_file_is_one_xl000() {
        // Unlexable, then lexable but unbalanced: each is one finding.
        for src in ["fn f() { \"open\n", "fn f() {\n    g(;\n"] {
            let findings = analyze::analyze_source("crates/core/src/driver.rs", src);
            assert_eq!(ids(&findings), [XL000_PARSE], "{src:?}");
        }
    }
}
