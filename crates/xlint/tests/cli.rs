//! End-to-end contract of the `bddcf-analyze` binary: the exit codes
//! (0 clean / 1 findings / 2 usage or I/O error) cover the XL0xx series
//! too, and the shared `// xlint: allow(XLnnn)` waiver syntax applies to
//! the XL2xx concurrency series exactly as it does to XL1xx.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Builds a throwaway workspace holding `source` at the workspace-relative
/// path `rel` and returns its root.
fn scratch_workspace(tag: &str, rel: &str, source: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bddcf-analyze-cli-{tag}-{}", std::process::id()));
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("rel names a file")).expect("scratch dir");
    fs::write(&path, source).expect("scratch source");
    root
}

fn run_analyze(root: &PathBuf) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bddcf-analyze"))
        .arg(root)
        .output()
        .expect("bddcf-analyze runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const APP: &str = "crates/app/src/lib.rs";

const CLEAN: &str = "\
fn tally(xs: &[u64]) -> u64 {
    xs.iter().sum()
}
";

// A bare-`if` condvar wait: the seeded XL203 defect.
const BUGGY: &str = "\
fn wait_ready(state: &Mutex<bool>, cv: &Condvar) {
    let mut ready = state.lock().unwrap();
    if !*ready {
        ready = cv.wait(ready).unwrap();
    }
    drop(ready);
}
";

const WAIVED: &str = "\
fn wait_ready(state: &Mutex<bool>, cv: &Condvar) {
    let mut ready = state.lock().unwrap();
    if !*ready {
        // xlint: allow(XL203) — single-shot latch, wakeup audited.
        ready = cv.wait(ready).unwrap();
    }
    drop(ready);
}
";

#[test]
fn clean_workspace_exits_zero_and_names_every_series() {
    let root = scratch_workspace("clean", APP, CLEAN);
    let (code, stdout, _) = run_analyze(&root);
    fs::remove_dir_all(&root).ok();
    assert_eq!(code, Some(0), "clean tree must exit 0; stdout: {stdout}");
    assert!(
        stdout.contains("XL001–XL003, XL101–XL106, XL201–XL205"),
        "the clean banner covers all three series: {stdout}"
    );
}

#[test]
fn xl001_finding_on_a_governed_path_exits_one() {
    let source = "\
fn step(mgr: &mut BddManager, a: NodeId, b: NodeId) -> NodeId {
    mgr.and(a, b)
}
";
    let root = scratch_workspace("xl001", "crates/core/src/driver.rs", source);
    let (code, stdout, stderr) = run_analyze(&root);
    fs::remove_dir_all(&root).ok();
    assert_eq!(code, Some(1), "findings must exit 1; stderr: {stderr}");
    assert!(
        stdout.contains("crates/core/src/driver.rs:2: [XL001]"),
        "the infallible op is reported: {stdout}"
    );
}

#[test]
fn xl2xx_finding_exits_one_with_machine_readable_output() {
    let root = scratch_workspace("buggy", APP, BUGGY);
    let (code, stdout, stderr) = run_analyze(&root);
    fs::remove_dir_all(&root).ok();
    assert_eq!(code, Some(1), "findings must exit 1; stderr: {stderr}");
    assert!(
        stdout.contains("crates/app/src/lib.rs:4: [XL203]"),
        "findings print as file:line: [ID] message: {stdout}"
    );
}

#[test]
fn allow_comment_waives_an_xl2xx_finding() {
    let root = scratch_workspace("waived", APP, WAIVED);
    let (code, stdout, _) = run_analyze(&root);
    fs::remove_dir_all(&root).ok();
    assert_eq!(
        code,
        Some(0),
        "an `xlint: allow(XL203)` comment silences the finding: {stdout}"
    );
}

#[test]
fn missing_root_exits_two() {
    let root = PathBuf::from("/nonexistent/bddcf-analyze-cli");
    let (code, _, stderr) = run_analyze(&root);
    assert_eq!(code, Some(2), "I/O errors must exit 2; stderr: {stderr}");
}
