//! Integration tests for the `bddcf` command-line tool (driven through the
//! built binary, like a user would).

use std::process::Command;

fn bddcf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bddcf"))
}

fn sample_pla() -> tempdir::TempPla {
    tempdir::TempPla::new(
        "\
.i 4
.o 2
.ilb a b c d
.ob s t
0-0- -1
0010 00
0011 00
0110 10
0111 11
1-0- 01
1010 10
1011 10
1110 -0
1111 -1
.e
",
    )
}

/// Minimal temp-file helper (no external crates).
mod tempdir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tests run in parallel and several write the same content, so every
    /// instance gets its own file: pid plus a process-wide sequence number.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub struct TempPla {
        pub path: PathBuf,
    }

    impl TempPla {
        pub fn new(content: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "bddcf-cli-test-{}-{}.pla",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, content).expect("write temp pla");
            TempPla { path }
        }
    }

    impl Drop for TempPla {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn help_prints_usage() {
    let out = bddcf().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("cascade"));
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = bddcf().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn stats_reports_all_treatments() {
    let pla = sample_pla();
    let out = bddcf().arg("stats").arg(&pla.path).output().expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ISF:"));
    assert!(text.contains("Alg 3.1:"));
    assert!(text.contains("Alg 3.3:"));
    // The engine block reports what the manager holds next to its peak.
    let engine = text
        .lines()
        .find(|line| line.starts_with("engine:"))
        .unwrap_or_else(|| panic!("no engine line in {text}"));
    let held: u64 = engine
        .split(", ")
        .nth(1)
        .and_then(|tail| tail.strip_suffix(" KiB held now"))
        .and_then(|kib| kib.parse().ok())
        .unwrap_or_else(|| panic!("no held figure in {engine:?}"));
    assert!(held > 0, "{engine}");
    // The sift's in-place swaps are counted, and so are the orphans they
    // freed.
    let reorder = text
        .lines()
        .find_map(|line| line.trim_start().strip_prefix("reorder "))
        .unwrap_or_else(|| panic!("no reorder line in {text}"));
    let counts: Vec<u64> = reorder
        .split(", ")
        .filter_map(|part| part.split(' ').next()?.parse().ok())
        .collect();
    assert_eq!(counts.len(), 3, "{reorder}");
    assert!(counts[0] > 0 && counts[2] > 0, "{reorder}");
    // So are the collections, and the nodes they reclaimed.
    let gc = text
        .lines()
        .find_map(|line| line.trim_start().strip_prefix("gc "))
        .unwrap_or_else(|| panic!("no gc line in {text}"));
    let counts: Vec<u64> = gc
        .split(", ")
        .filter_map(|part| part.split(' ').next()?.parse().ok())
        .collect();
    assert_eq!(counts.len(), 2, "{gc}");
    assert!(counts[0] > 0 && counts[1] > 0, "{gc}");
}

#[test]
fn reduce_writes_a_parseable_completion() {
    let pla = sample_pla();
    let out_path = std::env::temp_dir().join(format!("bddcf-out-{}.pla", std::process::id()));
    let out = bddcf()
        .args(["reduce"])
        .arg(&pla.path)
        .args(["--method", "fixpoint", "-o"])
        .arg(&out_path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).expect("output written");
    let parsed = bddcf::io::parse_pla(&written).expect("self-written PLA parses");
    assert_eq!(parsed.num_inputs, 4);
    assert_eq!(parsed.num_outputs, 2);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn cascade_emits_verilog() {
    let pla = sample_pla();
    let v_path = std::env::temp_dir().join(format!("bddcf-v-{}.v", std::process::id()));
    let out = bddcf()
        .arg("cascade")
        .arg(&pla.path)
        .args(["--max-in", "4", "--max-out", "4", "--verilog"])
        .arg(&v_path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cascade:"));
    let verilog = std::fs::read_to_string(&v_path).expect("verilog written");
    assert!(verilog.contains("module"));
    assert!(verilog.contains("endmodule"));
    let _ = std::fs::remove_file(&v_path);
}

#[test]
fn save_and_sim_roundtrip() {
    let pla = sample_pla();
    let cas_path = std::env::temp_dir().join(format!("bddcf-cas-{}.cas", std::process::id()));
    let out = bddcf()
        .arg("cascade")
        .arg(&pla.path)
        .args(["--max-in", "4", "--max-out", "4", "--save"])
        .arg(&cas_path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Simulate a couple of inputs through the saved tables.
    for bits in ["0000", "1010", "1111"] {
        let out = bddcf()
            .arg("sim")
            .arg(&cas_path)
            .arg(bits)
            .output()
            .expect("spawn");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.trim();
        assert_eq!(line.len(), 2, "two output bits, got {line:?}");
        assert!(line.chars().all(|c| c == '0' || c == '1'));
    }
    // Wrong arity is rejected.
    let out = bddcf()
        .arg("sim")
        .arg(&cas_path)
        .arg("01")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&cas_path);
}

#[test]
fn conflicting_pla_is_rejected() {
    let pla = tempdir::TempPla::new(".i 2\n.o 1\n0- 1\n00 0\n.e\n");
    let out = bddcf().arg("stats").arg(&pla.path).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("driven both"), "stderr: {err}");
}

#[test]
fn check_certifies_the_translation_chain_for_one_benchmark() {
    let out = bddcf().arg("check").arg("3-nary").output().expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ok"), "{text}");
    assert!(text.contains("round-trip byte-faithfully"), "{text}");
}

#[test]
fn check_rejects_unknown_selections() {
    let out = bddcf()
        .arg("check")
        .arg("no-such-benchmark")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "an empty selection is usage");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no benchmark in the"), "stderr: {err}");
}

/// Budgeted runs degrade gracefully by default (exit 0) but exit with the
/// dedicated budget code 3 when `--require-complete` rejects a degraded
/// result — distinct from findings (1) and usage errors (2), so schedulers
/// can retry with a larger budget instead of flagging a bug.
#[test]
fn budget_exhaustion_exits_3_only_under_require_complete() {
    let pla = sample_pla();
    // Graceful default: a starved fixpoint reduction still exits 0.
    let out = bddcf()
        .arg("reduce")
        .arg(&pla.path)
        .args(["--method", "fixpoint", "--step-limit", "5"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "degraded reduce must stay exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Opting into completeness turns the same degradation into exit 3.
    let out = bddcf()
        .arg("reduce")
        .arg(&pla.path)
        .args([
            "--method",
            "fixpoint",
            "--step-limit",
            "5",
            "--require-complete",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "budget exhaustion must exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget exhausted"), "stderr: {err}");

    // Same convention on the synthesis path.
    let out = bddcf()
        .arg("cascade")
        .arg(&pla.path)
        .args(["--step-limit", "5"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "degraded cascade stays exit 0");
    let out = bddcf()
        .arg("cascade")
        .arg(&pla.path)
        .args(["--step-limit", "5", "--require-complete"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "cascade budget must exit 3");
}

/// End-to-end chaos smoke through the real binary: the process phase of
/// `bddcf chaos` spawns `bddcf serve` as a child process, SIGKILLs it
/// mid-batch, restarts it on the same spool, and must certify that no
/// accepted request was lost.
#[test]
fn chaos_survives_a_sigkill_of_the_child_daemon() {
    let dir = std::env::temp_dir().join(format!("bddcf-cli-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bddcf()
        .args([
            "chaos",
            "3-5 RNS",
            "--points",
            "3",
            "--requests",
            "24",
            "--seed",
            "11",
            "--dir",
        ])
        .arg(&dir)
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("PASS"), "{text}");
    assert!(text.contains("1 kill(s)"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verification subcommands follow one exit-code convention:
/// 0 = clean, 1 = the run completed and reported findings,
/// 2 = usage or internal error.
#[test]
fn exit_codes_distinguish_findings_from_usage_errors() {
    // 0: a clean check run.
    let out = bddcf()
        .args(["check", "3-nary", "--samples", "4", "--max-iter", "1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "clean check must exit 0");

    // 1: the finding probe violates Definition 2.4, so the run completes
    // with findings.
    let out = bddcf()
        .args([
            "check",
            "no-such-benchmark-so-only-the-probe-runs",
            "--finding-probe",
            "--samples",
            "4",
            "--max-iter",
            "1",
        ])
        .output()
        .expect("spawn");
    // Selecting nothing is a usage error, so pair the probe with a real
    // benchmark instead.
    assert_eq!(out.status.code(), Some(2), "empty selection is usage");
    let out = bddcf()
        .args([
            "check",
            "3-nary",
            "--finding-probe",
            "--samples",
            "4",
            "--max-iter",
            "1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Definition 2.4 violated"), "{text}");

    // 2: usage errors across the subcommands. A subcommand takes only the
    // flags its synopsis lists, and parses every value before any work.
    let pla = sample_pla();
    let pla_path = pla.path.to_str().expect("temp path is UTF-8");
    let temp_path = |name: &str| {
        std::env::temp_dir()
            .join(format!("bddcf-cli-usage-{}-{name}", std::process::id()))
            .to_str()
            .expect("temp path is UTF-8")
            .to_string()
    };
    let (cas, completed, ckpt_dir) = (temp_path("x.cas"), temp_path("x.pla"), temp_path("ck"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let out = bddcf()
        .args([
            "cascade",
            pla_path,
            "--max-in",
            "4",
            "--max-out",
            "4",
            "--save",
            &cas,
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "cascade --save for the sim case");
    for (args, says) in [
        (vec!["check", "--no-such-flag"], "does not take"),
        (vec!["check", "--suite", "no-such-suite"], "unknown --suite"),
        (vec!["inject", "--no-such-flag"], "unknown subcommand"),
        (vec!["diskchaos", "--no-such-flag"], "unknown subcommand"),
        (vec!["frobnicate"], "unknown subcommand"),
        (vec!["bench"], "unknown subcommand"),
        (vec!["loadtest", "--no-kill"], "unknown subcommand"),
        (vec!["loadtest", "--in-process"], "unknown subcommand"),
        (vec!["chaos", "--no-such-flag"], "does not take"),
        (vec!["chaos", "--clients", "2"], "does not take"),
        (
            vec!["chaos", "3-nary", "--require-complete"],
            "does not take",
        ),
        (vec!["sim", &cas, "0000", "--workers", "9"], "does not take"),
        (
            vec!["check", "3-nary", "--node-limit", "5"],
            "does not take",
        ),
        (
            vec!["stats", pla_path, "--require-complete"],
            "does not take",
        ),
        (
            vec!["reduce", pla_path, "--output", &completed],
            "does not take",
        ),
        (vec!["lint", "3-nary"], "unknown subcommand"),
        (
            vec!["inject", "3-nary", "--require-complete"],
            "unknown subcommand",
        ),
        (
            vec![
                "reduce",
                pla_path,
                "--method",
                "fixpoint",
                "--checkpoint-dir",
                &ckpt_dir,
                "--max-iter",
                "x",
            ],
            "--max-iter: invalid digit",
        ),
    ] {
        let out = bddcf().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "usage error for {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(says), "{args:?}: stderr {err}");
    }
    assert!(
        !std::path::Path::new(&ckpt_dir).exists(),
        "a malformed --max-iter must exit before the checkpoint directory is created"
    );
    assert!(!std::path::Path::new(&completed).exists());
    let _ = std::fs::remove_file(&cas);
}

/// `reduce --method fixpoint` honours `--max-iter` with or without
/// `--checkpoint-dir`: some step limit fits one fixpoint iteration but not
/// four, so `--max-iter 1` completes where `--max-iter 4` runs out.
#[test]
fn fixpoint_reduce_honours_max_iter() {
    let pla = sample_pla();
    let exit_code = |max_iter: &str, step_limit: u64| {
        bddcf()
            .arg("reduce")
            .arg(&pla.path)
            .args(["--method", "fixpoint", "--require-complete"])
            .args([
                "--max-iter",
                max_iter,
                "--step-limit",
                &step_limit.to_string(),
            ])
            .output()
            .expect("spawn")
            .status
            .code()
    };
    let separating = (100..=600)
        .step_by(10)
        .find(|&limit| exit_code("1", limit) == Some(0) && exit_code("4", limit) == Some(3));
    assert!(
        separating.is_some(),
        "no step limit in 100..=600 lets one fixpoint iteration complete but not four"
    );
}

/// The panic probe through the binary: the batch quarantines it, lists it
/// once, and still exits 0 because the quarantine was requested.
#[test]
fn check_quarantines_the_panic_probe_and_exits_zero() {
    let out = bddcf()
        .args([
            "check",
            "--panic-probe",
            "3-nary",
            "--samples",
            "4",
            "--max-iter",
            "1",
        ])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    let quarantined: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("QUAR "))
        .collect();
    assert_eq!(quarantined.len(), 1, "{text}");
    assert!(quarantined[0].starts_with("QUAR panic probe:"), "{text}");
}

/// Crash recovery of a registry benchmark's checkpointed reduction, swept
/// at every storage-event crash prefix alongside the built-in PLA by the
/// storage phase of `bddcf chaos`.
#[test]
fn chaos_sweeps_a_registry_benchmark() {
    let dir = std::env::temp_dir().join(format!("bddcf-cli-chaos-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bddcf()
        .args([
            "chaos",
            "--points",
            "4",
            "--requests",
            "12",
            "3-nary",
            "--dir",
        ])
        .arg(&dir)
        .output()
        .expect("spawn");
    let _ = std::fs::remove_dir_all(&dir);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("reduction 2-digit 3-nary to binary:"),
        "{text}"
    );
    assert!(text.contains("PASS"), "{text}");
}
