//! Self-tests for specinfer-lint: every rule has a known-bad fixture
//! that triggers exactly that rule, a clean fixture passes all rules,
//! and the binary's exit codes match (non-zero on findings, zero clean).
//!
//! Fixtures live in `tests/fixtures/`, which the workspace scan skips —
//! they are bad *by design* and must only be seen via `--strict`.

use specinfer_xtask::{lint_files_strict, lint_workspace};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("xtask lives two levels below the workspace root")
}

/// Asserts the fixture yields `count` findings, all of rule `rule`.
fn assert_only_rule(name: &str, rule: &str, count: usize) {
    let findings = lint_files_strict(&[fixture(name)]);
    assert_eq!(
        findings.len(),
        count,
        "{name}: expected {count} findings, got {findings:#?}"
    );
    for f in &findings {
        assert_eq!(
            f.rule, rule,
            "{name}: expected only `{rule}` findings, got {f}"
        );
        assert!(f.line > 0, "{name}: findings carry a 1-based line: {f}");
    }
}

#[test]
fn missing_safety_fixture_triggers_only_safety_comment() {
    assert_only_rule("missing_safety.rs", "safety_comment", 1);
}

#[test]
fn hot_unwrap_fixture_triggers_only_no_unwrap() {
    // One finding each for `.unwrap()`, `.expect(` and `panic!`.
    assert_only_rule("hot_unwrap.rs", "no_unwrap", 3);
}

#[test]
fn wall_clock_fixture_triggers_only_determinism() {
    // One finding each for `Instant::now`, `SystemTime`, `thread_rng`.
    assert_only_rule("wall_clock.rs", "determinism", 3);
}

#[test]
fn adaptive_spec_fixture_triggers_only_determinism() {
    // A speculation controller deciding rungs off the host's clocks and
    // unseeded RNG: one finding each for `Instant::now`, `SystemTime`,
    // `thread_rng`. Shape decisions must replay bit-identically or the
    // batched-vs-serial equivalence gates flake.
    assert_only_rule("adaptive_spec_bad.rs", "determinism", 3);
}

#[test]
fn rogue_thread_fixture_triggers_only_thread_confinement() {
    // One finding each for `thread::spawn` and `thread::scope`.
    assert_only_rule("rogue_thread.rs", "thread_confinement", 2);
}

#[test]
fn batched_verify_fixture_triggers_unwrap_and_thread_confinement() {
    // The rules the batched-verification surfaces must obey: no panics
    // under the stacked forward (lexically and via the call graph —
    // the fixture's `step_batch` is a serving entry, so its `.unwrap()`
    // also trips panic_reachability), no thread creation outside the
    // worker pool.
    let findings = lint_files_strict(&[fixture("batched_verify_bad.rs")]);
    let mut rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["no_unwrap", "panic_reachability", "thread_confinement"],
        "{findings:#?}"
    );
}

#[test]
fn ragged_batch_fixture_triggers_unwrap_and_panic_reachability() {
    // The ragged-batching contract: the visibility mask is re-packed
    // from the currently-live set every iteration, never indexed by a
    // stale pre-retirement batch size. The fixture's stale-row read
    // carries an `.unwrap()` (lexical `no_unwrap`) and a slice index —
    // both reachable from the `step_batch` serving entry, folded into
    // one `panic_reachability` finding on the offending function.
    let findings = lint_files_strict(&[fixture("ragged_batch_bad.rs")]);
    let mut rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(rules, ["no_unwrap", "panic_reachability"], "{findings:#?}");
    let reach = findings
        .iter()
        .find(|f| f.rule == "panic_reachability")
        .expect("checked above");
    assert_eq!(
        reach.call_path,
        vec!["step_batch", "stale_row_weight"],
        "evidence must walk from the serving entry to the stale read"
    );
}

#[test]
fn panic_reach_fixture_triggers_only_panic_reachability() {
    // `leaf` indexes a slice and is reachable from the `daemon_loop`
    // entry; the callers themselves are clean.
    assert_only_rule("panic_reach_bad.rs", "panic_reachability", 1);
}

#[test]
fn panic_reach_fixture_reports_the_full_call_path() {
    let findings = lint_files_strict(&[fixture("panic_reach_bad.rs")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(
        findings[0].call_path,
        vec!["daemon_loop", "mid", "leaf"],
        "evidence must spell out the whole entry-to-panic chain"
    );
    assert!(
        findings[0].message.contains("daemon_loop"),
        "{}",
        findings[0].message
    );
}

#[test]
fn hot_loop_alloc_fixture_triggers_only_hot_loop_alloc() {
    // `vec!` inside `decode_one`'s loop + `Vec::new` in the helper the
    // loop calls + `Vec::new` in a pool-region closure (per task, no
    // lexical loop); the pre-loop `with_capacity` stays clean.
    assert_only_rule("hot_loop_alloc_bad.rs", "hot_loop_alloc", 3);
}

#[test]
fn float_reduction_fixture_triggers_only_float_reduction_order() {
    // Iterator `.sum()`, iterator `.fold(…)`, and a `.rev()` loop
    // feeding `+=`; the integer loop stays clean.
    assert_only_rule("float_reduction_bad.rs", "float_reduction_order", 3);
}

#[test]
fn simd_hadd_fixture_triggers_only_float_reduction_order() {
    // Two x86 `hadd` calls plus one NEON `vaddvq_f32` (fully qualified);
    // the integer helper stays clean. Horizontal-add intrinsics hide the
    // lane association order the SIMD determinism contract depends on.
    assert_only_rule("simd_hadd_bad.rs", "float_reduction_order", 3);
}

#[test]
fn bad_shim_fixture_triggers_only_shim_hygiene() {
    // Bare registry string, git dep, version table, path escape — and
    // the [package] version must not be flagged.
    assert_only_rule("bad_shim/Cargo.toml", "shim_hygiene", 4);
}

#[test]
fn clean_fixture_passes_every_rule_in_strict_mode() {
    let findings = lint_files_strict(&[fixture("clean.rs")]);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let findings = lint_workspace(&workspace_root());
    assert!(
        findings.is_empty(),
        "workspace lint must stay clean; found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The binary contract: exit 1 on each bad fixture, exit 0 on the clean
/// fixture and on the whole workspace, exit 2 on usage errors.
#[test]
fn binary_exit_codes_match_findings() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");
    for bad in [
        "missing_safety.rs",
        "hot_unwrap.rs",
        "wall_clock.rs",
        "rogue_thread.rs",
        "batched_verify_bad.rs",
        "ragged_batch_bad.rs",
        "panic_reach_bad.rs",
        "hot_loop_alloc_bad.rs",
        "float_reduction_bad.rs",
        "bad_shim/Cargo.toml",
    ] {
        let status = Command::new(bin)
            .args(["lint", "--strict"])
            .arg(fixture(bad))
            .status()
            .expect("lint binary runs");
        assert_eq!(status.code(), Some(1), "{bad}: expected exit 1");
    }

    let clean = Command::new(bin)
        .args(["lint", "--strict"])
        .arg(fixture("clean.rs"))
        .status()
        .expect("lint binary runs");
    assert_eq!(clean.code(), Some(0), "clean.rs: expected exit 0");

    let workspace = Command::new(bin)
        .args(["lint", "--root"])
        .arg(workspace_root())
        .status()
        .expect("lint binary runs");
    assert_eq!(workspace.code(), Some(0), "workspace lint: expected exit 0");

    let usage = Command::new(bin)
        .arg("frobnicate")
        .status()
        .expect("lint binary runs");
    assert_eq!(usage.code(), Some(2), "unknown command: expected exit 2");
}

/// Copies every file the lint reads (`.rs`, `Cargo.toml`, the allowlist)
/// from `from` to `to`, skipping what its own walk skips.
fn copy_lint_inputs(from: &std::path::Path, to: &std::path::Path) {
    for entry in std::fs::read_dir(from)
        .expect("source dir is readable")
        .flatten()
    {
        let (path, name) = (entry.path(), entry.file_name());
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                copy_lint_inputs(&path, &to.join(&*name));
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "lint-allow.txt" {
            std::fs::create_dir_all(to).expect("copy dir is creatable");
            std::fs::copy(&path, to.join(&*name)).expect("file copies");
        }
    }
}

/// A graph rule must not go vacuous when its entry point is renamed: in
/// a workspace copy whose iteration driver calls its `tick` something
/// else, the binary fails and names the stale root of the rule that
/// starts there — and nothing else.
#[test]
fn renamed_entry_point_is_reported_as_a_stale_root() {
    let root = workspace_root();
    let copy = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stale_root_workspace");
    std::fs::remove_dir_all(&copy).ok();
    for dir in ["crates", "shims"] {
        copy_lint_inputs(&root.join(dir), &copy.join(dir));
    }
    let driver = copy.join("crates/serving/src/driver.rs");
    let src = std::fs::read_to_string(&driver).expect("the driver was copied");
    assert!(src.contains("pub(crate) fn tick("));
    std::fs::write(
        &driver,
        src.replace("pub(crate) fn tick(", "pub(crate) fn turn("),
    )
    .expect("the copy is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_specinfer-xtask"))
        .args(["lint", "--root"])
        .arg(&copy)
        .output()
        .expect("lint binary runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{report}");
    assert!(
        report.lines().any(|l| l.contains("panic_reachability")
            && l.contains("stale root: `tick`")
            && l.contains("crates/serving/src/driver.rs")),
        "panic_reachability must name its stale root:\n{report}"
    );
    assert!(report.contains("specinfer-lint: 1 finding(s)"), "{report}");
    assert!(
        !copy.join("target").exists(),
        "a lint run must write nothing under the linted tree's target/"
    );
}

/// `--json` reports carry the rule/path/line/call-path fields the CI
/// annotation step consumes, and keep the text mode's exit codes.
#[test]
fn json_mode_reports_findings_and_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");

    let bad = Command::new(bin)
        .args(["lint", "--json", "--strict"])
        .arg(fixture("panic_reach_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(bad.status.code(), Some(1), "findings must still exit 1");
    let report = String::from_utf8(bad.stdout).expect("utf-8 report");
    for needle in [
        "\"rule\": \"panic_reachability\"",
        "\"line\": 14",
        "\"call_path\": [\"daemon_loop\", \"mid\", \"leaf\"]",
        "\"count\": 1",
    ] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }

    let clean = Command::new(bin)
        .args(["lint", "--json", "--strict"])
        .arg(fixture("clean.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(clean.status.code(), Some(0), "clean must exit 0");
    let report = String::from_utf8(clean.stdout).expect("utf-8 report");
    assert!(report.contains("\"count\": 0"), "{report}");
}

/// `--github` emits one `::error` workflow annotation per finding.
#[test]
fn github_mode_emits_workflow_annotations() {
    let out = Command::new(env!("CARGO_BIN_EXE_specinfer-xtask"))
        .args(["lint", "--github", "--strict"])
        .arg(fixture("panic_reach_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        text.lines().any(|l| l.starts_with("::error file=")
            && l.contains("title=specinfer-lint panic_reachability")),
        "{text}"
    );
}

/// One parse pass shared by the lexical and call-graph rules keeps the
/// whole-workspace lint fast with no on-disk cache. Generous 10s budget
/// (debug build, cold file cache) — the point is to catch an accidental
/// return to per-rule re-parsing, which multiplies wall time by the
/// rule count.
#[test]
fn workspace_lint_finishes_within_budget() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");
    let started = std::time::Instant::now();
    let status = Command::new(bin)
        .args(["lint", "--root"])
        .arg(workspace_root())
        .status()
        .expect("lint binary runs");
    let elapsed = started.elapsed();
    assert_eq!(status.code(), Some(0));
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "workspace lint took {elapsed:?}; the single parse pass regressed"
    );
}
