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
fn lock_cycle_fixture_triggers_only_lock_order() {
    // `ab` takes a→b, `ba` takes b→a: one canonical ABBA cycle. The
    // cycle is over may-alias lock names, so it reports at warn
    // severity — an eye on the PR, not a red build.
    assert_only_rule("lock_cycle_bad.rs", "lock_order", 1);
    let findings = lint_files_strict(&[fixture("lock_cycle_bad.rs")]);
    assert_eq!(
        findings[0].severity,
        specinfer_xtask::rules::Severity::Warn,
        "{}",
        findings[0]
    );
}

#[test]
fn race_unlocked_write_fixture_triggers_only_shared_state_race() {
    // Two pool tasks touch `stats` with empty locksets: one write/read
    // pair, no happens-before edge.
    assert_only_rule("race_unlocked_write_bad.rs", "shared_state_race", 1);
    let findings = lint_files_strict(&[fixture("race_unlocked_write_bad.rs")]);
    assert!(
        findings[0].message.contains("locks: {}"),
        "finding spells out the empty locksets: {}",
        findings[0].message
    );
}

#[test]
fn race_guard_dropped_early_fixture_triggers_only_shared_state_race() {
    // Both tasks take `m`, but one drops the guard before its write —
    // the locksets at the two writes share nothing.
    assert_only_rule("race_guard_dropped_early_bad.rs", "shared_state_race", 1);
    let findings = lint_files_strict(&[fixture("race_guard_dropped_early_bad.rs")]);
    assert!(
        findings[0].message.contains("locks: {m}"),
        "finding names the lock the other side still holds: {}",
        findings[0].message
    );
}

#[test]
fn race_channel_fixture_is_clean() {
    // The send→recv handoff is a happens-before edge: the owner's
    // mutation of `job` is ordered before the task's consumption, so
    // `shared_state_race` must stay silent.
    let findings = lint_files_strict(&[fixture("race_channel_ok.rs")]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn race_fixture_witnesses_are_checked_in_and_cited() {
    // Each bad race fixture cites a loom harness proving its
    // interleaving is executable; the harness must exist in the
    // checked-in witness file (whose content `race::tests::
    // checked_in_witnesses_match_generator` pins to the generator).
    let witness_path = workspace_root().join("shims/loom/tests/race_witness.rs");
    let witnesses = std::fs::read_to_string(witness_path).expect("witness file checked in");
    for (fixture_name, witness_fn) in [
        ("race_unlocked_write_bad.rs", "race_unlocked_write_witness"),
        (
            "race_guard_dropped_early_bad.rs",
            "race_guard_dropped_early_witness",
        ),
    ] {
        let src = std::fs::read_to_string(fixture(fixture_name)).expect("fixture readable");
        assert!(
            src.contains(witness_fn),
            "{fixture_name} must cite its loom witness {witness_fn}"
        );
        assert!(
            witnesses.contains(&format!("fn {witness_fn}()")),
            "witness file must define {witness_fn}"
        );
    }
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
fn untrusted_size_fixture_triggers_only_untrusted_size_flow() {
    // `request.max_new_tokens` → `rows` → `Vec::with_capacity(rows)`
    // with no clamp and no dominating bounds check.
    assert_only_rule("untrusted_size_bad.rs", "untrusted_size_flow", 1);
}

#[test]
fn unbounded_wait_fixture_triggers_only_unbounded_wait() {
    // A serving entry blocking on `ch.recv()` where `ch` is a parameter:
    // no deadline dominates it and no local `bounded(…)` proof exists.
    assert_only_rule("unbounded_wait_bad.rs", "unbounded_wait", 1);
}

#[test]
fn index_arith_fixture_triggers_only_index_arith_overflow() {
    // `data[row * stride + col]` with no assert guard naming an operand.
    assert_only_rule("index_arith_bad.rs", "index_arith_overflow", 1);
}

#[test]
fn warn_only_fixture_reports_warn_severity() {
    use specinfer_xtask::rules::Severity;
    let findings = lint_files_strict(&[fixture("warn_only_lock.rs")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "unbounded_wait");
    assert_eq!(findings[0].severity, Severity::Warn);
    assert!(
        findings[0].to_string().contains("[unbounded_wait:warn]"),
        "text mode spells out warn severity: {}",
        findings[0]
    );
}

#[test]
fn clean_fixture_passes_every_rule_in_strict_mode() {
    let findings = lint_files_strict(&[fixture("clean.rs")]);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn serving_and_spec_lock_graph_is_cycle_free() {
    // Acceptance criterion for the concurrency layer: the lock-ordering
    // graph over the serving and spec crates must be acyclic *before*
    // the allowlist is applied — an audited exception must never be the
    // only thing standing between the daemon and an ABBA deadlock.
    use specinfer_xtask::{parse, scan, semantic};
    let root = workspace_root();
    let mut parsed = Vec::new();
    for krate in ["serving", "spec"] {
        let dir = root.join("crates").join(krate).join("src");
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("readable crate dir").flatten() {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    let rel = p
                        .strip_prefix(&root)
                        .expect("under root")
                        .to_string_lossy()
                        .replace('\\', "/");
                    let src = std::fs::read_to_string(&p).expect("readable source");
                    parsed.push(parse::parse_file(&scan::scan_source(&rel, &src, false)));
                }
            }
        }
    }
    assert!(
        parsed.len() > 5,
        "walk looks broken: {} files",
        parsed.len()
    );
    let mut findings = Vec::new();
    semantic::semantic_findings(&parsed, false, &mut findings);
    let cycles: Vec<_> = findings.iter().filter(|f| f.rule == "lock_order").collect();
    assert!(
        cycles.is_empty(),
        "lock-order cycle in serving/spec: {cycles:#?}"
    );
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
        "untrusted_size_bad.rs",
        "unbounded_wait_bad.rs",
        "index_arith_bad.rs",
        "race_unlocked_write_bad.rs",
        "race_guard_dropped_early_bad.rs",
    ] {
        let status = Command::new(bin)
            .args(["lint", "--strict"])
            .arg(fixture(bad))
            .status()
            .expect("lint binary runs");
        assert_eq!(status.code(), Some(1), "{bad}: expected exit 1");
    }

    // Warn-only findings (lock_order) and clean fixtures exit 0.
    for ok in ["lock_cycle_bad.rs", "race_channel_ok.rs", "clean.rs"] {
        let status = Command::new(bin)
            .args(["lint", "--strict"])
            .arg(fixture(ok))
            .status()
            .expect("lint binary runs");
        assert_eq!(status.code(), Some(0), "{ok}: expected exit 0");
    }

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
/// else, the binary fails and names the stale root of both rules that
/// start there — and nothing else.
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
    assert!(src.contains("fn tick(&mut self)"));
    std::fs::write(
        &driver,
        src.replace("fn tick(&mut self)", "fn turn(&mut self)"),
    )
    .expect("the copy is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_specinfer-xtask"))
        .args(["lint", "--root"])
        .arg(&copy)
        .output()
        .expect("lint binary runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{report}");
    for rule in ["panic_reachability", "unbounded_wait"] {
        assert!(
            report.lines().any(|l| l.contains(rule)
                && l.contains("stale root: `tick`")
                && l.contains("crates/serving/src/driver.rs")),
            "{rule} must name its stale root:\n{report}"
        );
    }
    assert!(report.contains("specinfer-lint: 2 finding(s)"), "{report}");
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

/// `--github` emits one workflow annotation per finding, at the kind
/// matching the finding's severity: error findings annotate `::error`
/// (and fail the job), warn findings annotate `::warning` (and don't).
#[test]
fn github_mode_emits_workflow_annotations() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");

    let out = Command::new(bin)
        .args(["lint", "--github", "--strict"])
        .arg(fixture("race_unlocked_write_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        text.lines().any(|l| l.starts_with("::error file=")
            && l.contains("title=specinfer-lint shared_state_race")),
        "{text}"
    );

    // lock_order is advisory: it must annotate as a warning, never as
    // an error that flunks an otherwise-green run.
    let out = Command::new(bin)
        .args(["lint", "--github", "--strict"])
        .arg(fixture("lock_cycle_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(0), "warn-only run exits 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        text.lines()
            .any(|l| l.starts_with("::warning file=")
                && l.contains("title=specinfer-lint lock_order")),
        "{text}"
    );
    assert!(
        !text.contains("::error"),
        "lock_order must not annotate as an error: {text}"
    );
}

/// Warn-severity findings annotate (`::warning`), report (`"severity":
/// "warn"`), and exit 0 — only error findings fail the build.
#[test]
fn warn_only_findings_exit_zero_in_every_format() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");

    let text = Command::new(bin)
        .args(["lint", "--strict"])
        .arg(fixture("warn_only_lock.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(text.status.code(), Some(0), "warn-only text run exits 0");
    let out = String::from_utf8(text.stdout).expect("utf-8 output");
    assert!(out.contains("[unbounded_wait:warn]"), "{out}");

    let json = Command::new(bin)
        .args(["lint", "--json", "--strict"])
        .arg(fixture("warn_only_lock.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(json.status.code(), Some(0), "warn-only json run exits 0");
    let out = String::from_utf8(json.stdout).expect("utf-8 output");
    assert!(out.contains("\"severity\": \"warn\""), "{out}");

    let gh = Command::new(bin)
        .args(["lint", "--github", "--strict"])
        .arg(fixture("warn_only_lock.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(gh.status.code(), Some(0), "warn-only github run exits 0");
    let out = String::from_utf8(gh.stdout).expect("utf-8 output");
    assert!(
        out.lines().any(|l| l.starts_with("::warning file=")
            && l.contains("title=specinfer-lint unbounded_wait")),
        "{out}"
    );
}

/// Error findings carry `"severity": "error"` in the JSON report.
#[test]
fn json_mode_reports_error_severity() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");
    let out = Command::new(bin)
        .args(["lint", "--json", "--strict"])
        .arg(fixture("unbounded_wait_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(report.contains("\"severity\": \"error\""), "{report}");
    assert!(report.contains("\"rule\": \"unbounded_wait\""), "{report}");
}

/// `--rule` keeps only the named rules' findings — and with them gone,
/// the exit code reflects what is left.
#[test]
fn rule_filter_selects_a_single_rule() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");

    // batched_verify_bad.rs trips three rules; filtering to one keeps
    // exactly its finding.
    let out = Command::new(bin)
        .args(["lint", "--json", "--rule", "thread_confinement", "--strict"])
        .arg(fixture("batched_verify_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(report.contains("\"count\": 1"), "{report}");
    assert!(
        report.contains("\"rule\": \"thread_confinement\""),
        "{report}"
    );
    assert!(!report.contains("no_unwrap"), "{report}");

    // Filtering to a rule the fixture does not trip leaves nothing and
    // exits 0.
    let none = Command::new(bin)
        .args(["lint", "--rule", "determinism", "--strict"])
        .arg(fixture("batched_verify_bad.rs"))
        .output()
        .expect("lint binary runs");
    assert_eq!(none.status.code(), Some(0), "filtered-out findings exit 0");

    // A missing rule name is a usage error.
    let usage = Command::new(bin)
        .args(["lint", "--rule"])
        .status()
        .expect("lint binary runs");
    assert_eq!(usage.code(), Some(2));
}

/// The on-disk fact cache (`target/xtask-cache/`, keyed by FNV-1a
/// content hash) memoizes the parse pass across invocations: a cold run
/// populates it and a warm second run must produce byte-identical
/// output. (Wall times are not compared: they flip under load; the
/// budget test below catches a cache that stopped paying.)
#[test]
fn warm_fact_cache_is_byte_identical() {
    let bin = env!("CARGO_BIN_EXE_specinfer-xtask");
    let root = workspace_root();
    let cache_dir = root.join("target").join("xtask-cache");
    let run = || {
        let out = Command::new(bin)
            .args(["lint", "--root"])
            .arg(&root)
            .output()
            .expect("lint binary runs");
        assert_eq!(out.status.code(), Some(0));
        out.stdout
    };

    std::fs::remove_dir_all(&cache_dir).ok();
    let cold_out = run();
    assert!(cache_dir.is_dir(), "cold run populates the cache");
    let warm_out = run();
    assert_eq!(
        String::from_utf8_lossy(&cold_out),
        String::from_utf8_lossy(&warm_out),
        "warm output must be byte-identical to cold"
    );
}

/// The parse-once fact cache keeps the whole-workspace lint fast: one
/// parse pass shared by the lexical, call-graph, and dataflow rules.
/// Generous 10s budget (debug build, cold file cache) — the point is to
/// catch an accidental return to per-rule re-parsing, which multiplies
/// wall time by the rule count.
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
        "workspace lint took {elapsed:?}; the parse-once fact cache regressed"
    );
}
