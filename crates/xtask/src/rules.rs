//! The five workspace invariant rules.
//!
//! Each rule is a pure function from scanned sources (or manifests) to
//! findings. Scoping — which crates a rule polices, which modules are
//! sanctioned exceptions — lives here as explicit constants so a reader
//! can audit the policy at a glance; per-line audited exceptions go in
//! the allowlist file instead (see `allowlist.rs`).

use crate::scan::{find_word, ScannedFile};

/// How severe a finding is: `Error` findings fail the build (exit 1),
/// `Warn` findings are reported but exit 0. Only advisory rules emit
/// warnings — today that is `unbounded_wait` on `lock` sinks, whose
/// deadlock-freedom the `lock_order` rule already proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warn,
}

impl Severity {
    /// The wire name used by the `--json` and `--github` reporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (`safety_comment`, `no_unwrap`, `determinism`,
    /// `thread_confinement`, `shim_hygiene`, `allowlist`).
    pub rule: &'static str,
    /// Build-failing (`Error`) or advisory (`Warn`).
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The raw source line (for allowlist matching and context).
    pub snippet: String,
    /// For call-graph rules: the evidence chain `entry → … → function`.
    /// Empty for lexical rules.
    pub call_path: Vec<String>,
}

impl Finding {
    /// A finding with no call-path evidence (every lexical rule).
    pub fn lexical(
        rule: &'static str,
        path: String,
        line: usize,
        message: String,
        snippet: String,
    ) -> Self {
        Finding {
            rule,
            severity: Severity::Error,
            path,
            line,
            message,
            snippet,
            call_path: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}{}] {}\n    {}",
            self.path,
            self.line,
            self.rule,
            match self.severity {
                Severity::Error => "",
                Severity::Warn => ":warn",
            },
            self.message,
            self.snippet.trim()
        )?;
        if !self.call_path.is_empty() {
            write!(f, "\n    call path: {}", self.call_path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Crates whose non-test code must not contain `unwrap`/`expect`/`panic!`.
/// These are the crates on the serving hot path, where a panic tears down
/// a daemon thread instead of failing one request. The tensor kernels are
/// listed file-by-file: they sit under every forward pass (including the
/// cross-request batched verify), so a panic there kills the whole batch.
pub const NO_UNWRAP_SCOPE: &[&str] = &[
    "crates/serving/src/",
    "crates/spec/src/",
    "crates/model/src/",
    "crates/tokentree/src/",
    "crates/tensor/src/kernels.rs",
];

/// The one module allowed to read the wall clock: the serving layer's
/// clock shim. Everything else on a deterministic path must take time as
/// an input (the simulated clock) or not at all.
pub const CLOCK_MODULE: &str = "crates/serving/src/clock.rs";

/// Modules sanctioned to create threads: the worker pool every
/// parallel region runs on (kernels, attention, fused speculation all
/// call `pool::run`; its hand-off is model-checked in `loom_pool.rs`)
/// and the serving daemon (its one background thread; the iteration
/// driver and trace replay spawn nothing). A `thread::spawn` anywhere
/// else is a determinism hazard — its interleaving is unmodelled and
/// untested.
pub const THREAD_SANCTIONED: &[&str] =
    &["crates/tensor/src/pool.rs", "crates/serving/src/daemon.rs"];

/// Paths exempt from the determinism rule: benchmark binaries (timing is
/// their purpose) and the sanctioned clock module.
const DETERMINISM_EXEMPT: &[&str] = &["crates/bench/", "crates/xtask/", CLOCK_MODULE];

/// Rule 1 — every `unsafe` block or fn carries a `// SAFETY:` comment on
/// the same line or within the three lines above it.
pub fn rule_safety(file: &ScannedFile, out: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        if find_word(&line.code, "unsafe").is_none() {
            continue;
        }
        let lo = i.saturating_sub(3);
        let documented = file.lines[lo..=i]
            .iter()
            .any(|l| l.comment.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: "safety_comment",
                severity: Severity::Error,
                path: file.path.clone(),
                line: i + 1,
                message: "`unsafe` without a `// SAFETY:` comment stating the aliasing/bounds \
                          argument (within 3 lines above)"
                    .into(),
                snippet: line.raw.clone(),
                call_path: Vec::new(),
            });
        }
    }
}

/// Rule 2 — no `unwrap()` / `expect(` / `panic!` in non-test code of the
/// hot-path crates. `assert!`/`debug_assert!` (loud invariant checks) and
/// `unreachable!` (statically dead arms) remain allowed; fallible paths
/// must use typed errors.
pub fn rule_no_unwrap(file: &ScannedFile, strict: bool, out: &mut Vec<Finding>) {
    if !strict && !NO_UNWRAP_SCOPE.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, what) in [
            (".unwrap()", "unwrap() on a hot path"),
            (".expect(", "expect() on a hot path"),
            ("panic!", "explicit panic! on a hot path"),
        ] {
            let hit = if pat == "panic!" {
                find_word(&line.code, pat).is_some()
            } else {
                line.code.contains(pat)
            };
            if hit {
                out.push(Finding {
                    rule: "no_unwrap",
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!(
                        "{what}; return a typed error (or add an audited allowlist entry)"
                    ),
                    snippet: line.raw.clone(),
                    call_path: Vec::new(),
                });
            }
        }
    }
}

/// Rule 3 — determinism: no wall-clock reads or unseeded randomness in
/// library code. Seeded replay (the chaos battery's contract) breaks the
/// moment `Instant::now` or an entropy-seeded RNG reaches a decode path.
pub fn rule_determinism(file: &ScannedFile, strict: bool, out: &mut Vec<Finding>) {
    if !strict {
        let in_lib_scope = (file.path.starts_with("crates/") && file.path.contains("/src/"))
            || file.path.starts_with("src/");
        if !in_lib_scope || DETERMINISM_EXEMPT.iter().any(|p| file.path.starts_with(p)) {
            return;
        }
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, what) in [
            ("Instant::now", "wall-clock read (`Instant::now`)"),
            ("SystemTime", "wall-clock read (`SystemTime`)"),
            ("thread_rng", "unseeded RNG (`thread_rng`)"),
            ("from_entropy", "entropy-seeded RNG (`from_entropy`)"),
            ("rand::random", "unseeded RNG (`rand::random`)"),
        ] {
            if line.code.contains(pat) {
                out.push(Finding {
                    rule: "determinism",
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!(
                        "{what} outside bench and the clock module breaks seeded replay"
                    ),
                    snippet: line.raw.clone(),
                    call_path: Vec::new(),
                });
            }
        }
    }
}

/// Rule 4 — concurrency confinement: thread creation only in the worker
/// pool and the daemon, where the interleavings are model-checked.
pub fn rule_thread_confinement(file: &ScannedFile, strict: bool, out: &mut Vec<Finding>) {
    if !strict {
        let in_lib_scope = (file.path.starts_with("crates/") && file.path.contains("/src/"))
            || file.path.starts_with("src/");
        if !in_lib_scope
            || file.path.starts_with("crates/xtask/")
            || THREAD_SANCTIONED.contains(&file.path.as_str())
        {
            return;
        }
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if line.code.contains(pat) {
                out.push(Finding {
                    rule: "thread_confinement",
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!(
                        "`{pat}` outside the worker pool and the daemon ({}); \
                         parallel work goes through `pool::run`",
                        THREAD_SANCTIONED.join(", ")
                    ),
                    snippet: line.raw.clone(),
                    call_path: Vec::new(),
                });
            }
        }
    }
}

/// Rule 5 — shim hygiene over `Cargo.toml`s: every dependency must be
/// `workspace = true` or a `path` that stays inside the repository; no
/// registry (`version = …`) or `git` dependencies may creep in.
pub fn rule_shim_hygiene(path: &str, manifest: &str, out: &mut Vec<Finding>) {
    let manifest_dir = match path.rfind('/') {
        Some(cut) => &path[..cut],
        None => "",
    };
    let mut section = String::new();
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let in_deps = section.ends_with("dependencies")
            || section.contains("dependencies.")
            || section == "workspace.dependencies";
        if !in_deps {
            continue;
        }
        let mut flag = |message: String| {
            out.push(Finding {
                rule: "shim_hygiene",
                severity: Severity::Error,
                path: path.to_string(),
                line: i + 1,
                message,
                snippet: raw.to_string(),
                call_path: Vec::new(),
            })
        };
        if line.contains("git =") || line.contains("git=") {
            flag("git dependency; all deps must resolve to in-repo shims or crates".into());
            continue;
        }
        if line.contains("version =") || line.contains("version=") {
            flag("registry dependency (`version = …`); use a workspace/path dep instead".into());
            continue;
        }
        // Bare string dep: `name = "1.0"` (key = quoted value, no table).
        if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            let value = value.trim();
            let is_dep_key = !key.contains('.')
                && !matches!(
                    key,
                    "features" | "optional" | "default-features" | "package" | "workspace" | "path"
                );
            if is_dep_key && value.starts_with('"') && value.ends_with('"') {
                flag(format!(
                    "registry dependency `{key} = {value}`; use a workspace/path dep instead"
                ));
                continue;
            }
        }
        if let Some(p) = extract_quoted_after(line, "path") {
            if path_escapes_root(manifest_dir, &p) {
                flag(format!(
                    "dependency path `{p}` escapes the repository; shims must stay in-repo"
                ));
            }
        }
    }
}

/// Extracts the quoted value of `key = "…"` from a line, if present.
fn extract_quoted_after(line: &str, key: &str) -> Option<String> {
    let at = find_word(line, key)?;
    let rest = &line[at + key.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Lexically resolves `dep_path` against `manifest_dir` (both
/// workspace-relative, `/`-separated) and reports whether the result
/// climbs out of the workspace root.
fn path_escapes_root(manifest_dir: &str, dep_path: &str) -> bool {
    let mut stack: Vec<&str> = manifest_dir.split('/').filter(|s| !s.is_empty()).collect();
    for seg in dep_path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                if stack.pop().is_none() {
                    return true;
                }
            }
            s => stack.push(s),
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn lint_all(path: &str, src: &str) -> Vec<Finding> {
        let f = scan_source(path, src, false);
        let mut out = Vec::new();
        rule_safety(&f, &mut out);
        rule_no_unwrap(&f, false, &mut out);
        rule_determinism(&f, false, &mut out);
        rule_thread_confinement(&f, false, &mut out);
        out
    }

    #[test]
    fn safety_rule_accepts_documented_unsafe() {
        let ok = "// SAFETY: chunks are disjoint by construction.\nunsafe { go() }\n";
        assert!(lint_all("crates/tensor/src/kernels.rs", ok).is_empty());
        let bad = "unsafe { go() }\n";
        let f = lint_all("crates/tensor/src/kernels.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety_comment");
    }

    #[test]
    fn unwrap_rule_scopes_to_hot_crates_and_skips_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        let f = lint_all("crates/spec/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(lint_all("crates/sim/src/latency.rs", src).is_empty());
    }

    #[test]
    fn panic_in_string_or_comment_is_fine() {
        let src = "fn f() { log(\"panic! avoided\"); } // panic! is bad\n";
        assert!(lint_all("crates/spec/src/engine.rs", src).is_empty());
    }

    #[test]
    fn determinism_rule_exempts_bench_and_clock() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint_all("crates/spec/src/engine.rs", src).len(), 1);
        assert!(lint_all("crates/bench/src/report.rs", src).is_empty());
        assert!(lint_all("crates/serving/src/clock.rs", src).is_empty());
    }

    #[test]
    fn thread_rule_sanctions_the_pool_and_the_daemon_only() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(lint_all("crates/workloads/src/text.rs", src).len(), 1);
        assert!(lint_all("crates/serving/src/daemon.rs", src).is_empty());
        assert!(lint_all("crates/tensor/src/pool.rs", src).is_empty());
    }

    #[test]
    fn unwrap_and_thread_rules_cover_the_batch_and_kernel_surfaces() {
        // `spec/src/batch.rs` (the cross-request batched verifier) is in
        // the hot-path unwrap scope via its crate prefix. Like every
        // former spawn site — the kernels, the attention fan-out, the
        // SSM pool — it gets its parallelism from `pool::run` and may
        // not create threads itself.
        let unwrap_src = "fn f() { x.unwrap(); }\n";
        let scope_src = "fn f() { std::thread::scope(|s| {}); }\n";
        let f = lint_all("crates/spec/src/batch.rs", unwrap_src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no_unwrap");
        for path in [
            "crates/spec/src/batch.rs",
            "crates/spec/src/speculator.rs",
            "crates/model/src/transformer.rs",
            "crates/tensor/src/kernels.rs",
        ] {
            let f = lint_all(path, scope_src);
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "thread_confinement");
        }
        // The tensor kernels may not panic either — they run under
        // every batched forward.
        let f = lint_all("crates/tensor/src/kernels.rs", unwrap_src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no_unwrap");
    }

    #[test]
    fn shim_hygiene_flags_registry_git_and_escapes() {
        let m = "[dependencies]\nserde = \"1.0\"\nrand = { git = \"https://x\" }\nfoo = { version = \"0.1\" }\nok = { workspace = true }\nbar = { path = \"../../../outside\" }\n";
        let mut out = Vec::new();
        rule_shim_hygiene("crates/spec/Cargo.toml", m, &mut out);
        let rules: Vec<_> = out.iter().map(|f| f.line).collect();
        assert_eq!(rules, vec![2, 3, 4, 6], "{out:?}");
    }

    #[test]
    fn shim_hygiene_accepts_workspace_and_inrepo_paths() {
        let m = "[workspace.dependencies]\nrand = { path = \"shims/rand\" }\nserde = { path = \"shims/serde\", features = [\"derive\"] }\n\n[dependencies]\nrand.workspace = true\n";
        let mut out = Vec::new();
        rule_shim_hygiene("Cargo.toml", m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn package_version_is_not_a_dependency() {
        let m = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\n[workspace.package]\nversion = \"0.1.0\"\n";
        let mut out = Vec::new();
        rule_shim_hygiene("Cargo.toml", m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
