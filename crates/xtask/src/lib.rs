//! specinfer-lint: the in-repo workspace invariant checker.
//!
//! Run as `cargo run -p specinfer-xtask -- lint`. See ARCHITECTURE.md §8
//! for the rule catalogue and the allowlist policy. The crate is fully
//! offline and dependency-free: it must keep working on the bare
//! toolchain, because it is the thing that polices the shim boundary.

pub mod allowlist;
pub mod callgraph;
pub mod parse;
pub mod rules;
pub mod scan;
pub mod semantic;

use rules::Finding;
use std::path::{Path, PathBuf};

/// Relative path of the allowlist file inside the workspace.
pub const ALLOWLIST_PATH: &str = "crates/xtask/lint-allow.txt";

/// Lints the whole workspace rooted at `root`. Findings are sorted by
/// path then line. I/O errors surface as `io` findings rather than
/// aborting the run, so one unreadable file cannot hide the rest.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    collect_files(root, root, &mut rs_files, &mut manifests, &mut findings);
    rs_files.sort();
    manifests.sort();

    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    for rel in &rs_files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                let file = scan::scan_source(rel, &src, false);
                lexical_rules(&file, false, &mut findings);
                // The semantic pass wants the whole workspace at once —
                // parse now, analyze after the walk. Shims stand in for
                // external crates and stay outside the graph.
                if rel.starts_with("crates/") {
                    parsed.push(parse::parse_file(&file));
                }
            }
            Err(e) => findings.push(io_finding(rel, &e)),
        }
    }
    let graph = callgraph::build(&parsed);
    semantic::stale_root_findings(&graph, &mut findings);
    semantic::semantic_findings_with_graph(&parsed, &graph, false, &mut findings);
    for rel in &manifests {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => rules::rule_shim_hygiene(rel, &text, &mut findings),
            Err(e) => findings.push(io_finding(rel, &e)),
        }
    }

    // Apply the audited-exception allowlist (absence of the file simply
    // means no exceptions).
    let allow_text = std::fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let (entries, mut errors) = allowlist::parse_allowlist(ALLOWLIST_PATH, &allow_text);
    let mut findings = allowlist::apply_allowlist(findings, &entries, ALLOWLIST_PATH);
    findings.append(&mut errors);

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Lints specific files with every rule forced in scope (no path-based
/// scoping, no test exemption, no allowlist). Used by the fixture
/// self-tests: a bad snippet must trigger its rule regardless of where
/// the fixture happens to live.
pub fn lint_files_strict(paths: &[PathBuf]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    for p in paths {
        let rel = p.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(p) {
            Ok(text) => {
                if rel.ends_with(".toml") {
                    rules::rule_shim_hygiene(&rel, &text, &mut findings);
                } else {
                    let file = scan::scan_source(&rel, &text, true);
                    lexical_rules(&file, true, &mut findings);
                    parsed.push(parse::parse_file(&file));
                }
            }
            Err(e) => findings.push(io_finding(&rel, &e)),
        }
    }
    // The call-graph rule runs over the given files as a mini-workspace,
    // with all path scoping disabled and entry points matched by name.
    let graph = callgraph::build(&parsed);
    semantic::semantic_findings_with_graph(&parsed, &graph, true, &mut findings);
    findings
}

/// The lexical rules of one source file (`shim_hygiene` reads manifests).
fn lexical_rules(file: &scan::ScannedFile, strict: bool, findings: &mut Vec<Finding>) {
    rules::rule_safety(file, findings);
    rules::rule_no_unwrap(file, strict, findings);
    rules::rule_determinism(file, strict, findings);
    rules::rule_thread_confinement(file, strict, findings);
    rules::rule_float_reduction_order(file, strict, findings);
}

fn io_finding(rel: &str, e: &std::io::Error) -> Finding {
    Finding {
        rule: "io",
        path: rel.to_string(),
        line: 0,
        message: format!("could not read file: {e}"),
        snippet: String::new(),
        call_path: Vec::new(),
    }
}

/// Recursively collects workspace-relative `.rs` and `Cargo.toml` paths,
/// skipping build output, VCS metadata, and the lint's own bad-by-design
/// fixtures.
fn collect_files(
    root: &Path,
    dir: &Path,
    rs: &mut Vec<String>,
    manifests: &mut Vec<String>,
    findings: &mut Vec<Finding>,
) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            let rel = rel_path(root, dir);
            findings.push(io_finding(&rel, &e));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_files(root, &path, rs, manifests, findings);
        } else if name.ends_with(".rs") {
            rs.push(rel_path(root, &path));
        } else if name == "Cargo.toml" {
            manifests.push(rel_path(root, &path));
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
