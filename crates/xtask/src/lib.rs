//! specinfer-lint: the in-repo workspace invariant checker.
//!
//! Run as `cargo run -p specinfer-xtask -- lint`. See ARCHITECTURE.md §8
//! for the rule catalogue and the allowlist policy. The crate is fully
//! offline and dependency-free: it must keep working on the bare
//! toolchain, because it is the thing that polices the shim boundary.

pub mod allowlist;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod escape;
pub mod lockset;
pub mod parse;
pub mod race;
pub mod rules;
pub mod scan;
pub mod semantic;
pub mod taint;

use rules::{Finding, Severity};
use std::path::{Path, PathBuf};

/// Relative path of the allowlist file inside the workspace.
pub const ALLOWLIST_PATH: &str = "crates/xtask/lint-allow.txt";

/// Parse-once fact cache shared by every semantic rule: the parsed
/// files, the call graph over them, and a CFG + parameter list per graph
/// node (aligned with `graph.fns` by index). Building this once and
/// handing it to each rule keeps the whole workspace lint a single parse
/// pass — the wall-time budget in `tests/lint_rules.rs` pins that.
pub struct WorkspaceFacts {
    pub files: Vec<parse::ParsedFile>,
    pub graph: callgraph::CallGraph,
    /// `cfgs[i]` is the control-flow graph of `graph.fns[i]`.
    pub cfgs: Vec<cfg::Cfg>,
    /// `params[i]` are the parameter names (including `self`) of
    /// `graph.fns[i]`.
    pub params: Vec<Vec<String>>,
}

impl WorkspaceFacts {
    pub fn build(files: Vec<parse::ParsedFile>) -> WorkspaceFacts {
        let graph = callgraph::build(&files);
        let mut cfgs = Vec::with_capacity(graph.fns.len());
        let mut params = Vec::with_capacity(graph.fns.len());
        for node in &graph.fns {
            let def = files
                .iter()
                .filter(|f| f.path == node.path)
                .flat_map(|f| &f.fns)
                .find(|d| d.line == node.line && d.name == node.name);
            match def {
                Some(d) => {
                    cfgs.push(cfg::build(&d.body, d.line));
                    params.push(d.params.clone());
                }
                None => {
                    // Graph nodes come from the same FnDefs, so this arm
                    // is unreachable in practice; an empty CFG keeps the
                    // alignment invariant regardless.
                    cfgs.push(cfg::build(&[], node.line));
                    params.push(Vec::new());
                }
            }
        }
        WorkspaceFacts {
            files,
            graph,
            cfgs,
            params,
        }
    }

    /// The raw source text of `line` (1-based) in `path`, for snippets.
    pub fn raw_line(&self, path: &str, line: usize) -> String {
        self.files
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.raw_line(line))
            .unwrap_or_default()
    }
}

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

    let cache_dir = root.join("target").join("xtask-cache");
    let mut live = std::collections::BTreeMap::new();
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    let mut shim_parsed: Vec<parse::ParsedFile> = Vec::new();
    for rel in &rs_files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                let file = scan::scan_source(rel, &src, false);
                rules::rule_safety(&file, &mut findings);
                rules::rule_no_unwrap(&file, false, &mut findings);
                rules::rule_determinism(&file, false, &mut findings);
                rules::rule_thread_confinement(&file, false, &mut findings);
                // The semantic pass wants the whole workspace at once —
                // parse now, analyze after the walk. Shims stand in for
                // external crates and stay outside the graph, but the
                // race rule still reads them: the loom witness harnesses
                // live there. Parses are memoized by content hash.
                let is_crate = rel.starts_with("crates/");
                let is_shim = rel.starts_with("shims/");
                if is_crate || is_shim {
                    live.insert(cache::cache_path(&cache_dir, rel, &src), ());
                    let p = cache::load(&cache_dir, &file, &src).unwrap_or_else(|| {
                        let p = parse::parse_file(&file);
                        cache::store(&cache_dir, &src, &p);
                        p
                    });
                    if is_crate {
                        parsed.push(p);
                    } else {
                        shim_parsed.push(p);
                    }
                }
            }
            Err(e) => findings.push(io_finding(rel, &e)),
        }
    }
    cache::prune(&cache_dir, &live);
    let facts = WorkspaceFacts::build(parsed);
    semantic::stale_root_findings(&facts.graph, &mut findings);
    semantic::semantic_findings_with_graph(&facts.files, &facts.graph, false, &mut findings);
    taint::taint_findings(&facts, false, &mut findings);
    race::race_findings(&facts, &shim_parsed, false, &mut findings);
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
                    rules::rule_safety(&file, &mut findings);
                    rules::rule_no_unwrap(&file, true, &mut findings);
                    rules::rule_determinism(&file, true, &mut findings);
                    rules::rule_thread_confinement(&file, true, &mut findings);
                    parsed.push(parse::parse_file(&file));
                }
            }
            Err(e) => findings.push(io_finding(&rel, &e)),
        }
    }
    // Semantic rules run over the given files as a mini-workspace, with
    // all path scoping disabled and entry points matched by name.
    let facts = WorkspaceFacts::build(parsed);
    semantic::semantic_findings_with_graph(&facts.files, &facts.graph, true, &mut findings);
    taint::taint_findings(&facts, true, &mut findings);
    race::race_findings(&facts, &[], true, &mut findings);
    findings
}

fn io_finding(rel: &str, e: &std::io::Error) -> Finding {
    Finding {
        rule: "io",
        severity: Severity::Error,
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
