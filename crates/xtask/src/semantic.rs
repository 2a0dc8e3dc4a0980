//! The semantic (call-graph) rule, built on [`crate::parse`] and
//! [`crate::callgraph`].
//!
//! Where the lexical rules in [`crate::rules`] police what a *line*
//! says, `panic_reachability` polices what the *program* can do: no
//! call path from a serving entry point may reach a function containing
//! `panic!`/`unwrap`/`expect`/slice indexing. A panic mid-iteration
//! tears down the daemon and every batch-mate with it; findings carry
//! the full call path as evidence.
//!
//! Sanctioned exceptions are constants here (auditable policy), per-site
//! exceptions go through the same allowlist as the lexical rules. The
//! allowlist keys off the *function signature line*, so one audited
//! entry covers a function, not a single call site.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnNode};
use crate::parse::{Fact, ParsedFile};
use crate::rules::Finding;

/// Serving entry points for `panic_reachability` (path suffix, fn name):
/// the iteration driver's `tick` (what both trace replay and the live
/// daemon run), the two front-end loops around it (replay's `run`, which
/// prices each iteration with the cost model, and the daemon's channel
/// pump), and the engine entries under them. In strict mode (fixtures)
/// matching is by name alone.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/serving/src/driver.rs", "tick"),
    ("crates/serving/src/server.rs", "run"),
    ("crates/serving/src/daemon.rs", "daemon_loop"),
    ("crates/spec/src/batch.rs", "step_batch"),
    ("crates/spec/src/engine.rs", "try_generate"),
];

/// Files whose structurally-bounded slice indexing is sanctioned: the
/// numeric kernel layer. Every index there is pinned by `debug_assert!`
/// preconditions and the bitwise proptest batteries, and a checked
/// `.get()` in a register-tiled inner loop would cost real throughput.
/// `unwrap`/`expect`/`panic!` still count as panic sites in these files
/// — only indexing is sanctioned.
pub const INDEX_SANCTIONED: &[&str] = &[
    "crates/tensor/src/",
    "crates/model/src/transformer.rs",
    "crates/model/src/kvcache.rs",
];

/// Runs `panic_reachability` plus parser diagnostics over parsed files
/// and their call graph (built once per lint run). `strict` disables all
/// path-based scoping (fixture mode).
pub fn semantic_findings_with_graph(
    files: &[ParsedFile],
    graph: &CallGraph,
    strict: bool,
    out: &mut Vec<Finding>,
) {
    // Parser diagnostics first: a file the parser cannot follow is a
    // file the graph rule silently under-covers, which must be loud.
    for f in files {
        for e in &f.errors {
            out.push(Finding {
                rule: "parse",
                path: f.path.clone(),
                line: e.line,
                message: format!("semantic-lint parser lost sync: {}", e.message),
                snippet: f.raw_line(e.line),
                call_path: Vec::new(),
            });
        }
    }

    rule_panic_reachability(graph, strict, out);
}

/// Resolves the configured (path-suffix, name) entry points against the
/// graph; in strict mode any function with a matching name counts.
/// Entries that do not resolve are skipped here — unit tests lint
/// one-file workspaces — and reported by [`stale_root_findings`] on
/// whole-workspace runs.
fn resolve_roots(graph: &CallGraph, strict: bool) -> Vec<usize> {
    let mut out = Vec::new();
    if strict {
        for (_, name) in PANIC_ENTRY_POINTS {
            out.extend(graph.find_all_named(name));
        }
        out.sort_unstable();
        out.dedup();
    } else {
        for (suffix, name) in PANIC_ENTRY_POINTS {
            if let Some(i) = graph.find(suffix, name) {
                out.push(i);
            }
        }
    }
    out
}

/// An error finding per configured entry point the workspace no longer
/// defines. The rule would otherwise go vacuous from a renamed or moved
/// entry — pass on everything because it reaches nothing.
pub fn stale_root_findings(graph: &CallGraph, out: &mut Vec<Finding>) {
    for (suffix, name) in PANIC_ENTRY_POINTS {
        if graph.find(suffix, name).is_none() {
            out.push(Finding {
                rule: "panic_reachability",
                path: suffix.to_string(),
                line: 0,
                message: format!(
                    "stale root: `{name}` is a configured entry point of `panic_reachability` \
                     but `{suffix}` defines no such function, so the rule checks nothing from \
                     it; point the root table at the function's new name or file"
                ),
                snippet: String::new(),
                call_path: Vec::new(),
            });
        }
    }
}

/// Panic sites of one function: (line, kind) pairs.
fn panic_sites(node: &FnNode, strict: bool) -> Vec<(usize, &'static str)> {
    let index_sanctioned = !strict && INDEX_SANCTIONED.iter().any(|p| node.path.starts_with(p));
    let mut sites = Vec::new();
    for fact in &node.facts {
        match fact {
            Fact::Macro { name, line, .. }
                if name == "panic" || name == "todo" || name == "unimplemented" =>
            {
                sites.push((*line, "panic!-family macro"))
            }
            Fact::Method {
                name,
                zero_args,
                line,
                ..
            } if name == "unwrap" && *zero_args => sites.push((*line, "`.unwrap()`")),
            Fact::Method { name, line, .. } if name == "expect" => {
                sites.push((*line, "`.expect(…)`"))
            }
            Fact::Index { line, .. } if !index_sanctioned => sites.push((*line, "slice index")),
            _ => {}
        }
    }
    sites
}

/// Rule 7 — `panic_reachability`.
fn rule_panic_reachability(graph: &CallGraph, strict: bool, out: &mut Vec<Finding>) {
    let entries = resolve_roots(graph, strict);
    if entries.is_empty() {
        return;
    }
    let parents = graph.reach_with_parents(&entries);
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for i in reached {
        let node = &graph.fns[i];
        let sites = panic_sites(node, strict);
        if sites.is_empty() {
            continue;
        }
        // Aggregate sites by kind for a compact message; the finding
        // anchors on the function signature so one audited allowlist
        // entry covers the function.
        let mut by_kind: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for (line, kind) in &sites {
            by_kind.entry(kind).or_default().push(*line);
        }
        let desc: Vec<String> = by_kind
            .iter()
            .map(|(kind, lines)| {
                if lines.len() == 1 {
                    format!("{kind} at line {}", lines[0])
                } else {
                    format!("{}x {kind} (first at line {})", lines.len(), lines[0])
                }
            })
            .collect();
        let call_path = graph.path_to(&parents, i);
        let entry_label = call_path.first().cloned().unwrap_or_default();
        out.push(Finding {
            rule: "panic_reachability",
            path: node.path.clone(),
            line: node.line,
            message: format!(
                "`{}` is reachable from serving entry `{}` and can panic: {}; \
                 return a typed error, rewrite the arm as `match … unreachable!`, \
                 or add an audited allowlist entry keyed on this signature",
                node.label(),
                entry_label,
                desc.join(", ")
            ),
            snippet: node.sig.clone(),
            call_path,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn run(files: &[(&str, &str)], strict: bool) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| crate::parse::parse_file(&scan_source(p, s, true)))
            .collect();
        let graph = crate::callgraph::build(&parsed);
        let mut out = Vec::new();
        semantic_findings_with_graph(&parsed, &graph, strict, &mut out);
        out
    }

    #[test]
    fn panic_reachability_reports_full_call_path() {
        let out = run(
            &[(
                "crates/spec/src/batch.rs",
                "pub fn step_batch() { mid(); }\nfn mid() { leaf(0); }\nfn leaf(i: usize) { let v = [1, 2]; let _ = v[i]; }\n",
            )],
            false,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "panic_reachability");
        assert_eq!(out[0].call_path, vec!["step_batch", "mid", "leaf"]);
        assert!(out[0].message.contains("slice index"), "{}", out[0].message);
        assert_eq!(out[0].line, 3, "anchors on the fn signature");
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let out = run(
            &[(
                "crates/spec/src/batch.rs",
                "pub fn step_batch() { fine(); }\nfn fine() {}\nfn island() { boom.unwrap(); }\n",
            )],
            false,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn index_sanctioned_files_skip_indexing_but_not_unwrap() {
        let src = "pub fn helper(v: &[f32], i: usize) { let _ = v[i]; opt.unwrap(); }\npub fn step_batch(v: &[f32]) { crate::kernels::helper(v, 0); }\n";
        // In the kernel file, only the unwrap counts.
        let out = run(
            &[
                ("crates/tensor/src/kernels.rs", src),
                (
                    "crates/spec/src/batch.rs",
                    "pub fn step_batch(v: &[f32]) { specinfer_tensor::kernels::helper(v, 0); }\n",
                ),
            ],
            false,
        );
        let f: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "panic_reachability")
            .collect();
        assert_eq!(f.len(), 1, "{out:#?}");
        assert!(f[0].message.contains("unwrap"));
        assert!(!f[0].message.contains("slice index"));
    }

    #[test]
    fn strict_mode_matches_roots_by_name() {
        let out = run(
            &[(
                "anywhere/fixture.rs",
                "pub fn step_batch() { helper(); }\nfn helper() { x.unwrap(); }\n",
            )],
            true,
        );
        assert!(
            out.iter().any(|f| f.rule == "panic_reachability"),
            "{out:#?}"
        );
    }
}
