//! The four semantic (graph/dataflow) rules, built on [`crate::parse`]
//! and [`crate::callgraph`].
//!
//! Where the lexical rules in [`crate::rules`] police what a *line*
//! says, these police what the *program* can do:
//!
//! - `panic_reachability` — no call path from a serving entry point may
//!   reach a function containing `panic!`/`unwrap`/`expect`/slice
//!   indexing. A panic mid-iteration tears down the daemon and every
//!   batch-mate with it; findings carry the full call path as evidence.
//! - `lock_order` — held-lock sets propagate over the call graph and the
//!   resulting lock-ordering graph must be acyclic (static ABBA
//!   detection; loom-lite explores dynamically what this proves
//!   conservatively).
//! - `hot_loop_alloc` — no allocation inside loops reachable from the
//!   decode/batched-forward/blocked-kernel roots (the allocation-free
//!   decode invariant from PR 1).
//! - `float_reduction_order` — no iterator `sum`/`fold` over floats and
//!   no non-ascending-`k` accumulation in the kernel file: bitwise
//!   determinism (Theorem 4.2's precondition) requires every blocked
//!   kernel to keep a single ascending addition chain per output.
//!
//! Sanctioned exceptions are constants here (auditable policy), per-site
//! exceptions go through the same allowlist as the lexical rules. For
//! `panic_reachability` the allowlist keys off the *function signature
//! line*, so one audited entry covers a function, not a single call
//! site.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::{self, CallGraph, FnNode};
use crate::parse::{Fact, ParsedFile};
use crate::rules::{Finding, Severity};

/// Serving entry points for `panic_reachability` (path suffix, fn name):
/// the iteration driver's `tick` (what both trace replay and the live
/// daemon run), the daemon's channel pump around it, and the engine
/// entries under them. In strict mode (fixtures) matching is by name
/// alone.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/serving/src/driver.rs", "tick"),
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

/// Roots of the allocation-free decode region (path suffix, fn name):
/// the single-token decode path, the batched tree forward, and the
/// blocked attention/matmul kernels under them.
pub const HOT_LOOP_ROOTS: &[(&str, &str)] = &[
    ("crates/model/src/transformer.rs", "decode_one"),
    ("crates/model/src/transformer.rs", "forward_rows_batch"),
    ("crates/model/src/transformer.rs", "attention_block"),
    ("crates/tensor/src/kernels.rs", "matmul_nn_block"),
    ("crates/tensor/src/kernels.rs", "matmul_nt_block"),
];

/// Files where float reduction order is load-bearing: the blocked
/// kernels (single ascending-`k` addition chain makes blocking
/// bitwise-inert) and the SIMD/packed-panel kernels (fixed per-lane
/// ascending-`k` chains plus a deterministic lane-reduction tree make
/// each backend bitwise-reproducible across runs and thread counts).
pub const FLOAT_REDUCTION_SCOPE: &[&str] = &[
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/simd.rs",
    "crates/tensor/src/pack.rs",
];

/// Horizontal-reduction intrinsics whose in-register association order
/// is an ISA artifact, not a documented contract of ours. The sanctioned
/// SIMD reduction pattern spills the lanes and folds them with an
/// explicit pairwise tree (`((l0+l1)+(l2+l3)) + …`), so the order is
/// visible in source and identical on every run. A `hadd`/`addv`-style
/// intrinsic hides that order and invites backend-dependent drift.
const HORIZONTAL_REDUCE_INTRINSICS: &[&str] = &[
    "_mm_hadd_ps",
    "_mm_hadd_pd",
    "_mm256_hadd_ps",
    "_mm256_hadd_pd",
    "_mm512_reduce_add_ps",
    "_mm512_reduce_add_pd",
    "vaddv_f32",
    "vaddvq_f32",
    "vpadd_f32",
    "vpaddq_f32",
];

/// Method names that allocate (receiver-typed allocation sites).
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "collect",
    "push",
];

/// `Type::fn` associated calls that allocate.
const ALLOC_CALLS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Runs the four semantic rules plus parser diagnostics over parsed
/// files. `strict` disables all path-based scoping (fixture mode).
///
/// Convenience wrapper that builds its own call graph; the lint driver
/// builds the graph once (shared with the dataflow rules in
/// [`crate::taint`]) and calls [`semantic_findings_with_graph`] instead.
pub fn semantic_findings(files: &[ParsedFile], strict: bool, out: &mut Vec<Finding>) {
    let graph = callgraph::build(files);
    semantic_findings_with_graph(files, &graph, strict, out);
}

/// The semantic rules over a caller-supplied call graph (built once per
/// lint run and shared across all graph-consuming rules).
pub fn semantic_findings_with_graph(
    files: &[ParsedFile],
    graph: &CallGraph,
    strict: bool,
    out: &mut Vec<Finding>,
) {
    // Parser diagnostics first: a file the parser cannot follow is a
    // file the graph rules silently under-cover, which must be loud.
    for f in files {
        for e in &f.errors {
            out.push(Finding {
                rule: "parse",
                severity: Severity::Error,
                path: f.path.clone(),
                line: e.line,
                message: format!("semantic-lint parser lost sync: {}", e.message),
                snippet: f.raw_line(e.line),
                call_path: Vec::new(),
            });
        }
    }

    let by_path: HashMap<&str, &ParsedFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    rule_panic_reachability(graph, strict, out);
    rule_lock_order(graph, &by_path, out);
    rule_hot_loop_alloc(graph, &by_path, strict, out);
    rule_float_reduction_order(files, strict, out);
}

/// Resolves configured (path-suffix, name) roots against the graph; in
/// strict mode any function with a matching name counts. Roots that do
/// not resolve are skipped here — unit tests lint one-file workspaces —
/// and reported by [`stale_root_findings`] on whole-workspace runs.
pub fn resolve_roots(graph: &CallGraph, roots: &[(&str, &str)], strict: bool) -> Vec<usize> {
    let mut out = Vec::new();
    if strict {
        for (_, name) in roots {
            out.extend(graph.find_all_named(name));
        }
        out.sort_unstable();
        out.dedup();
    } else {
        for (suffix, name) in roots {
            if let Some(i) = graph.find(suffix, name) {
                out.push(i);
            }
        }
    }
    out
}

/// Every root table a graph rule starts from, by rule.
const ROOT_TABLES: &[(&str, &[(&str, &str)])] = &[
    ("panic_reachability", PANIC_ENTRY_POINTS),
    ("hot_loop_alloc", HOT_LOOP_ROOTS),
    ("unbounded_wait", crate::taint::WAIT_ENTRY_POINTS),
];

/// An error finding per configured root the workspace no longer defines.
/// A rule whose entry point was renamed or moved would otherwise go
/// vacuous — pass on everything because it reaches nothing.
pub fn stale_root_findings(graph: &CallGraph, out: &mut Vec<Finding>) {
    for &(rule, roots) in ROOT_TABLES {
        for (suffix, name) in roots {
            if graph.find(suffix, name).is_none() {
                out.push(Finding {
                    rule,
                    severity: Severity::Error,
                    path: suffix.to_string(),
                    line: 0,
                    message: format!(
                        "stale root: `{name}` is a configured entry point of `{rule}` but \
                         `{suffix}` defines no such function, so the rule checks nothing from \
                         it; point the root table at the function's new name or file"
                    ),
                    snippet: String::new(),
                    call_path: Vec::new(),
                });
            }
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

/// Rule 6 — `panic_reachability`.
fn rule_panic_reachability(graph: &CallGraph, strict: bool, out: &mut Vec<Finding>) {
    let entries = resolve_roots(graph, PANIC_ENTRY_POINTS, strict);
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
            severity: Severity::Error,
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

/// A lock acquisition from a `Fact::Method`, if the fact is one.
/// `Mutex::lock`, `RwLock::read`/`write` all take **zero arguments** —
/// which is also what separates them from `io::Read::read(buf)` and
/// `io::Write::write(buf)`.
fn lock_acquisition(node: &FnNode, fact: &Fact) -> Option<(String, usize)> {
    let Fact::Method {
        name,
        recv,
        zero_args,
        line,
        ..
    } = fact
    else {
        return None;
    };
    if !zero_args || !matches!(name.as_str(), "lock" | "read" | "write") || recv.is_empty() {
        return None;
    }
    let lock_name = if recv[0] == "self" {
        if recv.len() == 1 {
            return None; // `self.lock()` — not a field-held lock
        }
        match &node.owner {
            Some(o) => format!("{}.{}", o, recv[1..].join(".")),
            None => recv[1..].join("."),
        }
    } else {
        recv.join(".")
    };
    Some((lock_name, *line))
}

/// Rule 7 — `lock_order`: static ABBA detection.
fn rule_lock_order(
    graph: &CallGraph,
    by_path: &HashMap<&str, &ParsedFile>,
    out: &mut Vec<Finding>,
) {
    // 1. Direct acquisitions per function, in source order.
    let n = graph.fns.len();
    let mut direct: Vec<Vec<(String, usize)>> = vec![Vec::new(); n];
    for (i, node) in graph.fns.iter().enumerate() {
        for fact in &node.facts {
            if let Some(acq) = lock_acquisition(node, fact) {
                direct[i].push(acq);
            }
        }
    }

    // 2. Transitive "locks this call may acquire" sets, to fixpoint
    //    (cycles in the call graph converge because sets only grow).
    //    Only *certain* edges participate: propagating locks through a
    //    method-name over-approximation manufactures ABBA cycles out of
    //    call edges no execution can take (e.g. `sched.submit(…)`
    //    name-matching a `Server` method that locks).
    let mut locks_in: Vec<BTreeSet<String>> = direct
        .iter()
        .map(|v| v.iter().map(|(l, _)| l.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for e in graph.edges[i].iter().filter(|e| e.certain) {
                let add: Vec<String> = locks_in[e.callee]
                    .iter()
                    .filter(|l| !locks_in[i].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    locks_in[i].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Lock-order edges L→M with evidence: "while holding L, fn f at
    //    line … acquires (or calls into something that acquires) M".
    //    Conservative: a guard is assumed held until the function ends.
    let mut ledges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (i, node) in graph.fns.iter().enumerate() {
        let mut held: Vec<String> = Vec::new();
        for fact in &node.facts {
            if let Some((m, line)) = lock_acquisition(node, fact) {
                for l in &held {
                    if *l != m {
                        ledges.entry((l.clone(), m.clone())).or_insert((i, line));
                    }
                }
                if !held.contains(&m) {
                    held.push(m);
                }
                continue;
            }
            if held.is_empty() {
                continue;
            }
            let line = fact.line();
            for e in graph.edges[i]
                .iter()
                .filter(|e| e.certain && e.line == line)
            {
                for m in &locks_in[e.callee] {
                    for l in &held {
                        if l != m {
                            ledges.entry((l.clone(), m.clone())).or_insert((i, line));
                        }
                    }
                }
            }
        }
    }

    // 4. Cycle detection over the lock-order graph.
    let mut nodes: Vec<String> = ledges.keys().map(|(a, _)| a.clone()).collect();
    nodes.extend(ledges.keys().map(|(_, b)| b.clone()));
    nodes.sort();
    nodes.dedup();
    let succ: BTreeMap<String, Vec<String>> = {
        let mut m: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (a, b) in ledges.keys() {
            m.entry(a.clone()).or_default().push(b.clone());
        }
        m
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        // DFS with an explicit stack path, small graphs only.
        let mut path: Vec<String> = vec![start.clone()];
        dfs_cycles(
            &succ,
            &mut path,
            &mut reported,
            &ledges,
            graph,
            by_path,
            out,
        );
    }
}

fn dfs_cycles(
    succ: &BTreeMap<String, Vec<String>>,
    path: &mut Vec<String>,
    reported: &mut BTreeSet<Vec<String>>,
    ledges: &BTreeMap<(String, String), (usize, usize)>,
    graph: &CallGraph,
    by_path: &HashMap<&str, &ParsedFile>,
    out: &mut Vec<Finding>,
) {
    let cur = path.last().cloned().unwrap_or_default();
    let Some(nexts) = succ.get(&cur) else { return };
    for next in nexts {
        if let Some(at) = path.iter().position(|p| p == next) {
            // Cycle: path[at..] + next. Canonicalize by rotating the
            // smallest lock name to the front so each cycle reports once.
            let cyc: Vec<String> = path[at..].iter().map(|s| (*s).clone()).collect();
            let min_at = cyc
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map(|(k, _)| k)
                .unwrap_or(0);
            let mut canon = cyc[min_at..].to_vec();
            canon.extend_from_slice(&cyc[..min_at]);
            if !reported.insert(canon.clone()) {
                continue;
            }
            let mut evidence = Vec::new();
            let mut first_site: Option<(usize, usize)> = None;
            for w in 0..canon.len() {
                let a = &canon[w];
                let b = &canon[(w + 1) % canon.len()];
                if let Some(&(f, line)) = ledges.get(&(a.clone(), b.clone())) {
                    let node = &graph.fns[f];
                    evidence.push(format!(
                        "`{}` -> `{}` (in `{}` at {}:{})",
                        a,
                        b,
                        node.label(),
                        node.path,
                        line
                    ));
                    if first_site.is_none() {
                        first_site = Some((f, line));
                    }
                }
            }
            let (f, line) = first_site.unwrap_or((0, 0));
            let node = &graph.fns[f];
            let snippet = by_path
                .get(node.path.as_str())
                .map(|p| p.raw_line(line))
                .unwrap_or_default();
            let mut call_path = canon.clone();
            call_path.push(canon[0].clone());
            out.push(Finding {
                rule: "lock_order",
                // Advisory: the static cycle is over may-alias lock
                // names, so it deserves an eye rather than a red build —
                // and the `--github` reporter maps it to `::warning`
                // instead of `::error` accordingly.
                severity: Severity::Warn,
                path: node.path.clone(),
                line,
                message: format!(
                    "lock-order cycle ({}); acquire locks in one global order or \
                     drop the first guard before taking the second",
                    evidence.join("; ")
                ),
                snippet,
                call_path,
            });
            continue;
        }
        path.push(next.clone());
        dfs_cycles(succ, path, reported, ledges, graph, by_path, out);
        path.pop();
    }
}

/// Whether a fact is an allocation, and what to call it.
fn alloc_kind(fact: &Fact) -> Option<(String, usize, bool)> {
    match fact {
        Fact::Call {
            path,
            line,
            in_loop,
        } => {
            if path.len() >= 2 {
                let t = &path[path.len() - 2];
                let f = &path[path.len() - 1];
                if ALLOC_CALLS
                    .iter()
                    .any(|(ct, cf)| *ct == t.as_str() && *cf == f.as_str())
                {
                    return Some((format!("{t}::{f}"), *line, *in_loop));
                }
            }
            None
        }
        Fact::Method {
            name,
            line,
            in_loop,
            ..
        } if ALLOC_METHODS.contains(&name.as_str()) => {
            Some((format!(".{name}(…)"), *line, *in_loop))
        }
        Fact::Macro {
            name,
            line,
            in_loop,
        } if ALLOC_MACROS.contains(&name.as_str()) => Some((format!("{name}!"), *line, *in_loop)),
        _ => None,
    }
}

/// Rule 8 — `hot_loop_alloc`: the allocation-free decode invariant.
fn rule_hot_loop_alloc(
    graph: &CallGraph,
    by_path: &HashMap<&str, &ParsedFile>,
    strict: bool,
    out: &mut Vec<Finding>,
) {
    let roots = resolve_roots(graph, HOT_LOOP_ROOTS, strict);
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach_with_parents(&roots);

    // Functions reached *through an in-loop call edge* execute once per
    // loop iteration: any allocation there is a per-iteration
    // allocation, looped locally or not. BFS over (fn, looped) states.
    let mut looped: BTreeSet<usize> = BTreeSet::new();
    {
        let mut seen: BTreeSet<(usize, bool)> = BTreeSet::new();
        let mut q: Vec<(usize, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((u, ctx)) = q.pop() {
            if !seen.insert((u, ctx)) {
                continue;
            }
            if ctx {
                looped.insert(u);
            }
            for e in &graph.edges[u] {
                q.push((e.callee, ctx || e.in_loop));
            }
        }
    }

    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for i in reached {
        let node = &graph.fns[i];
        let per_iteration = looped.contains(&i);
        for fact in &node.facts {
            let Some((what, line, in_loop)) = alloc_kind(fact) else {
                continue;
            };
            if !in_loop && !per_iteration {
                continue;
            }
            let why = if in_loop {
                "inside a loop"
            } else {
                "in a function called from a loop"
            };
            let call_path = graph.path_to(&parents, i);
            out.push(Finding {
                rule: "hot_loop_alloc",
                severity: Severity::Error,
                path: node.path.clone(),
                line,
                message: format!(
                    "allocation `{}` {} on the allocation-free decode path \
                     (reachable from `{}`); hoist it into a scratch buffer or \
                     precompute it outside the loop",
                    what,
                    why,
                    call_path.first().cloned().unwrap_or_default()
                ),
                snippet: by_path
                    .get(node.path.as_str())
                    .map(|p| p.raw_line(line))
                    .unwrap_or_default(),
                call_path,
            });
        }
    }
}

/// Rule 9 — `float_reduction_order`: bitwise-inert blocking needs one
/// ascending-`k` addition chain per output. Iterator `sum`/`fold` hide
/// their association order behind the iterator, reversed/stepped
/// accumulation loops change it outright, and horizontal-add intrinsics
/// (`_mm256_hadd_ps`, `vaddvq_f32`, …) bury it inside the ISA. SIMD
/// kernels must use fixed per-lane ascending-`k` chains folded by an
/// explicit pairwise lane tree instead. Only functions whose signature
/// mentions `f32`/`f64` are checked — integer reductions are exact in
/// any order.
fn rule_float_reduction_order(files: &[ParsedFile], strict: bool, out: &mut Vec<Finding>) {
    for f in files {
        if !strict && !FLOAT_REDUCTION_SCOPE.iter().any(|p| f.path.ends_with(p)) {
            continue;
        }
        for d in &f.fns {
            if d.in_test || !(d.sig.contains("f32") || d.sig.contains("f64")) {
                continue;
            }
            for fact in &d.facts {
                let (line, what) = match fact {
                    Fact::Method { name, line, .. } if name == "sum" => {
                        (*line, "iterator `.sum()` hides the reduction order")
                    }
                    Fact::Method { name, line, .. } if name == "fold" => {
                        (*line, "iterator `.fold(…)` hides the reduction order")
                    }
                    Fact::NonAscendingAccum { line } => (
                        *line,
                        "non-ascending accumulation (`.rev()`/`.step_by(…)` feeding `+=`)",
                    ),
                    Fact::Call { path, line, .. }
                        if path.last().is_some_and(|f| {
                            HORIZONTAL_REDUCE_INTRINSICS.contains(&f.as_str())
                        }) =>
                    {
                        (
                            *line,
                            "horizontal-reduce intrinsic hides the lane association order; \
                             spill lanes and fold them with an explicit pairwise tree",
                        )
                    }
                    _ => continue,
                };
                out.push(Finding {
                    rule: "float_reduction_order",
                    severity: Severity::Error,
                    path: f.path.clone(),
                    line,
                    message: format!(
                        "{what}; kernels must accumulate with an explicit ascending-`k` \
                         loop so blocked and unblocked paths stay bitwise-identical \
                         (Theorem 4.2 precondition)"
                    ),
                    snippet: f.raw_line(line),
                    call_path: Vec::new(),
                });
            }
        }
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
        let mut out = Vec::new();
        semantic_findings(&parsed, strict, &mut out);
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
    fn lock_order_flags_abba_with_evidence() {
        let out = run(
            &[(
                "crates/serving/src/server.rs",
                "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n    fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n}\n",
            )],
            false,
        );
        let f: Vec<_> = out.iter().filter(|f| f.rule == "lock_order").collect();
        assert_eq!(f.len(), 1, "one canonical cycle: {out:#?}");
        assert!(f[0].message.contains("S.a"), "{}", f[0].message);
        assert!(f[0].message.contains("S.b"), "{}", f[0].message);
        assert_eq!(f[0].call_path, vec!["S.a", "S.b", "S.a"]);
    }

    #[test]
    fn lock_order_propagates_through_calls() {
        let out = run(
            &[(
                "crates/serving/src/server.rs",
                "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) { let _x = self.a.lock(); self.take_b(); }\n    fn take_b(&self) { let _y = self.b.lock(); }\n    fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n}\n",
            )],
            false,
        );
        assert!(
            out.iter().any(|f| f.rule == "lock_order"),
            "cycle through a callee must be found: {out:#?}"
        );
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let out = run(
            &[(
                "crates/serving/src/server.rs",
                "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n    fn ab2(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n}\n",
            )],
            false,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn io_read_write_with_args_are_not_locks() {
        let out = run(
            &[(
                "crates/serving/src/server.rs",
                "struct S { sock: TcpStream, log: File }\nimpl S {\n    fn io(&mut self, buf: &mut [u8]) { self.sock.read(buf); self.log.write(buf); }\n}\n",
            )],
            false,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn hot_loop_alloc_flags_in_loop_and_callee_allocs() {
        let out = run(
            &[(
                "crates/model/src/transformer.rs",
                "pub fn decode_one(n: usize) {\n    let setup = Vec::with_capacity(n);\n    for i in 0..n {\n        let tmp = vec![0u8; 4];\n        helper(i);\n    }\n}\nfn helper(i: usize) { let s = Vec::new(); }\n",
            )],
            false,
        );
        let f: Vec<_> = out.iter().filter(|f| f.rule == "hot_loop_alloc").collect();
        assert_eq!(
            f.len(),
            2,
            "vec! in loop + Vec::new in looped callee: {out:#?}"
        );
        assert!(f.iter().any(|x| x.message.contains("vec!")));
        assert!(f.iter().any(|x| x.message.contains("Vec::new")));
        assert!(f.iter().all(|x| !x.snippet.contains("with_capacity")));
    }

    #[test]
    fn setup_allocations_outside_loops_are_fine() {
        let out = run(
            &[(
                "crates/model/src/transformer.rs",
                "pub fn decode_one(n: usize) {\n    let mut out = Vec::with_capacity(n);\n    helper(&mut out);\n    for i in 0..n { step(i); }\n}\nfn helper(v: &mut Vec<u8>) { v.push(0); }\nfn step(i: usize) {}\n",
            )],
            false,
        );
        assert!(
            out.is_empty(),
            "helper is not called from the loop: {out:#?}"
        );
    }

    #[test]
    fn float_reduction_scope_and_f32_gate() {
        let kernels = "pub fn dot(a: &[f32], b: &[f32]) -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() }\npub fn count(a: &[u64]) -> u64 { a.iter().sum() }\n";
        let out = run(&[("crates/tensor/src/kernels.rs", kernels)], false);
        let f: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "float_reduction_order")
            .collect();
        assert_eq!(f.len(), 1, "integer sum is exact in any order: {out:#?}");
        // Same code outside the kernel file: out of scope.
        let out = run(&[("crates/model/src/sampler.rs", kernels)], false);
        assert!(
            out.iter().all(|f| f.rule != "float_reduction_order"),
            "{out:#?}"
        );
    }

    #[test]
    fn horizontal_reduce_intrinsics_flagged_in_simd_scope() {
        // `hadd`-style intrinsics hide the lane association order: flagged,
        // whether called bare or through a fully-qualified path.
        let bad = "pub fn tail(acc: f32) -> f32 { let h = _mm256_hadd_ps(acc, acc); core::arch::aarch64::vaddvq_f32(h) }\n";
        let out = run(&[("crates/tensor/src/simd.rs", bad)], false);
        let f: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "float_reduction_order")
            .collect();
        assert_eq!(f.len(), 2, "{out:#?}");
        // The sanctioned pattern — spill lanes, fold with an explicit
        // pairwise tree, ascending mul_add tail — stays clean.
        let good = "pub fn tree(lanes: &[f32; 8]) -> f32 { ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])) }\n";
        let out = run(&[("crates/tensor/src/pack.rs", good)], false);
        assert!(
            out.iter().all(|f| f.rule != "float_reduction_order"),
            "{out:#?}"
        );
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
