//! Module-resolved workspace call graph over [`crate::parse`] output.
//!
//! Nodes are parsed functions; edges come from three resolution forms,
//! in decreasing precision:
//!
//! 1. **Path calls** — `helper()`, `module::helper()`,
//!    `Type::method()`. Resolved through the file's `use` map, then
//!    same-module → same-file → same-crate free functions; `Type::`/
//!    `Self::` qualifiers match by impl owner.
//! 2. **`self.method()`** — resolved to methods of the enclosing impl
//!    type only.
//! 3. **`recv.method()`** — over-approximated to every workspace method
//!    of that name (receiver types are unknown without full inference).
//!    This errs toward *more* edges, which is the safe direction for
//!    reachability rules: a spurious edge can at worst demand a
//!    justification, never hide a panic path.
//!
//! Shim crates (`shims/`) are deliberately outside the graph: they stand
//! in for external libraries, and the lexical `shim_hygiene` rule owns
//! them. Functions in `cfg(test)` regions contribute no nodes or edges.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::parse::{Fact, ParsedFile};

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Source file (workspace-relative where possible).
    pub path: String,
    /// Crate directory name (`spec`, `model`, …).
    pub krate: String,
    /// Module path inside the crate (file stem + inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Raw signature line (diagnostics + allowlist matching).
    pub sig: String,
    pub in_test: bool,
    /// Body facts, as parsed.
    pub facts: Vec<Fact>,
}

impl FnNode {
    /// `owner::name` or bare `name` — the human-readable label used in
    /// call-path evidence.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}", o, self.name),
            None => self.name.clone(),
        }
    }
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// Line of the call site in the caller.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function, deduped by callee (first site wins).
    pub edges: Vec<Vec<Edge>>,
}

/// The workspace crate dependency map: crate → crates it may call into.
/// Method-name resolution over-approximates receiver types, so it is
/// filtered by layering — an edge may only point at the caller's crate
/// or one of its dependencies (dependencies point downward; `model` can
/// never call into `serving`, whatever a method happens to be named).
/// A test pins this table against the actual `Cargo.toml`s.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("tensor", &[]),
    ("tokentree", &[]),
    ("sim", &[]),
    ("model", &["tensor", "tokentree"]),
    ("workloads", &["tensor", "tokentree"]),
    ("spec", &["model", "tensor", "tokentree"]),
    (
        "serving",
        &["model", "sim", "spec", "tensor", "tokentree", "workloads"],
    ),
    (
        "bench",
        &[
            "model",
            "serving",
            "sim",
            "spec",
            "tensor",
            "tokentree",
            "workloads",
        ],
    ),
    (
        "cli",
        &[
            "model",
            "serving",
            "sim",
            "spec",
            "tensor",
            "tokentree",
            "workloads",
        ],
    ),
];

/// Method names that collide with std collection/iterator/sync APIs.
/// Unknown-receiver resolution skips these: a bare `.push(…)` is almost
/// always `Vec::push`, and edging it to every workspace method named
/// `push` floods the graph with upward nonsense. Precise forms —
/// `self.push()`, `Type::push()` — still resolve; a workspace method
/// that must be tracked through an untyped receiver should simply not
/// shadow a std name.
const STD_COLLIDING_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "clear", "get", "len", "is_empty", "clone", "extend",
    "iter", "iter_mut", "next", "last", "first", "contains", "sum", "fold", "map", "filter",
    "take", "spawn", "join", "send", "recv", "lock", "read", "write", "split", "swap", "sort",
    "min", "max", "abs", "sqrt", "into", "from", "new", "default", "drain", "to_vec", "as_ref",
    "as_mut", "unwrap", "expect", "collect", "add",
];

/// Whether layering permits a call from `caller`'s crate into
/// `callee`'s. Crates not in the table (fixtures, xtask) carry no
/// layering information and allow everything.
fn crate_can_call(caller: &str, callee: &str) -> bool {
    if caller == callee {
        return true;
    }
    match CRATE_DEPS.iter().find(|(c, _)| *c == caller) {
        Some((_, deps)) => deps.contains(&callee),
        None => true,
    }
}

/// Extracts the crate directory name from a source path:
/// `crates/spec/src/engine.rs` → `spec`. Absolute paths work too (the
/// search is for a `crates/` component). Files outside `crates/` (shims,
/// fixtures given verbatim) get the synthetic crate `"_"`.
pub fn crate_of(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let mut parts = norm.split('/').peekable();
    while let Some(p) = parts.next() {
        if p == "crates" {
            if let Some(dir) = parts.peek() {
                return (*dir).to_string();
            }
        }
    }
    "_".to_string()
}

/// Maps a `use`d crate identifier to a crate directory name:
/// `specinfer_model` → `model`, `crate` → the current crate.
fn crate_ident_to_dir(seg: &str, current: &str) -> Option<String> {
    if seg == "crate" {
        return Some(current.to_string());
    }
    let s = seg.replace('-', "_");
    if let Some(rest) = s.strip_prefix("specinfer_") {
        return Some(rest.to_string());
    }
    None
}

/// Module path of a file inside its crate: `src/engine.rs` → `[engine]`,
/// `src/lib.rs`/`src/main.rs` → `[]`, `src/sub/mod.rs` → `[sub]`,
/// `tests/foo.rs` → `[tests, foo]`.
fn module_of(path: &str) -> Vec<String> {
    let norm = path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    let anchor = parts
        .iter()
        .position(|p| *p == "src" || *p == "tests" || *p == "benches")
        .map(|i| if parts[i] == "src" { i + 1 } else { i })
        .unwrap_or(parts.len().saturating_sub(1));
    let mut out = Vec::new();
    for (i, p) in parts.iter().enumerate().skip(anchor) {
        let is_last = i + 1 == parts.len();
        if is_last {
            let stem = p.strip_suffix(".rs").unwrap_or(p);
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_string());
            }
        } else {
            out.push((*p).to_string());
        }
    }
    out
}

/// Builds the call graph from parsed files. Shim files and test-only
/// functions are excluded at node level.
pub fn build(files: &[ParsedFile]) -> CallGraph {
    let mut g = CallGraph::default();

    // Per-file use maps: alias → full segments.
    let mut use_maps: HashMap<String, Vec<(String, Vec<String>)>> = HashMap::new();
    for f in files {
        if is_shim(&f.path) {
            continue;
        }
        let entry = use_maps.entry(f.path.clone()).or_default();
        for u in &f.uses {
            entry.push((u.alias.clone(), u.segments.clone()));
        }
        let krate = crate_of(&f.path);
        let fmod = module_of(&f.path);
        for d in &f.fns {
            if d.in_test {
                continue;
            }
            let mut module = fmod.clone();
            module.extend(d.modules.iter().cloned());
            g.fns.push(FnNode {
                path: f.path.clone(),
                krate: krate.clone(),
                module,
                owner: d.owner.clone(),
                name: d.name.clone(),
                line: d.line,
                sig: d.sig.clone(),
                in_test: d.in_test,
                facts: d.facts.clone(),
            });
        }
    }
    g.edges = vec![Vec::new(); g.fns.len()];

    // Indexes.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in g.fns.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
        if let Some(o) = &n.owner {
            by_owner_name
                .entry((o.as_str(), n.name.as_str()))
                .or_default()
                .push(i);
        }
    }

    for caller in 0..g.fns.len() {
        let node = g.fns[caller].clone();
        let uses = use_maps.get(&node.path).cloned().unwrap_or_default();
        let mut seen: Vec<usize> = Vec::new();
        for fact in &node.facts {
            let (targets, line) = match fact {
                Fact::Call { path, line } => (
                    resolve_path_call(&g, &by_name, &by_owner_name, &node, &uses, path),
                    *line,
                ),
                Fact::Method {
                    name, recv, line, ..
                } => (
                    resolve_method_call(&by_name, &by_owner_name, &g, &node, name, recv),
                    *line,
                ),
                _ => continue,
            };
            for t in targets {
                if t == caller || seen.contains(&t) {
                    continue;
                }
                seen.push(t);
                g.edges[caller].push(Edge { callee: t, line });
            }
        }
    }
    g
}

fn is_shim(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.split('/').any(|p| p == "shims")
}

/// Resolves a path call `a::b::f(…)` to candidate node indexes.
fn resolve_path_call(
    g: &CallGraph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_owner_name: &BTreeMap<(&str, &str), Vec<usize>>,
    node: &FnNode,
    uses: &[(String, Vec<String>)],
    path: &[String],
) -> Vec<usize> {
    if path.is_empty() {
        return Vec::new();
    }
    // Expand a leading alias through the use map.
    let mut full: Vec<String> = path.to_vec();
    if let Some((_, segs)) = uses.iter().find(|(a, _)| a == &full[0]) {
        let mut v = segs.clone();
        v.extend_from_slice(&full[1..]);
        full = v;
    }
    let name = full.last().cloned().unwrap_or_default();
    let quals = &full[..full.len() - 1];

    if let Some(q) = quals.last() {
        // `Type::method` / `Self::method` — owner match.
        let type_qual = q.chars().next().is_some_and(|c| c.is_uppercase());
        if q == "Self" {
            if let Some(o) = &node.owner {
                if let Some(v) = by_owner_name.get(&(o.as_str(), name.as_str())) {
                    return filtered(g, node, v);
                }
            }
            return Vec::new();
        }
        if type_qual {
            return by_owner_name
                .get(&(q.as_str(), name.as_str()))
                .map(|v| filtered(g, node, v))
                .unwrap_or_default();
        }
    }

    // Module-qualified or bare free-fn call.
    let mut cands: Vec<usize> = by_name
        .get(name.as_str())
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&i| g.fns[i].owner.is_none() && !g.fns[i].in_test)
                .collect()
        })
        .unwrap_or_default();
    if cands.is_empty() {
        return cands;
    }

    if quals.is_empty() {
        // Bare call: same module in same file, else same file, else
        // same crate. First non-empty tier wins.
        let same_mod: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| g.fns[i].path == node.path && g.fns[i].module == node.module)
            .collect();
        if !same_mod.is_empty() {
            return same_mod;
        }
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| g.fns[i].path == node.path)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        cands.retain(|&i| g.fns[i].krate == node.krate);
        return cands;
    }

    // Qualified: normalize the qualifier into (crate, module-segments)
    // and require a match.
    let mut want_crate: Option<String> = None;
    let mut mod_segs: Vec<String> = Vec::new();
    for (i, q) in quals.iter().enumerate() {
        if i == 0 {
            if let Some(dir) = crate_ident_to_dir(q, &node.krate) {
                want_crate = Some(dir);
                continue;
            }
            if q == "self" {
                want_crate = Some(node.krate.clone());
                mod_segs = node.module.clone();
                continue;
            }
            if q == "super" {
                want_crate = Some(node.krate.clone());
                mod_segs = node.module.clone();
                mod_segs.pop();
                continue;
            }
        }
        mod_segs.push(q.clone());
    }
    cands.retain(|&i| {
        let n = &g.fns[i];
        if let Some(wc) = &want_crate {
            if &n.krate != wc {
                return false;
            }
        }
        // The callee's module path must end with the qualifier's module
        // segments (suffix match tolerates unresolved prefixes).
        if mod_segs.is_empty() {
            true
        } else {
            n.module.len() >= mod_segs.len() && n.module.ends_with(&mod_segs[..])
        }
    });
    cands
}

/// Resolves `recv.method(…)`. `self.method()` binds to the enclosing
/// impl type; everything else over-approximates across all owners.
fn resolve_method_call(
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_owner_name: &BTreeMap<(&str, &str), Vec<usize>>,
    g: &CallGraph,
    node: &FnNode,
    name: &str,
    recv: &[String],
) -> Vec<usize> {
    if recv == ["self"] {
        if let Some(o) = &node.owner {
            if let Some(v) = by_owner_name.get(&(o.as_str(), name)) {
                return filtered(g, node, v);
            }
        }
        return Vec::new();
    }
    if STD_COLLIDING_METHODS.contains(&name) {
        return Vec::new();
    }
    by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&i| {
                    g.fns[i].owner.is_some()
                        && !g.fns[i].in_test
                        && crate_can_call(&node.krate, &g.fns[i].krate)
                })
                .collect()
        })
        .unwrap_or_default()
}

fn filtered(g: &CallGraph, node: &FnNode, v: &[usize]) -> Vec<usize> {
    v.iter()
        .copied()
        .filter(|&i| !g.fns[i].in_test && crate_can_call(&node.krate, &g.fns[i].krate))
        .collect()
}

impl CallGraph {
    /// Finds a node by (path-suffix, name). Used to locate rule entry
    /// points and in tests.
    pub fn find(&self, path_suffix: &str, name: &str) -> Option<usize> {
        self.fns
            .iter()
            .position(|n| n.name == name && n.path.ends_with(path_suffix))
    }

    /// All nodes with a given name (strict-mode entry matching).
    pub fn find_all_named(&self, name: &str) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].name == name)
            .collect()
    }

    /// Whether `caller` has an edge to `callee`.
    pub fn has_edge(&self, caller: usize, callee: usize) -> bool {
        self.edges[caller].iter().any(|e| e.callee == callee)
    }

    /// BFS from `starts`; returns, per reached node, the (parent, line)
    /// it was first discovered through. Start nodes map to themselves.
    pub fn reach_with_parents(&self, starts: &[usize]) -> HashMap<usize, (usize, usize)> {
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut q = VecDeque::new();
        for &s in starts {
            if parent.contains_key(&s) {
                continue;
            }
            parent.insert(s, (s, self.fns[s].line));
            q.push_back(s);
        }
        while let Some(u) = q.pop_front() {
            // Deterministic order: edges are stored in source order.
            for e in &self.edges[u] {
                if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(e.callee) {
                    slot.insert((u, e.line));
                    q.push_back(e.callee);
                }
            }
        }
        parent
    }

    /// Reconstructs the discovery path `entry → … → target` as labels.
    pub fn path_to(&self, parents: &HashMap<usize, (usize, usize)>, target: usize) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(&(p, _)) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain.into_iter().map(|i| self.fns[i].label()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| crate::parse::parse_file(&scan_source(p, s, true)))
            .collect();
        for p in &parsed {
            assert!(p.errors.is_empty(), "{}: {:?}", p.path, p.errors);
        }
        build(&parsed)
    }

    #[test]
    fn direct_call_edge_same_file() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn top() { helper(); }\nfn helper() {}\n",
        )]);
        let top = g.find("lib.rs", "top").expect("top");
        let helper = g.find("lib.rs", "helper").expect("helper");
        assert!(g.has_edge(top, helper));
        assert!(!g.has_edge(helper, top));
    }

    #[test]
    fn method_call_edge_via_self() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n    fn outer(&self) { self.inner(); }\n    fn inner(&self) {}\n}\n",
        )]);
        let outer = g.find("lib.rs", "outer").expect("outer");
        let inner = g.find("lib.rs", "inner").expect("inner");
        assert!(g.has_edge(outer, inner));
    }

    #[test]
    fn self_method_does_not_leak_to_other_types() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S;\nstruct T;\nimpl S {\n    fn outer(&self) { self.m(); }\n    fn m(&self) {}\n}\nimpl T {\n    fn m(&self) {}\n}\n",
        )]);
        let outer = g.find("lib.rs", "outer").expect("outer");
        let sm = g
            .fns
            .iter()
            .position(|n| n.name == "m" && n.owner.as_deref() == Some("S"))
            .expect("S::m");
        let tm = g
            .fns
            .iter()
            .position(|n| n.name == "m" && n.owner.as_deref() == Some("T"))
            .expect("T::m");
        assert!(g.has_edge(outer, sm));
        assert!(!g.has_edge(outer, tm));
    }

    #[test]
    fn unknown_receiver_method_over_approximates() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S { fn m(&self) {} }\nfn free(x: &S) { x.m(); }\n",
        )]);
        let free = g.find("lib.rs", "free").expect("free");
        let m = g.find("lib.rs", "m").expect("m");
        assert!(g.has_edge(free, m));
    }

    #[test]
    fn cross_module_use_resolution() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use crate::util::helper;\npub fn top() { helper(); }\n",
            ),
            ("crates/a/src/util.rs", "pub fn helper() {}\n"),
        ]);
        let top = g.find("lib.rs", "top").expect("top");
        let helper = g.find("util.rs", "helper").expect("helper");
        assert!(g.has_edge(top, helper));
    }

    #[test]
    fn cross_crate_qualified_resolution() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use specinfer_b::sampler;\npub fn top() { sampler::pick(); specinfer_b::sampler::pick2(); }\n",
            ),
            (
                "crates/b/src/sampler.rs",
                "pub fn pick() {}\npub fn pick2() {}\n",
            ),
        ]);
        let top = g.find("lib.rs", "top").expect("top");
        let pick = g.find("sampler.rs", "pick").expect("pick");
        let pick2 = g.find("sampler.rs", "pick2").expect("pick2");
        assert!(g.has_edge(top, pick), "use-aliased module call");
        assert!(g.has_edge(top, pick2), "fully qualified call");
    }

    #[test]
    fn type_qualified_and_use_imported_assoc_fn() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use specinfer_b::Widget;\npub fn top() { let w = Widget::build(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct Widget;\nimpl Widget { pub fn build() -> Widget { Widget } }\n",
            ),
        ]);
        let top = g.find("a/src/lib.rs", "top").expect("top");
        let build = g.find("b/src/lib.rs", "build").expect("build");
        assert!(g.has_edge(top, build));
    }

    #[test]
    fn bare_call_prefers_same_module_over_same_crate() {
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "pub fn top() { helper(); }\npub fn helper() { marker_x(); }\nfn marker_x() {}\n",
            ),
            ("crates/a/src/y.rs", "pub fn helper() {}\n"),
        ]);
        let top = g.find("x.rs", "top").expect("top");
        let hx = g.find("x.rs", "helper").expect("x helper");
        let hy = g.find("y.rs", "helper").expect("y helper");
        assert!(g.has_edge(top, hx));
        assert!(!g.has_edge(top, hy), "same-file candidates shadow others");
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper_t() {}\n}\n",
        )]);
        assert!(g.find("lib.rs", "prod").is_some());
        assert!(g.find("lib.rs", "helper_t").is_none());
    }

    #[test]
    fn shims_are_not_nodes() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn top() { go(); }\n"),
            ("shims/x/src/lib.rs", "pub fn go() {}\n"),
        ]);
        assert!(g.find("shims/x/src/lib.rs", "go").is_none());
    }

    #[test]
    fn bfs_paths_reconstruct_discovery_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let entry = g.find("lib.rs", "entry").expect("entry");
        let leaf = g.find("lib.rs", "leaf").expect("leaf");
        let parents = g.reach_with_parents(&[entry]);
        assert!(parents.contains_key(&leaf));
        assert_eq!(g.path_to(&parents, leaf), vec!["entry", "mid", "leaf"]);
    }

    #[test]
    fn layering_blocks_upward_method_edges() {
        // `model` code calling `.spawn(…)` on a scoped-thread handle must
        // NOT resolve to a `serving` method of the same name: serving is
        // above model in the dependency DAG.
        let g = graph(&[
            (
                "crates/model/src/transformer.rs",
                "struct T;\nimpl T { fn forward(&self, s: &Scope) { s.spawn(); } }\n",
            ),
            (
                "crates/serving/src/daemon.rs",
                "struct D;\nimpl D { fn spawn(&self) {} }\n",
            ),
        ]);
        let fwd = g.find("transformer.rs", "forward").expect("forward");
        let spawn = g.find("daemon.rs", "spawn").expect("spawn");
        assert!(!g.has_edge(fwd, spawn), "upward edge must be filtered");
        // The reverse direction (serving calling down into model) stays.
        let g = graph(&[
            (
                "crates/serving/src/daemon.rs",
                "struct D;\nimpl D { fn run(&self, t: &T) { t.forward(); } }\n",
            ),
            (
                "crates/model/src/transformer.rs",
                "struct T;\nimpl T { fn forward(&self) {} }\n",
            ),
        ]);
        let run = g.find("daemon.rs", "run").expect("run");
        let fwd = g.find("transformer.rs", "forward").expect("forward");
        assert!(g.has_edge(run, fwd));
    }

    #[test]
    fn crate_deps_table_matches_the_manifests() {
        // The layering table is policy; the manifests are truth. Pin
        // them together so the table cannot drift silently.
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .map(std::path::PathBuf::from)
            .expect("crates/ dir");
        for (krate, deps) in CRATE_DEPS {
            let manifest = root.join(krate).join("Cargo.toml");
            let text =
                std::fs::read_to_string(&manifest).unwrap_or_else(|e| panic!("{krate}: {e}"));
            let mut actual: Vec<String> = text
                .lines()
                .filter_map(|l| {
                    let dep = l.trim().strip_prefix("specinfer-")?;
                    let name = dep.split([' ', '.', '=']).next()?;
                    Some(name.to_string())
                })
                .filter(|d| d != krate && d != "xtask")
                .collect();
            actual.sort();
            actual.dedup();
            let mut expected: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
            expected.sort();
            assert_eq!(
                actual, expected,
                "CRATE_DEPS entry for `{krate}` drifted from its Cargo.toml"
            );
        }
    }

    #[test]
    fn module_of_maps_paths() {
        assert_eq!(module_of("crates/a/src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_of("crates/a/src/engine.rs"), vec!["engine"]);
        assert_eq!(module_of("crates/a/src/sub/mod.rs"), vec!["sub"]);
        assert_eq!(module_of("crates/a/tests/smoke.rs"), vec!["tests", "smoke"]);
        assert_eq!(crate_of("crates/spec/src/engine.rs"), "spec");
        assert_eq!(crate_of("/abs/root/crates/model/src/lib.rs"), "model");
    }
}
