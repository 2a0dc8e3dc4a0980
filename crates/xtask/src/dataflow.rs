//! A small worklist abstract-interpretation engine over [`crate::cfg`]
//! graphs.
//!
//! [`solve_forward`] propagates block-entry states along successor
//! edges. States are any `Clone + PartialEq` lattice value; the caller
//! supplies the join (least upper bound) and the per-block transfer
//! function. Termination is the caller's obligation in
//! principle (finite-height lattices), but every client in this crate
//! uses finite sets of identifiers, where the fixpoint is reached in at
//! most `|blocks| · |vars|` iterations. A hard iteration cap turns a
//! non-converging lattice into a conservative stop instead of a hang.
//!
//! Interprocedural propagation does not live here: [`crate::taint`]
//! runs this engine per function and stitches functions together with
//! call-site summaries along `certain` call-graph edges, carrying
//! k-bounded call strings as evidence.

use crate::cfg::Cfg;

/// Iteration cap: generous for any real function (the workspace's
/// largest CFGs are well under 200 blocks).
const MAX_PASSES: usize = 10_000;

/// Forward fixpoint. Returns the state at each block's *entry*.
///
/// `init` seeds the entry block; every other block starts from
/// `bottom`. `transfer(block, in_state)` computes the block's exit
/// state; `join` merges exit states flowing into a block.
pub fn solve_forward<S, FJ, FT>(cfg: &Cfg, bottom: S, init: S, join: FJ, transfer: FT) -> Vec<S>
where
    S: Clone + PartialEq,
    FJ: Fn(&S, &S) -> S,
    FT: Fn(usize, &S) -> S,
{
    let n = cfg.blocks.len();
    let mut in_states = vec![bottom; n];
    in_states[cfg.entry] = init;
    let order = cfg.rpo();
    let mut passes = 0usize;
    loop {
        let mut changed = false;
        for &b in &order {
            let out = transfer(b, &in_states[b]);
            for &s in &cfg.blocks[b].succs {
                let merged = join(&in_states[s], &out);
                if merged != in_states[s] {
                    in_states[s] = merged;
                    changed = true;
                }
            }
        }
        passes += 1;
        if !changed || passes >= MAX_PASSES {
            return in_states;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build;
    use crate::parse::parse_file;
    use crate::scan::scan_source;
    use std::collections::BTreeSet;

    fn cfg_of(body: &str) -> crate::cfg::Cfg {
        let src = format!("fn f(n: usize) {{\n{body}\n}}\n");
        let p = parse_file(&scan_source("crates/x/src/a.rs", &src, true));
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        build(&p.fns[0].body, p.fns[0].line)
    }

    type Vars = BTreeSet<String>;

    fn union(a: &Vars, b: &Vars) -> Vars {
        a.union(b).cloned().collect()
    }

    #[test]
    fn forward_taint_reaches_through_branches_and_joins() {
        // `n` is tainted at entry; `a` picks it up in one branch only,
        // so at the join both `n` and `a` are tainted (may-analysis).
        let cfg = cfg_of("let mut a = 0;\nif n > 1 { a = n; } else { a = 2; }\nsink(a);");
        let mut seed = Vars::new();
        seed.insert("n".into());
        let states = solve_forward(&cfg, Vars::new(), seed, union, |b, s| {
            let mut out = s.clone();
            for stmt in &cfg.blocks[b].stmts {
                let gen = stmt.uses.iter().any(|u| out.contains(u));
                for d in &stmt.defs {
                    if gen {
                        out.insert(d.clone());
                    } else if !stmt.weak_def {
                        out.remove(d);
                    }
                }
            }
            out
        });
        let sink_block = (0..cfg.blocks.len())
            .find(|b| {
                cfg.blocks[*b]
                    .stmts
                    .iter()
                    .any(|s| s.calls.iter().any(|c| c.name() == "sink"))
            })
            .expect("sink block");
        assert!(states[sink_block].contains("a"), "{states:#?}");
        assert!(states[sink_block].contains("n"));
    }

    #[test]
    fn forward_strong_update_kills_taint_on_every_path() {
        let cfg = cfg_of("let mut a = n;\na = 0;\nsink(a);");
        let mut seed = Vars::new();
        seed.insert("n".into());
        let states = solve_forward(&cfg, Vars::new(), seed, union, |b, s| {
            let mut out = s.clone();
            for stmt in &cfg.blocks[b].stmts {
                let gen = stmt.uses.iter().any(|u| out.contains(u));
                for d in &stmt.defs {
                    if gen {
                        out.insert(d.clone());
                    } else if !stmt.weak_def {
                        out.remove(d);
                    }
                }
            }
            out
        });
        // All statements share the entry block; run the transfer to the
        // end and check `a` was re-killed by the constant store.
        let mut out = states[cfg.entry].clone();
        for stmt in &cfg.blocks[cfg.entry].stmts {
            let gen = stmt.uses.iter().any(|u| out.contains(u));
            for d in &stmt.defs {
                if gen {
                    out.insert(d.clone());
                } else if !stmt.weak_def {
                    out.remove(d);
                }
            }
        }
        assert!(!out.contains("a"), "{out:?}");
    }
}
