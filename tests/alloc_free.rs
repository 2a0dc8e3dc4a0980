//! Allocation-free decode, measured: once the per-thread scratch has
//! grown, a forward allocates per call — the logits it returns, and
//! what the convenience calls build around `forward_rows_batch` — and
//! never per layer, per row or per task.
//!
//! A counting global allocator sees every allocation on every thread,
//! the pool's workers included. At each thread count each model is
//! first warmed up at its largest shape, so the workers have started and
//! every thread's scratch has grown. Then every call of `decode_one`,
//! `prefill`, `decode_tree` and `forward_rows_batch`, over row counts,
//! cached contexts and stacked requests, must allocate one and the same
//! number of times per request count; a count that moves with rows,
//! layers, context or `d_ff` is a per-trip allocation. That number may
//! not exceed its entry in [`CEILINGS`], so one allocation added per
//! call fails too. The blocked attention kernels must allocate nothing
//! at all.
//!
//! The test is alone in its binary: another test's allocations would
//! land in the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use specinfer::model::{BatchRequest, KvCache, ModelConfig, Transformer, Visibility};
use specinfer::tensor::{kernels, set_max_threads};
use specinfer::tokentree::{LinearizedTree, TokenId, TokenTree};

/// Allocations, zeroed allocations and reallocations so far, all threads.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting.
struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what it returns; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards `alloc`'s contract to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller met `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards `alloc_zeroed`'s contract to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller met `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards `realloc`'s contract to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards `dealloc`'s contract to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes, on any thread, while it runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Rows per request: the 4- and 16-row tile edges, the workloads'
/// verify lanes (5, 10) and their prompts (33, 48).
const ROWS: [usize; 9] = [1, 2, 4, 5, 10, 16, 17, 33, 48];

/// Cached rows under a forward.
const CONTEXTS: [usize; 4] = [1, 7, 17, 40];

/// Requests stacked into one `forward_rows_batch`.
const MAX_REQUESTS: usize = 3;

/// `smoke`, `tiny_llm`, `tiny_llm` with one layer, and `tiny_llm` at
/// `d_ff` 8192, whose feed-forward packs are pool regions of many
/// k-slices. The flag is whether every row count runs at every context:
/// the wide model, 30 times the others' cost per row, takes one context
/// per row count, in turn.
fn models() -> [(&'static str, Transformer, bool); 4] {
    let llm = ModelConfig::tiny_llm;
    [
        ("smoke", ModelConfig::smoke(), true),
        ("tiny_llm", llm(), true),
        (
            "tiny_llm/1 layer",
            ModelConfig {
                n_layers: 1,
                ..llm()
            },
            true,
        ),
        (
            "tiny_llm/d_ff 8192",
            ModelConfig {
                d_ff: 8192,
                ..llm()
            },
            false,
        ),
    ]
    .map(|(name, config, every)| (name, Transformer::from_seed(config, 46), every))
}

/// `rows` tokens of `model`'s vocabulary.
fn tokens(model: &Transformer, rows: usize) -> Vec<TokenId> {
    let vocab = model.config().vocab_size as u32;
    (0..rows as u32).map(|i| (i * 7 + 3) % vocab).collect()
}

/// A tree of `rows` nodes, each below node `i / 2`: chains and forks.
fn tree(model: &Transformer, rows: usize) -> LinearizedTree {
    let toks = tokens(model, rows);
    let mut tree = TokenTree::new(toks[0]);
    let mut ids = vec![TokenTree::ROOT];
    for (i, &t) in toks.iter().enumerate().skip(1) {
        ids.push(tree.add_child(ids[i / 2], t, 0, 0.5));
    }
    LinearizedTree::new(&tree)
}

/// `requests` caches holding `context` rows each, room for `rows` more.
fn caches(model: &Transformer, requests: usize, context: usize, rows: usize) -> Vec<KvCache> {
    let prompt = tokens(model, context);
    let mut caches = vec![model.new_cache_with_capacity(context + rows); requests];
    for cache in &mut caches {
        model.prefill(&prompt, cache);
    }
    caches
}

/// Allocations of one `forward_rows_batch` of a tree of `rows` nodes on
/// top of each of `caches`, the request list built and the logits
/// dropped inside. Each cache is cut back to the `context` rows it held.
fn stacked(model: &Transformer, caches: &mut [KvCache], rows: usize, context: usize) -> usize {
    let lin = tree(model, rows);
    let positions: Vec<usize> = lin.depths().iter().map(|d| context + d).collect();
    let count = allocations(|| {
        let mut reqs: Vec<BatchRequest<'_>> = caches
            .iter_mut()
            .map(|cache| BatchRequest {
                tokens: lin.tokens(),
                positions: &positions,
                cache,
                visible: Visibility::Tree(lin.mask()),
            })
            .collect();
        drop(model.forward_rows_batch(&mut reqs));
    });
    caches.iter_mut().for_each(|cache| cache.truncate(context));
    count
}

/// Every call's allocations at `model`'s shapes, keyed by the requests
/// it forwards; each value names the call. `every`: each row count at
/// each context, else at one context each.
fn measure(model: &Transformer, name: &str, every: bool, threads: usize, seen: &mut Counts) {
    let mut record = |requests: usize, count: usize, call: String| {
        let cell = format!("{name}, {threads} thread(s): {call}");
        seen.entry(requests)
            .or_default()
            .entry(count)
            .or_default()
            .push(cell);
    };
    for (c, context) in CONTEXTS.into_iter().enumerate() {
        let mut caches = caches(model, MAX_REQUESTS, context, ROWS[ROWS.len() - 1]);
        let cache = &mut caches[0];
        let count = allocations(|| drop(model.decode_one(1, cache)));
        record(1, count, format!("decode_one after {context}"));
        cache.truncate(context);
        for (i, rows) in ROWS.into_iter().enumerate() {
            if !every && i % CONTEXTS.len() != c {
                continue;
            }
            let cache = &mut caches[0];
            let prompt = tokens(model, rows);
            let count = allocations(|| drop(model.prefill(&prompt, cache)));
            record(1, count, format!("prefill of {rows} after {context}"));
            cache.truncate(context);

            let lin = tree(model, rows);
            let count = allocations(|| drop(model.decode_tree(&lin, cache)));
            record(1, count, format!("decode_tree of {rows} after {context}"));
            cache.truncate(context);

            for requests in 1..=MAX_REQUESTS {
                let count = stacked(model, &mut caches[..requests], rows, context);
                let call = format!("forward_rows_batch of {requests} × {rows} after {context}");
                record(requests, count, call);
            }
        }
    }
}

/// The most allocations one call may make, by the requests it stacks,
/// as measured: five for one request, the logits tensor among them; a
/// call of several adds each request's own copy of its logits rows, a
/// tensor's data and shape.
const CEILINGS: [(usize, usize); MAX_REQUESTS] = [(1, 5), (2, 9), (3, 11)];

/// Request count → allocation count → the calls that made it.
type Counts = BTreeMap<usize, BTreeMap<usize, Vec<String>>>;

#[test]
fn decode_allocates_per_call_not_per_row_layer_or_task() {
    let mut seen = Counts::new();
    let (widest, deepest) = (ROWS[ROWS.len() - 1], CONTEXTS[CONTEXTS.len() - 1]);
    let models = models();
    for threads in [1, 2] {
        set_max_threads(threads);
        for (name, model, every) in &models {
            // Largest shape first, twice: the workers start and each
            // thread's scratch grows to every later call's size.
            let mut caches = caches(model, MAX_REQUESTS, deepest, widest);
            for _ in 0..2 {
                stacked(model, &mut caches, widest, deepest);
            }
            measure(model, name, *every, threads, &mut seen);
        }
    }
    set_max_threads(0);

    // The blocked attention kernels, at one head's scores (`nt`, k the
    // head width) and weighted sum (`nn`, k the rows seen).
    for rows in ROWS {
        for (hd, total) in [(8, 2), (8, 88), (24, 41), (24, 88)] {
            let (q, keys) = (vec![0.5f32; rows * hd], vec![0.25f32; total * hd]);
            let mut scores = vec![0.0f32; rows * total];
            let mut out = vec![0.0f32; rows * hd];
            let count = allocations(|| {
                kernels::matmul_nt_block(&q, &keys, &mut scores, rows, hd, total);
                kernels::matmul_nn_block(&scores, &keys, &mut out, rows, total, hd);
            });
            assert_eq!(
                count, 0,
                "the blocked kernels allocated at {rows} × {hd} × {total}"
            );
        }
    }

    let spread: Vec<String> = seen
        .iter()
        .filter(|(_, counts)| counts.len() > 1)
        .flat_map(|(requests, counts)| {
            counts.iter().map(move |(count, calls)| {
                let n = calls.len();
                format!(
                    "{requests} request(s): {count} allocations in {n} calls, e.g. {}",
                    calls[0]
                )
            })
        })
        .collect();
    assert!(
        spread.is_empty(),
        "allocations per call move with the shape:\n{}",
        spread.join("\n")
    );
    let over: Vec<String> = CEILINGS
        .iter()
        .filter_map(|&(requests, ceiling)| {
            let (&count, calls) = seen.get(&requests)?.last_key_value()?;
            (count > ceiling).then(|| {
                format!(
                    "{requests} request(s): {count} allocations, ceiling {ceiling}, e.g. {}",
                    calls[0]
                )
            })
        })
        .collect();
    assert!(
        over.is_empty(),
        "a call allocates more than its ceiling:\n{}",
        over.join("\n")
    );
}
