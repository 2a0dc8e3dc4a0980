//! Packed weight panels: the weight-stationary GEMM of inference.
//!
//! Every dense layer of a forward multiplies an activation block
//! (`m` rows: 1 for a decode step, a token tree's 5–64 for a verify,
//! a prompt's length for a prefill) against a large static weight
//! matrix. The row-major weight layouts make the inner loop stride `n`
//! (for `nn`) or walk `n` separate rows (for `nt`); packing rewrites
//! the weight **once at load time** into column panels of
//! [`PANEL_WIDTH`] so every kernel iteration reads one contiguous,
//! reusable cache line run:
//!
//! ```text
//! data[p * (k * PANEL_WIDTH) + t * PANEL_WIDTH + c] = B[t, p * PANEL_WIDTH + c]
//! ```
//!
//! (`t` the reduction index, `p` the panel, `c` the column within the
//! panel; columns past `n` in the last panel are zero-padded and never
//! copied out), built by [`PackedPanels::from_nn`] from a row-major
//! `[k, n]` weight.
//!
//! # Loop nest
//!
//! The multiply walks the packed buffer front to back exactly once,
//! whatever `m` is — the weights stay put and the activation rows come
//! to them:
//!
//! ```text
//! for panel p                       (16 output columns)
//!   for k-slice s of the panel      (≤ K_SLICE reduction steps, ≤ 16 KB: L1-resident)
//!     for row block i               (4 rows of A, or the 1–3 left over)
//!       out[rows, cols] (+)= A[rows, slice] × slice
//! ```
//!
//! The register tile is a row block × one panel: four rows × two AVX2
//! registers of accumulators, so a panel row loaded from L1 feeds four
//! rows' FMAs and a slice is walked once per *four* rows. There is one
//! geometry — one panel width — because every pack of a forward meets
//! every row count: a per-pack width would be a second layout to test
//! at every `m`.
//!
//! The first row block of a slice pulls it from memory, every further
//! block reads it from L1, and while a slice is being multiplied each
//! row block prefetches its share of the slice that follows it in
//! memory, so the next slice's transfer overlaps this one's arithmetic.
//! Accumulators of a panel with more than one slice are carried through
//! `out` between slices; a store and reload of an `f32` is exact.
//!
//! Per output element the reduction therefore remains one ascending-`k`
//! chain from zero — plain mul+add on the scalar backend, fused FMA on
//! AVX2/AVX-512F — so within a backend the packed product is
//! **bitwise identical** to the unpacked blocked kernel for the same
//! element, at every `m`.
//!
//! # The wide tile
//!
//! On [`SimdBackend::Avx2Fma`], when the CPU reports AVX-512F, calls of
//! every row count run on a sixteen-row tile instead: one 512-bit
//! accumulator per row, so a panel-row load feeds up to sixteen FMAs
//! and a verify's ten rows walk each panel once instead of three times.
//! The tile reads `A` in the *wide layout*: blocks of sixteen rows (the
//! last one shorter), each block `[t][r]`, so a reduction step's rows
//! are adjacent and broadcast from one pointer. Its loop nest is
//!
//! ```text
//! for panel p
//!   for row block i                 (16 rows of A, or the 1–15 left over)
//!     for step t of the panel       (the whole k)
//!       prefetch panel row t + PREFETCH_ROWS   (past the panel: the next one)
//!       out[block, cols] += A[block, t] × panel row t
//! ```
//!
//! with no k-slices: a block walks the whole panel in one tile call.
//! Slicing pays in the four-row nest, where a slice stays in L1 across
//! the blocks that reuse it; here the blocks of a panel come after one
//! another over its whole `k`, and a panel of a `d_ff`-long pack
//! (512 KB at `k = 8192`) is evicted from L1 between blocks whether it
//! is sliced or not. Instead each step prefetches the panel row
//! `PREFETCH_ROWS` (64, 4 KB) ahead, running on into the pack data after the
//! panel (an `ahead` slice, cut short at the end of the pack), so the
//! next panel's first rows are on their way when the walk reaches them.
//! Who writes the wide layout decides where the tile runs:
//!
//! - A row-major `A` is copied into it once per call (`interleave`).
//!   Every panel of a pack of one k-slice (`k ≤ K_SLICE`: every
//!   projection out of the model width — QKV, attention output, FFN up,
//!   LM head) reads all of `A`, so the copy pays; against a pack of
//!   several slices it was measured slower from twenty rows
//!   (EXPERIMENTS.md), and such calls keep the four-row tile.
//! - The FFN ([`PackedPanels::ffn_into`]) runs its up-stage as one walk
//!   over both up packs and needs no copy for its down-projection:
//!
//!   ```text
//!   for panel p
//!     for row block i
//!       for step t                  (prefetching both packs ahead)
//!         g[block] += A[block, t] × w1 panel row t     (one broadcast
//!         l[block] += A[block, t] × w3 panel row t      feeds both)
//!       gate[block, cols]ᵀ = silu(g) ⊙ l               (in registers and L1)
//!   ```
//!
//!   The block's `2·R` accumulators are gated by the backend's own
//!   SwiGLU (a spill to L1 and `simd::avx2::swiglu`) and only `gate`
//!   is stored, transposed into the wide layout; `lin` is not written.
//!   The down-projection (`k = d_ff`, many slices) reads `gate` in place.
//!
//! The four-row tile runs on AVX2-only CPUs, and for a row-major `A`
//! against a pack of several slices, so which tile runs depends only on
//! the CPU, the pack and the caller, never on `m`. Both x86 tiles keep
//! each output column in its own lane and extend it by one fused
//! multiply–add per reduction step, in the same order, so they agree
//! bitwise and the choice never shows in the output.
//!
//! # Tensor parallelism
//!
//! A pack of at least [`pool::MIN_SHARE_BYTES`] is multiplied as one
//! region of the worker pool: the *panels* are dealt out in contiguous
//! runs, one run per task, and each task runs the loop nest above over
//! its run for every row of `A` — the paper's §5.2 column sharding with
//! cores for devices. A task streams its share of the weights once and
//! writes its own columns of every output row; no output column is ever
//! split (that would split a `k` chain), so the product is bitwise
//! independent of the thread count by construction. Smaller packs are
//! the same call with one task covering every panel. The panel is the
//! partition unit, so a narrow pack shares as well as its panel count
//! divides: the down-projection's 96 columns are six panels, three per
//! core on two cores. The FFN's up-stage
//! ([`PackedPanels::ffn_up_into`]) is one such region for two packs
//! plus the activation, applied to a task's columns while they are
//! still in its cache.

use std::array::from_fn;
use std::cell::RefCell;
use std::ops::Range;

use crate::ops::silu_scalar;
use crate::pool::{self, SharedMut};
use crate::simd::{self, SimdBackend};

/// Panel width in columns: 16 floats = one AVX-512 register or two AVX2
/// registers per panel row, and exactly one cache line.
pub const PANEL_WIDTH: usize = 16;

/// Row count up to which the model's dense layers multiply against the
/// packed panels: every row count takes the packed path. Kept because
/// out-of-workspace benchmark code reads it to follow the model's
/// dispatch; nothing in the workspace branches on it any more.
pub const PACKED_SMALL_M_MAX: usize = usize::MAX;

/// Reduction steps per k-slice: 256 panel rows are 16 KB, so the slice
/// being multiplied, the slice being prefetched and the activation
/// rows of a block share a 48 KB L1 data cache.
pub(crate) const K_SLICE: usize = 256;

/// Rows of `A` per register tile.
const ROW_BLOCK: usize = 4;
// `gemm` spells out the short last blocks of 3, 2 and 1 rows.
const _: () = assert!(ROW_BLOCK == 4);

/// Rows of `A` per block of the wide tile: sixteen of the thirty-two
/// AVX-512 registers hold accumulators.
const WIDE_ROWS: usize = 16;

/// Panel rows the wide tile prefetches ahead of the row it multiplies:
/// 4 KB, past the end of the panel into the pack data that follows it.
/// 32 and 128 rows measured 2–6% slower, 256 about 6% (EXPERIMENTS.md).
pub(crate) const PREFETCH_ROWS: usize = 64;

/// The register tile a multiply runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tile {
    /// Four rows, computed two at a time with plain mul+add.
    Scalar,
    /// Four rows × two 256-bit accumulators (x86-64, AVX2+FMA).
    Avx2,
    /// Sixteen rows in the wide layout × one 512-bit accumulator
    /// (x86-64, AVX-512F).
    Avx512,
    /// The wide tile's portable twin, [`PortableWide`]: what `Avx512`
    /// computes, on every host.
    #[cfg(test)]
    WidePortable,
}

impl Tile {
    /// The tile a call of any row count against a pack of reduction
    /// length `k` runs on backend `be`: the backend's own, except that on
    /// AVX2 a CPU with AVX-512F runs calls against one-slice packs on the
    /// wide tile. Both x86 tiles compute every element the same way, so
    /// the choice never shows in the bits. This is the rule for a
    /// row-major `A`; the FFN's down-projection follows its up-stage
    /// instead ([`PackedPanels::ffn_into`]).
    fn select(be: SimdBackend, k: usize) -> Tile {
        match be {
            SimdBackend::Scalar => Tile::Scalar,
            SimdBackend::Avx2Fma if k <= K_SLICE && simd::avx512_available() => Tile::Avx512,
            SimdBackend::Avx2Fma => Tile::Avx2,
        }
    }

    /// Stable name: instruction set, rows × columns.
    fn name(self) -> &'static str {
        match self {
            Tile::Scalar => "scalar_4x16",
            Tile::Avx2 => "avx2_4x16",
            Tile::Avx512 => "avx512f_16x16",
            #[cfg(test)]
            Tile::WidePortable => "portable_16x16",
        }
    }

    /// The layout the tile reads `A` in.
    fn layout(self) -> Layout {
        match self {
            Tile::Avx512 => Layout::Wide,
            #[cfg(test)]
            Tile::WidePortable => Layout::Wide,
            _ => Layout::Rows,
        }
    }
}

/// How an `m × n` operand (an `A`, or the FFN's `gate`) lies in its
/// buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Row-major.
    Rows,
    /// The wide tile's: blocks of [`WIDE_ROWS`] rows (the last one
    /// shorter), each block column after column (`[t][r]`): element
    /// `(r, j)` of a block of `R` rows at `j · R + r`, so the `R`
    /// elements a reduction step broadcasts are adjacent.
    Wide,
}

/// The packed register tile a call of any row count against a pack of
/// reduction length `k` runs on the process's backend, by name
/// (`avx2_4x16`, `avx512f_16x16`, …), for benchmark reports.
pub fn packed_tile(k: usize) -> &'static str {
    Tile::select(simd::backend(), k).name()
}

/// The packed register tile the up-stage of [`PackedPanels::ffn_into`]
/// runs on for a model width `d_model`, by name: the wide tile's
/// one-pass gate-and-up walk (`avx512f_16x16_gate_up`), or
/// [`packed_tile`]`(d_model)` run twice before the epilogue.
pub fn ffn_up_tile(d_model: usize) -> &'static str {
    match Tile::select(simd::backend(), d_model) {
        Tile::Avx512 => "avx512f_16x16_gate_up",
        tile => tile.name(),
    }
}

/// The packed register tile the down-projection of
/// [`PackedPanels::ffn_into`] runs on, for a model width `d_model` and a
/// hidden width `d_ff`: the up-stage's tile when that is the wide one,
/// else [`packed_tile`]`(d_ff)`.
pub fn ffn_down_tile(d_model: usize, d_ff: usize) -> &'static str {
    let be = simd::backend();
    match Tile::select(be, d_model) {
        Tile::Avx512 => Tile::Avx512,
        _ => Tile::select(be, d_ff),
    }
    .name()
}

thread_local! {
    /// The calling thread's [`interleave`]d copy of `A` for the wide
    /// tile, kept for its next call: `m × k ≤ m × K_SLICE` floats.
    static INTERLEAVED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `A` (`[m, k]` in `layout`) as `tile` reads it: in place
/// when the layouts agree, else the wide tile's [`interleave`]d copy.
fn with_lhs<T>(tile: Tile, layout: Layout, a: &[f32], k: usize, f: impl FnOnce(&[f32]) -> T) -> T {
    match (tile.layout(), layout) {
        (Layout::Wide, Layout::Rows) => INTERLEAVED.with_borrow_mut(|il| {
            interleave(a, k, il);
            f(il)
        }),
        (want, have) => {
            assert_eq!(want, have, "{} reads A row-major", tile.name());
            f(a)
        }
    }
}

/// Writes into `il` the row-major `[m, k]` `A` in the wide layout
/// ([`Layout::Wide`]).
fn interleave(a: &[f32], k: usize, il: &mut Vec<f32>) {
    il.clear();
    for blk in a.chunks(WIDE_ROWS * k) {
        for t in 0..k {
            il.extend(blk.chunks_exact(k).map(|row| row[t]));
        }
    }
}

/// Calls `$call` with the const `$R` = `$rows`, one of the listed row
/// counts: a register tile's row count is a type-level constant.
#[cfg(any(target_arch = "x86_64", test))]
macro_rules! with_rows {
    ($rows:expr, [$($n:literal)+], |$R:ident| $call:expr) => {
        match $rows {
            $($n => {
                const $R: usize = $n;
                $call
            })+
            rows => unreachable!("a row block of {rows} rows"),
        }
    };
}

/// What [`PackedPanels::ffn_up_into`] wrote, for
/// [`PackedPanels::ffn_down_into`]: the row count, and the tile that
/// ran, whose layout `gate` is in — which only this module interprets.
#[derive(Clone, Copy, Debug)]
pub struct FfnHidden {
    tile: Tile,
    rows: usize,
}

/// A weight matrix repacked into [`PANEL_WIDTH`]-column panels.
///
/// Built once when weights are loaded (or when a fused projection pack
/// is assembled) and reused by every forward; rebuilding after
/// weight mutation is the caller's responsibility (the model mirrors
/// its fused-QKV invalidation: any `weights_mut` drops the packs).
#[derive(Clone, Debug)]
pub struct PackedPanels {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedPanels {
    /// Packs a row-major `[k, n]` matrix (the `nn` operand layout).
    pub fn from_nn(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B must be k×n");
        let mut data = vec![0.0f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH];
        for (t, b_row) in b.chunks_exact(n).enumerate() {
            for (j, &v) in b_row.iter().enumerate() {
                let (p, c) = (j / PANEL_WIDTH, j % PANEL_WIDTH);
                data[p * (k * PANEL_WIDTH) + t * PANEL_WIDTH + c] = v;
            }
        }
        PackedPanels { data, k, n }
    }

    /// The shared (reduction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output-column count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Floats held by the packed representation (padding included).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// `out = A × B` against the packed panels on the process-selected
    /// backend. `a` is `[m, k]` row-major for any `m ≥ 0`, `out` is
    /// `[m, n]` and fully overwritten (its prior contents are never
    /// read). The panels are read from memory once per call whatever
    /// `m` is, by one core or — a pack of [`pool::MIN_SHARE_BYTES`] or
    /// more — by all of them, a run of panels each; see the module docs.
    pub fn matvec_into(&self, a: &[f32], out: &mut [f32]) {
        self.matvec_into_with(simd::backend(), a, out);
    }

    /// [`PackedPanels::matvec_into`] on an explicit backend — the hook
    /// the forward oracle (`tests/forward.rs`) uses to run every backend.
    ///
    /// # Panics
    ///
    /// Panics if the panels have an empty reduction dimension, if `a`
    /// is not whole rows of length `k`, or if `out` is not `m × n`.
    pub fn matvec_into_with(&self, be: SimdBackend, a: &[f32], out: &mut [f32]) {
        self.check_shapes(a, out.len());
        // SAFETY: `be` came from detection (`backend`,
        // `available_backends`); `select` adds only the AVX-512F tile,
        // and only where that was detected too.
        unsafe { self.matvec_into_tile(Tile::select(be, self.k), Layout::Rows, a, out) }
    }

    /// [`PackedPanels::matvec_into_with`] on an explicit register tile,
    /// `a` in `layout`; `out` is row-major.
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available.
    // SAFETY: (contract above) shapes are checked here; see `gemm_with`.
    unsafe fn matvec_into_tile(&self, tile: Tile, layout: Layout, a: &[f32], out: &mut [f32]) {
        self.check_shapes(a, out.len());
        let out = SharedMut(out.as_mut_ptr());
        let tasks = self.tasks();
        with_lhs(tile, layout, a, self.k, |a| {
            pool::run(tasks, |t| {
                // SAFETY: `out` is `m × n` (checked above) and mutably
                // borrowed for the whole region; tasks get disjoint panels.
                unsafe { self.gemm_with(tile, a, out.get(), self.panel_run(t, tasks)) }
            })
        });
    }

    /// One feed-forward layer, `out = (silu(A × self) ⊙ (A × up)) × down`,
    /// as a forward runs it: the up-stage region
    /// ([`PackedPanels::ffn_up_into`]), then the down-projection
    /// ([`PackedPanels::ffn_down_into`]) on what it wrote. `gate` and
    /// `lin` (`[m, n]` floats each) are scratch in a layout of this
    /// module's choosing; `out` is `[m, down.n]` row-major and fully
    /// overwritten. Bitwise `swiglu` as two [`PackedPanels::matvec_into`]
    /// calls and the backend's `silu`, then `matvec_into` against
    /// `down`, at every `m` and thread count.
    ///
    /// # Panics
    ///
    /// Panics if the up packs' shapes differ, if `down.k` is not their
    /// `n`, or under [`PackedPanels::matvec_into_with`]'s conditions.
    pub fn ffn_into(
        &self,
        up: &PackedPanels,
        down: &PackedPanels,
        a: &[f32],
        gate: &mut [f32],
        lin: &mut [f32],
        out: &mut [f32],
    ) {
        let hidden = self.ffn_up_into(up, a, gate, lin);
        down.ffn_down_into(hidden, gate, out);
    }

    /// The up-stage of [`PackedPanels::ffn_into`]: `gate = silu(A × self)
    /// ⊙ (A × up)` as one region, `lin` its scratch. Each task multiplies
    /// its run of panels of both packs and gates those columns while they
    /// are still in its cache. Where the call runs on the wide tile
    /// (AVX-512F, a one-slice `k`: every row count) that is one walk over
    /// both packs that gates each block in registers and writes `gate`
    /// alone, in the wide layout, which is what
    /// [`PackedPanels::ffn_down_into`] — told so by the returned
    /// [`FfnHidden`] — reads; otherwise two products, row-major, then the
    /// epilogue.
    ///
    /// # Panics
    ///
    /// Panics if the packs' shapes differ, or under
    /// [`PackedPanels::matvec_into_with`]'s conditions.
    pub fn ffn_up_into(
        &self,
        up: &PackedPanels,
        a: &[f32],
        gate: &mut [f32],
        lin: &mut [f32],
    ) -> FfnHidden {
        self.check_shapes(a, gate.len());
        let (tile, rows) = (Tile::select(simd::backend(), self.k), a.len() / self.k);
        // SAFETY: `select` names only detected tiles.
        unsafe { self.up_stage(up, tile, a, gate, lin) };
        FfnHidden { tile, rows }
    }

    /// The down-projection of [`PackedPanels::ffn_into`]: `out = gate ×
    /// self`, `gate` as [`PackedPanels::ffn_up_into`] left it (`hidden`).
    /// A gate in the wide layout is read in place by the wide tile; a
    /// row-major one takes
    /// [`PackedPanels::matvec_into`]'s tile.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not the `hidden.rows × k` floats of that call,
    /// or `out` not `hidden.rows × n`.
    pub fn ffn_down_into(&self, hidden: FfnHidden, gate: &[f32], out: &mut [f32]) {
        assert_eq!(
            gate.len(),
            hidden.rows * self.k,
            "gate must be what the up-stage wrote"
        );
        let layout = hidden.tile.layout();
        let tile = match layout {
            Layout::Wide => hidden.tile,
            Layout::Rows => Tile::select(simd::backend(), self.k),
        };
        // SAFETY: `hidden.tile` came from `select` in `ffn_up_into` (or a
        // test that vouches for it), and so does the other.
        unsafe { self.matvec_into_tile(tile, layout, gate, out) }
    }

    /// The SwiGLU up-stage on tile `tile`, writing `gate` in the tile's
    /// layout: per element exactly the product twice, the backend's one
    /// `silu` (`swiglu_epilogue`), multiply. A wide tile walks both packs
    /// in one pass and gates each block in registers
    /// ([`PackedPanels::gate_up_wide`]), leaving `lin` unwritten; a
    /// four-row tile (the scalar backend, an AVX2-only CPU) writes both
    /// products row-major, then gates the task's columns of each row.
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available.
    // SAFETY: (contract above) shapes are checked here; see `gemm_with`.
    unsafe fn up_stage(
        &self,
        up: &PackedPanels,
        tile: Tile,
        a: &[f32],
        gate: &mut [f32],
        lin: &mut [f32],
    ) {
        assert_eq!(
            (self.k, self.n),
            (up.k, up.n),
            "gate and up packs must agree"
        );
        self.check_shapes(a, gate.len());
        assert_eq!(gate.len(), lin.len(), "lin must be m×n");
        let (be, n, m) = (simd::backend(), self.n, a.len() / self.k);
        let (gate, lin) = (SharedMut(gate.as_mut_ptr()), SharedMut(lin.as_mut_ptr()));
        let tasks = self.tasks();
        with_lhs(tile, Layout::Rows, a, self.k, |a| {
            pool::run(tasks, |t| {
                let panels = self.panel_run(t, tasks);
                // SAFETY: as the caller vouches; `gate` and `lin` are
                // `m × n` (checked above), borrowed for the region; the
                // columns of `panels` are this task's in either layout.
                unsafe {
                    match tile {
                        #[cfg(target_arch = "x86_64")]
                        Tile::Avx512 => {
                            self.gate_up_wide::<simd::avx512::PackedTile>(up, a, gate.get(), panels)
                        }
                        #[cfg(test)]
                        Tile::WidePortable => {
                            self.gate_up_wide::<PortableWide>(up, a, gate.get(), panels)
                        }
                        _ => {
                            let cols = panels.start * PANEL_WIDTH..n.min(panels.end * PANEL_WIDTH);
                            self.gemm_with(tile, a, gate.get(), panels.clone());
                            up.gemm_with(tile, a, lin.get(), panels);
                            for at in (0..m).map(|r| r * n + cols.start) {
                                let g =
                                    std::slice::from_raw_parts_mut(gate.get().add(at), cols.len());
                                let l = std::slice::from_raw_parts(lin.get().add(at), cols.len());
                                swiglu_epilogue(be, g, l);
                            }
                        }
                    }
                }
            })
        });
    }

    fn check_shapes(&self, a: &[f32], out_len: usize) {
        assert!(
            self.k > 0,
            "packed operand has an empty reduction dimension"
        );
        assert_eq!(a.len() % self.k, 0, "A must be whole rows of length k");
        assert_eq!(out_len, a.len() / self.k * self.n, "out must be m×n");
    }

    /// Whether a multiply against this pack is a shared pool region
    /// (given more than one thread) rather than one inline task.
    pub fn shares_pool(&self) -> bool {
        4 * self.data.len() >= pool::MIN_SHARE_BYTES
    }

    /// Panel `p`, and the pack data after it that a wide tile prefetches
    /// while it walks the panel: [`PREFETCH_ROWS`] panel rows, fewer at
    /// the end of the buffer.
    fn panel(&self, p: usize) -> (&[f32], &[f32]) {
        let len = self.k * PANEL_WIDTH;
        let (panel, rest) = self.data[p * len..].split_at(len);
        (panel, &rest[..rest.len().min(PREFETCH_ROWS * PANEL_WIDTH)])
    }

    /// Tasks a multiply against this pack is cut into (1: inline).
    fn tasks(&self) -> usize {
        pool::tasks_for(self.n.div_ceil(PANEL_WIDTH), 4 * self.data.len())
    }

    /// The contiguous run of panels task `t` of `tasks` multiplies.
    fn panel_run(&self, t: usize, tasks: usize) -> Range<usize> {
        let panels = self.n.div_ceil(PANEL_WIDTH);
        panels * t / tasks..panels * (t + 1) / tasks
    }

    /// The loop nest of the module docs over a run of `panels` on
    /// register tile `tile`: writes columns
    /// `panels.start · 16 .. min(n, panels.end · 16)` of every row of the
    /// row-major `out`, and nothing else.
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available. `a`
    /// must be whole rows of length `k` in the layout `tile` reads, and
    /// `out` point at `m × n` floats nobody else reads, or writes in these
    /// columns, meanwhile.
    // SAFETY: (contract above) each tile is only named under the `Tile`
    // whose instruction set the caller vouches for.
    unsafe fn gemm_with(&self, tile: Tile, a: &[f32], out: *mut f32, panels: Range<usize>) {
        // SAFETY: as the caller vouches.
        unsafe {
            match tile {
                #[cfg(target_arch = "x86_64")]
                Tile::Avx2 => self.gemm::<simd::avx2::PackedTile>(a, out, panels),
                #[cfg(target_arch = "x86_64")]
                Tile::Avx512 => self.gemm_wide::<simd::avx512::PackedTile>(a, out, panels),
                #[cfg(test)]
                Tile::WidePortable => self.gemm_wide::<PortableWide>(a, out, panels),
                _ => self.gemm::<ScalarTile>(a, out, panels),
            }
        }
    }

    /// [`PackedPanels::gemm_with`] on a wide tile `T`, `a` in the wide
    /// layout: per panel, per block of up to [`WIDE_ROWS`] rows, one tile
    /// call over the panel's whole `k`, prefetching ahead into the next.
    ///
    /// # Safety
    ///
    /// As for `gemm_with`, for `T`'s instruction set.
    #[cfg(any(target_arch = "x86_64", test))]
    // SAFETY: (contract above) the only raw accesses are the output row
    // segments: row `< m`, a panel's columns inside `n`, so in bounds of
    // `out`; segments of different rows or panels are disjoint.
    unsafe fn gemm_wide<T: WideTile>(&self, a: &[f32], out: *mut f32, panels: Range<usize>) {
        let (k, n) = (self.k, self.n);
        for p in panels {
            let cols = p * PANEL_WIDTH..n.min((p + 1) * PANEL_WIDTH);
            let (panel, ahead) = self.panel(p);
            for (i, a_blk) in a.chunks(WIDE_ROWS * k).enumerate() {
                // SAFETY: the caller vouches for `T`'s ISA; see the
                // function-level argument for the output.
                unsafe {
                    with_rows!(a_blk.len() / k, [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16], |R| {
                        let o = from_fn(|r| {
                            let at = (i * WIDE_ROWS + r) * n + cols.start;
                            std::slice::from_raw_parts_mut(out.add(at), cols.len())
                        });
                        T::tile::<R>(panel, a_blk, o, ahead)
                    })
                }
            }
        }
    }

    /// The up-stage of a wide tile `T` over a run of `panels`, `a` in the
    /// wide layout: per panel, per block of up to [`WIDE_ROWS`] rows, one
    /// [`WideTile::swiglu_tile`] call walks this pack's and `up`'s panel
    /// together and stores the block's gated columns into `gate`, in the
    /// wide layout.
    ///
    /// # Safety
    ///
    /// As for `gemm_with`, for `T`'s instruction set, with `gate` as
    /// `out` in the wide layout; `up` must be this pack's shape.
    #[cfg(any(target_arch = "x86_64", test))]
    // SAFETY: (contract above) the only raw accesses are a block's runs
    // of a panel's columns: inside `m × n`, disjoint between blocks and
    // panels.
    unsafe fn gate_up_wide<T: WideTile>(
        &self,
        up: &PackedPanels,
        a: &[f32],
        gate: *mut f32,
        panels: Range<usize>,
    ) {
        let (k, n) = (self.k, self.n);
        for p in panels {
            let cols = p * PANEL_WIDTH..n.min((p + 1) * PANEL_WIDTH);
            let [(g, g_ahead), (l, l_ahead)] = [self.panel(p), up.panel(p)];
            for (i, a_blk) in a.chunks(WIDE_ROWS * k).enumerate() {
                // SAFETY: the caller vouches for `T`'s ISA; see the
                // function-level argument for the output.
                unsafe {
                    with_rows!(a_blk.len() / k, [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16], |R| {
                        let at = i * WIDE_ROWS * n + cols.start * R;
                        let o = std::slice::from_raw_parts_mut(gate.add(at), cols.len() * R);
                        T::swiglu_tile::<R>([g, l], a_blk, o, [g_ahead, l_ahead])
                    })
                }
            }
        }
    }

    /// [`PackedPanels::gemm_with`] on a four-row tile `T`, `a` row-major.
    ///
    /// # Safety
    ///
    /// As for `gemm_with`, for `T`'s instruction set.
    // SAFETY: (contract above) the only raw accesses are the output row
    // segments: row `< m`, columns `j0..j1` inside `n`, so in bounds of
    // `out`; segments of different rows are disjoint.
    unsafe fn gemm<T: PanelTile>(&self, a: &[f32], out: *mut f32, panels: Range<usize>) {
        let (k, n) = (self.k, self.n);
        let m = a.len() / k;
        let blocks = m.div_ceil(ROW_BLOCK);
        // Slices are consecutive in `data` across panel boundaries, so
        // "the slice after this one" is simply what follows `at`.
        let mut at = panels.start * k * PANEL_WIDTH;
        for j0 in panels.map(|p| p * PANEL_WIDTH) {
            let j1 = n.min(j0 + PANEL_WIDTH);
            // SAFETY: see the function-level argument.
            let o_row =
                |r: usize| unsafe { std::slice::from_raw_parts_mut(out.add(r * n + j0), j1 - j0) };
            let mut t0 = 0;
            while t0 < k {
                let t1 = k.min(t0 + K_SLICE);
                let (slice, rest) = self.data[at..].split_at((t1 - t0) * PANEL_WIDTH);
                // With a single row block there is no reuse phase to
                // hide a transfer behind: the call is one sequential
                // read, which the hardware prefetcher already follows.
                let ahead = match blocks {
                    1 => &rest[..0],
                    _ => &rest[..rest.len().min(slice.len())],
                };
                let (ahead_rows, carry) = (ahead.len() / PANEL_WIDTH, t0 > 0);
                for (i, a_blk) in a.chunks(ROW_BLOCK * k).enumerate() {
                    let share = &ahead[ahead_rows * i / blocks * PANEL_WIDTH
                        ..ahead_rows * (i + 1) / blocks * PANEL_WIDTH];
                    let a_row = |d: usize| &a_blk[d * k + t0..d * k + t1];
                    let o = |d: usize| o_row(i * ROW_BLOCK + d);
                    // SAFETY: the caller vouches for `T`'s ISA; a block's
                    // rows are distinct, so are their output segments.
                    unsafe {
                        match a_blk.len() / k {
                            ROW_BLOCK => T::tile::<ROW_BLOCK>(
                                slice,
                                from_fn(a_row),
                                from_fn(o),
                                carry,
                                share,
                            ),
                            3 => T::tile::<3>(slice, from_fn(a_row), from_fn(o), carry, share),
                            2 => T::tile::<2>(slice, from_fn(a_row), from_fn(o), carry, share),
                            _ => T::tile::<1>(slice, from_fn(a_row), from_fn(o), carry, share),
                        }
                    }
                }
                at += slice.len();
                t0 = t1;
            }
        }
    }
}

/// `g[i] = silu(g[i]) · l[i]`, the only SwiGLU of inference. AVX2
/// evaluates `silu` by an in-crate polynomial `exp`, eight lanes at a
/// time (within 2 ulp of SiLU, see [`simd::avx2::silu`]); the scalar
/// backend calls libm as training does.
fn swiglu_epilogue(be: SimdBackend, g: &mut [f32], l: &[f32]) {
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selectable when AVX2+FMA were
        // detected at startup.
        SimdBackend::Avx2Fma => unsafe { simd::avx2::swiglu(g, l) },
        _ => {
            for (g, &l) in g.iter_mut().zip(l) {
                *g = silu_scalar(*g) * l;
            }
        }
    }
}

/// One backend's register tile of the packed GEMM.
pub(crate) trait PanelTile {
    /// `o[r] (+)= a[r] × b` for `R` rows: `b` is one k-slice of one
    /// panel (`a[r].len()` rows of [`PANEL_WIDTH`]), `o[r]` the panel's
    /// real columns of output row `r` (at most [`PANEL_WIDTH`]). With
    /// `carry` the accumulators continue from `o` — the slice is not the
    /// panel's first — otherwise they start from zero and `o` is only
    /// written. `ahead` is panel data to prefetch while multiplying.
    /// Each output element extends its single ascending-`k` chain by
    /// `a[r].len()` steps.
    ///
    /// # Safety
    ///
    /// The instruction set the implementation is written for must be
    /// available.
    // SAFETY: (contract above) all operands are slices; implementations
    // assert the lengths their raw accesses rely on.
    unsafe fn tile<const R: usize>(
        b: &[f32],
        a: [&[f32]; R],
        o: [&mut [f32]; R],
        carry: bool,
        ahead: &[f32],
    );
}

/// A wide register tile of the packed GEMM ("The wide tile").
pub(crate) trait WideTile {
    /// `o = A × b` for the `R` rows of a block: `b` is one whole panel
    /// (`k` rows of [`PANEL_WIDTH`]), `a` the block's `k` reduction steps
    /// in the wide layout (`A[r][t]` at `a[t·R + r]`), `o[r]` the panel's
    /// real columns of row `r`. `ahead` is the pack data after the panel,
    /// at most [`PREFETCH_ROWS`] panel rows: each reduction step
    /// prefetches the row that far ahead of it. Each output element is
    /// one ascending-`k` fused chain from zero.
    ///
    /// # Safety
    ///
    /// The instruction set the implementation is written for must be
    /// available.
    // SAFETY: (contract above) all operands are slices; implementations
    // assert the lengths their raw accesses rely on.
    unsafe fn tile<const R: usize>(b: &[f32], a: &[f32], o: [&mut [f32]; R], ahead: &[f32]);

    /// The FFN up-stage of a block in one pass: `gate = silu(A × b[0]) ⊙
    /// (A × b[1])`, the two panels (same `k`, same columns) walked
    /// together, each broadcast of `A[r][t]` feeding both products, and
    /// the backend's SwiGLU epilogue applied before the store. `gate` is
    /// the block's run of the panel's real columns in the wide layout
    /// (element `(r, c)` at `c · R + r`); `a` and `ahead` as for
    /// [`WideTile::tile`], one `ahead` per panel. Bitwise the two
    /// products of `tile` and `swiglu_epilogue`.
    ///
    /// # Safety
    ///
    /// As for [`WideTile::tile`].
    // SAFETY: (contract above) as for `tile`.
    unsafe fn swiglu_tile<const R: usize>(
        b: [&[f32]; 2],
        a: &[f32],
        gate: &mut [f32],
        ahead: [&[f32]; 2],
    );
}

/// The wide tile's portable twin: the same blocks, wide layouts and
/// one-pass up-stage, one `f32::mul_add` chain per output element — so
/// the wide loop nests' indexing is checked on hosts without AVX-512F.
#[cfg(test)]
struct PortableWide;

#[cfg(test)]
impl WideTile for PortableWide {
    // SAFETY: safe code throughout — no ISA extension, no raw access.
    unsafe fn tile<const R: usize>(b: &[f32], a: &[f32], o: [&mut [f32]; R], _ahead: &[f32]) {
        let [acc] = PortableWide::products::<R, 1>([b], a);
        for (acc, o) in acc.iter().zip(o) {
            o.copy_from_slice(&acc[..o.len()]);
        }
    }

    // SAFETY: safe code throughout — no ISA extension, no raw access.
    unsafe fn swiglu_tile<const R: usize>(
        b: [&[f32]; 2],
        a: &[f32],
        gate: &mut [f32],
        _ahead: [&[f32]; 2],
    ) {
        let [mut g, l] = PortableWide::products::<R, 2>(b, a);
        swiglu_epilogue(simd::backend(), g.as_flattened_mut(), l.as_flattened());
        assert_eq!(gate.len() % R, 0, "whole columns of one panel");
        for (c, col) in gate.chunks_exact_mut(R).enumerate() {
            for (v, g) in col.iter_mut().zip(&g) {
                *v = g[c];
            }
        }
    }
}

#[cfg(test)]
impl PortableWide {
    /// `A × b[i]` for each of `P` panels of the same `k`, in one walk: a
    /// reduction step's `A[r][t]` feeds every panel's row.
    fn products<const R: usize, const P: usize>(
        b: [&[f32]; P],
        a: &[f32],
    ) -> [[[f32; PANEL_WIDTH]; R]; P] {
        let kc = a.len() / R;
        assert_eq!(a.len(), kc * R, "one A element per row and panel row");
        assert!(
            b.iter().all(|b| b.len() == kc * PANEL_WIDTH),
            "whole panels"
        );
        let mut acc = [[[0.0f32; PANEL_WIDTH]; R]; P];
        for (t, a_t) in a.chunks_exact(R).enumerate() {
            for (acc, b) in acc.iter_mut().zip(b) {
                let b_row = &b[t * PANEL_WIDTH..(t + 1) * PANEL_WIDTH];
                for (acc, &av) in acc.iter_mut().zip(a_t) {
                    for (s, &bv) in acc.iter_mut().zip(b_row) {
                        *s = av.mul_add(bv, *s);
                    }
                }
            }
        }
        acc
    }
}

/// Scalar reference tile: per output column one ascending-`k` plain
/// mul+add chain, bitwise identical to the unpacked scalar `nn` kernel
/// (and so to `matmul_ref`).
struct ScalarTile;

impl PanelTile for ScalarTile {
    // SAFETY: safe code throughout — no ISA extension, no raw access.
    unsafe fn tile<const R: usize>(
        b: &[f32],
        a: [&[f32]; R],
        o: [&mut [f32]; R],
        carry: bool,
        _ahead: &[f32],
    ) {
        // Two rows at a time: 2 × 16 accumulators are eight of the
        // sixteen SSE registers of the x86-64 baseline, enough chains to
        // hide the add latency; four rows at once would spill. The odd
        // last row is a pair whose second half is empty.
        let load = |o_row: &[f32]| {
            let mut acc = [0.0f32; PANEL_WIDTH];
            if carry {
                acc[..o_row.len()].copy_from_slice(o_row);
            }
            acc
        };
        let mut rows = a.into_iter().zip(o);
        while let Some((a0, o0)) = rows.next() {
            let (a1, o1) = rows.next().unwrap_or((&[], &mut []));
            let (mut acc0, mut acc1) = (load(o0), load(o1));
            let mut b_rows = b.chunks_exact(PANEL_WIDTH);
            for ((&av0, &av1), b_row) in a0.iter().zip(a1).zip(b_rows.by_ref()) {
                for ((s0, s1), &bv) in acc0.iter_mut().zip(&mut acc1).zip(b_row) {
                    *s0 += av0 * bv;
                    *s1 += av1 * bv;
                }
            }
            for (&av0, b_row) in a0[a1.len()..].iter().zip(b_rows) {
                for (s0, &bv) in acc0.iter_mut().zip(b_row) {
                    *s0 += av0 * bv;
                }
            }
            o0.copy_from_slice(&acc0[..o0.len()]);
            o1.copy_from_slice(&acc1[..o1.len()]);
        }
    }
}

/// The contracts of the public API — packed ≡ blocked at every row
/// count, backend and thread count, the FFN ≡ its rows one at a time —
/// are cells of the forward oracle (`tests/forward.rs`). What stays here
/// needs the module's private items: forced tiles, the tile each call
/// runs on, and the wide tile's portable twin. The epilogue's polynomial
/// SiLU is `simd.rs`'s.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::Tensor;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut SeededRng::new(seed))
    }

    /// `A × B` with one `f32::mul_add` chain per element in ascending
    /// `k`, as every fused backend computes it.
    fn fused_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)).take(m) {
            for (t, &av) in a_row.iter().enumerate() {
                for (o, &bv) in o_row.iter_mut().zip(&b[t * n..(t + 1) * n]) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
        out
    }

    /// The wide loop nest on its portable twin, on every host: the
    /// sixteen-row blocks with a row-major `A` against packs of one
    /// k-slice and of several with ragged last panels, and the FFN whose
    /// up-stage stores `gate` transposed into the wide layout for the
    /// down-projection to read. `out` and the scratch start as NaN.
    #[test]
    fn wide_loop_nest_on_its_portable_twin_equals_a_fused_reference() {
        let a = randn(&[40, 600], 3);
        for &(k, n) in &[
            (1usize, 17usize),
            (95, 33),
            (K_SLICE - 1, 16),
            (K_SLICE + 1, 49),
            (600, 20),
        ] {
            let b = randn(&[k, n], 4);
            let p = PackedPanels::from_nn(b.data(), k, n);
            for m in 1..=40 {
                let a = &a.data()[..m * k];
                let mut twin = vec![f32::NAN; m * n];
                // SAFETY: the twin is plain Rust.
                unsafe { p.matvec_into_tile(Tile::WidePortable, Layout::Rows, a, &mut twin) };
                assert!(twin == fused_reference(a, b.data(), m, k, n), "{m}x{k}x{n}");
            }
        }
        for &(d, d_ff, n) in &[(24usize, 200usize, 33usize), (96, 300, 33)] {
            let [b1, b3] = [17, 18].map(|seed| randn(&[d, d_ff], seed));
            let b2 = randn(&[d_ff, n], 19);
            let [w1, w3] = [&b1, &b3].map(|b| PackedPanels::from_nn(b.data(), d, d_ff));
            let w2 = PackedPanels::from_nn(b2.data(), d_ff, n);
            for m in 1..=40 {
                let a = &a.data()[..m * d];
                // Fused multiply–adds, with the backend's epilogue.
                let mut want_gate = fused_reference(a, b1.data(), m, d, d_ff);
                let want_lin = fused_reference(a, b3.data(), m, d, d_ff);
                swiglu_epilogue(simd::backend(), &mut want_gate, &want_lin);
                let want = fused_reference(&want_gate, b2.data(), m, d_ff, n);
                let [mut gate, mut lin] = [(); 2].map(|()| vec![f32::NAN; m * d_ff]);
                let mut out = vec![f32::NAN; m * n];
                let tile = Tile::WidePortable;
                // SAFETY: the twin is plain Rust.
                unsafe { w1.up_stage(&w3, tile, a, &mut gate, &mut lin) };
                w2.ffn_down_into(FfnHidden { tile, rows: m }, &gate, &mut out);
                assert!(out == want, "ffn {m}x{d}x{d_ff}x{n}");
            }
        }
    }

    /// The x86 tiles forced at every row count, on packs of one k-slice
    /// (where `select` picks the wide one) and of several (where it picks
    /// the four-row one), with ragged and whole last panels, and as the FFN:
    /// the wide tile's one-pass up-stage and its down-projection reading
    /// `gate` in place against two products on the four-row tile, the
    /// epilogue and a row-major down-projection — on the AVX2 backend,
    /// whose epilogue the wide tile runs. `out` and the scratch start as
    /// NaN.
    #[test]
    fn wide_tile_equals_four_row_tile_bitwise_at_every_row_count() {
        if !(simd::available_backends().contains(&SimdBackend::Avx2Fma) && simd::avx512_available())
        {
            eprintln!("skipped: this CPU does not report AVX2+FMA and AVX-512F");
            return;
        }
        let a = randn(&[40, 600], 14);
        for &(k, n) in &[
            (1usize, 17usize),
            (95, 33),
            (96, 288),
            (K_SLICE - 1, 16),
            (K_SLICE, 49),
            (K_SLICE + 1, 33),
            (600, 20),
        ] {
            let p = PackedPanels::from_nn(randn(&[k, n], 15).data(), k, n);
            for m in 1..=40 {
                let a = &a.data()[..m * k];
                let [wide, four] = [Tile::Avx512, Tile::Avx2].map(|tile| {
                    let mut out = vec![f32::NAN; m * n];
                    // SAFETY: AVX2+FMA and AVX-512F were detected above.
                    unsafe { p.matvec_into_tile(tile, Layout::Rows, a, &mut out) };
                    out
                });
                assert!(wide == four, "{m}x{k}x{n}");
            }
        }
        if simd::backend() != SimdBackend::Avx2Fma {
            return;
        }
        for &(d, d_ff) in &[(24usize, 200usize), (96, 300), (96, 1024)] {
            let [w1, w3] = [20, 21].map(|seed| randn(&[d, d_ff], seed));
            let [w1, w3] = [&w1, &w3].map(|b| PackedPanels::from_nn(b.data(), d, d_ff));
            let w2 = PackedPanels::from_nn(randn(&[d_ff, d], 22).data(), d_ff, d);
            for m in 1..=40 {
                let a = &a.data()[..m * d];
                let [wide, four] = [Tile::Avx512, Tile::Avx2].map(|tile| {
                    let [mut gate, mut lin] = [(); 2].map(|()| vec![f32::NAN; m * d_ff]);
                    let mut out = vec![f32::NAN; m * d];
                    // SAFETY: AVX2+FMA and AVX-512F were detected above.
                    unsafe { w1.up_stage(&w3, tile, a, &mut gate, &mut lin) };
                    w2.ffn_down_into(FfnHidden { tile, rows: m }, &gate, &mut out);
                    out
                });
                assert!(wide == four, "ffn {m}x{d}x{d_ff}");
            }
        }
    }

    /// Which tile this host runs: on the AVX2 backend with AVX-512F the
    /// wide one against a one-slice pack at every row count, the FFN's
    /// one-pass up-stage included, and the four-row one against several
    /// slices; on every other host the backend's own four-row tile.
    #[test]
    fn dispatch_runs_the_wide_tile_at_every_row_count_where_avx512f_is() {
        let be = simd::backend();
        let four = match be {
            SimdBackend::Scalar => Tile::Scalar,
            SimdBackend::Avx2Fma => Tile::Avx2,
        };
        let wide = be == SimdBackend::Avx2Fma && simd::avx512_available();
        let one_slice = if wide { Tile::Avx512 } else { four };
        for k in [1, 96, K_SLICE] {
            assert_eq!(Tile::select(be, k), one_slice, "k = {k}");
        }
        for k in [K_SLICE + 1, 8192] {
            assert_eq!(Tile::select(be, k), four, "k = {k}");
        }
        // A projection and the up-stage as a forward calls them, at every
        // row count: the wide tile reads `A` through this thread's
        // interleaved copy.
        let (d, d_ff) = (96, 40);
        let [w1, w3] =
            [23, 24].map(|s| PackedPanels::from_nn(randn(&[d, d_ff], s).data(), d, d_ff));
        let a = randn(&[64, d], 25);
        for m in 1..=64 {
            let a = &a.data()[..m * d];
            let [mut gate, mut lin] = [(); 2].map(|()| vec![0.0f32; m * d_ff]);
            INTERLEAVED.with_borrow_mut(Vec::clear);
            w1.matvec_into(a, &mut gate);
            let copied = INTERLEAVED.with_borrow(Vec::len);
            assert_eq!(copied, if wide { m * d } else { 0 }, "matvec m = {m}");
            let hidden = w1.ffn_up_into(&w3, a, &mut gate, &mut lin);
            assert_eq!((hidden.tile, hidden.rows), (one_slice, m), "ffn m = {m}");
        }
        let up = if wide {
            "avx512f_16x16_gate_up"
        } else {
            four.name()
        };
        assert_eq!(
            [
                packed_tile(96),
                packed_tile(8192),
                ffn_up_tile(96),
                ffn_down_tile(96, 8192)
            ],
            [one_slice.name(), four.name(), up, one_slice.name()]
        );
    }

    #[test]
    #[should_panic(expected = "empty reduction dimension")]
    fn empty_reduction_dimension_is_rejected_before_any_division() {
        let p = PackedPanels::from_nn(&[], 0, 4);
        p.matvec_into_with(SimdBackend::Scalar, &[], &mut []);
    }
}
