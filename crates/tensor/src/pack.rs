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
//! There is one loop nest, for every backend and row count. It reads
//! `A` in the *wide layout*: blocks of sixteen rows (the last one
//! shorter), each block `[t][r]`, so a reduction step's rows are
//! adjacent. A row-major `A` is copied into it once per call
//! (`interleave`). The nest walks each k-slice of a panel once for all
//! of a call's blocks, so the slice is read from memory once and from L1
//! for every block after the first:
//!
//! ```text
//! for panel p                       (16 output columns)
//!   for k-slice s of the panel      (K_SLICE steps)
//!     for row block i               (16 rows of A, or the 1–15 left over)
//!       acc[block] (+)= A[block, s] × panel[s]     (one tile call)
//!   out[rows, cols] = acc
//! ```
//!
//! A panel of one slice is stored straight into `out`. Over several the
//! accumulators are carried from slice to slice in a local spill (64
//! rows a whole panel wide; a call of more rows walks the panel once per
//! 64) and copied into `out` after the last: a store and reload of an
//! `f32` is exact, and a carry through `out` would share cache lines
//! with the next panel's columns, which another core may be writing.
//!
//! The register tile (`PanelTile`) is the backend's; the tiles differ
//! only in their registers and prefetch:
//!
//! - AVX-512F (on [`SimdBackend::Avx2Fma`] where the CPU reports it):
//!   one 512-bit accumulator per row, so a panel-row load feeds up to
//!   sixteen FMAs. Each step prefetches the panel row `PREFETCH_ROWS`
//!   (64, 4 KB) ahead, running on from the slice into what follows it
//!   in memory (the next slice, or the next panel's first rows), so the
//!   rows are on their way when the walk reaches them.
//! - AVX2 (the same backend on an AVX2-only CPU): groups of up to four
//!   rows × two 256-bit accumulators. While a slice is multiplied each
//!   group prefetches its share of what follows the slice in memory
//!   (`Next::share`), so the fetch is spread over every row of the call.
//! - Scalar: pairs of rows with plain mul+add.
//!
//! Per output element the reduction therefore remains one ascending-`k`
//! chain from zero — plain mul+add on the scalar backend, fused FMA on
//! AVX2/AVX-512F — so within a backend the packed product is
//! **bitwise identical** to the unpacked blocked kernel for the same
//! element, at every `m`, and the two x86 tiles agree bitwise: which one
//! runs never shows in the output. There is one geometry — one panel
//! width — because every pack of a forward meets every row count.
//!
//! The FFN ([`PackedPanels::ffn_into`]) runs its up-stage over both up
//! packs, a whole panel per tile call (its `k` is the model width, one
//! slice), and needs no copy for its down-projection:
//!
//! ```text
//! for panel p
//!   for row block i
//!     g[block] = A[block, :] × w1 panel         (one tile call over both
//!     l[block] = A[block, :] × w3 panel          panels)
//!     gate[block, cols]ᵀ = silu(g) ⊙ l          (in registers and L1)
//! ```
//!
//! The backend's own SwiGLU gates a block's products before it is
//! stored, and only `gate` is stored, transposed into the wide layout.
//! The x86 tiles walk both panels in one pass, one broadcast of `A`
//! feeding both products, and gate them in registers with the AVX2
//! `silu_mul` (the AVX-512F tile on each half of a row); the scalar tile
//! multiplies them one after the other into a local spill. The
//! down-projection reads `gate` in place.
//!
//! # Tensor parallelism
//!
//! A pack of at least [`pool::MIN_SHARE_BYTES`] is multiplied as one
//! region of the worker pool: the *panels* are dealt out in contiguous
//! runs, one run per task, and each task runs the loop nest above over
//! its run for every row of `A` — the paper's §5.2 column sharding with
//! cores for devices. A task streams its share of the weights once per
//! block and writes its own columns of every output row; no output
//! column is ever split (that would split a `k` chain), so the product
//! is bitwise independent of the thread count by construction. Smaller
//! packs are the same call with one task covering every panel. The
//! panel is the partition unit, so a narrow pack shares as well as its
//! panel count divides: the down-projection's 96 columns are six
//! panels, three per core on two cores. The FFN's up-stage
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

/// Reduction steps per k-slice of every tile: 256 panel rows are 16 KB,
/// so the slice being multiplied and the slice being prefetched fit a
/// 48 KB L1 data cache beside the activations. 128 steps measured
/// slower (EXPERIMENTS.md).
pub(crate) const K_SLICE: usize = 256;

/// Rows of `A` per block: sixteen of the thirty-two AVX-512 registers
/// hold accumulators.
const BLOCK_ROWS: usize = 16;

/// Rows of the packed GEMM's carry between k-slices (module docs, "Loop
/// nest"): four blocks, 4 KB of stack.
const SPILL_ROWS: usize = 4 * BLOCK_ROWS;

/// Panel rows the AVX-512F tile prefetches ahead of the row it
/// multiplies: 4 KB, past the end of the slice into the pack data that
/// follows it ([`Next`]). 32 and 128 rows measured 2–6% slower, 256
/// about 6% (EXPERIMENTS.md).
pub(crate) const PREFETCH_ROWS: usize = 64;
// `Next` holds up to one slice, which covers this tile's reach.
const _: () = assert!(PREFETCH_ROWS <= K_SLICE);

/// The register tile a multiply runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tile {
    /// Pairs of rows with plain mul+add.
    Scalar,
    /// Groups of four rows × two 256-bit accumulators (x86-64,
    /// AVX2+FMA).
    Avx2,
    /// One 512-bit accumulator per row (x86-64, AVX-512F).
    Avx512,
}

impl Tile {
    /// The tile backend `be` runs every call on: the backend's own,
    /// except that on AVX2 a CPU with AVX-512F runs the AVX-512F tile.
    /// Both x86 tiles compute every element the same way, so the choice
    /// never shows in the bits.
    fn select(be: SimdBackend) -> Tile {
        match be {
            SimdBackend::Scalar => Tile::Scalar,
            SimdBackend::Avx2Fma if simd::avx512_available() => Tile::Avx512,
            SimdBackend::Avx2Fma => Tile::Avx2,
        }
    }

    /// Stable name: instruction set, rows × columns of a block.
    fn name(self) -> &'static str {
        match self {
            Tile::Scalar => "scalar_16x16",
            Tile::Avx2 => "avx2_16x16",
            Tile::Avx512 => "avx512f_16x16",
        }
    }
}

/// The packed register tile every call runs on, on the process's
/// backend, by name (`avx2_16x16`, `avx512f_16x16`, …), for benchmark
/// reports.
pub fn packed_tile() -> &'static str {
    Tile::select(simd::backend()).name()
}

thread_local! {
    /// The calling thread's [`interleave`]d copy of `A`, kept for its
    /// next call.
    static INTERLEAVED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the row-major `[m, k]` `A` in the wide layout, this
/// thread's [`interleave`]d copy.
fn with_wide<T>(a: &[f32], k: usize, f: impl FnOnce(&[f32]) -> T) -> T {
    INTERLEAVED.with_borrow_mut(|il| {
        interleave(a, k, il);
        f(il)
    })
}

/// Writes into `il` the row-major `[m, k]` `A` in the wide layout:
/// blocks of [`BLOCK_ROWS`] rows (the last one shorter), each block
/// column after column, element `(r, t)` of a block of `R` rows at
/// `t · R + r`.
fn interleave(a: &[f32], k: usize, il: &mut Vec<f32>) {
    il.clear();
    for blk in a.chunks(BLOCK_ROWS * k) {
        for t in 0..k {
            il.extend(blk.chunks_exact(k).map(|row| row[t]));
        }
    }
}

/// Calls `$call` with the const `$R` = `$rows`, one of the listed row
/// counts: a register tile's row count is a type-level constant.
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
    /// read). The panels are read from memory once per 64 rows, by one
    /// core or — a pack of [`pool::MIN_SHARE_BYTES`] or more — by all of
    /// them, a run of panels each; see the module docs.
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
        with_wide(a, self.k, |a| unsafe {
            self.matvec_into_tile(Tile::select(be), a, out)
        });
    }

    /// [`PackedPanels::matvec_into_with`] on an explicit register tile,
    /// `a` in the wide layout; `out` is row-major.
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available.
    // SAFETY: (contract above) shapes are checked here; see `gemm_with`.
    unsafe fn matvec_into_tile(&self, tile: Tile, a: &[f32], out: &mut [f32]) {
        self.check_shapes(a, out.len());
        let out = SharedMut(out.as_mut_ptr());
        let tasks = self.tasks();
        pool::run(tasks, |t| {
            // SAFETY: `out` is `m × n` (checked above) and mutably
            // borrowed for the whole region; tasks get disjoint panels.
            unsafe { self.gemm_with(tile, a, out.get(), self.panel_run(t, tasks)) }
        });
    }

    /// One feed-forward layer, `out = (silu(A × self) ⊙ (A × up)) × down`,
    /// as a forward runs it: the up-stage region
    /// ([`PackedPanels::ffn_up_into`]), then the down-projection
    /// ([`PackedPanels::ffn_down_into`]) on what it wrote. `gate`
    /// (`[m, n]` floats) is scratch in a layout of this module's
    /// choosing; `out` is `[m, down.n]` row-major and fully overwritten.
    /// Bitwise `swiglu` as two [`PackedPanels::matvec_into`] calls and
    /// the backend's `silu`, then `matvec_into` against `down`, at every
    /// `m` and thread count.
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
        out: &mut [f32],
    ) {
        self.ffn_up_into(up, a, gate);
        down.ffn_down_into(gate, out);
    }

    /// The up-stage of [`PackedPanels::ffn_into`]: `gate = silu(A × self)
    /// ⊙ (A × up)` as one region. Each task multiplies its run of panels
    /// of both packs a block at a time and gates the block's columns in
    /// registers and L1, and writes `gate` alone, in the wide layout,
    /// which is what [`PackedPanels::ffn_down_into`] reads.
    ///
    /// # Panics
    ///
    /// Panics if the packs' shapes differ, or under
    /// [`PackedPanels::matvec_into_with`]'s conditions.
    pub fn ffn_up_into(&self, up: &PackedPanels, a: &[f32], gate: &mut [f32]) {
        self.check_shapes(a, gate.len());
        // SAFETY: `select` names only detected tiles.
        with_wide(a, self.k, |a| unsafe {
            self.up_stage(up, Tile::select(simd::backend()), a, gate)
        });
    }

    /// The down-projection of [`PackedPanels::ffn_into`]: `out = gate ×
    /// self`, `gate` read in place. `gate` must be exactly what
    /// [`PackedPanels::ffn_up_into`] wrote for the same `m`: its layout
    /// is private to this module, and a row-major `[m, k]` gate gives
    /// wrong rows for `m > 1` without a panic.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not whole rows of length `k`, or `out` not
    /// `m × n`.
    pub fn ffn_down_into(&self, gate: &[f32], out: &mut [f32]) {
        // SAFETY: `select` names only detected tiles.
        unsafe { self.matvec_into_tile(Tile::select(simd::backend()), gate, out) }
    }

    /// The SwiGLU up-stage on tile `tile`, `a` and `gate` in the wide
    /// layout: per element exactly the product twice, the backend's one
    /// `silu`, multiply ([`PackedPanels::gate_up`]).
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available.
    // SAFETY: (contract above) shapes are checked here; see `gemm_with`.
    unsafe fn up_stage(&self, up: &PackedPanels, tile: Tile, a: &[f32], gate: &mut [f32]) {
        assert_eq!(
            (self.k, self.n),
            (up.k, up.n),
            "gate and up packs must agree"
        );
        self.check_shapes(a, gate.len());
        let gate = SharedMut(gate.as_mut_ptr());
        let tasks = self.tasks();
        pool::run(tasks, |t| {
            let panels = self.panel_run(t, tasks);
            // SAFETY: `tile` as the caller vouches; `gate` is `m × n`
            // (checked above), borrowed for the region, and the columns
            // of `panels` are this task's.
            unsafe {
                match tile {
                    #[cfg(target_arch = "x86_64")]
                    Tile::Avx2 => self.gate_up::<simd::avx2::PackedTile>(up, a, gate.get(), panels),
                    #[cfg(target_arch = "x86_64")]
                    Tile::Avx512 => {
                        self.gate_up::<simd::avx512::PackedTile>(up, a, gate.get(), panels)
                    }
                    _ => self.gate_up::<ScalarTile>(up, a, gate.get(), panels),
                }
            }
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

    /// Panel `p`, and the pack data after it that a tile may prefetch
    /// while it walks the panel: [`K_SLICE`] panel rows, fewer at the end
    /// of the buffer.
    fn panel(&self, p: usize) -> (&[f32], &[f32]) {
        let len = self.k * PANEL_WIDTH;
        let (panel, rest) = self.data[p * len..].split_at(len);
        (panel, &rest[..rest.len().min(K_SLICE * PANEL_WIDTH)])
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
    /// register tile `tile`, `a` in the wide layout: writes columns
    /// `panels.start · 16 .. min(n, panels.end · 16)` of every row of the
    /// row-major `out`, and nothing else.
    ///
    /// # Safety
    ///
    /// The instruction set `tile` is written for must be available. `a`
    /// must be whole rows of length `k`, and `out` point at `m × n`
    /// floats nobody else reads, or writes in these columns, meanwhile.
    // SAFETY: (contract above) each tile is only named under the `Tile`
    // whose instruction set the caller vouches for.
    unsafe fn gemm_with(&self, tile: Tile, a: &[f32], out: *mut f32, panels: Range<usize>) {
        // SAFETY: as the caller vouches.
        unsafe {
            match tile {
                #[cfg(target_arch = "x86_64")]
                Tile::Avx2 => self.gemm::<simd::avx2::PackedTile>(a, out, panels),
                #[cfg(target_arch = "x86_64")]
                Tile::Avx512 => self.gemm::<simd::avx512::PackedTile>(a, out, panels),
                _ => self.gemm::<ScalarTile>(a, out, panels),
            }
        }
    }

    /// [`PackedPanels::gemm_with`] on tile `T`: per panel, per chunk of
    /// up to [`SPILL_ROWS`] rows, per k-slice of [`K_SLICE`] steps, per
    /// block of up to [`BLOCK_ROWS`] rows, one tile call. A panel of one
    /// slice is stored straight into `out`. Over several, the tiles
    /// accumulate into a local spill of the chunk's rows, a whole panel
    /// wide, carried from slice to slice, and the panel's real columns
    /// are copied into `out` after the last: a carry through `out` itself
    /// would share cache lines with the next panel's columns, which
    /// another core may be writing. The walk gets the slicing as a
    /// constant: at run time, one-slice products of up to 10 rows read
    /// 1.1–1.3× as long (EXPERIMENTS.md "PR 50" (b)).
    ///
    /// # Safety
    ///
    /// As for `gemm_with`, for `T`'s instruction set.
    // SAFETY: (contract above) passed on to `walk`.
    unsafe fn gemm<T: PanelTile>(&self, a: &[f32], out: *mut f32, panels: Range<usize>) {
        // SAFETY: as the caller vouches.
        unsafe {
            match self.k > K_SLICE {
                true => self.walk::<T, true>(a, out, panels),
                false => self.walk::<T, false>(a, out, panels),
            }
        }
    }

    /// [`PackedPanels::gemm`]'s walk, `SLICED` if `k > K_SLICE`.
    ///
    /// # Safety
    ///
    /// As for `gemm`.
    // SAFETY: the raw accesses are the output row segments (row `< m`, a
    // panel's columns inside `n`: disjoint, in bounds of `out`) and the
    // chunk's spill rows, read through `spill` after its last tile call.
    unsafe fn walk<T: PanelTile, const SLICED: bool>(
        &self,
        a: &[f32],
        out: *mut f32,
        panels: Range<usize>,
    ) {
        let (k, n) = (self.k, self.n);
        let step = if SLICED { K_SLICE } else { usize::MAX };
        let mut spill = [[0.0f32; PANEL_WIDTH]; SPILL_ROWS];
        for p in panels {
            let cols = p * PANEL_WIDTH..n.min((p + 1) * PANEL_WIDTH);
            let (panel, ahead) = self.panel(p);
            for (c, a_rows) in a.chunks(SPILL_ROWS * k).enumerate() {
                let m = a_rows.len() / k;
                // Row `r` of `width` floats `stride` apart from `at`.
                // SAFETY: see the function-level argument.
                let row_of = |at: *mut f32, stride: usize, width: usize| {
                    move |r: usize| unsafe {
                        std::slice::from_raw_parts_mut(at.add(r * stride), width)
                    }
                };
                let at = out.wrapping_add(c * SPILL_ROWS * n + cols.start);
                let out_row = row_of(at, n, cols.len());
                // The rows the tiles accumulate into: over several slices
                // the spill's, whole panels wide.
                let acc_row = match SLICED {
                    true => row_of(spill.as_mut_ptr().cast(), PANEL_WIDTH, PANEL_WIDTH),
                    false => out_row,
                };
                for t0 in (0..k).step_by(step) {
                    let t1 = k.min(t0 + step);
                    let slice = &panel[t0 * PANEL_WIDTH..t1 * PANEL_WIDTH];
                    let data = if t1 < k {
                        &panel[t1 * PANEL_WIDTH..k.min(t1 + K_SLICE) * PANEL_WIDTH]
                    } else {
                        ahead
                    };
                    for (i, a_blk) in a_rows.chunks(BLOCK_ROWS * k).enumerate() {
                        let next = Next {
                            data,
                            first: i * BLOCK_ROWS,
                            m,
                        };
                        // The block's steps of the slice, cut here rather than in
                        // each arm: per arm, the compiler hoists the cut for all
                        // sixteen ahead of every slice.
                        let rows = a_blk.len() / k;
                        let a_blk = &a_blk[t0 * rows..t1 * rows];
                        with_rows!(rows, [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16], |R| {
                            let o = from_fn(|r| acc_row(i * BLOCK_ROWS + r));
                            // SAFETY: the caller vouches for `T`'s ISA.
                            unsafe { T::tile::<R>(slice, a_blk, o, t0 > 0, next) }
                        })
                    }
                }
                if SLICED {
                    for (r, acc) in spill[..m].iter().enumerate() {
                        out_row(r).copy_from_slice(&acc[..cols.len()]);
                    }
                }
            }
        }
    }

    /// The up-stage of tile `T` over a run of `panels`, `a` in the wide
    /// layout: per panel, per block of up to [`BLOCK_ROWS`] rows, one
    /// [`PanelTile::swiglu_tile`] call multiplies this pack's and `up`'s
    /// panel and stores the block's gated columns into `gate`, in the
    /// wide layout.
    ///
    /// # Safety
    ///
    /// As for `gemm_with`, for `T`'s instruction set, with `gate` as
    /// `out` in the wide layout; `up` must be this pack's shape.
    // SAFETY: (contract above) the only raw accesses are a block's runs
    // of a panel's columns: inside `m × n`, disjoint between blocks and
    // panels.
    unsafe fn gate_up<T: PanelTile>(
        &self,
        up: &PackedPanels,
        a: &[f32],
        gate: *mut f32,
        panels: Range<usize>,
    ) {
        let (k, n, m) = (self.k, self.n, a.len() / self.k);
        for p in panels {
            let cols = p * PANEL_WIDTH..n.min((p + 1) * PANEL_WIDTH);
            let [(g, g_ahead), (l, l_ahead)] = [self.panel(p), up.panel(p)];
            for (i, a_blk) in a.chunks(BLOCK_ROWS * k).enumerate() {
                let next = [g_ahead, l_ahead].map(|data| Next {
                    data,
                    first: i * BLOCK_ROWS,
                    m,
                });
                // SAFETY: the caller vouches for `T`'s ISA; see the
                // function-level argument for the output.
                unsafe {
                    with_rows!(a_blk.len() / k, [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16], |R| {
                        let at = i * BLOCK_ROWS * n + cols.start * R;
                        let o = std::slice::from_raw_parts_mut(gate.add(at), cols.len() * R);
                        T::swiglu_tile::<R>([g, l], a_blk, o, next)
                    })
                }
            }
        }
    }
}

/// One backend's register tile of the packed GEMM (module docs, "Loop
/// nest").
pub(crate) trait PanelTile {
    /// `o (+)= A × b` for the `R` rows of a block: `b` is one k-slice of
    /// a panel (up to [`K_SLICE`] rows of [`PANEL_WIDTH`]), `a` the
    /// block's steps of that slice in the wide layout (`A[r][t]` at
    /// `a[t·R + r]`), `o[r]` row `r`'s accumulators: the panel's real
    /// columns of its output row, or a whole panel wide in the nest's
    /// spill. With `carry` (every slice of a panel but the first) they
    /// continue from `o`, otherwise from zero: a store and reload of an
    /// `f32` is exact, so each output element is one ascending-`k` chain
    /// from zero across the slices. `next` is what the tile may prefetch.
    ///
    /// # Safety
    ///
    /// The instruction set the implementation is written for must be
    /// available.
    // SAFETY: (contract above) all operands are slices; implementations
    // assert the lengths their raw accesses rely on.
    unsafe fn tile<const R: usize>(
        b: &[f32],
        a: &[f32],
        o: [&mut [f32]; R],
        carry: bool,
        next: Next<'_>,
    );

    /// The FFN up-stage of a block: `gate = silu(A × b[0]) ⊙ (A × b[1])`,
    /// the two panels whole, of the same `k` and columns, the backend's
    /// SwiGLU epilogue applied before the store. `gate` is the block's
    /// run of the panel's real columns in the wide layout (element `(r,
    /// c)` at `c · R + r`); `a` is the block's whole `k` in the wide
    /// layout, and `next` holds the pack data after each panel. Bitwise
    /// the two products of `tile`, then `silu(g) · l` per element: the
    /// AVX2 polynomial (`simd::avx2::silu_mul`) on x86, libm on the
    /// scalar tile.
    ///
    /// # Safety
    ///
    /// As for [`PanelTile::tile`].
    // SAFETY: (contract above) as for `tile`.
    unsafe fn swiglu_tile<const R: usize>(
        b: [&[f32]; 2],
        a: &[f32],
        gate: &mut [f32],
        next: [Next<'_>; 2],
    );
}

/// The pack data that follows a tile call's panel rows in memory (the
/// panel's next k-slice, or the start of the next panel; at most
/// [`K_SLICE`] rows), and where the call's block lies among the `m` rows
/// that walk the same panel rows. The AVX2 tile's rows share out the
/// prefetch of `data` ([`Next::share`]); the AVX-512F tile's walk runs
/// on into it a fixed distance ahead ([`PREFETCH_ROWS`]).
#[derive(Clone, Copy)]
pub(crate) struct Next<'a> {
    pub(crate) data: &'a [f32],
    /// The block's first row among the `m`.
    first: usize,
    m: usize,
}

impl<'a> Next<'a> {
    /// The share of `data` to prefetch for the block's rows `rows`: in
    /// proportion to their place among the `m`, so that the walks of all
    /// the rows together fetch it once, spread evenly. None when `rows`
    /// are all `m`: with nothing else to reuse what it reads, their walk
    /// is one sequential read, which the hardware prefetcher already
    /// follows.
    pub(crate) fn share(self, rows: Range<usize>) -> &'a [f32] {
        let (lo, hi) = (self.first + rows.start, self.first + rows.end);
        if hi - lo == self.m {
            return &[];
        }
        let len = self.data.len() / PANEL_WIDTH;
        &self.data[len * lo / self.m * PANEL_WIDTH..len * hi / self.m * PANEL_WIDTH]
    }
}

/// Stores a block's gated rows `g` into `gate`, the block's run of a
/// panel's real columns in the wide layout: `gate[c · R + r] = g[r][c]`.
pub(crate) fn store_transposed<const R: usize>(g: &[[f32; PANEL_WIDTH]; R], gate: &mut [f32]) {
    assert!(
        gate.len().is_multiple_of(R) && gate.len() <= R * PANEL_WIDTH,
        "whole columns of one panel"
    );
    for (c, col) in gate.chunks_exact_mut(R).enumerate() {
        for (v, g) in col.iter_mut().zip(g) {
            *v = g[c];
        }
    }
}

/// Scalar reference tile: pairs of rows, per output column one
/// ascending-`k` plain mul+add chain, bitwise identical to the unpacked
/// scalar `nn` kernel (and so to `matmul_ref`). Two rows at a time: 2 ×
/// 16 accumulators are eight of the sixteen SSE registers of the x86-64
/// baseline, enough chains to hide the add latency; four rows at once
/// would spill.
struct ScalarTile;

impl ScalarTile {
    /// `o[d] (+)= A[row + d][t] × b[t]` over the panel rows `b`, `a`
    /// their steps of a block of `stride` rows.
    fn group<const G: usize>(
        b: &[f32],
        a: &[f32],
        stride: usize,
        row: usize,
        o: &mut [&mut [f32]],
        carry: bool,
    ) {
        let mut acc = [[0.0f32; PANEL_WIDTH]; G];
        if carry {
            for (acc, o) in acc.iter_mut().zip(o.iter()) {
                acc[..o.len()].copy_from_slice(o);
            }
        }
        for (b_row, a_t) in b.chunks_exact(PANEL_WIDTH).zip(a.chunks_exact(stride)) {
            for (acc, &av) in acc.iter_mut().zip(&a_t[row..row + G]) {
                for (s, &bv) in acc.iter_mut().zip(b_row) {
                    *s += av * bv;
                }
            }
        }
        for (acc, o) in acc.iter().zip(o) {
            o.copy_from_slice(&acc[..o.len()]);
        }
    }
}

impl PanelTile for ScalarTile {
    // SAFETY: safe code throughout — no ISA extension, no raw access.
    unsafe fn tile<const R: usize>(
        b: &[f32],
        a: &[f32],
        mut o: [&mut [f32]; R],
        carry: bool,
        _next: Next<'_>,
    ) {
        assert_eq!(
            b.len() / PANEL_WIDTH * R,
            a.len(),
            "one A element per row and panel row"
        );
        for (g, o) in o.chunks_mut(2).enumerate() {
            match o.len() {
                2 => ScalarTile::group::<2>(b, a, R, 2 * g, o, carry),
                _ => ScalarTile::group::<1>(b, a, R, 2 * g, o, carry),
            }
        }
    }

    /// The two products into a local spill, the libm epilogue, then
    /// [`store_transposed`].
    // SAFETY: safe code throughout — no ISA extension, no raw access.
    unsafe fn swiglu_tile<const R: usize>(
        b: [&[f32]; 2],
        a: &[f32],
        gate: &mut [f32],
        next: [Next<'_>; 2],
    ) {
        let mut gl = [[[0.0f32; PANEL_WIDTH]; R]; 2];
        for ((acc, b), next) in gl.iter_mut().zip(b).zip(next) {
            // SAFETY: plain Rust.
            unsafe { ScalarTile::tile::<R>(b, a, acc.each_mut().map(|r| &mut r[..]), false, next) };
        }
        let [g, l] = &mut gl;
        for (g, &l) in g.as_flattened_mut().iter_mut().zip(l.as_flattened()) {
            *g = silu_scalar(*g) * l;
        }
        store_transposed(g, gate);
    }
}

/// The contracts of the public API — packed ≡ blocked at every row
/// count, backend and thread count, the FFN ≡ its rows one at a time —
/// are cells of the forward oracle (`tests/forward.rs`), which runs the
/// scalar tile on every host. What stays here needs the module's private
/// items: forced tiles. The epilogue's polynomial SiLU is `simd.rs`'s.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::Tensor;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut SeededRng::new(seed))
    }

    /// `A × B` (`a` row-major) on `tile`, from a NaN `out`.
    ///
    /// # Safety
    ///
    /// As for `matvec_into_tile`.
    // SAFETY: (contract above) passed on to `matvec_into_tile`.
    unsafe fn forced(tile: Tile, p: &PackedPanels, a: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.len() / p.k * p.n];
        // SAFETY: as the caller vouches.
        with_wide(a, p.k, |a| unsafe { p.matvec_into_tile(tile, a, &mut out) });
        out
    }

    /// The FFN of `w1`, `w3` and `w2` on `tile`, from NaN scratch and
    /// output.
    ///
    /// # Safety
    ///
    /// As for `matvec_into_tile`.
    // SAFETY: (contract above) passed on to `up_stage` and
    // `matvec_into_tile`.
    unsafe fn forced_ffn(tile: Tile, [w1, w3, w2]: [&PackedPanels; 3], a: &[f32]) -> Vec<f32> {
        let m = a.len() / w1.k;
        let (mut gate, mut out) = (vec![f32::NAN; m * w1.n], vec![f32::NAN; m * w2.n]);
        // SAFETY: as the caller vouches.
        unsafe {
            with_wide(a, w1.k, |a| w1.up_stage(w3, tile, a, &mut gate));
            w2.matvec_into_tile(tile, &gate, &mut out);
        }
        out
    }

    /// The two x86 tiles forced through the one nest at every row count
    /// to 40, on packs of one k-slice and of several (each tile's
    /// accumulators carried across slices), with ragged and whole last
    /// panels, and as the FFN: the AVX-512F tile's up-stage, gated in
    /// registers a 256-bit half at a time and stored by an in-register
    /// transpose, against the AVX2 tile's, gated two rows at a time and
    /// stored through `store_transposed`; both down-projections read
    /// `gate` in place. Packs of several slices
    /// also run 63–65 and 80 rows, past the nest's 64-row spill, whose
    /// second chunk starts a carry of its own.
    #[test]
    fn avx512f_tile_equals_avx2_tile_bitwise_at_every_row_count() {
        if !(simd::available_backends().contains(&SimdBackend::Avx2Fma) && simd::avx512_available())
        {
            eprintln!("skipped: this CPU does not report AVX2+FMA and AVX-512F");
            return;
        }
        let a = randn(&[80, 600], 14);
        let rows = |k: usize| {
            let past_spill: &[usize] = if k > K_SLICE { &[63, 64, 65, 80] } else { &[] };
            (1..=40).chain(past_spill.iter().copied())
        };
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
            for m in rows(k) {
                let a = &a.data()[..m * k];
                // SAFETY: AVX2+FMA and AVX-512F were detected above.
                let [wide, avx2] =
                    [Tile::Avx512, Tile::Avx2].map(|tile| unsafe { forced(tile, &p, a) });
                assert!(wide == avx2, "{m}x{k}x{n}");
            }
        }
        for &(d, d_ff) in &[(24usize, 200usize), (96, 300), (96, 1024)] {
            let [w1, w3] = [20, 21].map(|seed| randn(&[d, d_ff], seed));
            let [w1, w3] = [&w1, &w3].map(|b| PackedPanels::from_nn(b.data(), d, d_ff));
            let w2 = PackedPanels::from_nn(randn(&[d_ff, d], 22).data(), d_ff, d);
            for m in rows(d_ff) {
                let a = &a.data()[..m * d];
                let [wide, avx2] = [Tile::Avx512, Tile::Avx2].map(|tile| {
                    // SAFETY: AVX2+FMA and AVX-512F were detected above.
                    unsafe { forced_ffn(tile, [&w1, &w3, &w2], a) }
                });
                assert!(wide == avx2, "ffn {m}x{d}x{d_ff}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty reduction dimension")]
    fn empty_reduction_dimension_is_rejected_before_any_division() {
        let p = PackedPanels::from_nn(&[], 0, 4);
        p.matvec_into_with(SimdBackend::Scalar, &[], &mut []);
    }
}
