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
//! copied out). [`PackedPanels::from_nn`] and [`PackedPanels::from_nt`]
//! produce this same canonical layout from either storage orientation,
//! so a single kernel serves both `matmul` and `matmul_nt` against a
//! packed operand.
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
//! registers (four NEON ones) of accumulators, so a panel row loaded
//! from L1 feeds four rows' FMAs and a slice is walked once per *four*
//! rows. There is one geometry — one panel width, one tile shape per
//! backend — because every pack of a forward meets every row count: a
//! per-pack width would be a second layout to test at every `m`.
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
//! AVX2/NEON — so within a backend the packed product is **bitwise
//! identical** to the unpacked blocked kernel for the same element, at
//! every `m`.
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
//! core on two cores. The SwiGLU up-stage
//! ([`PackedPanels::swiglu_into`]) is one such region for two packs
//! plus the activation, applied to a task's columns while they are
//! still in its cache.

use std::array::from_fn;

use crate::ops::silu_scalar;
use crate::pool::{self, SharedMut};
use crate::simd::{self, SimdBackend};

/// Panel width in columns: 16 floats = two AVX2 registers or four NEON
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

    /// Packs a row-major `[n, k]` matrix (the `nt` operand layout —
    /// `n` output columns stored as rows) into the same canonical
    /// panels as [`PackedPanels::from_nn`] of its transpose.
    pub fn from_nt(b: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(b.len(), n * k, "B must be n×k");
        let mut data = vec![0.0f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH];
        for (j, b_row) in b.chunks_exact(k).enumerate() {
            let (p, c) = (j / PANEL_WIDTH, j % PANEL_WIDTH);
            for (t, &v) in b_row.iter().enumerate() {
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
    /// the bitwise test batteries use to compare backends directly.
    ///
    /// # Panics
    ///
    /// Panics if the panels have an empty reduction dimension, if `a`
    /// is not whole rows of length `k`, or if `out` is not `m × n`.
    pub fn matvec_into_with(&self, be: SimdBackend, a: &[f32], out: &mut [f32]) {
        self.check_shapes(a, out.len());
        let out = SharedMut(out.as_mut_ptr());
        let tasks = self.tasks();
        pool::run(tasks, |t| {
            // SAFETY: `out` is `m × n` (checked above) and mutably
            // borrowed for the whole region; tasks get disjoint panels.
            unsafe { self.gemm_with(be, a, out.get(), self.panel_run(t, tasks)) }
        });
    }

    /// The SwiGLU up-stage against two packs of one shape, as a single
    /// region: `gate = silu(A × self) ⊙ (A × up)`. Each task multiplies
    /// its run of panels of both packs and then gates those columns of
    /// every row; `lin` (`[m, n]` like `gate`) receives `A × up`. Per
    /// element exactly `matvec_into` twice, the backend's one `silu`
    /// ([`swiglu_epilogue`]), multiply.
    ///
    /// # Panics
    ///
    /// Panics if the packs' shapes differ, or under
    /// [`PackedPanels::matvec_into_with`]'s conditions.
    pub fn swiglu_into(&self, up: &PackedPanels, a: &[f32], gate: &mut [f32], lin: &mut [f32]) {
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
        pool::run(tasks, |t| {
            let std::ops::Range { start: p0, end: p1 } = self.panel_run(t, tasks);
            let (j0, j1) = (p0 * PANEL_WIDTH, n.min(p1 * PANEL_WIDTH));
            // SAFETY: `gate` and `lin` are `m × n` (checked above) and
            // mutably borrowed for the whole region; columns `j0..j1` of
            // their rows belong to this task's panels alone.
            unsafe {
                self.gemm_with(be, a, gate.get(), p0..p1);
                up.gemm_with(be, a, lin.get(), p0..p1);
                for r in 0..m {
                    let g = std::slice::from_raw_parts_mut(gate.get().add(r * n + j0), j1 - j0);
                    let l = std::slice::from_raw_parts(lin.get().add(r * n + j0), j1 - j0);
                    swiglu_epilogue(be, g, l);
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

    /// Tasks a multiply against this pack is cut into (1: inline).
    fn tasks(&self) -> usize {
        pool::tasks_for(self.n.div_ceil(PANEL_WIDTH), 4 * self.data.len())
    }

    /// The contiguous run of panels task `t` of `tasks` multiplies.
    fn panel_run(&self, t: usize, tasks: usize) -> std::ops::Range<usize> {
        let panels = self.n.div_ceil(PANEL_WIDTH);
        panels * t / tasks..panels * (t + 1) / tasks
    }

    /// [`PackedPanels::gemm`] on backend `be`.
    ///
    /// # Safety
    ///
    /// As for [`PackedPanels::gemm`]; `be` came from runtime detection.
    // SAFETY: (contract above) each tile type is only named under the
    // backend whose detection vouches for its instruction set.
    unsafe fn gemm_with(
        &self,
        be: SimdBackend,
        a: &[f32],
        out: *mut f32,
        panels: std::ops::Range<usize>,
    ) {
        match be {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selectable when AVX2+FMA were
            // detected at startup; `out` per this fn's contract.
            SimdBackend::Avx2Fma => unsafe { self.gemm::<simd::avx2::PackedTile>(a, out, panels) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64; `out` as above.
            SimdBackend::Neon => unsafe { self.gemm::<simd::neon::PackedTile>(a, out, panels) },
            // SAFETY: the scalar tile uses no ISA extension; `out` as above.
            _ => unsafe { self.gemm::<ScalarTile>(a, out, panels) },
        }
    }

    /// The loop nest of the module docs over one backend's register
    /// tile and a run of `panels`: writes columns
    /// `panels.start · 32 .. min(n, panels.end · 32)` of every row of
    /// `out`, and nothing else.
    ///
    /// # Safety
    ///
    /// The instruction set `T` is written for must be available. `a`
    /// must be whole rows of length `k` and `out` point at `m × n`
    /// floats nobody else reads, or writes in these columns, meanwhile.
    // SAFETY: (contract above) the only raw accesses are the output row
    // segments: row `< m`, columns `j0..j1` inside `n`, so in bounds of
    // `out`; segments of different rows are disjoint.
    unsafe fn gemm<T: PanelTile>(&self, a: &[f32], out: *mut f32, panels: std::ops::Range<usize>) {
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
/// and NEON backends call libm as training does.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::{set_max_threads, KNOB};
    use crate::rng::SeededRng;
    use crate::Tensor;

    /// `(k, n)` of packs around [`pool::MIN_SHARE_BYTES`]: the
    /// up-projection's 512 panels, then down-projection-like packs on
    /// both sides of the first three panel boundaries — one panel (below
    /// the constant, never split), two to four with a ragged or a full
    /// last one (fewer panels than workers) — `w2`'s six, and eighteen.
    pub(crate) const SHARED_SHAPES: [(usize, usize); 13] = [
        (96, 8192),
        (8192, 1),
        (8192, 15),
        (8192, 16),
        (8192, 17),
        (8192, 31),
        (8192, 32),
        (8192, 33),
        (8192, 47),
        (8192, 48),
        (8192, 49),
        (8192, 96),
        (8192, 288),
    ];

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut SeededRng::new(seed))
    }

    #[test]
    fn from_nn_and_from_nt_agree_on_the_canonical_layout() {
        for &(k, n) in &[(5usize, 3usize), (8, 32), (7, 33), (96, 288), (24, 65)] {
            let b = randn(&[k, n], 9);
            let bt = b.transpose();
            let p_nn = PackedPanels::from_nn(b.data(), k, n);
            let p_nt = PackedPanels::from_nt(bt.data(), n, k);
            assert_eq!(p_nn.data, p_nt.data, "k={k} n={n}");
            assert_eq!((p_nn.k(), p_nn.n()), (k, n));
        }
    }

    #[test]
    fn packed_scalar_matches_reference_bitwise() {
        for &(m, k, n) in &[
            (1usize, 96usize, 288usize),
            (3, 7, 33),
            (8, 24, 96),
            (2, 1, 1),
        ] {
            let a = randn(&[m, k], 1);
            let b = randn(&[k, n], 2);
            let p = PackedPanels::from_nn(b.data(), k, n);
            let mut out = vec![0.0f32; m * n];
            p.matvec_into_with(SimdBackend::Scalar, a.data(), &mut out);
            assert_eq!(out, a.matmul_ref(&b).data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_matches_unpacked_bitwise_on_every_backend_at_every_row_count() {
        // Row counts on both sides of every row-block boundary, reduction
        // lengths on both sides of the k-slice boundary and at the FFN
        // size, column counts on both sides of the panel boundary. `out`
        // starts as NaN: the first slice must not read it and padding
        // lanes must never reach it.
        let ms = [1usize, 2, 3, 4, 5, 7, 8, 9, 20, 21, 48, 257];
        let ks = [1usize, 96, K_SLICE - 1, K_SLICE, K_SLICE + 1, 8192];
        let ns = [1usize, 15, 16, 17, 31, 32, 33, 47, 48, 49, 288];
        let a = randn(&[257, 8192], 3);
        for &k in &ks {
            for &n in &ns {
                let b = randn(&[k, n], 4);
                let p = PackedPanels::from_nn(b.data(), k, n);
                for &m in &ms {
                    // Rows of `a` are not contiguous for k < 8192; any
                    // m·k floats of it will do.
                    let a = &a.data()[..m * k];
                    for be in crate::simd::available_backends() {
                        let mut packed = vec![f32::NAN; m * n];
                        p.matvec_into_with(be, a, &mut packed);
                        let mut unpacked = vec![0.0f32; m * n];
                        crate::kernels::matmul_nn_with(be, a, b.data(), &mut unpacked, m, k, n);
                        assert!(packed == unpacked, "{be:?} {m}x{k}x{n}");
                    }
                }
            }
        }
        // The same, as pool regions at every thread count: the blocked
        // reference is computed once, on one thread.
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        for &(k, n) in &SHARED_SHAPES {
            let b = randn(&[k, n], 5);
            let p = PackedPanels::from_nn(b.data(), k, n);
            for m in [1usize, 2, 3, 4, 5, 7, 8, 9, 20, 257] {
                // 257 rows of the scalar backend are slow: the three
                // shapes that cut differently, at two and eight threads.
                let tall = m == 257;
                if tall && !matches!(n, 8192 | 96 | 33) {
                    continue;
                }
                let a = &a.data()[..m * k];
                for be in crate::simd::available_backends() {
                    set_max_threads(1);
                    let mut unpacked = vec![0.0f32; m * n];
                    crate::kernels::matmul_nn_with(be, a, b.data(), &mut unpacked, m, k, n);
                    for threads in (1..=8).filter(|t| !tall || matches!(t, 2 | 8)) {
                        set_max_threads(threads);
                        let mut packed = vec![f32::NAN; m * n];
                        p.matvec_into_with(be, a, &mut packed);
                        assert!(packed == unpacked, "{be:?} {m}x{k}x{n} @ {threads}");
                    }
                }
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn swiglu_region_equals_dense_silu_dense_mul_bitwise() {
        // The epilogue's `silu`, one element at a time: the polynomial's
        // scalar twin on AVX2, libm everywhere else.
        let silu: fn(f32) -> f32 = match simd::backend() {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2Fma => simd::avx2::silu,
            _ => silu_scalar,
        };
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let a = randn(&[20, 8192], 11);
        for &(k, n) in &SHARED_SHAPES {
            let w1 = PackedPanels::from_nn(randn(&[k, n], 12).data(), k, n);
            let w3 = PackedPanels::from_nn(randn(&[k, n], 13).data(), k, n);
            for m in [1usize, 2, 3, 5, 20] {
                let a = &a.data()[..m * k];
                set_max_threads(1);
                let mut want = Tensor::zeros(&[m, n]);
                let mut want_lin = Tensor::zeros(&[m, n]);
                w1.matvec_into(a, want.data_mut());
                w3.matvec_into(a, want_lin.data_mut());
                for (g, &l) in want.data_mut().iter_mut().zip(want_lin.data()) {
                    *g = silu(*g) * l;
                }
                for threads in 1..=8 {
                    set_max_threads(threads);
                    let mut gate = vec![f32::NAN; m * n];
                    let mut lin = vec![f32::NAN; m * n];
                    w1.swiglu_into(&w3, a, &mut gate, &mut lin);
                    assert!(gate == want.data(), "gate {m}x{k}x{n} @ {threads}");
                    assert!(lin == want_lin.data(), "lin {m}x{k}x{n} @ {threads}");
                }
            }
        }
        set_max_threads(0);
    }

    #[test]
    #[should_panic(expected = "empty reduction dimension")]
    fn empty_reduction_dimension_is_rejected_before_any_division() {
        let p = PackedPanels::from_nn(&[], 0, 4);
        p.matvec_into_with(SimdBackend::Scalar, &[], &mut []);
    }

    #[test]
    fn packed_matvec_is_run_to_run_deterministic() {
        let (m, k, n) = (1, 96, 288);
        let a = randn(&[m, k], 5);
        let b = randn(&[k, n], 6);
        let p = PackedPanels::from_nt(b.transpose().data(), n, k);
        let mut first = vec![0.0f32; m * n];
        p.matvec_into(a.data(), &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            p.matvec_into(a.data(), &mut again);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn padding_columns_never_leak() {
        // One column past two panels leaves all but one column of the
        // third zero-padded; the output must have exactly n columns of
        // real data per row.
        let (m, k, n) = (2, 5, 2 * PANEL_WIDTH + 1);
        let a = randn(&[m, k], 7);
        let b = randn(&[k, n], 8);
        let p = PackedPanels::from_nn(b.data(), k, n);
        let mut out = vec![f32::NAN; m * n];
        p.matvec_into(a.data(), &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(p.packed_len(), 3 * k * PANEL_WIDTH);
    }
}
