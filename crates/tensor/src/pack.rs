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
//! for panel p                       (32 output columns)
//!   for k-slice s of the panel      (≤ K_SLICE reduction steps, ≤ 16 KB: L1-resident)
//!     for row block i               (2 rows of A, or the odd last one)
//!       out[rows, cols] (+)= A[rows, slice] × slice
//! ```
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
//! the same call with one task covering every panel. The SwiGLU
//! up-stage ([`PackedPanels::swiglu_into`]) is one such region for two
//! packs plus the activation, applied to a task's columns while they
//! are still in its cache.

use crate::ops::silu_scalar;
use crate::pool::{self, SharedMut};
use crate::simd::{self, SimdBackend};

/// Panel width in columns: 32 floats = four AVX2 registers or eight
/// NEON registers per panel row, and a whole number of cache lines.
pub const PANEL_WIDTH: usize = 32;

/// Row count up to which the model's dense layers multiply against the
/// packed panels: every row count takes the packed path. Kept because
/// out-of-workspace benchmark code reads it to follow the model's
/// dispatch; nothing in the workspace branches on it any more.
pub const PACKED_SMALL_M_MAX: usize = usize::MAX;

/// Reduction steps per k-slice: 128 panel rows are 16 KB, so the slice
/// being multiplied, the slice being prefetched and the activation
/// rows of a block share a 48 KB L1 data cache.
pub(crate) const K_SLICE: usize = 128;

/// Rows of `A` per register tile.
const ROW_BLOCK: usize = 2;

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
    /// element exactly `matvec_into` twice, `silu`, multiply.
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
                    for (g, &l) in g.iter_mut().zip(l) {
                        *g = silu_scalar(*g) * l;
                    }
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
                let ahead_rows = ahead.len() / PANEL_WIDTH;
                for (i, a_blk) in a.chunks(ROW_BLOCK * k).enumerate() {
                    let share = &ahead[ahead_rows * i / blocks * PANEL_WIDTH
                        ..ahead_rows * (i + 1) / blocks * PANEL_WIDTH];
                    let r = i * ROW_BLOCK;
                    if a_blk.len() == ROW_BLOCK * k {
                        let (a0, a1) = a_blk.split_at(k);
                        // SAFETY: the caller vouches for `T`'s ISA.
                        unsafe {
                            T::tile(
                                slice,
                                [&a0[t0..t1], &a1[t0..t1]],
                                [o_row(r), o_row(r + 1)],
                                t0 > 0,
                                share,
                            );
                        }
                    } else {
                        // SAFETY: the caller vouches for `T`'s ISA.
                        unsafe {
                            T::tile(slice, [&a_blk[t0..t1]], [o_row(r)], t0 > 0, share);
                        }
                    }
                }
                at += slice.len();
                t0 = t1;
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
        mut o: [&mut [f32]; R],
        carry: bool,
        _ahead: &[f32],
    ) {
        // One row at a time: 32 accumulators are the eight SSE registers
        // of the x86-64 baseline that hide the add latency, and two rows
        // at once would spill. The slice is L1-resident for the second
        // row, so the weights are still read from memory once.
        for (a_row, o_row) in a.iter().zip(o.iter_mut()) {
            let mut acc = [0.0f32; PANEL_WIDTH];
            if carry {
                acc[..o_row.len()].copy_from_slice(o_row);
            }
            for (&av, b_row) in a_row.iter().zip(b.chunks_exact(PANEL_WIDTH)) {
                for (slot, &bv) in acc.iter_mut().zip(b_row) {
                    *slot += av * bv;
                }
            }
            o_row.copy_from_slice(&acc[..o_row.len()]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::{set_max_threads, KNOB};
    use crate::rng::SeededRng;
    use crate::Tensor;

    /// `(k, n)` of packs of at least [`pool::MIN_SHARE_BYTES`]: the
    /// up-projection's 256 panels, then down-projection-like packs of
    /// one panel (never split), two with a ragged last one (fewer
    /// panels than workers), `w2`'s three, and nine.
    pub(crate) const SHARED_SHAPES: [(usize, usize); 7] = [
        (96, 8192),
        (8192, 1),
        (8192, 31),
        (8192, 32),
        (8192, 33),
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
        let ms = [1usize, 2, 3, 5, 8, 9, 20, 21, 48, 257];
        let ks = [1usize, 96, K_SLICE - 1, K_SLICE, K_SLICE + 1, 8192];
        let ns = [1usize, 31, 32, 33, 288];
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
            for m in [1usize, 2, 3, 5, 20, 257] {
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
                crate::ops::silu_inplace(&mut want);
                w3.matvec_into(a, want_lin.data_mut());
                want.mul_assign(&want_lin);
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
        // n = 33 leaves 31 zero-padded columns in the second panel; the
        // output must have exactly n columns of real data per row.
        let (m, k, n) = (2, 5, 33);
        let a = randn(&[m, k], 7);
        let b = randn(&[k, n], 8);
        let p = PackedPanels::from_nn(b.data(), k, n);
        let mut out = vec![f32::NAN; m * n];
        p.matvec_into(a.data(), &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(p.packed_len(), 2 * k * PANEL_WIDTH);
    }
}
