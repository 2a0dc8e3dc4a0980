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
    /// `m` is — see the module docs for the loop nest. Always serial:
    /// one core multiplies out of its own L1 faster than two share a
    /// fork-join per matmul, at every row count inference produces.
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
        assert!(
            self.k > 0,
            "packed operand has an empty reduction dimension"
        );
        assert_eq!(a.len() % self.k, 0, "A must be whole rows of length k");
        assert_eq!(out.len(), a.len() / self.k * self.n, "out must be m×n");
        match be {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selectable when AVX2+FMA were
            // detected at startup.
            SimdBackend::Avx2Fma => unsafe { self.gemm::<simd::avx2::PackedTile>(a, out) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            SimdBackend::Neon => unsafe { self.gemm::<simd::neon::PackedTile>(a, out) },
            // SAFETY: the scalar tile uses no ISA extension.
            _ => unsafe { self.gemm::<ScalarTile>(a, out) },
        }
    }

    /// The loop nest of the module docs over one backend's register
    /// tile; the shapes were asserted by the caller.
    ///
    /// # Safety
    ///
    /// The instruction set `T` is written for must be available.
    // SAFETY: (contract above) nothing else here is unsafe — every slice
    // handed to the tile is cut with bounds-checked indexing.
    unsafe fn gemm<T: PanelTile>(&self, a: &[f32], out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        let blocks = (a.len() / k).div_ceil(ROW_BLOCK);
        // Slices are consecutive in `data` across panel boundaries, so
        // "the slice after this one" is simply what follows `at`.
        let mut at = 0;
        for j0 in (0..n.div_ceil(PANEL_WIDTH)).map(|p| p * PANEL_WIDTH) {
            let j1 = n.min(j0 + PANEL_WIDTH);
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
                let row_blocks = a.chunks(ROW_BLOCK * k).zip(out.chunks_mut(ROW_BLOCK * n));
                for (i, (a_blk, o_blk)) in row_blocks.enumerate() {
                    let share = &ahead[ahead_rows * i / blocks * PANEL_WIDTH
                        ..ahead_rows * (i + 1) / blocks * PANEL_WIDTH];
                    if a_blk.len() == ROW_BLOCK * k {
                        let (a0, a1) = a_blk.split_at(k);
                        let (o0, o1) = o_blk.split_at_mut(n);
                        // SAFETY: the caller vouches for `T`'s ISA.
                        unsafe {
                            T::tile(
                                slice,
                                [&a0[t0..t1], &a1[t0..t1]],
                                [&mut o0[j0..j1], &mut o1[j0..j1]],
                                t0 > 0,
                                share,
                            );
                        }
                    } else {
                        // SAFETY: the caller vouches for `T`'s ISA.
                        unsafe {
                            T::tile(slice, [&a_blk[t0..t1]], [&mut o_blk[j0..j1]], t0 > 0, share);
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
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::Tensor;

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
