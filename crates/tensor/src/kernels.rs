//! Parallel blocked matmul kernels.
//!
//! All three matmul variants dispatch through this module. Large shapes
//! become one region of the worker pool ([`crate::pool`]); small shapes
//! are the same call as a single inline task. The partitioning is
//! always over *output elements* (rows, or columns when there is a
//! single output row), never over the shared `k` dimension, so every
//! output element accumulates its products in a fixed order regardless
//! of the thread count.
//!
//! Each partition runs on the process-selected [`SimdBackend`]
//! (see [`crate::simd`]): the scalar kernels below are the
//! cross-platform reference — bitwise identical to the naive triple
//! loop — while the AVX2/NEON kernels keep their own fixed per-element
//! reduction order (fused ascending-`k` chains plus a deterministic
//! lane-reduction tree for `nt`). Within a backend, results are
//! bitwise identical no matter the thread count — see `ARCHITECTURE.md`
//! ("Threading model & determinism" and "SIMD dispatch & packed
//! panels").

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool;
use crate::simd::{self, SimdBackend};

/// Configured thread cap; 0 means "use available parallelism".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of threads a parallel region may use (the caller
/// plus the pool's workers).
///
/// `0` restores the default (the machine's available parallelism);
/// `1` forces the serial path. The setting is process-global and takes
/// effect on the next region. Output values are bitwise identical
/// at every setting; the cap exists for benchmarking and for tests that
/// want to exercise a specific path.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current thread cap (0 = automatic).
pub fn max_threads() -> usize {
    MAX_THREADS.load(Ordering::Relaxed)
}

/// Row count below which `matmul_nt` skips the 4×4 blocked tile and
/// takes the per-row lane kernel directly. The blocked tile amortises
/// `B` loads across four `A` rows; with fewer rows there is nothing to
/// amortise and the tile's staging overhead made `nt m=1` *slower* than
/// the naive reference, so decode-shaped calls dispatch straight to
/// [`nt_one_row`] (whose bounds checks are hoisted so the four column
/// lanes actually pipeline).
pub const NT_BLOCK_MIN_M: usize = 4;

/// The thread count a region may use: the configured cap, or the
/// machine's available parallelism when the cap is 0.
///
/// `available_parallelism` is a syscall (~10 µs); querying it on every
/// kernel call used to dominate decode-shaped matvecs outright, so the
/// answer is latched once per process.
pub fn effective_threads() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match max_threads() {
        0 => *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// `out[i0+r, :] = A[i0+r, :] × B` for each row of `out`, in i-k-j order.
///
/// Rows are processed in register blocks of four, tiled eight columns
/// wide: a 4×8 tile of scalar accumulators lives in registers across the
/// whole `k` reduction and is stored once, so each loaded `B` element
/// feeds four fused multiply–adds and the output rows are written once
/// instead of once per `k` step. Leftover rows fall back to a one-row
/// sweep, leftover columns to the in-place accumulation. Tiling only
/// regroups *independent* output elements: every element still
/// accumulates its `k` products one at a time in ascending order from
/// zero, so results are bitwise identical to the naive triple loop.
/// `out` must be zero-filled.
fn nn_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    let mut r = 0;
    while r + 4 <= rows {
        let a0 = &a[(i0 + r) * k..(i0 + r + 1) * k];
        let a1 = &a[(i0 + r + 1) * k..(i0 + r + 2) * k];
        let a2 = &a[(i0 + r + 2) * k..(i0 + r + 3) * k];
        let a3 = &a[(i0 + r + 3) * k..(i0 + r + 4) * k];
        let block = &mut out[r * n..(r + 4) * n];
        let (o0, rest) = block.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut j = 0;
        while j + 8 <= n {
            let mut t = [[0.0f32; 8]; 4];
            for kk in 0..k {
                let b_seg = &b[kk * n + j..kk * n + j + 8];
                let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                for (c, &bv) in b_seg.iter().enumerate() {
                    t[0][c] += v0 * bv;
                    t[1][c] += v1 * bv;
                    t[2][c] += v2 * bv;
                    t[3][c] += v3 * bv;
                }
            }
            o0[j..j + 8].copy_from_slice(&t[0]);
            o1[j..j + 8].copy_from_slice(&t[1]);
            o2[j..j + 8].copy_from_slice(&t[2]);
            o3[j..j + 8].copy_from_slice(&t[3]);
            j += 8;
        }
        if j < n {
            for kk in 0..k {
                let b_row = &b[kk * n..(kk + 1) * n];
                let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                for c in j..n {
                    let bv = b_row[c];
                    o0[c] += v0 * bv;
                    o1[c] += v1 * bv;
                    o2[c] += v2 * bv;
                    o3[c] += v3 * bv;
                }
            }
        }
        r += 4;
    }
    while r < rows {
        let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
        let o_row = &mut out[r * n..(r + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        r += 1;
    }
}

/// Single-output-row variant of [`nn_rows`] over a column range:
/// `out[j0..j0+w] = a × B[:, j0..j0+w]` where `a` is one row.
fn nn_cols(a: &[f32], b: &[f32], out: &mut [f32], j0: usize, k: usize, n: usize) {
    let w = out.len();
    for (kk, &av) in a.iter().enumerate().take(k) {
        let b_seg = &b[kk * n + j0..kk * n + j0 + w];
        for (o, &bv) in out.iter_mut().zip(b_seg) {
            *o += av * bv;
        }
    }
}

/// [`nn_rows`] on an explicit backend: scalar stays the reference
/// triple-loop order; AVX2/NEON vectorise over output columns, which
/// keeps one (fused) ascending-`k` chain per element.
fn nn_rows_with(
    be: SimdBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only ever selected after runtime
        // detection of AVX2+FMA, and the caller passes the same shape
        // contract the scalar kernel relies on.
        SimdBackend::Avx2Fma => unsafe { simd::avx2::nn_rows(a, b, out, i0, k, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; shape contract as above.
        SimdBackend::Neon => unsafe { simd::neon::nn_rows(a, b, out, i0, k, n) },
        _ => nn_rows(a, b, out, i0, k, n),
    }
}

/// [`nn_cols`] on an explicit backend; same per-element chains as
/// [`nn_rows_with`], so column-chunk boundaries are bitwise-inert.
fn nn_cols_with(
    be: SimdBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    j0: usize,
    k: usize,
    n: usize,
) {
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only ever selected after runtime
        // detection of AVX2+FMA, and the caller passes the same shape
        // contract the scalar kernel relies on.
        SimdBackend::Avx2Fma => unsafe { simd::avx2::nn_cols(a, b, out, j0, k, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; shape contract as above.
        SimdBackend::Neon => unsafe { simd::neon::nn_cols(a, b, out, j0, k, n) },
        _ => nn_cols(a, b, out, j0, k, n),
    }
}

/// One row of `A × Bᵀ`: `o_row[j] = A[row] · B[j]`, with four
/// independent accumulator lanes across adjacent columns.
///
/// Each lane owns one output element and reduces over `k` in ascending
/// order, so the lanes change instruction-level parallelism but not the
/// per-element reduction order. The slices are re-bounded to exactly
/// `k` elements up front so the indexed inner loop compiles without
/// bounds checks — this is the `nt m=1` fix: the previous version
/// re-checked four slice bounds per `k` step, which made it slower
/// than the naive reference at decode shapes.
fn nt_one_row(a_row: &[f32], b: &[f32], o_row: &mut [f32], k: usize, n: usize) {
    let a_row = &a_row[..k];
    let mut j = 0;
    while j + 4 <= n {
        let b0 = &b[j * k..][..k];
        let b1 = &b[(j + 1) * k..][..k];
        let b2 = &b[(j + 2) * k..][..k];
        let b3 = &b[(j + 3) * k..][..k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for t in 0..k {
            let av = a_row[t];
            s0 += av * b0[t];
            s1 += av * b1[t];
            s2 += av * b2[t];
            s3 += av * b3[t];
        }
        o_row[j] = s0;
        o_row[j + 1] = s1;
        o_row[j + 2] = s2;
        o_row[j + 3] = s3;
        j += 4;
    }
    while j < n {
        let b_row = &b[j * k..(j + 1) * k];
        let mut acc = 0.0f32;
        for (x, y) in a_row.iter().zip(b_row) {
            acc += x * y;
        }
        o_row[j] = acc;
        j += 1;
    }
}

/// `out[i0+r, :] = A[i0+r, :] × Bᵀ` for each row of `out`.
///
/// Row blocks below [`NT_BLOCK_MIN_M`] go straight to the per-row lane
/// kernel; four-row blocks use a 4×4 tile of scalar accumulators
/// against the four-column lanes so each loaded `A`/`B` element feeds
/// four multiplies. Every output element is a single scalar accumulator
/// reduced over `k` in ascending order in all paths, so the tiling
/// changes instruction-level parallelism but not the per-element
/// reduction order.
fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    let mut r = 0;
    if rows >= NT_BLOCK_MIN_M {
        while r + 4 <= rows {
            let a0 = &a[(i0 + r) * k..(i0 + r + 1) * k];
            let a1 = &a[(i0 + r + 1) * k..(i0 + r + 2) * k];
            let a2 = &a[(i0 + r + 2) * k..(i0 + r + 3) * k];
            let a3 = &a[(i0 + r + 3) * k..(i0 + r + 4) * k];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let mut s = [[0.0f32; 4]; 4];
                for t in 0..k {
                    let (bv0, bv1, bv2, bv3) = (b0[t], b1[t], b2[t], b3[t]);
                    let (av0, av1, av2, av3) = (a0[t], a1[t], a2[t], a3[t]);
                    s[0][0] += av0 * bv0;
                    s[0][1] += av0 * bv1;
                    s[0][2] += av0 * bv2;
                    s[0][3] += av0 * bv3;
                    s[1][0] += av1 * bv0;
                    s[1][1] += av1 * bv1;
                    s[1][2] += av1 * bv2;
                    s[1][3] += av1 * bv3;
                    s[2][0] += av2 * bv0;
                    s[2][1] += av2 * bv1;
                    s[2][2] += av2 * bv2;
                    s[2][3] += av2 * bv3;
                    s[3][0] += av3 * bv0;
                    s[3][1] += av3 * bv1;
                    s[3][2] += av3 * bv2;
                    s[3][3] += av3 * bv3;
                }
                for (dr, row_acc) in s.iter().enumerate() {
                    out[(r + dr) * n + j..(r + dr) * n + j + 4].copy_from_slice(row_acc);
                }
                j += 4;
            }
            if j < n {
                for (dr, a_row) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let o_row = &mut out[(r + dr) * n..(r + dr + 1) * n];
                    nt_one_row(a_row, &b[j * k..], &mut o_row[j..], k, n - j);
                }
            }
            r += 4;
        }
    }
    while r < rows {
        let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
        let o_row = &mut out[r * n..(r + 1) * n];
        nt_one_row(a_row, b, o_row, k, n);
        r += 1;
    }
}

/// [`nt_rows`] on an explicit backend: scalar keeps the single
/// ascending-`k` chain per element; AVX2/NEON reduce each dot product
/// as fixed per-lane ascending-`k` chains folded by a deterministic
/// lane-reduction tree (see `crate::simd`).
fn nt_rows_with(
    be: SimdBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only ever selected after runtime
        // detection of AVX2+FMA, and the caller passes the same shape
        // contract the scalar kernel relies on.
        SimdBackend::Avx2Fma => unsafe { simd::avx2::nt_rows(a, b, out, i0, k, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; shape contract as above.
        SimdBackend::Neon => unsafe { simd::neon::nt_rows(a, b, out, i0, k, n) },
        _ => nt_rows(a, b, out, i0, k, n),
    }
}

/// `out[r, :] += A[kk, i0+r] · B[kk, :]` over all `kk`, i.e. the rows
/// `i0..` of `Aᵀ × B`. Per element the `k` reduction is ascending.
/// `out` must be zero-filled.
fn tn_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, m: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    for kk in 0..k {
        let a_col = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for r in 0..rows {
            let av = a_col[i0 + r];
            let o_row = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Fewest columns of a single output row worth a task of their own: a
/// cache line of `B`'s row, so neighbouring tasks share few lines.
const COL_RUN: usize = 16;

/// Tasks for a blocked `m·k·n` multiply over `units` output rows (or
/// column runs of a single row), by the bytes of `B` it streams — every
/// row's sweep re-reads it.
fn tasks(units: usize, m: usize, k: usize, n: usize) -> usize {
    pool::tasks_for(units, 4 * m * k * n)
}

/// `out = A × B` on an explicit backend; `out` must be zero-filled,
/// length `m·n`. Public so the bitwise test batteries can pin each
/// backend regardless of which one the process latched.
pub fn matmul_nn_with(
    be: SimdBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 1 {
        pool::run_chunks(out, 1, tasks(n.div_ceil(COL_RUN), m, k, n), |j0, chunk| {
            nn_cols_with(be, a, b, chunk, j0, k, n)
        });
    } else {
        pool::run_chunks(out, n, tasks(m, m, k, n), |i0, chunk| {
            nn_rows_with(be, a, b, chunk, i0, k, n)
        });
    }
}

/// `out = A × B` on the process-selected backend.
pub(crate) fn matmul_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_nn_with(simd::backend(), a, b, out, m, k, n);
}

/// `out = A × Bᵀ` (`b` stored `[n, k]`) on an explicit backend; `out`
/// has length `m·n` and is fully overwritten. Public for the bitwise
/// test batteries.
pub fn matmul_nt_with(
    be: SimdBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 1 {
        // Columns of the single output row are rows of `b`, so each
        // chunk sees a contiguous slice of `b`.
        pool::run_chunks(out, 1, tasks(n.div_ceil(COL_RUN), m, k, n), |j0, chunk| {
            let b_chunk = &b[j0 * k..(j0 + chunk.len()) * k];
            nt_rows_with(be, a, b_chunk, chunk, 0, k, chunk.len());
        });
    } else {
        pool::run_chunks(out, n, tasks(m, m, k, n), |i0, chunk| {
            nt_rows_with(be, a, b, chunk, i0, k, n)
        });
    }
}

/// `out = A × Bᵀ` on the process-selected backend.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_nt_with(simd::backend(), a, b, out, m, k, n);
}

/// `out = Aᵀ × B` (`a` stored `[k, m]`); `out` must be zero-filled,
/// length `m·n`. The `tn` variant only runs on the training path, so it
/// stays on the scalar reference kernels on every backend — gradients
/// are bitwise reproducible across machines.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if m == 1 {
        // With one output row, Aᵀ is a single row of length k stored as
        // a column, which is exactly the nn single-row sweep.
        pool::run_chunks(out, 1, tasks(n.div_ceil(COL_RUN), m, k, n), |j0, chunk| {
            nn_cols(a, b, chunk, j0, k, n)
        });
    } else {
        pool::run_chunks(out, n, tasks(m, m, k, n), |i0, chunk| {
            tn_rows(a, b, chunk, i0, m, k, n)
        });
    }
}

/// Serial slice-level `out = A × B` (`a` is `[m, k]`, `b` is `[k, n]`,
/// `out` is `[m, n]` and must be zero-filled).
///
/// Entry point for higher layers that compose blocked kernels inside
/// their own (already partitioned) work items — e.g. the model's
/// per-head attention blocks. Never opens a pool region; runs on the
/// process-selected backend, with the same per-element reduction order
/// as [`matmul_nn`], so composing it under a caller's partition is
/// bitwise-inert.
pub fn matmul_nn_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "A must be m×k");
    debug_assert_eq!(b.len(), k * n, "B must be k×n");
    debug_assert_eq!(out.len(), m * n, "out must be m×n");
    nn_rows_with(simd::backend(), a, b, out, 0, k, n);
}

/// Serial slice-level `out = A × Bᵀ` (`a` is `[m, k]`, `b` is `[n, k]`
/// row-major — i.e. `n` contiguous length-`k` rows — and `out` is
/// `[m, n]`, fully overwritten).
///
/// Entry point for higher layers that compose blocked kernels inside
/// their own (already partitioned) work items — e.g. scoring a query
/// block against a contiguous per-head KV slab. Never opens a region;
/// runs on the process-selected backend with the same per-element
/// reduction order as [`matmul_nt`].
pub fn matmul_nt_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "A must be m×k");
    debug_assert_eq!(b.len(), k * n, "B must be n×k row-major");
    debug_assert_eq!(out.len(), m * n, "out must be m×n");
    nt_rows_with(simd::backend(), a, b, out, 0, k, n);
}

/// Serializes tests that toggle the global thread cap.
#[cfg(test)]
pub(crate) static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::Tensor;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut SeededRng::new(seed))
    }

    #[test]
    fn forced_serial_and_parallel_agree_bitwise() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        // Shapes straddle the threshold and include non-multiples of the
        // nt lane width and single-row/single-column extremes.
        let shapes = [
            (1, 96, 288),
            (96, 96, 96),
            (65, 70, 3),
            (3, 300, 301),
            (128, 1, 128),
            (1, 4096, 7),
        ];
        for (idx, &(m, k, n)) in shapes.iter().enumerate() {
            let a = randn(&[m, k], idx as u64);
            let b = randn(&[k, n], 100 + idx as u64);
            let bt = b.transpose();
            let at = a.transpose();
            set_max_threads(1);
            let serial = (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b));
            set_max_threads(8);
            let parallel = (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b));
            set_max_threads(0);
            assert_eq!(serial.0.data(), parallel.0.data(), "nn {m}x{k}x{n}");
            assert_eq!(serial.1.data(), parallel.1.data(), "nt {m}x{k}x{n}");
            assert_eq!(serial.2.data(), parallel.2.data(), "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn every_backend_is_thread_count_invariant_bitwise() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let shapes = [(1, 96, 288), (96, 96, 96), (3, 300, 301), (1, 4096, 7)];
        for be in simd::available_backends() {
            for (idx, &(m, k, n)) in shapes.iter().enumerate() {
                let a = randn(&[m, k], 20 + idx as u64);
                let b = randn(&[k, n], 120 + idx as u64);
                let bt = b.transpose();
                let mut base_nn = vec![0.0f32; m * n];
                let mut base_nt = vec![0.0f32; m * n];
                set_max_threads(1);
                matmul_nn_with(be, a.data(), b.data(), &mut base_nn, m, k, n);
                matmul_nt_with(be, a.data(), bt.data(), &mut base_nt, m, k, n);
                for threads in 2..=8 {
                    set_max_threads(threads);
                    let mut nn = vec![0.0f32; m * n];
                    let mut nt = vec![0.0f32; m * n];
                    matmul_nn_with(be, a.data(), b.data(), &mut nn, m, k, n);
                    matmul_nt_with(be, a.data(), bt.data(), &mut nt, m, k, n);
                    assert_eq!(base_nn, nn, "{be:?} nn {m}x{k}x{n} @ {threads} threads");
                    assert_eq!(base_nt, nt, "{be:?} nt {m}x{k}x{n} @ {threads} threads");
                }
                set_max_threads(0);
            }
            // The packed path, on packs large enough to be pool regions:
            // many panels, the down-projection's six, a ragged last
            // panel, fewer panels than workers. `out` starts as NaN.
            for &(k, n) in &crate::pack::tests::SHARED_SHAPES {
                let b = randn(&[k, n], 220);
                let p = crate::PackedPanels::from_nn(b.data(), k, n);
                for m in [1usize, 3, 20] {
                    let a = randn(&[m, k], 221);
                    set_max_threads(1);
                    let mut base = vec![f32::NAN; m * n];
                    p.matvec_into_with(be, a.data(), &mut base);
                    for threads in 2..=8 {
                        set_max_threads(threads);
                        let mut out = vec![f32::NAN; m * n];
                        p.matvec_into_with(be, a.data(), &mut out);
                        assert!(base == out, "{be:?} packed {m}x{k}x{n} @ {threads} threads");
                    }
                    set_max_threads(0);
                }
            }
        }
    }

    #[test]
    fn scalar_backend_matches_naive_reference_bitwise() {
        let shapes = [
            (1, 5, 9),
            (7, 8, 9),
            (96, 96, 96),
            (1, 96, 96),
            (96, 96, 1),
            (2, 1, 2),
        ];
        for (idx, &(m, k, n)) in shapes.iter().enumerate() {
            let a = randn(&[m, k], 7 + idx as u64);
            let b = randn(&[k, n], 70 + idx as u64);
            let mut nn = vec![0.0f32; m * n];
            matmul_nn_with(SimdBackend::Scalar, a.data(), b.data(), &mut nn, m, k, n);
            assert_eq!(nn, a.matmul_ref(&b).data(), "nn {m}x{k}x{n}");
            let bt = b.transpose();
            let mut nt = vec![0.0f32; m * n];
            matmul_nt_with(SimdBackend::Scalar, a.data(), bt.data(), &mut nt, m, k, n);
            assert_eq!(nt, a.matmul_nt_ref(&bt).data(), "nt {m}x{k}x{n}");
            // `tn` runs the scalar reference kernels on every backend.
            let at = a.transpose();
            assert_eq!(
                at.matmul_tn(&b).data(),
                at.matmul_tn_ref(&b).data(),
                "tn {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn simd_backends_stay_close_to_reference() {
        // FMA contracts mul+add into one rounding, so SIMD backends are
        // not bitwise-equal to the scalar reference — but they compute
        // the same sums, so the drift is bounded by rounding noise.
        let shapes = [(1, 96, 288), (7, 33, 47), (96, 96, 96), (1, 4096, 7)];
        for be in simd::available_backends() {
            for (idx, &(m, k, n)) in shapes.iter().enumerate() {
                let a = randn(&[m, k], 30 + idx as u64);
                let b = randn(&[k, n], 130 + idx as u64);
                let refv = a.matmul_ref(&b);
                let mut nn = vec![0.0f32; m * n];
                matmul_nn_with(be, a.data(), b.data(), &mut nn, m, k, n);
                let tol = 1e-4 * (k as f32).sqrt();
                for (got, want) in nn.iter().zip(refv.data()) {
                    assert!(
                        (got - want).abs() <= tol.max(1e-4 * want.abs()),
                        "{be:?} nn {m}x{k}x{n}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_block_kernels_match_tensor_kernels_bitwise() {
        // Shapes cover full 4×4 tiles, row/column remainders, and the
        // degenerate single-row case used by incremental decoding. Both
        // sides run the process-selected backend; equality is exact
        // because block composition never changes per-element order.
        let shapes = [(1, 8, 5), (3, 24, 7), (4, 16, 4), (7, 24, 10), (56, 24, 19)];
        for (idx, &(m, k, n)) in shapes.iter().enumerate() {
            let a = randn(&[m, k], 40 + idx as u64);
            let b = randn(&[k, n], 140 + idx as u64);
            let bt = b.transpose();
            let mut nn = vec![0.0f32; m * n];
            matmul_nn_block(a.data(), b.data(), &mut nn, m, k, n);
            assert_eq!(nn, a.matmul(&b).data(), "nn {m}x{k}x{n}");
            let mut nt = vec![1.0f32; m * n]; // overwritten, no zero-fill needed
            matmul_nt_block(a.data(), bt.data(), &mut nt, m, k, n);
            assert_eq!(nt, a.matmul_nt(&bt).data(), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn thread_cap_round_trips() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert_eq!(max_threads(), 0);
        assert!(effective_threads() >= 1);
    }
}
