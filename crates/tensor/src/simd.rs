//! SIMD backend selection and explicit-ISA matmul microkernels.
//!
//! Inference's matmuls — one-row decode steps up to whole-prompt
//! prefills — are latency-bound on the scalar kernels, so this module
//! provides explicit `std::arch` paths for AVX2+FMA on x86-64, with the
//! scalar kernels in [`crate::kernels`] and [`crate::pack`] as the
//! cross-platform reference that every other host (aarch64 included)
//! runs. The backend is selected **exactly once** at startup — same
//! discipline as [`crate::kernels::set_max_threads`] — from the
//! `SPECINFER_SIMD` environment variable (`scalar` forces the
//! reference, anything else — `native` or unset — takes runtime CPU
//! feature detection). No per-call feature probing.
//!
//! AVX-512F is not a backend. It is detected once too, and on the AVX2
//! backend it swaps the packed GEMM's register tile for its own
//! (`avx512`: one 512-bit register per row of a block instead of
//! `avx2`'s groups of four rows × two 256-bit registers; both walk the
//! one loop nest's k-slices and blocks of sixteen rows, see
//! [`crate::pack`], "Loop nest"). That tile computes every element
//! exactly as the AVX2 one, and gates the up-stage with the AVX2
//! epilogue (`avx2::silu_mul`) on each 256-bit half of a row, so no
//! backend, `SPECINFER_SIMD` value or result depends on it.
//!
//! # Determinism contract
//!
//! Bitwise equality **between** backends is not promised: FMA contracts
//! the multiply–add into a single rounding, so AVX2 results differ from
//! the scalar reference in the last bits. What every backend *does*
//! promise is bitwise determinism across runs and thread counts:
//!
//! * Column-vectorised kernels (`nn`, packed panels) keep one ascending-`k`
//!   chain per output element — lanes are independent output columns, so
//!   vector width (256 or 512 bits) never reorders a reduction.
//! * Dot-product kernels (`nt`) split each reduction into a *fixed* number
//!   of per-lane ascending-`k` chains (lane `l` accumulates elements
//!   `l, l+W, l+2W, …`), combine them with a deterministic pairwise
//!   lane-reduction tree, then fold the `k % W` tail in ascending order.
//!   The lane count and tree shape depend only on the ISA, never on the
//!   thread count or partition, so results are reproducible.
//! * Scalar tails inside the SIMD kernels use `f32::mul_add` (fused, one
//!   rounding) so an element computed in a tail is bitwise identical to
//!   the same element computed in a vector lane.
//! * The SwiGLU epilogue of inference is element-wise. On AVX2 it
//!   evaluates SiLU through an in-crate polynomial `exp` whose scalar
//!   twin (`avx2::silu`) performs a lane's IEEE operations one for one,
//!   so an element's bits depend neither on its lane nor on whether it
//!   fell in a vector or a tail. Inference has no other SwiGLU, so this
//!   moves the AVX2 *model function* — by at most 2 ulp of SiLU against
//!   the libm formula the scalar epilogue and training keep —
//!   and nothing else: speculation ≡ incremental, batched ≡ serial and
//!   thread-count invariance compare the function with itself.

use std::sync::OnceLock;

/// The instruction-set backend the matmul kernels dispatch to.
///
/// Selected once per process by [`backend`]; see the module docs for the
/// determinism contract each variant upholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar kernels — the cross-platform bitwise reference.
    Scalar,
    /// AVX2 + FMA kernels (x86-64).
    Avx2Fma,
}

impl SimdBackend {
    /// Stable lowercase name, used in benchmark reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2Fma => "avx2_fma",
        }
    }
}

/// The backend chosen at startup, latched on first use.
static BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// The process-wide SIMD backend.
///
/// First call reads `SPECINFER_SIMD` (`scalar` forces the reference
/// kernels; anything else — including `native` or unset — picks the
/// best detected ISA) and latches the answer for the lifetime of the
/// process.
pub fn backend() -> SimdBackend {
    *BACKEND.get_or_init(select_backend)
}

fn select_backend() -> SimdBackend {
    let forced_scalar = std::env::var("SPECINFER_SIMD").as_deref() == Ok("scalar");
    if avx2_available() && !forced_scalar {
        SimdBackend::Avx2Fma
    } else {
        SimdBackend::Scalar
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Whether the CPU reports AVX-512F (std probes the CPU once and caches
/// the answer). It selects no backend: on [`SimdBackend::Avx2Fma`] it
/// runs the packed GEMM on the AVX-512F register tile ([`crate::pack`],
/// "Loop nest").
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx512_available() -> bool {
    false
}

/// Every backend runnable on this machine, scalar first. The forward
/// oracle iterates this to exercise each backend explicitly regardless of which
/// one [`backend`] latched.
pub fn available_backends() -> Vec<SimdBackend> {
    let mut v = vec![SimdBackend::Scalar];
    if avx2_available() {
        v.push(SimdBackend::Avx2Fma);
    }
    v
}

/// CPU features relevant to kernel selection that the host reports,
/// recorded into benchmark reports so numbers are attributable.
pub fn detected_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    let probed = [
        ("avx", std::arch::is_x86_feature_detected!("avx")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let probed: [(&'static str, bool); 0] = [];
    probed
        .into_iter()
        .filter_map(|(name, on)| on.then_some(name))
        .collect()
}

/// AVX2+FMA kernels. Lane width 8; per-element reduction order is fixed
/// by the schemes in the module docs, independent of threading.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_blendv_ps, _mm256_castsi256_ps,
        _mm256_cmp_ps, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_fmadd_ps, _mm256_fnmadd_ps,
        _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_round_ps, _mm256_set1_epi32,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_slli_epi32, _mm256_storeu_ps, _mm256_sub_ps,
        _mm256_xor_ps, _mm_prefetch, _CMP_LT_OQ, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
        _MM_HINT_T0,
    };

    use crate::pack::{store_transposed, Next, PanelTile, PANEL_WIDTH};

    /// Folds the eight lane partials with a fixed pairwise tree:
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The tree shape is a
    /// constant of the backend, which is what makes `nt` reductions
    /// reproducible across runs and partitions.
    // SAFETY: backend selection guarantees AVX2+FMA; the store
    // targets a local 8-float array.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_tree(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    }

    /// AVX2 `nn_rows`: `out[r, :] = A[i0+r, :] × B` for each row of the
    /// chunk. Four-row × 16-column register tile; every output element
    /// is one fused ascending-`k` chain (vector lanes are independent
    /// columns), tails use `f32::mul_add` for the same single rounding.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nn_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let a0 = a.as_ptr().add((i0 + r) * k);
            let a1 = a.as_ptr().add((i0 + r + 1) * k);
            let a2 = a.as_ptr().add((i0 + r + 2) * k);
            let a3 = a.as_ptr().add((i0 + r + 3) * k);
            let mut j = 0;
            while j + 16 <= n {
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c20 = _mm256_setzero_ps();
                let mut c21 = _mm256_setzero_ps();
                let mut c30 = _mm256_setzero_ps();
                let mut c31 = _mm256_setzero_ps();
                for kk in 0..k {
                    let bq = bp.add(kk * n + j);
                    let b0 = _mm256_loadu_ps(bq);
                    let b1 = _mm256_loadu_ps(bq.add(8));
                    let v0 = _mm256_set1_ps(*a0.add(kk));
                    c00 = _mm256_fmadd_ps(v0, b0, c00);
                    c01 = _mm256_fmadd_ps(v0, b1, c01);
                    let v1 = _mm256_set1_ps(*a1.add(kk));
                    c10 = _mm256_fmadd_ps(v1, b0, c10);
                    c11 = _mm256_fmadd_ps(v1, b1, c11);
                    let v2 = _mm256_set1_ps(*a2.add(kk));
                    c20 = _mm256_fmadd_ps(v2, b0, c20);
                    c21 = _mm256_fmadd_ps(v2, b1, c21);
                    let v3 = _mm256_set1_ps(*a3.add(kk));
                    c30 = _mm256_fmadd_ps(v3, b0, c30);
                    c31 = _mm256_fmadd_ps(v3, b1, c31);
                }
                _mm256_storeu_ps(op.add(r * n + j), c00);
                _mm256_storeu_ps(op.add(r * n + j + 8), c01);
                _mm256_storeu_ps(op.add((r + 1) * n + j), c10);
                _mm256_storeu_ps(op.add((r + 1) * n + j + 8), c11);
                _mm256_storeu_ps(op.add((r + 2) * n + j), c20);
                _mm256_storeu_ps(op.add((r + 2) * n + j + 8), c21);
                _mm256_storeu_ps(op.add((r + 3) * n + j), c30);
                _mm256_storeu_ps(op.add((r + 3) * n + j + 8), c31);
                j += 16;
            }
            while j + 8 <= n {
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                for kk in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(kk * n + j));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.add(kk)), b0, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.add(kk)), b0, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.add(kk)), b0, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.add(kk)), b0, c3);
                }
                _mm256_storeu_ps(op.add(r * n + j), c0);
                _mm256_storeu_ps(op.add((r + 1) * n + j), c1);
                _mm256_storeu_ps(op.add((r + 2) * n + j), c2);
                _mm256_storeu_ps(op.add((r + 3) * n + j), c3);
                j += 8;
            }
            while j < n {
                for (dr, ap) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j), acc);
                    }
                    *op.add((r + dr) * n + j) = acc;
                }
                j += 1;
            }
            r += 4;
        }
        while r < rows {
            let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
            nn_cols(a_row, b, &mut out[r * n..(r + 1) * n], 0, k, n);
            r += 1;
        }
    }

    /// AVX2 single-output-row column sweep: `out = a × B[:, j0..j0+w]`.
    /// 32-column blocks (four accumulator registers) so the broadcast of
    /// `a[kk]` amortises over four FMAs; each column keeps its own fused
    /// ascending-`k` chain, so chunk boundaries are bitwise-inert.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nn_cols(a: &[f32], b: &[f32], out: &mut [f32], j0: usize, k: usize, n: usize) {
        let w = out.len();
        debug_assert!(a.len() >= k, "a must hold a full row");
        debug_assert!(j0 + w <= n, "column range inside B");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= w {
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            let mut c2 = _mm256_setzero_ps();
            let mut c3 = _mm256_setzero_ps();
            for kk in 0..k {
                let v = _mm256_set1_ps(*ap.add(kk));
                let bq = bp.add(kk * n + j0 + j);
                c0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq), c0);
                c1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(8)), c1);
                c2 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(16)), c2);
                c3 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(24)), c3);
            }
            _mm256_storeu_ps(op.add(j), c0);
            _mm256_storeu_ps(op.add(j + 8), c1);
            _mm256_storeu_ps(op.add(j + 16), c2);
            _mm256_storeu_ps(op.add(j + 24), c3);
            j += 32;
        }
        while j + 8 <= w {
            let mut c0 = _mm256_setzero_ps();
            for kk in 0..k {
                let v = _mm256_set1_ps(*ap.add(kk));
                c0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bp.add(kk * n + j0 + j)), c0);
            }
            _mm256_storeu_ps(op.add(j), c0);
            j += 8;
        }
        while j < w {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j0 + j), acc);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// AVX2 `nt_rows`: `out[r, :] = A[i0+r, :] × Bᵀ` (`b` stored
    /// `[n, k]`). Four output columns at a time, each reduced as eight
    /// fixed ascending-`k` lanes (lane `l` holds elements `l, l+8, …`)
    /// folded by [`lane_tree`], then a fused ascending tail — the
    /// reduction order depends only on `k`, never on the partition.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), n * k, "B must be n×k row-major");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let k8 = k - k % 8;
        for r in 0..rows {
            let ap = a.as_ptr().add((i0 + r) * k);
            let op = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j + 4 <= n {
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                let mut t = 0;
                while t + 8 <= k {
                    let av = _mm256_loadu_ps(ap.add(t));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0.add(t)), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1.add(t)), c1);
                    c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2.add(t)), c2);
                    c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3.add(t)), c3);
                    t += 8;
                }
                let mut s0 = lane_tree(c0);
                let mut s1 = lane_tree(c1);
                let mut s2 = lane_tree(c2);
                let mut s3 = lane_tree(c3);
                let mut tt = k8;
                while tt < k {
                    let av = *ap.add(tt);
                    s0 = av.mul_add(*b0.add(tt), s0);
                    s1 = av.mul_add(*b1.add(tt), s1);
                    s2 = av.mul_add(*b2.add(tt), s2);
                    s3 = av.mul_add(*b3.add(tt), s3);
                    tt += 1;
                }
                *op.add(j) = s0;
                *op.add(j + 1) = s1;
                *op.add(j + 2) = s2;
                *op.add(j + 3) = s3;
                j += 4;
            }
            while j < n {
                let bq = b.as_ptr().add(j * k);
                let mut c0 = _mm256_setzero_ps();
                let mut t = 0;
                while t + 8 <= k {
                    c0 =
                        _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(t)), _mm256_loadu_ps(bq.add(t)), c0);
                    t += 8;
                }
                let mut s = lane_tree(c0);
                let mut tt = k8;
                while tt < k {
                    s = (*ap.add(tt)).mul_add(*bq.add(tt), s);
                    tt += 1;
                }
                *op.add(j) = s;
                j += 1;
            }
        }
    }

    /// Below `-SILU_FLUSH`, `e^-x` leaves `f32`'s range and SiLU is
    /// its limit `-0.0`; down to it the exponent `n ≤ 127` stays finite.
    const SILU_FLUSH: f32 = 88.0;
    /// Lower clamp of `-x`: `e^-87 < 2^-125` vanishes against 1, and
    /// `n ≥ -126` keeps `2^n` a normal number.
    const EXP_MIN: f32 = -87.0;
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    /// `ln 2` in two constants: `n · LN2_HI` (nine bits) is exact.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ln 2 / 2` (Cephes `expf`).
    const EXP_POLY: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.0e-1,
    ];

    /// The scalar twin of one lane of [`silu_mul`]'s SiLU, operation for
    /// operation and so bitwise: `x / (1 + e^-x)` with
    /// `e^-x = 2^n · e^r`, `n = round(-x·log₂e)`, `r = -x - n·ln 2`, a
    /// degree-5 polynomial for `e^r` and `2^n` built from its exponent
    /// bits. `1 + e^r` is kept as a rounded value plus its rounding
    /// error, so the denominator is rounded once and the result is
    /// within 2 ulp of SiLU (libm's `x / (1 + expf(-x))` reaches 2.4).
    ///
    /// NaN stays NaN; `silu(±0) = ±0` and a denormal is halved, as
    /// through libm; `silu(x) = x` from `x ≈ 17` up, `+∞` included;
    /// `silu(x) = -0.0` for every `x < -88`, **`-∞` included** (through
    /// libm that one is `-∞/∞` = NaN, the others flush from `-88.73`).
    /// The tests hold [`silu_mul`] to it lane by lane.
    #[cfg(test)]
    pub(crate) fn silu(x: f32) -> f32 {
        let x = if x < -SILU_FLUSH { -0.0 } else { x };
        // `maxps` keeps its second operand unless the first is greater:
        // a NaN survives.
        let t = if EXP_MIN > -x { EXP_MIN } else { -x };
        let n = (t * LOG2_E).round_ties_even();
        let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, t));
        let mut p = EXP_POLY[0];
        for &c in &EXP_POLY[1..] {
            p = p.mul_add(r, c);
        }
        let q = p.mul_add(r * r, r);
        let e_r = q + 1.0;
        let lost = q - (e_r - 1.0);
        // `n` is integral in -126..=127, or NaN and then cast to 0.
        let two_n = f32::from_bits(((n as i32 + 127) << 23) as u32);
        x / e_r.mul_add(two_n, lost.mul_add(two_n, 1.0))
    }

    /// `silu(x) · l` in eight lanes, each lane `silu`'s operations one
    /// for one: the SwiGLU epilogue of both x86 tiles.
    // SAFETY: the caller guarantees AVX2+FMA; no memory is accessed.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn silu_mul(x: __m256, l: __m256) -> __m256 {
        let (one, neg_zero) = (_mm256_set1_ps(1.0), _mm256_set1_ps(-0.0));
        let flush = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(-SILU_FLUSH));
        let x = _mm256_blendv_ps(x, neg_zero, flush);
        let t = _mm256_max_ps(_mm256_set1_ps(EXP_MIN), _mm256_xor_ps(x, neg_zero));
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(t, _mm256_set1_ps(LOG2_E)),
        );
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), t);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(c));
        }
        let q = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
        let e_r = _mm256_add_ps(q, one);
        let lost = _mm256_sub_ps(q, _mm256_sub_ps(e_r, one));
        let biased = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased));
        let den = _mm256_fmadd_ps(e_r, two_n, _mm256_fmadd_ps(lost, two_n, one));
        _mm256_mul_ps(_mm256_div_ps(x, den), l)
    }

    /// The AVX2 register tile of the packed GEMM (see [`crate::pack`],
    /// "Loop nest"): a block's rows in groups of up to [`GROUP`] × one
    /// 16-column panel as `2·G` accumulator registers — at four rows,
    /// eight accumulators fed by two panel loads and four broadcasts per
    /// step — each group prefetching its share of what follows the slice
    /// ([`Next::share`]). Each output column is one fused ascending-`k`
    /// chain, bitwise identical to the unpacked [`nn_rows`]/[`nn_cols`]
    /// result for the same element.
    pub(crate) struct PackedTile;

    /// Rows of a group of [`PackedTile`].
    const GROUP: usize = 4;

    impl PanelTile for PackedTile {
        // SAFETY: the caller guarantees AVX2+FMA; `group` asserts what
        // its raw accesses rely on.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn tile<const R: usize>(
            b: &[f32],
            a: &[f32],
            mut o: [&mut [f32]; R],
            carry: bool,
            next: Next<'_>,
        ) {
            for (g, o) in o.chunks_mut(GROUP).enumerate() {
                let row = g * GROUP;
                let share = next.share(row..row + o.len());
                match o.len() {
                    4 => group::<4>(b, a, R, row, o, carry, share),
                    3 => group::<3>(b, a, R, row, o, carry, share),
                    2 => group::<2>(b, a, R, row, o, carry, share),
                    _ => group::<1>(b, a, R, row, o, carry, share),
                }
            }
        }

        // SAFETY: the caller guarantees AVX2+FMA; `gate_up_group`
        // asserts what its raw accesses rely on.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn swiglu_tile<const R: usize>(
            b: [&[f32]; 2],
            a: &[f32],
            gate: &mut [f32],
            next: [Next<'_>; 2],
        ) {
            let mut gated = [[0.0f32; PANEL_WIDTH]; R];
            // Of each pack, the next panel's worth of rows.
            let next = next.map(|mut next| {
                next.data = &next.data[..next.data.len().min(b[0].len())];
                next
            });
            for (g, rows) in gated.chunks_mut(2).enumerate() {
                let share = next.map(|next| next.share(2 * g..2 * g + rows.len()));
                match rows.len() {
                    2 => gate_up_group::<2>(b, a, R, 2 * g, rows, share),
                    _ => gate_up_group::<1>(b, a, R, 2 * g, rows, share),
                }
            }
            store_transposed(&gated, gate);
        }
    }

    /// The up-stage of the `G` rows of a group, `gated[d] = silu(A[row +
    /// d] × b[0]) · (A[row + d] × b[1])`, the two panels walked together
    /// over their whole `k`, one broadcast of `A[r][t]` feeding both, the
    /// epilogue ([`silu_mul`]) in registers; `a` is the block's steps, a
    /// block of `stride` rows. Both `share`s are prefetched over the walk.
    /// Unsliced: the up packs' `k` is the model width, one k-slice in
    /// every model here.
    // SAFETY: the caller guarantees AVX2+FMA; the asserts pin every
    // length the raw accesses rely on.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gate_up_group<const G: usize>(
        b: [&[f32]; 2],
        a: &[f32],
        stride: usize,
        row: usize,
        gated: &mut [[f32; PANEL_WIDTH]],
        share: [&[f32]; 2],
    ) {
        let kc = b[0].len() / PANEL_WIDTH;
        assert!(
            b[0].len() == kc * PANEL_WIDTH && b[1].len() == b[0].len(),
            "whole panel rows, as many of each pack"
        );
        assert!(
            gated.len() == G && row + G <= stride && a.len() == kc * stride,
            "a group of G rows of the block"
        );
        let mut acc = [[[_mm256_setzero_ps(); 2]; G]; 2];
        let (ap, g_p, l_p) = (a.as_ptr().add(row), b[0].as_ptr(), b[1].as_ptr());
        walk_prefetching(kc, share, |t| {
            let g_row = [
                _mm256_loadu_ps(g_p.add(t * PANEL_WIDTH)),
                _mm256_loadu_ps(g_p.add(t * PANEL_WIDTH + 8)),
            ];
            let l_row = [
                _mm256_loadu_ps(l_p.add(t * PANEL_WIDTH)),
                _mm256_loadu_ps(l_p.add(t * PANEL_WIDTH + 8)),
            ];
            let [g, l] = &mut acc;
            for (d, (g, l)) in g.iter_mut().zip(l).enumerate() {
                let v = _mm256_set1_ps(*ap.add(t * stride + d));
                for h in 0..2 {
                    g[h] = _mm256_fmadd_ps(v, g_row[h], g[h]);
                    l[h] = _mm256_fmadd_ps(v, l_row[h], l[h]);
                }
            }
        });
        let [g, l] = &acc;
        for ((gated, g), l) in gated.iter_mut().zip(g).zip(l) {
            for h in 0..2 {
                _mm256_storeu_ps(gated[8 * h..].as_mut_ptr(), silu_mul(g[h], l[h]));
            }
        }
    }

    /// `o[d] (+)= A[row + d][t] × b[t]` for the `G` rows of a group over
    /// the slice `b`, `a` its steps of a block of `stride` rows,
    /// prefetching `share` over the walk.
    // SAFETY: the caller guarantees AVX2+FMA; the asserts pin every
    // length the raw accesses rely on.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn group<const G: usize>(
        b: &[f32],
        a: &[f32],
        stride: usize,
        row: usize,
        o: &mut [&mut [f32]],
        carry: bool,
        share: &[f32],
    ) {
        let kc = b.len() / PANEL_WIDTH;
        assert_eq!(b.len(), kc * PANEL_WIDTH, "whole panel rows");
        assert!(
            o.len() == G && row + G <= stride && a.len() == kc * stride,
            "a group of G rows of the block"
        );
        let mut acc = [[_mm256_setzero_ps(); 2]; G];
        if carry {
            for (acc, o) in acc.iter_mut().zip(o.iter()) {
                *acc = load_panel(o);
            }
        }
        let (ap, bp) = (a.as_ptr().add(row), b.as_ptr());
        walk_prefetching(kc, [share], |t| {
            let b0 = _mm256_loadu_ps(bp.add(t * PANEL_WIDTH));
            let b1 = _mm256_loadu_ps(bp.add(t * PANEL_WIDTH + 8));
            for (d, acc) in acc.iter_mut().enumerate() {
                let v = _mm256_set1_ps(*ap.add(t * stride + d));
                acc[0] = _mm256_fmadd_ps(v, b0, acc[0]);
                acc[1] = _mm256_fmadd_ps(v, b1, acc[1]);
            }
        });
        for (acc, o) in acc.iter().zip(o) {
            store_panel(acc, o);
        }
    }

    /// Runs `step(t)` for each of the `kc` steps of a walk, prefetching
    /// the rows of every `share` (one cache line each, as many in each)
    /// at even intervals over it: a burst would fill the line fill
    /// buffers and stall the multiply behind it.
    #[inline(always)]
    fn walk_prefetching<const P: usize>(
        kc: usize,
        share: [&[f32]; P],
        mut step: impl FnMut(usize),
    ) {
        let pf = share
            .map(|s| s.len() / PANEL_WIDTH)
            .into_iter()
            .min()
            .unwrap_or(0);
        let mut t = 0;
        if let Some(period) = kc.checked_div(pf) {
            for j in 0..pf {
                for s in share {
                    // SAFETY: SSE is baseline on x86-64; the address is `s`'s.
                    unsafe { _mm_prefetch::<_MM_HINT_T0>(s[j * PANEL_WIDTH..].as_ptr().cast()) };
                }
                for _ in 0..period {
                    step(t);
                    t += 1;
                }
            }
        }
        while t < kc {
            step(t);
            t += 1;
        }
    }

    /// Loads the accumulators a previous k-slice left in `o` (a panel's
    /// real columns of one output row), zero in the padding lanes.
    // SAFETY: the caller guarantees AVX2+FMA and `o.len() <= 16`; a full
    // panel loads in bounds, a partial one goes through a local copy.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_panel(o: &[f32]) -> [__m256; 2] {
        let mut spill = [0.0f32; PANEL_WIDTH];
        let p = if o.len() == PANEL_WIDTH {
            o.as_ptr()
        } else {
            spill[..o.len()].copy_from_slice(o);
            spill.as_ptr()
        };
        [_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))]
    }

    /// Stores a 16-wide panel of accumulators into `o`, truncating the
    /// zero-padded columns of the final partial panel.
    // SAFETY: the caller guarantees AVX2+FMA and `o.len() <= 16`; a full
    // panel stores in bounds, a partial one spills to a local first.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_panel(acc: &[__m256; 2], o: &mut [f32]) {
        let mut spill = [0.0f32; PANEL_WIDTH];
        let p = if o.len() == PANEL_WIDTH {
            o.as_mut_ptr()
        } else {
            spill.as_mut_ptr()
        };
        _mm256_storeu_ps(p, acc[0]);
        _mm256_storeu_ps(p.add(8), acc[1]);
        if o.len() < PANEL_WIDTH {
            o.copy_from_slice(&spill[..o.len()]);
        }
    }
}

/// The AVX-512F register tile of the packed GEMM (see [`crate::pack`],
/// "Loop nest"): up to sixteen rows × one 16-column panel as one 512-bit
/// accumulator per row, one panel-row load feeding a FMA per row and
/// reduction step, and for the FFN's up-stage two panels' rows feeding
/// two accumulators per row, gated in registers. It walks the nest's
/// k-slices as the AVX2 tile does, reloading the accumulators a slice
/// left with a carry. A lane is an output column and each column one
/// fused ascending-`k` chain, exactly as in the AVX2 tile's two 256-bit
/// halves, and the epilogue is the AVX2 tile's on each half, so the two
/// tiles agree bitwise element for element.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use core::arch::x86_64::{
        __m512, _mm256_castpd_ps, _mm256_castps_pd, _mm512_castpd_ps, _mm512_castps256_ps512,
        _mm512_castps512_ps256, _mm512_castps_pd, _mm512_extractf64x4_pd, _mm512_fmadd_ps,
        _mm512_insertf64x4, _mm512_loadu_epi32, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_permutex2var_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm_prefetch, _MM_HINT_T0,
    };

    use crate::pack::{Next, PanelTile, PANEL_WIDTH, PREFETCH_ROWS};

    /// The AVX-512F implementation of [`PanelTile`].
    pub(crate) struct PackedTile;

    impl PanelTile for PackedTile {
        #[target_feature(enable = "avx512f")]
        // SAFETY: AVX-512F as the caller vouches; reads stay inside the
        // asserted lengths, masked loads and stores inside `o[r]`.
        unsafe fn tile<const R: usize>(
            b: &[f32],
            a: &[f32],
            o: [&mut [f32]; R],
            carry: bool,
            next: Next<'_>,
        ) {
            let kc = b.len() / PANEL_WIDTH;
            assert_eq!(b.len(), kc * PANEL_WIDTH, "whole panel rows");
            assert_eq!(a.len(), kc * R, "one A element per row and panel row");
            let mut acc = [_mm512_setzero_ps(); R];
            for (acc, o) in acc.iter_mut().zip(&o) {
                assert!(o.len() <= PANEL_WIDTH, "one panel of columns");
                if carry {
                    *acc = _mm512_maskz_loadu_ps(lanes(o.len()), o.as_ptr());
                }
            }
            let (ap, bp) = (a.as_ptr(), b.as_ptr());
            for t in 0..kc {
                prefetch(b, next.data, t);
                let b_row = _mm512_loadu_ps(bp.add(t * PANEL_WIDTH));
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(t * R + r)), b_row, *acc);
                }
            }
            for (acc, o) in acc.iter().zip(o) {
                _mm512_mask_storeu_ps(o.as_mut_ptr(), lanes(o.len()), *acc);
            }
        }

        #[target_feature(enable = "avx512f")]
        // SAFETY: AVX-512F as the caller vouches; reads stay inside the
        // asserted lengths, the stores are `store_columns`'.
        unsafe fn swiglu_tile<const R: usize>(
            b: [&[f32]; 2],
            a: &[f32],
            gate: &mut [f32],
            next: [Next<'_>; 2],
        ) {
            let kc = b[0].len() / PANEL_WIDTH;
            assert!(
                b[0].len() == kc * PANEL_WIDTH && b[1].len() == b[0].len(),
                "whole panel rows, as many of each pack"
            );
            assert_eq!(a.len(), kc * R, "one A element per row and panel row");
            let mut gl = [[_mm512_setzero_ps(); 2]; R];
            let (ap, b1, b3) = (a.as_ptr(), b[0].as_ptr(), b[1].as_ptr());
            for t in 0..kc {
                prefetch(b[0], next[0].data, t);
                prefetch(b[1], next[1].data, t);
                let g_row = _mm512_loadu_ps(b1.add(t * PANEL_WIDTH));
                let l_row = _mm512_loadu_ps(b3.add(t * PANEL_WIDTH));
                for (r, [g, l]) in gl.iter_mut().enumerate() {
                    let v = _mm512_set1_ps(*ap.add(t * R + r));
                    *g = _mm512_fmadd_ps(v, g_row, *g);
                    *l = _mm512_fmadd_ps(v, l_row, *l);
                }
            }
            let mut gated = [_mm512_setzero_ps(); R];
            for (gated, [g, l]) in gated.iter_mut().zip(&gl) {
                *gated = silu_mul(*g, *l);
            }
            store_columns(&gated, gate);
        }
    }

    /// `silu(g) · l` in sixteen lanes: [`super::avx2::silu_mul`] on each
    /// 256-bit half, each lane's operations one for one as in the AVX2 tile.
    #[inline]
    #[target_feature(enable = "avx512f")]
    // SAFETY: the caller's AVX-512F implies `silu_mul`'s AVX2+FMA.
    unsafe fn silu_mul(g: __m512, l: __m512) -> __m512 {
        let hi = |v: __m512| _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
        let lo = super::avx2::silu_mul(_mm512_castps512_ps256(g), _mm512_castps512_ps256(l));
        let hi = super::avx2::silu_mul(hi(g), hi(l));
        let lo = _mm512_castps_pd(_mm512_castps256_ps512(lo));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
    }

    /// Prefetches row `t + PREFETCH_ROWS` of a panel `b` followed in
    /// the pack by `ahead`, if that row lies in either.
    #[inline(always)]
    fn prefetch(b: &[f32], ahead: &[f32], t: usize) {
        let at = (t + PREFETCH_ROWS) * PANEL_WIDTH;
        let row = if at < b.len() {
            &b[at..]
        } else if at - b.len() < ahead.len() {
            &ahead[at - b.len()..]
        } else {
            return;
        };
        // SAFETY: SSE is baseline on x86-64; the address is `row`'s.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast()) };
    }

    /// Stores `acc`, one row of a block per register, into `o`, the
    /// block's run of a panel's real columns in the wide layout.
    // SAFETY: the caller guarantees AVX-512F; the masked stores stay
    // inside `o`, whose length the assert pins.
    #[target_feature(enable = "avx512f")]
    unsafe fn store_columns<const R: usize>(acc: &[__m512; R], o: &mut [f32]) {
        let cols = o.len() / R;
        assert!(
            cols * R == o.len() && cols <= PANEL_WIDTH,
            "whole columns of one panel"
        );
        if R == 1 {
            // One row lies the same in both layouts: no transpose.
            _mm512_mask_storeu_ps(o.as_mut_ptr(), lanes(cols), acc[0]);
            return;
        }
        for (c, col) in transpose(acc).iter().take(cols).enumerate() {
            _mm512_mask_storeu_ps(o.as_mut_ptr().add(c * R), lanes(R), *col);
        }
    }

    /// The 16 × 16 transpose of `acc` padded with zero rows: lane `r` of
    /// the result's register `c` is lane `c` of `acc[r]`. Each of the
    /// four stages exchanges one bit of the register index with the same
    /// bit of the lane index, by two two-source permutes per pair of
    /// registers; they are spelled out so that the registers stay
    /// registers.
    // SAFETY: the caller guarantees AVX-512F; the index loads read whole
    // 16-entry arrays.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose<const R: usize>(acc: &[__m512; R]) -> [__m512; PANEL_WIDTH] {
        let mut x = [_mm512_setzero_ps(); PANEL_WIDTH];
        x[..R].copy_from_slice(acc);
        macro_rules! stage {
            ($s:literal: $($i:literal $j:literal),+) => {
                let [lo, hi] = &PERMUTES[$s];
                let (lo, hi) = (_mm512_loadu_epi32(lo.as_ptr()), _mm512_loadu_epi32(hi.as_ptr()));
                $(
                    let (u, v) = (x[$i], x[$j]);
                    x[$i] = _mm512_permutex2var_ps(u, lo, v);
                    x[$j] = _mm512_permutex2var_ps(u, hi, v);
                )+
            };
        }
        stage!(0: 0 8, 1 9, 2 10, 3 11, 4 12, 5 13, 6 14, 7 15);
        stage!(1: 0 4, 1 5, 2 6, 3 7, 8 12, 9 13, 10 14, 11 15);
        stage!(2: 0 2, 1 3, 4 6, 5 7, 8 10, 9 11, 12 14, 13 15);
        stage!(3: 0 1, 2 3, 4 5, 6 7, 8 9, 10 11, 12 13, 14 15);
        x
    }

    /// The permute indices of [`transpose`]'s stages, for bits 8, 4, 2
    /// and 1. Lane `c` of the lower register of a pair keeps its own
    /// lane where `c` lacks the bit, else takes lane `c − bit` of the
    /// upper register (index `16 + …`); the upper register the converse.
    const PERMUTES: [[[i32; PANEL_WIDTH]; 2]; 4] = {
        let mut idx = [[[0; PANEL_WIDTH]; 2]; 4];
        let mut s = 0;
        while s < 4 {
            let bit = PANEL_WIDTH >> (s + 1);
            let mut c = 0;
            while c < PANEL_WIDTH {
                let (lo, hi) = if c & bit == 0 {
                    (c, c + bit)
                } else {
                    (16 + c - bit, 16 + c)
                };
                idx[s][0][c] = lo as i32;
                idx[s][1][c] = hi as i32;
                c += 1;
            }
            s += 1;
        }
        idx
    };

    /// The lane mask of the first `n ≤ 16` lanes.
    fn lanes(n: usize) -> u16 {
        ((1u32 << n) - 1) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_selection_is_latched_and_available() {
        let be = backend();
        assert_eq!(be, backend(), "second call returns the latched value");
        assert!(
            available_backends().contains(&be),
            "selected backend {be:?} must be runnable here"
        );
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        let all = available_backends();
        assert_eq!(all[0], SimdBackend::Scalar);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        assert_eq!(SimdBackend::Avx2Fma.name(), "avx2_fma");
    }

    /// SiLU in `f64`, and the error of `got` against it in units of the
    /// spacing of `f32` at the reference.
    #[cfg(target_arch = "x86_64")]
    fn silu_ulps(x: f32, got: f32) -> f64 {
        let want = f64::from(x) / (1.0 + (-f64::from(x)).exp());
        let w = (want as f32).abs();
        let ulp = f64::from(f32::from_bits(w.to_bits() + 1)) - f64::from(w);
        (f64::from(got) - want).abs() / ulp
    }

    /// `avx2::silu_mul` of eight lanes.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: (contract above) the loads and the store are of local
    // eight-float arrays.
    unsafe fn silu_mul8(x: [f32; 8], l: [f32; 8]) -> [f32; 8] {
        use core::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
        let mut out = [0.0f32; 8];
        // SAFETY: as the caller vouches.
        unsafe {
            let (x, l) = (_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(l.as_ptr()));
            _mm256_storeu_ps(out.as_mut_ptr(), avx2::silu_mul(x, l));
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_silu_equals_its_scalar_twin_bitwise() {
        if !avx2_available() {
            return;
        }
        // Every element of a buffer that runs through the clamps, both
        // zeros and the denormals, in every lane: the bits are the
        // twin's.
        let mut rng = crate::rng::SeededRng::new(21);
        let mut src: Vec<f32> = (0..64).map(|_| rng.normal() * 6.0).collect();
        src.extend([0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, 16.7, 17.5]);
        src.extend([87.5, -87.5, -88.0, -88.01, 100.0, -100.0, 3.0e38, -3.0e38]);
        let lin: Vec<f32> = (0..src.len()).map(|_| rng.normal()).collect();
        for (x, l) in src.windows(8).zip(lin.windows(8)) {
            let (x, l) = (x.try_into().expect("8"), l.try_into().expect("8"));
            // SAFETY: AVX2+FMA were detected above.
            let got = unsafe { silu_mul8(x, l) };
            for (lane, g) in got.iter().enumerate() {
                let want = avx2::silu(x[lane]) * l[lane];
                assert_eq!(g.to_bits(), want.to_bits(), "{} in lane {lane}", x[lane]);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polynomial_silu_is_within_two_ulp_of_silu() {
        let mut rng = crate::rng::SeededRng::new(22);
        let sweep = (-2_000_000..=2_000_000).map(|i| i as f32 * 1e-5);
        let seeded: Vec<f32> = (0..100_000).map(|_| rng.normal() * 8.0).collect();
        let mut worst = 0.0f64;
        for x in sweep.chain(seeded) {
            let ulps = silu_ulps(x, avx2::silu(x));
            assert!(ulps <= 2.0, "silu({x}) is {ulps} ulp off");
            worst = worst.max(ulps);
        }
        assert!(worst > 0.5, "the reference is not measuring: {worst}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polynomial_silu_edge_cases() {
        let bits = |x: f32| avx2::silu(x).to_bits();
        assert!(avx2::silu(f32::NAN).is_nan());
        // ±0 keep the value (and sign) of `x / (1 + expf(-x))`.
        assert_eq!(bits(0.0), 0.0f32.to_bits());
        assert_eq!(bits(-0.0), (-0.0f32).to_bits());
        // Beyond the clamps: the limits, never NaN.
        assert_eq!(bits(100.0), 100.0f32.to_bits());
        assert_eq!(bits(f32::MAX), f32::MAX.to_bits());
        assert_eq!(bits(f32::INFINITY), f32::INFINITY.to_bits());
        for x in [-88.01, -89.0, -100.0, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(bits(x), (-0.0f32).to_bits(), "silu({x})");
        }
        // The last finite `e^-x`: a normal result, not a flushed one.
        assert!(avx2::silu(-88.0) < -1e-37);
        // Denormals are halved exactly, as by libm.
        for x in [1e-40f32, -1e-40, 1e-45, f32::MIN_POSITIVE] {
            assert_eq!(bits(x), (x / 2.0).to_bits(), "silu({x})");
        }
        // A lane agrees on each of them (NaN: is NaN).
        if avx2_available() {
            for x in [f32::NAN, 0.0, -0.0, 100.0, -100.0, 1e-40, f32::NEG_INFINITY] {
                // SAFETY: AVX2+FMA were detected above.
                let g = unsafe { silu_mul8([x; 8], [1.0; 8]) };
                assert!(g
                    .iter()
                    .all(|v| v.to_bits() == bits(x) || (v.is_nan() && x.is_nan())));
            }
        }
    }

    #[test]
    fn env_override_maps_to_backend() {
        // `backend()` latches on first use, so assert the mapping the
        // latched value must satisfy given the ambient variable. CI runs
        // the whole suite under SPECINFER_SIMD=scalar to pin the forced
        // path; the native run pins detection.
        let be = backend();
        match std::env::var("SPECINFER_SIMD").as_deref() {
            Ok("scalar") => assert_eq!(be, SimdBackend::Scalar),
            _ => assert_eq!(
                be,
                *available_backends().last().expect("scalar always present")
            ),
        }
    }
}
