//! SIMD backend selection and explicit-ISA matmul microkernels.
//!
//! Inference's matmuls — one-row decode steps up to whole-prompt
//! prefills — are latency-bound on the scalar kernels, so this module
//! provides explicit `std::arch` paths: AVX2+FMA on x86-64, NEON on
//! aarch64, with the scalar kernels in [`crate::kernels`] and
//! [`crate::pack`] as the cross-platform reference. The backend is
//! selected **exactly once** at startup — same discipline as
//! [`crate::kernels::set_max_threads`] — from the `SPECINFER_SIMD`
//! environment variable (`scalar` / `avx2` / `neon` / `native`) falling
//! back to runtime CPU feature detection. No per-call feature probing.
//!
//! # Determinism contract
//!
//! Bitwise equality **between** backends is not promised: FMA contracts
//! the multiply–add into a single rounding, so AVX2/NEON results differ
//! from the scalar reference in the last bits. What every backend *does*
//! promise is bitwise determinism across runs and thread counts:
//!
//! * Column-vectorised kernels (`nn`, packed panels) keep one ascending-`k`
//!   chain per output element — lanes are independent output columns, so
//!   vector width never reorders a reduction.
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
//!   twin ([`avx2::silu`]) performs a lane's IEEE operations one for one,
//!   so an element's bits depend neither on its lane nor on whether it
//!   fell in a vector or a tail. Inference has no other SwiGLU, so this
//!   moves the AVX2 *model function* — by at most 2 ulp of SiLU against
//!   the libm formula the scalar and NEON epilogues and training keep —
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
    /// NEON kernels (aarch64).
    Neon,
}

impl SimdBackend {
    /// Stable lowercase name, used in benchmark reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2Fma => "avx2_fma",
            SimdBackend::Neon => "neon",
        }
    }
}

/// The backend chosen at startup, latched on first use.
static BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// The process-wide SIMD backend.
///
/// First call reads `SPECINFER_SIMD` (`scalar` forces the reference
/// kernels; `avx2` / `neon` force an ISA *if the CPU supports it*, else
/// fall back to scalar; anything else — including `native` or unset —
/// picks the best detected ISA) and latches the answer for the lifetime
/// of the process.
pub fn backend() -> SimdBackend {
    *BACKEND.get_or_init(select_backend)
}

fn select_backend() -> SimdBackend {
    match std::env::var("SPECINFER_SIMD").as_deref() {
        Ok("scalar") => SimdBackend::Scalar,
        Ok("avx2") => {
            if avx2_available() {
                SimdBackend::Avx2Fma
            } else {
                SimdBackend::Scalar
            }
        }
        Ok("neon") => {
            if neon_available() {
                SimdBackend::Neon
            } else {
                SimdBackend::Scalar
            }
        }
        _ => native_backend(),
    }
}

/// The best backend the current CPU supports.
fn native_backend() -> SimdBackend {
    if avx2_available() {
        SimdBackend::Avx2Fma
    } else if neon_available() {
        SimdBackend::Neon
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

/// NEON is baseline on aarch64, absent elsewhere.
fn neon_available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// Every backend runnable on this machine, scalar first. Test batteries
/// iterate this to exercise each backend explicitly regardless of which
/// one [`backend`] latched.
pub fn available_backends() -> Vec<SimdBackend> {
    let mut v = vec![SimdBackend::Scalar];
    if avx2_available() {
        v.push(SimdBackend::Avx2Fma);
    }
    if neon_available() {
        v.push(SimdBackend::Neon);
    }
    v
}

/// CPU features relevant to kernel selection that the host reports,
/// recorded into benchmark reports so numbers are attributable.
pub fn detected_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            v.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            v.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512f");
        }
    }
    if neon_available() {
        v.push("neon");
    }
    v
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

    use crate::pack::{PanelTile, PANEL_WIDTH};

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

    /// Below `-SILU_FLUSH`, `e^-x` leaves `f32`'s range and [`silu`] is
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

    /// The scalar twin of one lane of [`swiglu`]'s SiLU, operation for
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

    /// The SwiGLU epilogue, `g[i] = silu(g[i]) · l[i]`, eight lanes at a
    /// time; the `len % 8` tail goes through [`silu`], so where a vector
    /// starts never shows in the bits.
    // SAFETY: the caller guarantees AVX2+FMA; vector accesses stay below
    // `g.len()`, which the assert makes `l`'s length too.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn swiglu(g: &mut [f32], l: &[f32]) {
        assert_eq!(g.len(), l.len(), "gate and linear halves must agree");
        let body = g.len() - g.len() % 8;
        let (gp, lp) = (g.as_mut_ptr(), l.as_ptr());
        let (one, neg_zero) = (_mm256_set1_ps(1.0), _mm256_set1_ps(-0.0));
        for i in (0..body).step_by(8) {
            let x = _mm256_loadu_ps(gp.add(i));
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
            let gated = _mm256_mul_ps(_mm256_div_ps(x, den), _mm256_loadu_ps(lp.add(i)));
            _mm256_storeu_ps(gp.add(i), gated);
        }
        for (g, &l) in g[body..].iter_mut().zip(&l[body..]) {
            *g = silu(*g) * l;
        }
    }

    /// The AVX2 register tile of the packed GEMM (see [`crate::pack`]):
    /// `R` rows × one 16-column panel as `2·R` accumulator registers —
    /// at four rows, eight accumulators fed by two panel loads and four
    /// broadcasts per step. Each output column is one fused
    /// ascending-`k` chain, bitwise identical to the unpacked
    /// [`nn_rows`]/[`nn_cols`] result for the same element.
    pub(crate) struct PackedTile;

    impl PanelTile for PackedTile {
        // SAFETY: the caller guarantees AVX2+FMA; every raw access below
        // is inside a slice whose length the asserts pin.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn tile<const R: usize>(
            b: &[f32],
            a: [&[f32]; R],
            o: [&mut [f32]; R],
            carry: bool,
            ahead: &[f32],
        ) {
            let kc = b.len() / PANEL_WIDTH;
            assert_eq!(b.len(), kc * PANEL_WIDTH, "whole panel rows");
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for r in 0..R {
                assert_eq!(a[r].len(), kc, "one A element per panel row");
                assert!(o[r].len() <= PANEL_WIDTH, "one panel of columns");
                if carry {
                    acc[r] = load_panel(o[r]);
                }
            }
            let ap = a.map(<[f32]>::as_ptr);
            // The rows of `ahead` (one cache line each) are fetched at
            // even intervals over the slice: a burst would fill the line
            // fill buffers and stall the multiply behind it.
            let pf = ahead.len() / PANEL_WIDTH;
            let (bp, fp) = (b.as_ptr(), ahead.as_ptr());
            let mut t = 0;
            if let Some(period) = kc.checked_div(pf) {
                for j in 0..pf {
                    _mm_prefetch::<_MM_HINT_T0>(fp.add(j * PANEL_WIDTH).cast());
                    for _ in 0..period {
                        fma_step(&mut acc, bp.add(t * PANEL_WIDTH), &ap, t);
                        t += 1;
                    }
                }
            }
            while t < kc {
                fma_step(&mut acc, bp.add(t * PANEL_WIDTH), &ap, t);
                t += 1;
            }
            for r in 0..R {
                store_panel(&acc[r], o[r]);
            }
        }
    }

    /// One reduction step of the tile: `acc[r] += a[r][t] · b_row`.
    #[inline]
    // SAFETY: the caller guarantees AVX2+FMA, 16 readable floats at
    // `b_row` and `t` in bounds of every `a[r]`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_step<const R: usize>(
        acc: &mut [[__m256; 2]; R],
        b_row: *const f32,
        a: &[*const f32; R],
        t: usize,
    ) {
        let b0 = _mm256_loadu_ps(b_row);
        let b1 = _mm256_loadu_ps(b_row.add(8));
        for r in 0..R {
            let v = _mm256_set1_ps(*a[r].add(t));
            acc[r][0] = _mm256_fmadd_ps(v, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(v, b1, acc[r][1]);
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

/// NEON kernels. Lane width 4; same reduction-order schemes as the AVX2
/// module with a four-lane pairwise tree `(l0+l1) + (l2+l3)`.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::{float32x4_t, vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32};

    use crate::pack::{PanelTile, PANEL_WIDTH};

    /// Folds the four lane partials with the fixed pairwise tree
    /// `(l0+l1) + (l2+l3)`.
    // SAFETY: NEON is baseline on aarch64; the store targets a
    // local 4-float array.
    #[target_feature(enable = "neon")]
    unsafe fn lane_tree(v: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// NEON `nn_rows`: four-row × 8-column register tile, one fused
    /// ascending-`k` chain per output element.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
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
            while j + 8 <= n {
                let mut c00 = vdupq_n_f32(0.0);
                let mut c01 = vdupq_n_f32(0.0);
                let mut c10 = vdupq_n_f32(0.0);
                let mut c11 = vdupq_n_f32(0.0);
                let mut c20 = vdupq_n_f32(0.0);
                let mut c21 = vdupq_n_f32(0.0);
                let mut c30 = vdupq_n_f32(0.0);
                let mut c31 = vdupq_n_f32(0.0);
                for kk in 0..k {
                    let bq = bp.add(kk * n + j);
                    let b0 = vld1q_f32(bq);
                    let b1 = vld1q_f32(bq.add(4));
                    let v0 = vdupq_n_f32(*a0.add(kk));
                    c00 = vfmaq_f32(c00, v0, b0);
                    c01 = vfmaq_f32(c01, v0, b1);
                    let v1 = vdupq_n_f32(*a1.add(kk));
                    c10 = vfmaq_f32(c10, v1, b0);
                    c11 = vfmaq_f32(c11, v1, b1);
                    let v2 = vdupq_n_f32(*a2.add(kk));
                    c20 = vfmaq_f32(c20, v2, b0);
                    c21 = vfmaq_f32(c21, v2, b1);
                    let v3 = vdupq_n_f32(*a3.add(kk));
                    c30 = vfmaq_f32(c30, v3, b0);
                    c31 = vfmaq_f32(c31, v3, b1);
                }
                vst1q_f32(op.add(r * n + j), c00);
                vst1q_f32(op.add(r * n + j + 4), c01);
                vst1q_f32(op.add((r + 1) * n + j), c10);
                vst1q_f32(op.add((r + 1) * n + j + 4), c11);
                vst1q_f32(op.add((r + 2) * n + j), c20);
                vst1q_f32(op.add((r + 2) * n + j + 4), c21);
                vst1q_f32(op.add((r + 3) * n + j), c30);
                vst1q_f32(op.add((r + 3) * n + j + 4), c31);
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

    /// NEON single-output-row column sweep, 16-column blocks.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
    pub unsafe fn nn_cols(a: &[f32], b: &[f32], out: &mut [f32], j0: usize, k: usize, n: usize) {
        let w = out.len();
        debug_assert!(a.len() >= k, "a must hold a full row");
        debug_assert!(j0 + w <= n, "column range inside B");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= w {
            let mut c0 = vdupq_n_f32(0.0);
            let mut c1 = vdupq_n_f32(0.0);
            let mut c2 = vdupq_n_f32(0.0);
            let mut c3 = vdupq_n_f32(0.0);
            for kk in 0..k {
                let v = vdupq_n_f32(*ap.add(kk));
                let bq = bp.add(kk * n + j0 + j);
                c0 = vfmaq_f32(c0, v, vld1q_f32(bq));
                c1 = vfmaq_f32(c1, v, vld1q_f32(bq.add(4)));
                c2 = vfmaq_f32(c2, v, vld1q_f32(bq.add(8)));
                c3 = vfmaq_f32(c3, v, vld1q_f32(bq.add(12)));
            }
            vst1q_f32(op.add(j), c0);
            vst1q_f32(op.add(j + 4), c1);
            vst1q_f32(op.add(j + 8), c2);
            vst1q_f32(op.add(j + 12), c3);
            j += 16;
        }
        while j + 4 <= w {
            let mut c0 = vdupq_n_f32(0.0);
            for kk in 0..k {
                let v = vdupq_n_f32(*ap.add(kk));
                c0 = vfmaq_f32(c0, v, vld1q_f32(bp.add(kk * n + j0 + j)));
            }
            vst1q_f32(op.add(j), c0);
            j += 4;
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

    /// NEON `nt_rows`: four output columns at a time, four fixed
    /// ascending-`k` lanes per column folded by [`lane_tree`], fused
    /// ascending tail.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
    pub unsafe fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), n * k, "B must be n×k row-major");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let k4 = k - k % 4;
        for r in 0..rows {
            let ap = a.as_ptr().add((i0 + r) * k);
            let op = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j + 4 <= n {
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut c0 = vdupq_n_f32(0.0);
                let mut c1 = vdupq_n_f32(0.0);
                let mut c2 = vdupq_n_f32(0.0);
                let mut c3 = vdupq_n_f32(0.0);
                let mut t = 0;
                while t + 4 <= k {
                    let av = vld1q_f32(ap.add(t));
                    c0 = vfmaq_f32(c0, av, vld1q_f32(b0.add(t)));
                    c1 = vfmaq_f32(c1, av, vld1q_f32(b1.add(t)));
                    c2 = vfmaq_f32(c2, av, vld1q_f32(b2.add(t)));
                    c3 = vfmaq_f32(c3, av, vld1q_f32(b3.add(t)));
                    t += 4;
                }
                let mut s0 = lane_tree(c0);
                let mut s1 = lane_tree(c1);
                let mut s2 = lane_tree(c2);
                let mut s3 = lane_tree(c3);
                let mut tt = k4;
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
                let mut c0 = vdupq_n_f32(0.0);
                let mut t = 0;
                while t + 4 <= k {
                    c0 = vfmaq_f32(c0, vld1q_f32(ap.add(t)), vld1q_f32(bq.add(t)));
                    t += 4;
                }
                let mut s = lane_tree(c0);
                let mut tt = k4;
                while tt < k {
                    s = (*ap.add(tt)).mul_add(*bq.add(tt), s);
                    tt += 1;
                }
                *op.add(j) = s;
                j += 1;
            }
        }
    }

    /// The NEON register tile of the packed GEMM (see [`crate::pack`]):
    /// `R` rows × one 16-column panel as `4·R` accumulator registers, one
    /// fused ascending-`k` chain per output column. No software prefetch:
    /// the AVX2 tile's was sized by measurement, and this backend has not
    /// been measured.
    pub(crate) struct PackedTile;

    impl PanelTile for PackedTile {
        // SAFETY: NEON is baseline on aarch64; every raw access below is
        // inside a slice whose length the asserts pin.
        #[target_feature(enable = "neon")]
        unsafe fn tile<const R: usize>(
            b: &[f32],
            a: [&[f32]; R],
            o: [&mut [f32]; R],
            carry: bool,
            _ahead: &[f32],
        ) {
            let kc = b.len() / PANEL_WIDTH;
            assert_eq!(b.len(), kc * PANEL_WIDTH, "whole panel rows");
            let mut acc = [[vdupq_n_f32(0.0); 4]; R];
            for r in 0..R {
                assert_eq!(a[r].len(), kc, "one A element per panel row");
                assert!(o[r].len() <= PANEL_WIDTH, "one panel of columns");
                if carry {
                    acc[r] = load_panel(o[r]);
                }
            }
            let ap = a.map(<[f32]>::as_ptr);
            let bp = b.as_ptr();
            for t in 0..kc {
                let bq = bp.add(t * PANEL_WIDTH);
                let mut b_row = [vdupq_n_f32(0.0); 4];
                for (q, lane) in b_row.iter_mut().enumerate() {
                    *lane = vld1q_f32(bq.add(q * 4));
                }
                for r in 0..R {
                    let v = vdupq_n_f32(*ap[r].add(t));
                    for (slot, lane) in acc[r].iter_mut().zip(b_row) {
                        *slot = vfmaq_f32(*slot, v, lane);
                    }
                }
            }
            for r in 0..R {
                store_panel(&acc[r], o[r]);
            }
        }
    }

    /// Loads the accumulators a previous k-slice left in `o` (a panel's
    /// real columns of one output row), zero in the padding lanes.
    // SAFETY: NEON is baseline; the caller guarantees `o.len() <= 16`; a
    // full panel loads in bounds, a partial one through a local copy.
    #[target_feature(enable = "neon")]
    unsafe fn load_panel(o: &[f32]) -> [float32x4_t; 4] {
        let mut spill = [0.0f32; PANEL_WIDTH];
        let p = if o.len() == PANEL_WIDTH {
            o.as_ptr()
        } else {
            spill[..o.len()].copy_from_slice(o);
            spill.as_ptr()
        };
        let mut acc = [vdupq_n_f32(0.0); 4];
        for (q, slot) in acc.iter_mut().enumerate() {
            *slot = vld1q_f32(p.add(q * 4));
        }
        acc
    }

    /// Stores a 16-wide panel of accumulators into `o`: a full panel
    /// directly, the final partial panel through a local spill whose
    /// zero-padded columns are dropped.
    // SAFETY: NEON is baseline; the caller guarantees `o.len() <= 16`; a
    // full panel stores in bounds, a partial one spills to a local first.
    #[target_feature(enable = "neon")]
    unsafe fn store_panel(acc: &[float32x4_t; 4], o: &mut [f32]) {
        let mut spill = [0.0f32; PANEL_WIDTH];
        let p = if o.len() == PANEL_WIDTH {
            o.as_mut_ptr()
        } else {
            spill.as_mut_ptr()
        };
        for (q, slot) in acc.iter().enumerate() {
            vst1q_f32(p.add(q * 4), *slot);
        }
        if o.len() < PANEL_WIDTH {
            o.copy_from_slice(&spill[..o.len()]);
        }
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
        assert_eq!(SimdBackend::Neon.name(), "neon");
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_silu_equals_its_scalar_twin_bitwise() {
        if !avx2_available() {
            return;
        }
        // Every length 1..=40 at every offset into a buffer that runs
        // through the clamps, both zeros and the denormals: whether an
        // element falls in a vector or the tail, and at which lane, the
        // bits are the twin's.
        let mut rng = crate::rng::SeededRng::new(21);
        let mut src: Vec<f32> = (0..64).map(|_| rng.normal() * 6.0).collect();
        src.extend([0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, 16.7, 17.5]);
        src.extend([87.5, -87.5, -88.0, -88.01, 100.0, -100.0, 3.0e38, -3.0e38]);
        let lin: Vec<f32> = (0..src.len()).map(|_| rng.normal()).collect();
        for len in 1..=40 {
            for at in 0..=src.len() - len {
                let mut got = src[at..at + len].to_vec();
                // SAFETY: AVX2+FMA were detected above.
                unsafe { avx2::swiglu(&mut got, &lin[at..at + len]) };
                for (i, g) in got.iter().enumerate() {
                    let want = avx2::silu(src[at + i]) * lin[at + i];
                    assert_eq!(g.to_bits(), want.to_bits(), "len {len} at {at} + {i}");
                }
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
                let mut g = [x; 8];
                // SAFETY: AVX2+FMA were detected above.
                unsafe { avx2::swiglu(&mut g, &[1.0; 8]) };
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
            Ok("avx2") => assert!(matches!(be, SimdBackend::Avx2Fma | SimdBackend::Scalar)),
            Ok("neon") => assert!(matches!(be, SimdBackend::Neon | SimdBackend::Scalar)),
            _ => assert_eq!(
                be,
                *available_backends().last().expect("scalar always present")
            ),
        }
    }
}
