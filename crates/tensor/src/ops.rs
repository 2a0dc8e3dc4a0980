//! Free functions implementing the neural-network operations a decoder-only
//! Transformer needs: numerically stable softmax, RMSNorm, SiLU, rotary
//! position embeddings, and top-k selection.

use crate::Tensor;

/// Numerically stable softmax over a single slice, in place.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn softmax_inplace(xs: &mut [f32]) {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let max = xs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    if max == f32::NEG_INFINITY {
        // A fully masked row has no valid distribution; return all-zero
        // weights instead of NaNs from `-inf - -inf`.
        xs.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // `sum` can only be zero if every input was -inf; guard to avoid NaNs.
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Softmax applied independently to every row of a 2-D tensor.
///
/// # Panics
///
/// Panics if `t` is not 2-D.
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    for r in 0..out.rows() {
        softmax_inplace(out.row_mut(r));
    }
    out
}

/// Log-softmax of a single slice (stable).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn log_softmax(xs: &[f32]) -> Vec<f32> {
    assert!(!xs.is_empty(), "log_softmax of an empty slice");
    let max = xs.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let log_sum: f32 = xs.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
    xs.iter().map(|x| x - max - log_sum).collect()
}

/// RMS normalization of each row: `x / rms(x) * gain`, with
/// `rms(x) = sqrt(mean(x²) + eps)`.
///
/// This is the normalization used by LLaMA-family models.
///
/// # Panics
///
/// Panics if `t` is not 2-D or `gain.len() != t.cols()`.
pub fn rmsnorm_rows(t: &Tensor, gain: &Tensor, eps: f32) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    rmsnorm_rows_into(t, gain, eps, &mut out);
    out
}

/// [`rmsnorm_rows`] writing into a caller-owned tensor, reusing its
/// allocation. Bitwise identical to the allocating version.
///
/// # Panics
///
/// Panics if `t` is not 2-D or `gain.len() != t.cols()`.
pub fn rmsnorm_rows_into(t: &Tensor, gain: &Tensor, eps: f32, out: &mut Tensor) {
    assert_eq!(
        gain.len(),
        t.cols(),
        "gain length must equal the column count"
    );
    out.reset(t.dims());
    out.data_mut().copy_from_slice(t.data());
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let ms: f32 = row.iter().map(|x| x * x).sum::<f32>() / row.len() as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (x, g) in row.iter_mut().zip(gain.data()) {
            *x *= inv * g;
        }
    }
}

/// SiLU (a.k.a. swish) activation, element-wise: `x * sigmoid(x)`.
pub fn silu(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    for x in out.data_mut() {
        *x = silu_scalar(*x);
    }
    out
}

pub(crate) fn silu_scalar(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Applies rotary position embeddings (RoPE) in place to a row vector laid
/// out as consecutive heads of `head_dim` values each.
///
/// Pairs `(x[2i], x[2i+1])` within each head are rotated by angle
/// `pos · θᵢ` where `θᵢ = base^(−2i/head_dim)`.
///
/// # Panics
///
/// Panics if `row.len()` is not a multiple of `head_dim`, or if `head_dim`
/// is odd.
pub fn rope_rotate_row(row: &mut [f32], pos: usize, head_dim: usize, base: f32) {
    assert!(
        head_dim.is_multiple_of(2),
        "RoPE requires an even head dimension"
    );
    assert!(
        row.len().is_multiple_of(head_dim),
        "row length must be a multiple of head_dim"
    );
    for head in row.chunks_mut(head_dim) {
        for i in 0..head_dim / 2 {
            let theta = base.powf(-2.0 * i as f32 / head_dim as f32);
            let angle = pos as f32 * theta;
            let (sin, cos) = angle.sin_cos();
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Precomputes the RoPE inverse frequencies `θᵢ = base^(−2i/head_dim)`
/// for `i` in `0..head_dim/2`, using the same arithmetic as
/// [`rope_rotate_row`].
///
/// Hoisting the `powf` calls out of the per-token path is the point:
/// [`rope_rotate_row_cached`] with these frequencies is bitwise
/// identical to [`rope_rotate_row`] but does no transcendental work
/// beyond `sin_cos`.
///
/// # Panics
///
/// Panics if `head_dim` is odd.
pub fn rope_inv_freqs(head_dim: usize, base: f32) -> Vec<f32> {
    assert!(
        head_dim.is_multiple_of(2),
        "RoPE requires an even head dimension"
    );
    (0..head_dim / 2)
        .map(|i| base.powf(-2.0 * i as f32 / head_dim as f32))
        .collect()
}

/// [`rope_rotate_row`] with the inverse frequencies precomputed by
/// [`rope_inv_freqs`]. Bitwise identical to the uncached version.
///
/// # Panics
///
/// Panics if `row.len()` is not a multiple of `2 · inv_freqs.len()`.
pub fn rope_rotate_row_cached(row: &mut [f32], pos: usize, inv_freqs: &[f32]) {
    let head_dim = 2 * inv_freqs.len();
    assert!(
        row.len().is_multiple_of(head_dim),
        "row length must be a multiple of head_dim"
    );
    for head in row.chunks_mut(head_dim) {
        for (i, &theta) in inv_freqs.iter().enumerate() {
            let angle = pos as f32 * theta;
            let (sin, cos) = angle.sin_cos();
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Returns the indices and values of the `k` largest entries of `xs`,
/// sorted descending by value (ties broken by lower index first).
///
/// If `k > xs.len()` every entry is returned.
pub fn topk(xs: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut pairs: Vec<(usize, f32)> = xs.iter().copied().enumerate().collect();
    pairs.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    pairs.truncate(k);
    pairs
}

/// Total variation distance between two discrete distributions:
/// `½ Σ |p − q|`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn total_variation(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "distributions must have equal support");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = [1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = [1000.0, 1001.0, 1002.0];
        let mut b = [0.0, 1.0, 2.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_handles_all_neg_infinity() {
        let mut xs = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let xs = [0.3, -1.2, 2.5, 0.0];
        let ls = log_softmax(&xs);
        let mut sm = xs;
        softmax_inplace(&mut sm);
        for (l, s) in ls.iter().zip(sm.iter()) {
            assert!((l.exp() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn rmsnorm_produces_unit_rms_with_unit_gain() {
        let mut rng = SeededRng::new(4);
        let t = Tensor::randn(&[3, 8], 2.0, &mut rng);
        let gain = Tensor::full(&[8], 1.0);
        let out = rmsnorm_rows(&t, &gain, 1e-6);
        for r in 0..3 {
            let row = out.row(r);
            let ms: f32 = row.iter().map(|x| x * x).sum::<f32>() / row.len() as f32;
            assert!((ms - 1.0).abs() < 1e-3, "row {r} ms {ms}");
        }
    }

    #[test]
    fn silu_known_values() {
        assert!((silu_scalar(0.0)).abs() < 1e-7);
        assert!((silu_scalar(10.0) - 10.0).abs() < 1e-3); // ≈ identity for large x
        assert!(silu_scalar(-10.0).abs() < 1e-3); // ≈ 0 for very negative x
    }

    #[test]
    fn rope_preserves_pair_norms() {
        let mut row: Vec<f32> = (0..8).map(|i| i as f32 + 1.0).collect();
        let before: Vec<f32> = row
            .chunks(2)
            .map(|p| (p[0] * p[0] + p[1] * p[1]).sqrt())
            .collect();
        rope_rotate_row(&mut row, 17, 8, 10_000.0);
        let after: Vec<f32> = row
            .chunks(2)
            .map(|p| (p[0] * p[0] + p[1] * p[1]).sqrt())
            .collect();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-4);
        }
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut row: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let orig = row.clone();
        rope_rotate_row(&mut row, 0, 4, 10_000.0);
        for (a, b) in row.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cached_rope_matches_uncached_bitwise() {
        let mut rng = SeededRng::new(9);
        let base = 10_000.0;
        for head_dim in [4, 8, 24] {
            let inv = rope_inv_freqs(head_dim, base);
            for pos in [0usize, 1, 17, 511] {
                let t = Tensor::randn(&[1, head_dim * 3], 1.0, &mut rng);
                let mut a: Vec<f32> = t.data().to_vec();
                let mut b = a.clone();
                rope_rotate_row(&mut a, pos, head_dim, base);
                rope_rotate_row_cached(&mut b, pos, &inv);
                assert_eq!(a, b, "head_dim {head_dim} pos {pos}");
            }
        }
    }

    #[test]
    fn rmsnorm_into_reuses_buffer_and_matches() {
        let mut rng = SeededRng::new(10);
        let t = Tensor::randn(&[4, 6], 1.5, &mut rng);
        let gain = Tensor::randn(&[6], 0.5, &mut rng);
        let fresh = rmsnorm_rows(&t, &gain, 1e-5);
        let mut reused = Tensor::zeros(&[9, 9]);
        rmsnorm_rows_into(&t, &gain, 1e-5, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn topk_returns_sorted_prefix() {
        let xs = [0.1, 0.9, 0.5, 0.9, 0.2];
        let top = topk(&xs, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 1); // first of the tied 0.9s
        assert_eq!(top[1].0, 3);
        assert_eq!(top[2].0, 2);
    }

    #[test]
    fn topk_truncates_to_available() {
        let xs = [1.0, 2.0];
        assert_eq!(topk(&xs, 10).len(), 2);
    }

    #[test]
    fn total_variation_bounds() {
        assert_eq!(total_variation(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
    }
}
