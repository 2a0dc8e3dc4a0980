//! Property-based tests for the tensor substrate: algebraic identities
//! of the linear-algebra kernels and invariants of the neural ops. The
//! kernels' bitwise contracts are cells of the forward oracle
//! (`tests/forward.rs`).

use proptest::prelude::*;
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{ops, Tensor};

fn tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = SeededRng::new(seed);
    Tensor::randn(&[rows, cols], 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A·B)·C == A·(B·C) within floating-point tolerance.
    #[test]
    fn matmul_is_associative(
        seed in 0u64..1_000,
        m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let c = tensor(seed + 2, n, p);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-3);
    }

    /// A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..1_000,
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let c = tensor(seed + 2, k, n);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-4);
    }

    /// The three matmul layouts agree through explicit transposition.
    #[test]
    fn matmul_layout_variants_agree(
        seed in 0u64..1_000,
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let plain = a.matmul(&b);
        let nt = a.matmul_nt(&b.transpose());
        let tn = a.transpose().matmul_tn(&b);
        prop_assert!(plain.max_abs_diff(&nt) < 1e-4);
        prop_assert!(plain.max_abs_diff(&tn) < 1e-4);
    }

    /// Softmax outputs a probability vector and preserves ranking.
    #[test]
    fn softmax_is_a_monotone_distribution(
        xs in prop::collection::vec(-20.0f32..20.0, 1..32),
    ) {
        let mut sm = xs.clone();
        ops::softmax_inplace(&mut sm);
        let sum: f32 = sm.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(sm.iter().all(|&p| (0.0..=1.0).contains(&p)));
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(sm[i] >= sm[j]);
                }
            }
        }
    }

    /// Softmax is shift-invariant.
    #[test]
    fn softmax_shift_invariant(
        xs in prop::collection::vec(-10.0f32..10.0, 1..16),
        shift in -50.0f32..50.0,
    ) {
        let mut a = xs.clone();
        ops::softmax_inplace(&mut a);
        let mut b: Vec<f32> = xs.iter().map(|x| x + shift).collect();
        ops::softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// RoPE rotations compose: rotating at position p then inverting at p
    /// restores the input (checked via the rotation being norm-preserving
    /// and position-0 identity elsewhere; here we check norms).
    #[test]
    fn rope_preserves_norm(
        seed in 0u64..1_000,
        pos in 0usize..2_048,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut row: Vec<f32> = (0..16).map(|_| rng.normal()).collect();
        let before: f32 = row.iter().map(|x| x * x).sum();
        ops::rope_rotate_row(&mut row, pos, 8, 10_000.0);
        let after: f32 = row.iter().map(|x| x * x).sum();
        prop_assert!((before - after).abs() < 1e-2 * before.max(1.0));
    }

    /// top-k returns a sorted prefix of the full ordering.
    #[test]
    fn topk_is_prefix_of_full_sort(
        xs in prop::collection::vec(-100.0f32..100.0, 1..24),
        k in 1usize..24,
    ) {
        let full = ops::topk(&xs, xs.len());
        let partial = ops::topk(&xs, k);
        let k = k.min(xs.len());
        prop_assert_eq!(&full[..k], &partial[..]);
        for w in partial.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// `matmul_into` writing into a reused scratch buffer of arbitrary
    /// prior shape produces the same bits as the allocating call.
    #[test]
    fn matmul_into_scratch_reuse_matches(
        seed in 0u64..1_000,
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        prior_rows in 0usize..8, prior_cols in 0usize..8,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let mut out = tensor(seed + 2, prior_rows.max(1), prior_cols.max(1));
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.dims(), &[m, n]);
        prop_assert_eq!(out.data(), a.matmul(&b).data());
        let bt = b.transpose();
        a.matmul_nt_into(&bt, &mut out);
        prop_assert_eq!(out.data(), a.matmul_nt(&bt).data());
    }

    /// Total variation distance is a metric-ish: symmetric, zero on self,
    /// bounded by 1 for distributions.
    #[test]
    fn total_variation_properties(
        raw_p in prop::collection::vec(0.001f32..1.0, 2..12),
    ) {
        let sum: f32 = raw_p.iter().sum();
        let p: Vec<f32> = raw_p.iter().map(|x| x / sum).collect();
        let mut q = p.clone();
        q.rotate_right(1);
        prop_assert_eq!(ops::total_variation(&p, &p), 0.0);
        let d1 = ops::total_variation(&p, &q);
        let d2 = ops::total_variation(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-6);
        prop_assert!(d1 <= 1.0 + 1e-6);
    }
}
