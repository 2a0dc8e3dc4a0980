//! Property-based tests for the tensor substrate: algebraic identities
//! of the linear-algebra kernels and invariants of the neural ops.

use proptest::prelude::*;
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{kernels, ops, simd, PackedPanels, SimdBackend, Tensor};

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

    /// The blocked/parallel scalar kernels are bitwise-identical to the
    /// naive serial reference at every thread setting and shape —
    /// including 1×N, N×1, widths that are not a multiple of the nt
    /// lane width, and shapes above the parallel threshold
    /// (output-element partitioning never splits the k reduction). The
    /// scalar backend is pinned explicitly so this holds no matter
    /// which backend the process latched; `tn` runs the scalar kernels
    /// on every backend.
    #[test]
    fn scalar_kernels_bitwise_match_reference(
        seed in 0u64..1_000,
        m in 1usize..130, k in 1usize..130, n in 1usize..130,
        threads in 1usize..9,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let bt = b.transpose();
        let at = a.transpose();
        let nn_ref = a.matmul_ref(&b);
        let nt_ref = a.matmul_nt_ref(&bt);
        let tn_ref = at.matmul_tn_ref(&b);
        let mut nn = vec![0.0f32; m * n];
        let mut nt = vec![0.0f32; m * n];
        specinfer_tensor::set_max_threads(threads);
        kernels::matmul_nn_with(SimdBackend::Scalar, a.data(), b.data(), &mut nn, m, k, n);
        kernels::matmul_nt_with(SimdBackend::Scalar, a.data(), bt.data(), &mut nt, m, k, n);
        let tn = at.matmul_tn(&b);
        specinfer_tensor::set_max_threads(0);
        prop_assert_eq!(&nn, nn_ref.data());
        prop_assert_eq!(&nt, nt_ref.data());
        prop_assert_eq!(tn.data(), tn_ref.data());
    }

    /// Every backend runnable on this host is bitwise-deterministic:
    /// identical results across `set_max_threads(1..=8)` and across
    /// repeated runs. SIMD backends are *not* required to match the
    /// scalar reference bitwise (FMA contracts a rounding step), but
    /// each backend's own per-element reduction order is fixed, so
    /// thread partitioning and re-execution must be bitwise-inert.
    #[test]
    fn every_backend_thread_and_run_invariant(
        seed in 0u64..1_000,
        m in 1usize..80, k in 1usize..80, n in 1usize..80,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let bt = b.transpose();
        for be in simd::available_backends() {
            let mut base_nn = vec![0.0f32; m * n];
            let mut base_nt = vec![0.0f32; m * n];
            specinfer_tensor::set_max_threads(1);
            kernels::matmul_nn_with(be, a.data(), b.data(), &mut base_nn, m, k, n);
            kernels::matmul_nt_with(be, a.data(), bt.data(), &mut base_nt, m, k, n);
            for threads in 1..=8 {
                specinfer_tensor::set_max_threads(threads);
                let mut nn = vec![0.0f32; m * n];
                let mut nt = vec![0.0f32; m * n];
                kernels::matmul_nn_with(be, a.data(), b.data(), &mut nn, m, k, n);
                kernels::matmul_nt_with(be, a.data(), bt.data(), &mut nt, m, k, n);
                prop_assert_eq!(&base_nn, &nn, "{:?} nn @ {} threads", be, threads);
                prop_assert_eq!(&base_nt, &nt, "{:?} nt @ {} threads", be, threads);
            }
            specinfer_tensor::set_max_threads(0);
        }
    }

    /// Packing a weight into panels never changes bits *within* a
    /// backend: the packed GEMM and the unpacked kernel share each
    /// element's reduction order, whichever orientation the panels were
    /// built from and however many rows are multiplied (decode, verify
    /// and prefill row counts; `k` on both sides of the k-slice). This
    /// is the invariant that lets inference run on the panels alone
    /// while training and the reference paths keep the row-major
    /// kernels.
    #[test]
    fn packed_panels_bitwise_match_unpacked_per_backend(
        seed in 0u64..1_000,
        m in 1usize..70, k in 1usize..300, n in 1usize..80,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let from_nn = PackedPanels::from_nn(b.data(), k, n);
        let from_nt = PackedPanels::from_nt(b.transpose().data(), n, k);
        for be in simd::available_backends() {
            let mut unpacked = vec![0.0f32; m * n];
            kernels::matmul_nn_with(be, a.data(), b.data(), &mut unpacked, m, k, n);
            let mut packed = vec![0.0f32; m * n];
            from_nn.matvec_into_with(be, a.data(), &mut packed);
            prop_assert_eq!(&unpacked, &packed, "{:?} from_nn {}x{}x{}", be, m, k, n);
            let mut packed_nt = vec![0.0f32; m * n];
            from_nt.matvec_into_with(be, a.data(), &mut packed_nt);
            prop_assert_eq!(&unpacked, &packed_nt, "{:?} from_nt {}x{}x{}", be, m, k, n);
        }
    }

    /// SIMD backends agree with the scalar reference to rounding noise:
    /// same sums, different rounding contraction.
    #[test]
    fn simd_backends_close_to_scalar_reference(
        seed in 0u64..1_000,
        m in 1usize..16, k in 1usize..200, n in 1usize..64,
    ) {
        let a = tensor(seed, m, k);
        let b = tensor(seed + 1, k, n);
        let nn_ref = a.matmul_ref(&b);
        let tol = 1e-4 * (k as f32).sqrt();
        for be in simd::available_backends() {
            let mut nn = vec![0.0f32; m * n];
            kernels::matmul_nn_with(be, a.data(), b.data(), &mut nn, m, k, n);
            for (got, want) in nn.iter().zip(nn_ref.data()) {
                prop_assert!(
                    (got - want).abs() <= tol.max(1e-4 * want.abs()),
                    "{:?}: {} vs {}", be, got, want
                );
            }
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
