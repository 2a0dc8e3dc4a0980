//! Real threads on the real pool: eight callers issue 2 000 GEMMs each
//! — packed and blocked, on both sides of `pool::MIN_SHARE_BYTES` — at
//! the same time, so regions are won, lost (run inline) and nested in
//! every order the machine produces, and every product must carry the
//! bits of a serial run. The protocol itself is model-checked in
//! `loom_pool.rs`; this is the end-to-end check that the raw-pointer
//! splits and the job slot hold up under contention, and that it all
//! finishes in seconds.

use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{kernels, pool, set_max_threads, simd, PackedPanels, Tensor};

const CALLERS: usize = 8;
const GEMMS_PER_CALLER: usize = 2_000;

/// `(m, k, n, packed)`: decode- and verify-shaped products against the
/// LLM's feed-forward packs (shared), SSM-sized ones (inline), and
/// blocked products on either side of the constant.
const SHAPES: [(usize, usize, usize, bool); 8] = [
    (1, 96, 8192, true),
    (2, 8192, 96, true),
    (5, 96, 8192, true),
    (1, 96, 288, true),
    (3, 48, 96, true),
    (1, 8192, 33, true),
    (72, 64, 64, false),
    (4, 24, 40, false),
];

struct Case {
    a: Tensor,
    b: Tensor,
    packed: Option<PackedPanels>,
    want: Vec<f32>,
}

impl Case {
    fn multiply(&self, out: &mut Vec<f32>) {
        let (m, k, n) = (self.a.rows(), self.b.rows(), self.b.cols());
        out.clear();
        match &self.packed {
            Some(p) => {
                out.resize(m * n, f32::NAN);
                p.matvec_into(self.a.data(), out);
            }
            None => {
                out.resize(m * n, 0.0);
                kernels::matmul_nn_with(
                    simd::backend(),
                    self.a.data(),
                    self.b.data(),
                    out,
                    m,
                    k,
                    n,
                );
            }
        }
    }
}

#[test]
fn eight_callers_of_mixed_gemms_match_a_serial_run() {
    let mut rng = SeededRng::new(16);
    set_max_threads(1);
    let cases: Vec<Case> = SHAPES
        .iter()
        .map(|&(m, k, n, packed)| {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let packed = packed.then(|| PackedPanels::from_nn(b.data(), k, n));
            let mut case = Case {
                a,
                b,
                packed,
                want: Vec::new(),
            };
            let mut want = Vec::new();
            case.multiply(&mut want);
            case.want = want;
            case
        })
        .collect();

    // More threads than this machine may have: the pool must cope.
    set_max_threads(4);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let cases = &cases;
            scope.spawn(move || {
                let mut out = Vec::new();
                for i in 0..GEMMS_PER_CALLER {
                    // Every caller walks the shapes in its own order, and
                    // holds a `Hot` bracket for part of the run.
                    let case = &cases[(i * (2 * caller + 1) + caller) % cases.len()];
                    let _hot = (i / 50 % 2 == 0).then(pool::hot);
                    case.multiply(&mut out);
                    assert!(out == case.want, "caller {caller} gemm {i}");
                }
            });
        }
    });
    set_max_threads(0);
    #[cfg(debug_assertions)]
    assert!(pool::shared_regions() > 0, "no region was ever shared");
}
