//! Statistical tests for the paper's two verification theorems.
//!
//! * **Theorem 4.2**: multi-step speculative sampling (MSS) produces
//!   tokens from *exactly* the LLM's distribution, for any SSMs.
//! * **Theorem 4.3**: MSS rejects speculation no more often than naive
//!   sampling (NS).
//!
//! The tests drive the verifier directly with hand-constructed trees
//! (fast, tight thresholds). The model-level test, which runs the full
//! engine end to end, is `tests/oracle.rs::theorem_4_2_end_to_end_engine`.

use specinfer_model::DecodeMode;
use specinfer_spec::{verify_naive, verify_stochastic, SsmDistTable};
use specinfer_tensor::ops::total_variation;
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::Tensor;
use specinfer_tokentree::{LinearizedTree, TokenTree};

/// Builds a depth-1 speculation: each SSM `s` contributes `k` i.i.d.
/// drafts from `qs[s]`, then runs one MSS verification against target
/// `p`. Returns (first emitted token, whether all drafts were rejected).
fn mss_trial(p: &[f32], qs: &[Vec<f32>], k: usize, rng: &mut SeededRng) -> (u32, bool) {
    let vocab = p.len();
    let mut tree = TokenTree::new(0);
    let mut dists = SsmDistTable::new();
    for (s, q) in qs.iter().enumerate() {
        dists.insert(TokenTree::ROOT, s, q.clone());
        for _ in 0..k {
            let tok = rng.sample_index(q) as u32;
            tree.add_child(TokenTree::ROOT, tok, s, q[tok as usize]);
        }
    }
    let lin = LinearizedTree::new(&tree);
    // Logits: ln p at the root; the children are leaves whose rows only
    // matter for the (unchecked) bonus after a descent — give them the
    // same distribution so every path is well-defined.
    let row: Vec<f32> = p.iter().map(|&x| x.max(1e-30).ln()).collect();
    let mut data = Vec::with_capacity(lin.len() * vocab);
    for _ in 0..lin.len() {
        data.extend_from_slice(&row);
    }
    let logits = Tensor::from_vec(data, &[lin.len(), vocab]);
    let out = verify_stochastic(&tree, &lin, &logits, &dists, &DecodeMode::stochastic(), rng);
    (out.tokens[0], out.nodes.is_empty())
}

fn ns_trial(p: &[f32], qs: &[Vec<f32>], k: usize, rng: &mut SeededRng) -> (u32, bool) {
    let vocab = p.len();
    let mut tree = TokenTree::new(0);
    for (s, q) in qs.iter().enumerate() {
        for _ in 0..k {
            let tok = rng.sample_index(q) as u32;
            tree.add_child(TokenTree::ROOT, tok, s, q[tok as usize]);
        }
    }
    let lin = LinearizedTree::new(&tree);
    let row: Vec<f32> = p.iter().map(|&x| x.max(1e-30).ln()).collect();
    let mut data = Vec::with_capacity(lin.len() * vocab);
    for _ in 0..lin.len() {
        data.extend_from_slice(&row);
    }
    let logits = Tensor::from_vec(data, &[lin.len(), vocab]);
    let out = verify_naive(&tree, &lin, &logits, &DecodeMode::stochastic(), rng);
    (out.tokens[0], out.nodes.is_empty())
}

fn empirical_dist(samples: &[u32], vocab: usize) -> Vec<f32> {
    let mut counts = vec![0.0f32; vocab];
    for &s in samples {
        counts[s as usize] += 1.0;
    }
    let n = samples.len() as f32;
    counts.iter().map(|c| c / n).collect()
}

/// Theorem 4.2, adversarial single-SSM case: a *peaked* proposal against
/// a flat target — the case where a biased sampler (e.g. top-k
/// deterministic drafts) would visibly skew the output.
#[test]
fn theorem_4_2_single_ssm_peaked_proposal() {
    let p = vec![0.5, 0.5];
    let q = vec![vec![0.9, 0.1]];
    let trials = 200_000;
    let mut rng = SeededRng::new(1);
    let samples: Vec<u32> = (0..trials)
        .map(|_| mss_trial(&p, &q, 2, &mut rng).0)
        .collect();
    let emp = empirical_dist(&samples, 2);
    let tv = total_variation(&emp, &p);
    assert!(tv < 0.01, "TV(MSS, LLM) = {tv} (emp = {emp:?})");
}

/// Theorem 4.2 with three distinct SSMs, one draft each (the merge-based
/// configuration of Figure 5).
#[test]
fn theorem_4_2_multi_ssm() {
    let p = vec![0.1, 0.3, 0.05, 0.25, 0.2, 0.1];
    let qs = vec![
        vec![0.5, 0.2, 0.1, 0.1, 0.05, 0.05],
        vec![0.05, 0.05, 0.6, 0.1, 0.1, 0.1],
        vec![1.0 / 6.0; 6],
    ];
    let trials = 150_000;
    let mut rng = SeededRng::new(2);
    let samples: Vec<u32> = (0..trials)
        .map(|_| mss_trial(&p, &qs, 1, &mut rng).0)
        .collect();
    let emp = empirical_dist(&samples, 6);
    let tv = total_variation(&emp, &p);
    assert!(tv < 0.012, "TV(MSS, LLM) = {tv} (emp = {emp:?})");
}

/// Theorem 4.2 with disjoint supports: the proposal can never be
/// accepted, so everything flows through the residual path — which must
/// still equal the target.
#[test]
fn theorem_4_2_disjoint_supports() {
    let p = vec![0.0, 0.0, 0.6, 0.4];
    let q = vec![vec![0.7, 0.3, 0.0, 0.0]];
    let trials = 60_000;
    let mut rng = SeededRng::new(3);
    let samples: Vec<u32> = (0..trials)
        .map(|_| mss_trial(&p, &q, 3, &mut rng).0)
        .collect();
    let emp = empirical_dist(&samples, 4);
    let tv = total_variation(&emp, &p);
    assert!(tv < 0.015, "TV(MSS, LLM) = {tv} (emp = {emp:?})");
    assert_eq!(emp[0], 0.0);
    assert_eq!(emp[1], 0.0);
}

/// Theorem 4.3: MSS's rejection probability is no higher than naive
/// sampling's, across several (p, q) pairs.
#[test]
fn theorem_4_3_mss_rejects_no_more_than_naive() {
    let cases: Vec<(Vec<f32>, Vec<Vec<f32>>)> = vec![
        (vec![0.5, 0.5], vec![vec![0.9, 0.1]]),
        (vec![0.25; 4], vec![vec![0.4, 0.3, 0.2, 0.1]]),
        (
            vec![0.1, 0.2, 0.3, 0.4],
            vec![vec![0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4]],
        ),
    ];
    let trials = 40_000;
    for (ci, (p, qs)) in cases.iter().enumerate() {
        let mut rng = SeededRng::new(100 + ci as u64);
        let mss_rejects = (0..trials)
            .filter(|_| mss_trial(p, qs, 2, &mut rng).1)
            .count() as f64;
        let mut rng = SeededRng::new(200 + ci as u64);
        let ns_rejects = (0..trials)
            .filter(|_| ns_trial(p, qs, 2, &mut rng).1)
            .count() as f64;
        let slack = 2.5 * (trials as f64).sqrt(); // ~2.5σ of a binomial count
        assert!(
            mss_rejects <= ns_rejects + slack,
            "case {ci}: MSS rejected {mss_rejects} vs NS {ns_rejects}"
        );
    }
}

/// Theorem 4.2 at depth 2: the *joint* distribution of the first two
/// emitted tokens must equal sequential LLM sampling, not just each
/// marginal. Builds chains root → x₁ → x₂ with drafts at both levels and
/// position-dependent LLM distributions.
#[test]
fn theorem_4_2_joint_two_token_distribution() {
    let vocab = 3usize;
    // LLM: P(first) and P(second | first) — all rows distinct.
    let p1 = [0.5f32, 0.3, 0.2];
    let p2 = [
        [0.6f32, 0.3, 0.1], // after token 0
        [0.2, 0.2, 0.6],    // after token 1
        [0.1, 0.8, 0.1],    // after token 2
    ];
    // SSM proposal at each level.
    let q1 = [0.4f32, 0.4, 0.2];
    let q2 = [[0.3f32, 0.4, 0.3], [0.5, 0.25, 0.25], [1.0 / 3.0; 3]];

    let trials = 120_000;
    let mut rng = SeededRng::new(77);
    let mut counts = vec![0.0f32; vocab * vocab];
    for _ in 0..trials {
        // Build a depth-2 speculation: one draft below the root, one
        // draft below that draft (a sequence speculation of depth 2).
        let mut tree = TokenTree::new(0);
        let mut dists = SsmDistTable::new();
        dists.insert(TokenTree::ROOT, 0, q1.to_vec());
        let d1 = rng.sample_index(&q1);
        let n1 = tree.add_child(TokenTree::ROOT, d1 as u32, 0, q1[d1]);
        dists.insert(n1, 0, q2[d1].to_vec());
        let d2 = rng.sample_index(&q2[d1]);
        let _n2 = tree.add_child(n1, d2 as u32, 0, q2[d1][d2]);

        let lin = LinearizedTree::new(&tree);
        // Logits per linear position: root row = ln p1; row of node t is
        // ln p2[token(t)] (the LLM conditional after that token).
        let mut data = Vec::with_capacity(lin.len() * vocab);
        for (i, &node) in lin.nodes().iter().enumerate() {
            let row: Vec<f32> = if i == 0 {
                p1.iter().map(|&x| x.ln()).collect()
            } else {
                let tok = tree.token(node) as usize;
                p2[tok].iter().map(|&x| x.ln()).collect()
            };
            data.extend(row);
        }
        let logits = Tensor::from_vec(data, &[lin.len(), vocab]);
        let out = verify_stochastic(
            &tree,
            &lin,
            &logits,
            &dists,
            &DecodeMode::stochastic(),
            &mut rng,
        );
        // First token always exists; second exists when at least one
        // speculated token was accepted (bonus after it) — when the first
        // draft is rejected, the outcome has length 1 and we must sample
        // the second token the way incremental decoding would.
        let t1 = out.tokens[0] as usize;
        let t2 = if out.tokens.len() >= 2 {
            out.tokens[1] as usize
        } else {
            rng.sample_index(&p2[t1])
        };
        counts[t1 * vocab + t2] += 1.0;
    }
    for c in &mut counts {
        *c /= trials as f32;
    }
    let mut expected = vec![0.0f32; vocab * vocab];
    for a in 0..vocab {
        for b in 0..vocab {
            expected[a * vocab + b] = p1[a] * p2[a][b];
        }
    }
    let tv = total_variation(&counts, &expected);
    assert!(
        tv < 0.012,
        "joint TV = {tv}\n got {counts:?}\n want {expected:?}"
    );
}

/// Upper-tail χ² critical values at α = 10⁻⁴, indexed by `df − 1` for
/// df ∈ 1..=8 (from the χ² inverse CDF; e.g. `scipy.stats.chi2.ppf(1 -
/// 1e-4, df)`).
///
/// With seeded RNGs each statistic is a deterministic number, so α does
/// not describe a flake rate; it calibrates how far empirical counts may
/// drift before the test calls the sampler biased. Monte-Carlo noise at
/// these trial counts sits far below the threshold, while a biased
/// sampler (deterministic top-k drafts, naive residuals) overshoots it
/// by orders of magnitude.
const CHI2_CRIT_1E4: [f64; 8] = [
    15.137, 18.421, 21.108, 23.513, 25.745, 27.856, 29.878, 31.828,
];

/// Pearson goodness-of-fit statistic of `counts` against the target
/// distribution `p`, over the target's support. Bins outside the support
/// must be empty (MSS exactness, not just closeness). Returns `(χ²,
/// degrees of freedom)`.
fn chi_square(counts: &[u64], p: &[f32]) -> (f64, usize) {
    let n: u64 = counts.iter().sum();
    let mut chi2 = 0.0f64;
    let mut bins = 0usize;
    for (i, &pi) in p.iter().enumerate() {
        if pi <= 0.0 {
            assert_eq!(counts[i], 0, "bin {i} lies outside the target's support");
            continue;
        }
        let expect = f64::from(pi) * n as f64;
        let diff = counts[i] as f64 - expect;
        chi2 += diff * diff / expect;
        bins += 1;
    }
    (chi2, bins - 1)
}

/// Theorem 4.2 as a χ² goodness-of-fit battery: across adversarial
/// (target, proposals, width) configurations, the MSS output counts over
/// ≥10k seeded trials must fit the LLM distribution at α = 10⁻⁴.
#[test]
fn theorem_4_2_chi_square_battery() {
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Vec<f32>, Vec<Vec<f32>>, usize, usize)> = vec![
        (
            "peaked proposal vs flat target",
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1]],
            2,
            40_000,
        ),
        (
            "uniform target, skewed proposal",
            vec![0.25; 4],
            vec![vec![0.4, 0.3, 0.2, 0.1]],
            3,
            40_000,
        ),
        (
            // The tentpole's garbage-fault model: junk drafts whose
            // *recorded* proposal is uniform must still leave the output
            // exactly on the target.
            "uniform garbage drafts",
            vec![0.45, 0.1, 0.25, 0.2],
            vec![vec![0.25; 4]],
            2,
            40_000,
        ),
        (
            "three disagreeing SSMs",
            vec![0.1, 0.3, 0.05, 0.25, 0.2, 0.1],
            vec![
                vec![0.5, 0.2, 0.1, 0.1, 0.05, 0.05],
                vec![0.05, 0.05, 0.6, 0.1, 0.1, 0.1],
                vec![1.0 / 6.0; 6],
            ],
            1,
            60_000,
        ),
        (
            "disjoint supports (pure residual path)",
            vec![0.0, 0.0, 0.6, 0.4],
            vec![vec![0.7, 0.3, 0.0, 0.0]],
            3,
            20_000,
        ),
        (
            "wide vocabulary, sloppy proposal",
            vec![0.3, 0.05, 0.2, 0.1, 0.15, 0.1, 0.05, 0.05],
            vec![vec![0.05, 0.3, 0.05, 0.2, 0.05, 0.05, 0.25, 0.05]],
            2,
            80_000,
        ),
    ];
    for (ci, (name, p, qs, k, trials)) in cases.iter().enumerate() {
        assert!(*trials >= 10_000);
        let mut rng = SeededRng::new(500 + ci as u64);
        let mut counts = vec![0u64; p.len()];
        for _ in 0..*trials {
            counts[mss_trial(p, qs, *k, &mut rng).0 as usize] += 1;
        }
        let (chi2, df) = chi_square(&counts, p);
        assert!(
            chi2 < CHI2_CRIT_1E4[df - 1],
            "{name}: χ² = {chi2:.2} > {:.2} at df = {df} (counts {counts:?})",
            CHI2_CRIT_1E4[df - 1]
        );
    }
}

/// Theorem 4.2 under the adaptive controller's regime: the draft width
/// switches *mid-stream* as a function of acceptance history — exactly
/// the data-dependent shape selection [`SpecController`] performs, here
/// modelled as a hysteresis ladder over widths 1..=4 that climbs on
/// acceptance and descends on rejection. Because the width chosen for
/// step `t` is measurable with respect to the history before step `t`,
/// every step's output marginal must still be exactly the target `p`;
/// we χ²-test the *last* step of each chain, whose width is maximally
/// history-dependent. A sampler that leaked the shape decision into the
/// residual distribution would overshoot the critical value by orders
/// of magnitude.
///
/// [`SpecController`]: specinfer_spec::SpecController
#[test]
fn theorem_4_2_chi_square_with_midstream_shape_switching() {
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Vec<f32>, Vec<Vec<f32>>, usize)> = vec![
        (
            "skewed proposal, switching widths",
            vec![0.25; 4],
            vec![vec![0.4, 0.3, 0.2, 0.1]],
            30_000,
        ),
        (
            "three disagreeing SSMs, switching widths",
            vec![0.1, 0.3, 0.05, 0.25, 0.2, 0.1],
            vec![
                vec![0.5, 0.2, 0.1, 0.1, 0.05, 0.05],
                vec![0.05, 0.05, 0.6, 0.1, 0.1, 0.1],
                vec![1.0 / 6.0; 6],
            ],
            30_000,
        ),
    ];
    const STEPS: usize = 6;
    for (ci, (name, p, qs, trials)) in cases.iter().enumerate() {
        let mut rng = SeededRng::new(700 + ci as u64);
        let mut counts = vec![0u64; p.len()];
        let mut widths_seen = [false; 4];
        for _ in 0..*trials {
            let mut width = 2usize;
            let mut last = 0u32;
            for _ in 0..STEPS {
                let (tok, rejected) = mss_trial(p, qs, width, &mut rng);
                // Controller-style ladder move, conditioned on this
                // step's outcome: descend on rejection, climb on accept.
                width = if rejected {
                    (width - 1).max(1)
                } else {
                    (width + 1).min(4)
                };
                widths_seen[width - 1] = true;
                last = tok;
            }
            counts[last as usize] += 1;
        }
        assert!(
            widths_seen.iter().all(|&w| w),
            "{name}: the ladder never visited every width — the schedule \
             is not actually switching"
        );
        let (chi2, df) = chi_square(&counts, p);
        assert!(
            chi2 < CHI2_CRIT_1E4[df - 1],
            "{name}: χ² = {chi2:.2} > {:.2} at df = {df} (counts {counts:?})",
            CHI2_CRIT_1E4[df - 1]
        );
    }
}

/// MSS accepts strictly more than NS in expectation when the SSM aligns
/// with the LLM — the effect behind Table 3.
#[test]
fn mss_accepts_more_than_naive_when_aligned() {
    let p = vec![0.4, 0.3, 0.2, 0.1];
    let qs = vec![vec![0.45, 0.3, 0.15, 0.1]];
    let trials = 30_000;
    let mut rng = SeededRng::new(9);
    let mss_accepts = (0..trials)
        .filter(|_| !mss_trial(&p, &qs, 2, &mut rng).1)
        .count() as f64;
    let mut rng = SeededRng::new(10);
    let ns_accepts = (0..trials)
        .filter(|_| !ns_trial(&p, &qs, 2, &mut rng).1)
        .count() as f64;
    assert!(
        mss_accepts > ns_accepts,
        "MSS accepted {mss_accepts} vs NS {ns_accepts} — expected a clear gap"
    );
}
