//! Training and distillation on the autograd tape.
//!
//! The tape forward pass here mirrors [`crate::Transformer::forward_rows`]
//! exactly (same weights, same architecture, and bit for bit on every
//! backend whose SwiGLU epilogue is libm's); the
//! `tape_forward_matches_inference` test pins that equivalence. Training
//! is what lets the workspace *create* aligned SSMs — next-token training
//! for the base LLM, hard- and soft-label distillation for SSMs, and the
//! boost-tuning corpus pipeline built on top (in `specinfer-spec`).

use specinfer_tensor::autograd::{Tape, Var};
use specinfer_tensor::ops;
use specinfer_tensor::optim::Optimizer;
use specinfer_tensor::Tensor;
use specinfer_tokentree::TokenId;

use crate::config::ModelConfig;
use crate::transformer::Transformer;

/// Weight variables registered on a tape, in
/// [`crate::ModelWeights::to_params`] order.
struct WeightVars {
    flat: Vec<Var>,
    embed: Var,
    layers: Vec<LayerVars>,
    final_norm: Var,
    lm_head: Var,
}

struct LayerVars {
    attn_norm: Var,
    wq: Var,
    wk: Var,
    wv: Var,
    wo: Var,
    ffn_norm: Var,
    w1: Var,
    w3: Var,
    w2: Var,
}

impl WeightVars {
    fn register(tape: &mut Tape, model: &Transformer) -> Self {
        let params = model.weights().to_params();
        let flat: Vec<Var> = params.into_iter().map(|p| tape.param(p)).collect();
        let n_layers = model.config().n_layers;
        // to_params layout: embed, 9 tensors per layer, final_norm,
        // lm_head — pinned by this assert, then safe to slice by index.
        assert_eq!(
            flat.len(),
            1 + 9 * n_layers + 2,
            "parameter ordering drifted"
        );
        let embed = flat[0];
        let layers = flat[1..1 + 9 * n_layers]
            .chunks_exact(9)
            .map(|c| LayerVars {
                attn_norm: c[0],
                wq: c[1],
                wk: c[2],
                wv: c[3],
                wo: c[4],
                ffn_norm: c[5],
                w1: c[6],
                w3: c[7],
                w2: c[8],
            })
            .collect();
        let final_norm = flat[flat.len() - 2];
        let lm_head = flat[flat.len() - 1];
        WeightVars {
            flat,
            embed,
            layers,
            final_norm,
            lm_head,
        }
    }
}

/// A lower-triangular additive causal mask `[len, len]` (0 on allowed
/// pairs, −∞ elsewhere), per Equation 4 of the paper.
fn causal_mask(len: usize) -> Tensor {
    let mut m = Tensor::full(&[len, len], f32::NEG_INFINITY);
    for (i, row) in m.data_mut().chunks_exact_mut(len).enumerate() {
        row[..=i].fill(0.0);
    }
    m
}

/// Builds the full teacher-forced forward pass for one sequence on the
/// tape, returning the logits node `[len, vocab]`.
fn tape_forward(
    tape: &mut Tape,
    vars: &WeightVars,
    config: &ModelConfig,
    tokens: &[TokenId],
) -> Var {
    let len = tokens.len();
    let hd = config.head_dim();
    let positions: Vec<usize> = (0..len).collect();
    let ids: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
    let mask = causal_mask(len);
    let scale = 1.0 / (hd as f32).sqrt();

    let mut x = tape.embedding(vars.embed, &ids);
    for layer in &vars.layers {
        let h = tape.rmsnorm(x, layer.attn_norm, ModelConfig::RMS_EPS);
        let q = tape.matmul(h, layer.wq);
        let k = tape.matmul(h, layer.wk);
        let v = tape.matmul(h, layer.wv);
        let q = tape.rope(q, &positions, hd, ModelConfig::ROPE_BASE);
        let k = tape.rope(k, &positions, hd, ModelConfig::ROPE_BASE);

        let mut heads = Vec::with_capacity(config.n_heads);
        for head in 0..config.n_heads {
            let qh = tape.slice_cols(q, head * hd, hd);
            let kh = tape.slice_cols(k, head * hd, hd);
            let vh = tape.slice_cols(v, head * hd, hd);
            let scores = tape.matmul_nt(qh, kh);
            let scores = tape.scale(scores, scale);
            let scores = tape.add_const(scores, &mask);
            let attn = tape.softmax_rows(scores);
            heads.push(tape.matmul(attn, vh));
        }
        let att = tape.concat_cols(&heads);
        let att = tape.matmul(att, layer.wo);
        x = tape.add(x, att);

        let h2 = tape.rmsnorm(x, layer.ffn_norm, ModelConfig::RMS_EPS);
        let g = tape.matmul(h2, layer.w1);
        let g = tape.silu(g);
        let lin = tape.matmul(h2, layer.w3);
        let f = tape.mul(g, lin);
        let f = tape.matmul(f, layer.w2);
        x = tape.add(x, f);
    }
    let h = tape.rmsnorm(x, vars.final_norm, ModelConfig::RMS_EPS);
    tape.matmul(h, vars.lm_head)
}

/// Tape-computed causal logits for a sequence; used by tests to pin the
/// train/inference equivalence.
pub fn tape_logits(model: &Transformer, tokens: &[TokenId]) -> Tensor {
    let mut tape = Tape::new();
    let vars = WeightVars::register(&mut tape, model);
    let logits = tape_forward(&mut tape, &vars, model.config(), tokens);
    tape.value(logits).clone()
}

/// One next-token training step over a batch of sequences (teacher
/// forcing): for each sequence, inputs are `seq[..len-1]` and targets
/// `seq[1..]`. Returns the mean cross-entropy loss.
///
/// # Panics
///
/// Panics if the batch is empty or any sequence is shorter than 2 tokens.
pub fn train_step(model: &mut Transformer, opt: &mut dyn Optimizer, batch: &[Vec<TokenId>]) -> f32 {
    assert!(!batch.is_empty(), "training batch must be non-empty");
    let mut tape = Tape::new();
    let vars = WeightVars::register(&mut tape, model);
    let mut total: Option<Var> = None;
    for seq in batch {
        assert!(
            seq.len() >= 2,
            "sequences need at least two tokens to train on"
        );
        let inputs = &seq[..seq.len() - 1];
        let targets: Vec<usize> = seq[1..].iter().map(|&t| t as usize).collect();
        let logits = tape_forward(&mut tape, &vars, model.config(), inputs);
        let loss = tape.cross_entropy(logits, &targets);
        total = Some(match total {
            Some(acc) => tape.add(acc, loss),
            None => loss,
        });
    }
    let mean = {
        let Some(t) = total else {
            unreachable!("batch non-emptiness is asserted at entry")
        };
        tape.scale(t, 1.0 / batch.len() as f32)
    };
    tape.backward(mean);
    let loss_value = tape.value(mean).data()[0];

    let mut params = model.weights().to_params();
    let grads: Vec<Option<Tensor>> = vars.flat.iter().map(|&v| tape.grad(v).cloned()).collect();
    opt.step(&mut params, &grads);
    model.weights_mut().assign_params(&params);
    loss_value
}

/// One distillation step: the student is trained to match the teacher's
/// full next-token distributions (soft labels) on the batch. Returns the
/// mean soft cross-entropy.
///
/// Teacher and student must share a vocabulary; they may differ in every
/// other dimension — that's the SSM/LLM capacity gap the paper builds on.
/// The teacher's distributions come from the tape forward, like the
/// student's: trained weights depend on training numerics alone, not on
/// which SwiGLU epilogue the serving backend runs.
///
/// # Panics
///
/// Panics if vocabularies differ, the batch is empty, or a sequence is
/// shorter than 2 tokens.
pub fn distill_step(
    student: &mut Transformer,
    opt: &mut dyn Optimizer,
    teacher: &Transformer,
    batch: &[Vec<TokenId>],
) -> f32 {
    assert_eq!(
        student.config().vocab_size,
        teacher.config().vocab_size,
        "student and teacher must share a vocabulary"
    );
    assert!(!batch.is_empty(), "distillation batch must be non-empty");
    let mut tape = Tape::new();
    let vars = WeightVars::register(&mut tape, student);
    let mut teacher_tape = Tape::new();
    let teacher_vars = WeightVars::register(&mut teacher_tape, teacher);
    let mut total: Option<Var> = None;
    for seq in batch {
        assert!(
            seq.len() >= 2,
            "sequences need at least two tokens to distill on"
        );
        let inputs = &seq[..seq.len() - 1];
        let teacher_logits =
            tape_forward(&mut teacher_tape, &teacher_vars, teacher.config(), inputs);
        let soft_targets = ops::softmax_rows(teacher_tape.value(teacher_logits));
        let logits = tape_forward(&mut tape, &vars, student.config(), inputs);
        let loss = tape.soft_cross_entropy(logits, &soft_targets);
        total = Some(match total {
            Some(acc) => tape.add(acc, loss),
            None => loss,
        });
    }
    let mean = {
        let Some(t) = total else {
            unreachable!("batch non-emptiness is asserted at entry")
        };
        tape.scale(t, 1.0 / batch.len() as f32)
    };
    tape.backward(mean);
    let loss_value = tape.value(mean).data()[0];

    let mut params = student.weights().to_params();
    let grads: Vec<Option<Tensor>> = vars.flat.iter().map(|&v| tape.grad(v).cloned()).collect();
    opt.step(&mut params, &grads);
    student.weights_mut().assign_params(&params);
    loss_value
}

/// Mean per-token negative log-likelihood of `sequences` under `model`
/// (teacher-forced, nats). The held-out quality metric reported by the
/// bench harness; lower is better, with the corpus entropy as the floor.
///
/// # Panics
///
/// Panics if `sequences` is empty or a sequence has fewer than 2 tokens.
pub fn evaluate_nll(model: &Transformer, sequences: &[Vec<TokenId>]) -> f64 {
    assert!(!sequences.is_empty(), "evaluation set must be non-empty");
    let mut total = 0.0f64;
    let mut count = 0usize;
    for seq in sequences {
        assert!(
            seq.len() >= 2,
            "sequences need at least two tokens to evaluate"
        );
        let logits = model.logits_for_sequence(&seq[..seq.len() - 1]);
        for (i, &target) in seq[1..].iter().enumerate() {
            let ls = ops::log_softmax(logits.row(i));
            total -= f64::from(ls[target as usize]);
            count += 1;
        }
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_tensor::optim::Adam;
    use specinfer_tensor::rng::SeededRng;

    #[test]
    fn tape_forward_matches_inference() {
        let model = Transformer::from_seed(ModelConfig::smoke(), 11);
        let seq: Vec<TokenId> = vec![1, 5, 2, 8, 3];
        let tape = tape_logits(&model, &seq);
        let inference = model.logits_for_sequence(&seq);
        let diff = tape.max_abs_diff(&inference);
        assert!(
            diff < 1e-3,
            "train and inference forward diverged by {diff}"
        );
        // Same kernels element for element, so the same bits — except
        // that AVX2 inference gates through its own polynomial SiLU.
        if specinfer_tensor::simd::backend() != specinfer_tensor::simd::SimdBackend::Avx2Fma {
            assert_eq!(tape.data(), inference.data());
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_pattern() {
        let mut model = Transformer::from_seed(ModelConfig::smoke(), 21);
        let mut opt = Adam::new(3e-3);
        // A deterministic cyclic pattern over 4 tokens.
        let seq: Vec<TokenId> = (0..24).map(|i| [3u32, 7, 11, 15][i % 4]).collect();
        let batch = vec![seq.clone(), seq.clone()];
        let first = train_step(&mut model, &mut opt, &batch);
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut model, &mut opt, &batch);
        }
        assert!(last < first * 0.5, "loss should halve: {first} → {last}");

        // The trained model should continue the cycle greedily.
        let logits = model.logits_for_sequence(&seq);
        let next = crate::sampler::greedy_token(logits.row(seq.len() - 1));
        assert_eq!(next, seq[0], "cycle should wrap around");
    }

    #[test]
    fn distillation_pulls_student_toward_teacher() {
        let teacher = Transformer::from_seed(ModelConfig::smoke(), 31);
        let mut student = Transformer::from_seed(
            ModelConfig {
                d_model: 8,
                n_heads: 2,
                n_layers: 1,
                d_ff: 16,
                ..ModelConfig::smoke()
            },
            32,
        );
        let mut rng = SeededRng::new(33);
        let batch: Vec<Vec<TokenId>> = (0..4)
            .map(|_| (0..12).map(|_| rng.below(32) as TokenId).collect())
            .collect();
        let mut opt = Adam::new(3e-3);
        let first = distill_step(&mut student, &mut opt, &teacher, &batch);
        let mut last = first;
        for _ in 0..40 {
            last = distill_step(&mut student, &mut opt, &teacher, &batch);
        }
        assert!(
            last < first,
            "distillation loss should fall: {first} → {last}"
        );
    }

    #[test]
    fn evaluate_nll_matches_training_loss_scale() {
        let model = Transformer::from_seed(ModelConfig::smoke(), 44);
        let seqs: Vec<Vec<TokenId>> = vec![vec![1, 2, 3, 4, 5], vec![6, 7, 8]];
        let nll = evaluate_nll(&model, &seqs);
        // An untrained model over vocab 32 sits near ln(32) ≈ 3.47.
        assert!(nll > 2.0 && nll < 6.0, "{nll}");
    }

    #[test]
    fn training_lowers_held_out_nll() {
        let mut model = Transformer::from_seed(ModelConfig::smoke(), 45);
        let seq: Vec<TokenId> = (0..24).map(|i| [2u32, 9, 17, 25][i % 4]).collect();
        let eval = vec![seq.clone()];
        let before = evaluate_nll(&model, &eval);
        let mut opt = Adam::new(3e-3);
        for _ in 0..30 {
            let _ = train_step(&mut model, &mut opt, std::slice::from_ref(&seq));
        }
        let after = evaluate_nll(&model, &eval);
        assert!(after < before * 0.7, "{before} → {after}");
    }

    #[test]
    #[should_panic(expected = "share a vocabulary")]
    fn distill_rejects_vocab_mismatch() {
        let teacher = Transformer::from_seed(ModelConfig::smoke(), 1);
        let mut cfg = ModelConfig::smoke();
        cfg.vocab_size = 64;
        let mut student = Transformer::from_seed(cfg, 2);
        let mut opt = Adam::new(1e-3);
        let _ = distill_step(&mut student, &mut opt, &teacher, &[vec![1, 2, 3]]);
    }
}
