//! The benchmark's models: built once per checkout from the recipe
//! below, cached as checkpoints, loaded (and inflated) by every run.
//!
//! `small` is `ModelConfig::tiny_llm()` trained on the synthetic grammar
//! with a pool of three aligned `tiny_ssm`s. `inflated` is the same LLM
//! with every feed-forward matrix zero-padded from `d_ff = 256` to
//! `d_ff = 8192`: the padded channels compute `silu(0)·0 = 0` and add an
//! exact `0.0` to each `w2` reduction, so the function is unchanged while
//! one decode now streams ~29 MB of weights — the memory-bound regime
//! (LLM:SSM cost ≈ 100×) in which the paper's speed-up lives.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use specinfer_model::train::{distill_step, train_step};
use specinfer_model::{checkpoint, sampler, DecodeMode, ModelConfig, Transformer};
use specinfer_spec::{
    boost_tune_pool, BoostConfig, EngineConfig, InferenceMode, SpecEngine, StochasticVerifier,
};
use specinfer_tensor::optim::Adam;
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::Tensor;
use specinfer_tokentree::TokenId;
use specinfer_workloads::Grammar;

use crate::stats::Fnv;

/// Seed of the synthetic language every model is trained on.
pub const GRAMMAR_SEED: u64 = 20_240_427;
/// Feed-forward width of the inflated LLM.
pub const INFLATED_D_FF: usize = 8192;

// The training recipe. Every constant is part of the cache key below.
const LLM_CORPUS: (usize, usize, u64) = (480, 48, 11);
const LLM_EPOCHS: usize = 6;
const LLM_SHUFFLE_SEED: u64 = 13;
const SSM_CORPUS: (usize, usize, u64) = (320, 48, 17);
const SSM_EPOCHS: usize = 7;
const SSM_SHUFFLE_SEED: u64 = 19;
const BOOST_PROMPTS: usize = 192;
const BOOST_PROMPT_SEED: u64 = 23;
const BOOST_SSMS: usize = 2;
const BOOST_EPOCHS: usize = 5;
const BOOST_GEN_LEN: usize = 24;
const BOOST_HORIZON: usize = 3;
const BOOST_SEED: u64 = 29;
const BATCH: usize = 8;
const LR: f32 = 3e-3;

/// Checkpoint file names, pool order: the distilled primary first.
const SSM_FILES: [&str; 3] = ["ssm_primary.ckpt", "ssm_boost0.ckpt", "ssm_boost1.ckpt"];
const LLM_FILE: &str = "llm.ckpt";
const INFO_FILE: &str = "info.json";

/// Which LLM a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlmKind {
    /// `tiny_llm`, L2-resident: forwards are cheap and compute-bound.
    Small,
    /// `tiny_llm` with `d_ff` padded to [`INFLATED_D_FF`]: one decode is
    /// a 29 MB weight read.
    Inflated,
}

/// The models of one run.
pub struct Models {
    pub llm: Arc<Transformer>,
    pub ssms: Vec<Arc<Transformer>>,
}

impl Models {
    pub fn ssm_refs(&self) -> Vec<&Transformer> {
        self.ssms.iter().map(Arc::as_ref).collect()
    }
}

/// What the fixture builder recorded about the cached models.
#[derive(Debug, Clone)]
pub struct FixtureInfo {
    /// Seconds the build took when the cache was written.
    pub build_s: f64,
    /// FNV-1a over every weight bit of the four checkpoints.
    pub weight_digest: String,
    /// Share of held-out positions where the primary SSM's greedy token
    /// equals the LLM's.
    pub ssm_top1_agree: f64,
    /// SIMD backend the models were trained on.
    pub backend: String,
}

/// The cached fixture directory.
pub struct Fixture {
    pub dir: PathBuf,
    pub info: FixtureInfo,
}

fn recipe_hash() -> String {
    let mut h = Fnv::new();
    let recipe = format!(
        "v1 grammar={GRAMMAR_SEED} llm={:?} corpus={LLM_CORPUS:?}x{LLM_EPOCHS}@{LLM_SHUFFLE_SEED} \
         ssm={:?} corpus={SSM_CORPUS:?}x{SSM_EPOCHS}@{SSM_SHUFFLE_SEED} \
         boost={BOOST_SSMS}x{BOOST_EPOCHS} prompts={BOOST_PROMPTS}@{BOOST_PROMPT_SEED} \
         gen={BOOST_GEN_LEN} horizon={BOOST_HORIZON} seed={BOOST_SEED} batch={BATCH} lr={LR}",
        ModelConfig::tiny_llm(),
        ModelConfig::tiny_ssm(),
    );
    h.bytes(recipe.as_bytes());
    h.hex()
}

/// The synthetic language of the fixture and of every workload's prompts.
pub fn grammar() -> Grammar {
    Grammar::synthetic(256, GRAMMAR_SEED)
}

impl Fixture {
    fn dir(artefacts: &Path) -> PathBuf {
        artefacts.join(format!("fixture-{}", recipe_hash()))
    }

    /// Returns the cached fixture under `artefacts`, building it first
    /// when the cache is missing or unreadable. The build runs in a child
    /// process (`specbench prepare`), so that a first run measures from a
    /// heap as clean as every later run's: training in this process left
    /// `peak_rss_mb` 27 MB higher.
    pub fn ensure(artefacts: &Path) -> Result<Fixture, String> {
        let dir = Self::dir(artefacts);
        if let Some(info) = read_info(&dir) {
            return Ok(Fixture { dir, info });
        }
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let status = std::process::Command::new(exe)
            .arg("prepare")
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the fixture build: {e}"))?;
        match read_info(&dir) {
            Some(info) if status.success() => Ok(Fixture { dir, info }),
            _ => Err(format!("the fixture build ended with {status}")),
        }
    }

    /// `specbench prepare`: builds the fixture in this process unless it
    /// is cached. Training runs on one thread — the values are bitwise the
    /// same at every thread count, and the kernels' thread spawn per
    /// matmul makes a two-thread build no faster when the machine is calm
    /// and many times slower while the host is busy.
    pub fn prepare(artefacts: &Path) -> Result<Fixture, String> {
        let dir = Self::dir(artefacts);
        if let Some(info) = read_info(&dir) {
            return Ok(Fixture { dir, info });
        }
        eprintln!(
            "[specbench] building fixture in {} (about 20 s)",
            dir.display()
        );
        specinfer_tensor::set_max_threads(1);
        let info = build(&dir)?;
        Ok(Fixture { dir, info })
    }

    /// Loads the checkpoints from disk; `Inflated` pads the LLM on top.
    pub fn load(&self, kind: LlmKind) -> Result<Models, String> {
        let load = |name: &str| {
            checkpoint::load(&self.dir.join(name))
                .map_err(|e| format!("cannot load {name} from {}: {e}", self.dir.display()))
        };
        let small = load(LLM_FILE)?;
        let llm = match kind {
            LlmKind::Small => small,
            LlmKind::Inflated => inflate(&small, INFLATED_D_FF),
        };
        let mut ssms = Vec::with_capacity(SSM_FILES.len());
        for name in SSM_FILES {
            ssms.push(Arc::new(load(name)?));
        }
        Ok(Models {
            llm: Arc::new(llm),
            ssms,
        })
    }

    /// The un-inflated LLM the oracle decodes on: `models`' own when they
    /// are the small ones, a fresh load otherwise.
    pub fn small_llm(&self, models: &Models) -> Result<Arc<Transformer>, String> {
        if models.llm.config().d_ff == ModelConfig::tiny_llm().d_ff {
            Ok(models.llm.clone())
        } else {
            Ok(self.load(LlmKind::Small)?.llm)
        }
    }

    /// The digest pinned in `specbench/FIXTURE_DIGESTS.json` for this
    /// machine's SIMD backend, when there is one.
    pub fn pinned_digest(&self) -> Option<String> {
        let pins: serde_json::Value =
            serde_json::from_str(include_str!("../FIXTURE_DIGESTS.json")).ok()?;
        match pins.get(&self.info.backend)? {
            serde_json::Value::String(s) => Some(s.clone()),
            _ => None,
        }
    }
}

fn read_info(dir: &Path) -> Option<FixtureInfo> {
    let text = std::fs::read_to_string(dir.join(INFO_FILE)).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let num = |k: &str| match v.get(k)? {
        serde_json::Value::Number(n) => Some(*n),
        _ => None,
    };
    let text = |k: &str| match v.get(k)? {
        serde_json::Value::String(s) => Some(s.clone()),
        _ => None,
    };
    Some(FixtureInfo {
        build_s: num("build_s")?,
        weight_digest: text("weight_digest")?,
        ssm_top1_agree: num("ssm_top1_agree")?,
        backend: text("backend")?,
    })
}

fn build(dir: &Path) -> Result<FixtureInfo, String> {
    let started = Instant::now();
    let grammar = grammar();
    let llm = train_llm(&grammar);
    let primary = distill_ssm(&llm, &grammar);
    let boosted = boost_pool(&llm, &grammar);
    let mut pool = vec![primary];
    pool.extend(boosted);

    check_inflation(&llm, &grammar)?;

    let mut digest = Fnv::new();
    for model in std::iter::once(&llm).chain(&pool) {
        for p in model.weights().to_params() {
            for v in p.data() {
                digest.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }
    let info = FixtureInfo {
        build_s: started.elapsed().as_secs_f64(),
        weight_digest: digest.hex(),
        ssm_top1_agree: top1_agreement(&llm, &pool[0], &grammar),
        backend: specinfer_tensor::simd::backend().name().to_string(),
    };

    // Written into a directory of this process's own and renamed into
    // place when complete, so that a concurrent run never loads a
    // half-written checkpoint. Training is deterministic: when two
    // processes build at once, whichever renames first wins and the other
    // discards an identical copy.
    let staging = dir.with_extension(format!("tmp{}", std::process::id()));
    std::fs::create_dir_all(&staging)
        .map_err(|e| format!("cannot create {}: {e}", staging.display()))?;
    let save = |name: &str, model: &Transformer| {
        checkpoint::save(model, &staging.join(name)).map_err(|e| format!("cannot save {name}: {e}"))
    };
    save(LLM_FILE, &llm)?;
    for (name, model) in SSM_FILES.iter().zip(&pool) {
        save(name, model)?;
    }
    let json = format!(
        "{{\"build_s\": {}, \"weight_digest\": \"{}\", \"ssm_top1_agree\": {}, \"backend\": \"{}\"}}\n",
        info.build_s, info.weight_digest, info.ssm_top1_agree, info.backend
    );
    std::fs::write(staging.join(INFO_FILE), json)
        .map_err(|e| format!("cannot write {INFO_FILE}: {e}"))?;
    if read_info(dir).is_none() {
        // An unreadable cache is in the way of the rename.
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Err(e) = std::fs::rename(&staging, dir) {
        let _ = std::fs::remove_dir_all(&staging);
        return read_info(dir)
            .ok_or_else(|| format!("cannot move the fixture into {}: {e}", dir.display()));
    }
    Ok(info)
}

fn train_epochs(
    corpus: &[Vec<TokenId>],
    epochs: usize,
    shuffle_seed: u64,
    mut step: impl FnMut(&[Vec<TokenId>]),
) {
    let mut rng = SeededRng::new(shuffle_seed);
    for _ in 0..epochs {
        let order = rng.permutation(corpus.len());
        for chunk in order.chunks(BATCH) {
            let batch: Vec<Vec<TokenId>> = chunk.iter().map(|&i| corpus[i].clone()).collect();
            step(&batch);
        }
    }
}

fn train_llm(grammar: &Grammar) -> Transformer {
    let mut llm = Transformer::from_seed(ModelConfig::tiny_llm(), 1);
    let (n, len, seed) = LLM_CORPUS;
    let corpus = grammar.training_corpus(n, len, seed);
    let mut opt = Adam::new(LR);
    train_epochs(&corpus, LLM_EPOCHS, LLM_SHUFFLE_SEED, |batch| {
        train_step(&mut llm, &mut opt, batch);
    });
    llm
}

fn distill_ssm(llm: &Transformer, grammar: &Grammar) -> Transformer {
    let mut ssm = Transformer::from_seed(ModelConfig::tiny_ssm(), 2);
    let (n, len, seed) = SSM_CORPUS;
    let corpus = grammar.training_corpus(n, len, seed);
    let mut opt = Adam::new(LR);
    train_epochs(&corpus, SSM_EPOCHS, SSM_SHUFFLE_SEED, |batch| {
        distill_step(&mut ssm, &mut opt, llm, batch);
    });
    ssm
}

fn boost_pool(llm: &Transformer, grammar: &Grammar) -> Vec<Transformer> {
    let mut rng = SeededRng::new(BOOST_PROMPT_SEED);
    let prompts: Vec<Vec<TokenId>> = (0..BOOST_PROMPTS)
        .map(|i| {
            let mut p = grammar.sample_sequence(Some(i % 5), 8, &mut rng);
            p.truncate(9);
            p
        })
        .collect();
    let cfg = BoostConfig {
        n_ssms: BOOST_SSMS,
        ssm_config: ModelConfig::tiny_ssm(),
        epochs: BOOST_EPOCHS,
        batch_size: BATCH,
        lr: LR,
        gen_len: BOOST_GEN_LEN,
        match_horizon: BOOST_HORIZON,
        seed: BOOST_SEED,
    };
    boost_tune_pool(llm, &prompts, &cfg).ssms
}

/// `small` with every layer's `w1`/`w3` zero-padded to `[d, d_ff]` and
/// `w2` to `[d_ff, d]`.
pub fn inflate(small: &Transformer, d_ff: usize) -> Transformer {
    let mut config = small.config().clone();
    let mut weights = small.weights().clone();
    for layer in &mut weights.layers {
        layer.w1 = pad_cols(&layer.w1, d_ff);
        layer.w3 = pad_cols(&layer.w3, d_ff);
        let mut w2 = layer.w2.data().to_vec();
        w2.resize(d_ff * layer.w2.cols(), 0.0);
        layer.w2 = Tensor::from_vec(w2, &[d_ff, layer.w2.cols()]);
    }
    config.d_ff = d_ff;
    Transformer::new(config, weights)
}

fn pad_cols(t: &Tensor, cols: usize) -> Tensor {
    let mut data = Vec::with_capacity(t.rows() * cols);
    for r in 0..t.rows() {
        data.extend_from_slice(t.row(r));
        data.resize((r + 1) * cols, 0.0);
    }
    Tensor::from_vec(data, &[t.rows(), cols])
}

/// Greedy continuation of `prompt`, `len` tokens, by a serial
/// [`SpecEngine`] in incremental mode — the reference every served
/// output is compared against.
pub fn greedy_reference(model: &Transformer, prompt: &[TokenId], len: usize) -> Vec<TokenId> {
    let config = EngineConfig {
        decode: DecodeMode::Greedy,
        verifier: StochasticVerifier::MultiStep,
        mode: InferenceMode::Incremental,
        max_new_tokens: len,
        eos_token: None,
    };
    let mut out = SpecEngine::new(model, Vec::new(), config)
        .generate(prompt, 0)
        .generated()
        .to_vec();
    out.truncate(len);
    out
}

/// The inflation must not change the function: eight prompts decode to
/// the same tokens on both models.
fn check_inflation(small: &Transformer, grammar: &Grammar) -> Result<(), String> {
    let inflated = inflate(small, INFLATED_D_FF);
    let mut rng = SeededRng::new(0x1F1A);
    for i in 0..8 {
        let mut prompt = grammar.sample_sequence(Some(i % 5), 24, &mut rng);
        prompt.retain(|&t| t != specinfer_workloads::EOS_TOKEN);
        let want = greedy_reference(small, &prompt, 32);
        let got = greedy_reference(&inflated, &prompt, 32);
        if want != got {
            return Err(format!(
                "inflated LLM diverges from small on check prompt {i}: {got:?} vs {want:?}"
            ));
        }
    }
    Ok(())
}

fn top1_agreement(llm: &Transformer, ssm: &Transformer, grammar: &Grammar) -> f64 {
    let held_out = grammar.training_corpus(24, 48, 0xE7A1);
    let (mut agree, mut total) = (0usize, 0usize);
    for seq in &held_out {
        let a = llm.logits_for_sequence(seq);
        let b = ssm.logits_for_sequence(seq);
        for r in 0..a.rows() {
            agree +=
                usize::from(sampler::greedy_token(a.row(r)) == sampler::greedy_token(b.row(r)));
            total += 1;
        }
    }
    agree as f64 / total.max(1) as f64
}
