//! The CLI subcommands.

use std::path::Path;
use std::sync::Arc;

use specinfer_model::train::{distill_step, train_step};
use specinfer_model::{checkpoint, DecodeMode, ModelConfig, Transformer};
use specinfer_serving::{QueuePolicy, ServerConfig, ServerDaemon, TimingConfig};
use specinfer_spec::{
    boost_tune_pool, AdaptiveConfig, BoostConfig, DegradationPolicy, DynamicExpansionConfig,
    EngineConfig, InferenceMode, SpecEngine, StochasticVerifier,
};
use specinfer_tensor::optim::Adam;
use specinfer_tensor::rng::SeededRng;
use specinfer_tokentree::ExpansionConfig;
use specinfer_workloads::{text, Dataset, Grammar, EOS_TOKEN};

use crate::args::Parsed;

/// The grammar every CLI command shares (same seed as the bench suite).
fn grammar() -> Grammar {
    Grammar::synthetic(256, 20_240_427)
}

fn arch(name: &str) -> Result<ModelConfig, String> {
    match name {
        "tiny-llm" => Ok(ModelConfig::tiny_llm()),
        "tiny-ssm" => Ok(ModelConfig::tiny_ssm()),
        "smoke" => Ok(ModelConfig::smoke()),
        other => Err(format!(
            "unknown --arch {other:?} (tiny-llm|tiny-ssm|smoke)"
        )),
    }
}

fn dataset(name: &str) -> Result<Dataset, String> {
    match name.to_ascii_lowercase().as_str() {
        "alpaca" => Ok(Dataset::Alpaca),
        "cp" => Ok(Dataset::Cp),
        "webqa" => Ok(Dataset::WebQa),
        "cip" => Ok(Dataset::Cip),
        "piqa" => Ok(Dataset::Piqa),
        other => Err(format!("unknown --dataset {other:?}")),
    }
}

fn load_model(path: &str) -> Result<Transformer, String> {
    checkpoint::load(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

/// Folds grammar tokens into a smaller vocabulary (only relevant for the
/// `smoke` test architecture, whose vocab is below the grammar's 256).
fn fold_vocab(seqs: Vec<Vec<u32>>, vocab: usize) -> Vec<Vec<u32>> {
    if vocab >= 256 {
        return seqs;
    }
    seqs.into_iter()
        .map(|s| s.into_iter().map(|t| t % vocab as u32).collect())
        .collect()
}

/// `specinfer train` — next-token training on the synthetic corpus.
pub fn train(args: &Parsed) -> Result<(), String> {
    let out = args.require("out")?;
    let epochs: usize = args.num("epochs", 6)?;
    let seed: u64 = args.num("seed", 1)?;
    let config = arch(args.get("arch").unwrap_or("tiny-llm"))?;

    let g = grammar();
    let corpus = fold_vocab(
        g.training_corpus(480, 48, seed ^ 0xC0FFEE),
        config.vocab_size,
    );
    let mut model = Transformer::from_seed(config, seed);
    let mut opt = Adam::new(3e-3);
    let mut rng = SeededRng::new(seed ^ 0xBEEF);
    for epoch in 0..epochs {
        let order = rng.permutation(corpus.len());
        let mut last = 0.0;
        for chunk in order.chunks(8) {
            let batch: Vec<Vec<u32>> = chunk.iter().map(|&i| corpus[i].clone()).collect();
            last = train_step(&mut model, &mut opt, &batch);
        }
        if !args.switch("quiet") {
            eprintln!("epoch {}/{epochs}: loss {last:.3}", epoch + 1);
        }
    }
    checkpoint::save(&model, Path::new(out)).map_err(|e| e.to_string())?;
    println!("saved {} ({} params)", out, model.weights().param_count());
    Ok(())
}

/// `specinfer distill` — soft-label distillation from a teacher
/// checkpoint.
pub fn distill(args: &Parsed) -> Result<(), String> {
    let teacher = load_model(args.require("teacher")?)?;
    let out = args.require("out")?;
    let epochs: usize = args.num("epochs", 7)?;
    let seed: u64 = args.num("seed", 2)?;
    let config = arch(args.get("arch").unwrap_or("tiny-ssm"))?;

    let g = grammar();
    let corpus = fold_vocab(
        g.training_corpus(320, 48, seed ^ 0xD15711),
        config.vocab_size,
    );
    if teacher.config().vocab_size != config.vocab_size {
        return Err(format!(
            "teacher vocab {} does not match --arch vocab {}",
            teacher.config().vocab_size,
            config.vocab_size
        ));
    }
    let mut student = Transformer::from_seed(config, seed);
    let mut opt = Adam::new(3e-3);
    let mut rng = SeededRng::new(seed ^ 0xFACE);
    for epoch in 0..epochs {
        let order = rng.permutation(corpus.len());
        let mut last = 0.0;
        for chunk in order.chunks(8) {
            let batch: Vec<Vec<u32>> = chunk.iter().map(|&i| corpus[i].clone()).collect();
            last = distill_step(&mut student, &mut opt, &teacher, &batch);
        }
        if !args.switch("quiet") {
            eprintln!("epoch {}/{epochs}: distill loss {last:.3}", epoch + 1);
        }
    }
    checkpoint::save(&student, Path::new(out)).map_err(|e| e.to_string())?;
    println!("saved {} ({} params)", out, student.weights().param_count());
    Ok(())
}

/// `specinfer boost` — the §3 boost-tuning pipeline, saving one
/// checkpoint per pool member.
pub fn boost(args: &Parsed) -> Result<(), String> {
    let teacher = load_model(args.require("teacher")?)?;
    let out_dir = Path::new(args.require("out-dir")?);
    let n: usize = args.num("n", 3)?;
    let epochs: usize = args.num("epochs", 4)?;
    let seed: u64 = args.num("seed", 3)?;

    let g = grammar();
    let mut rng = SeededRng::new(seed);
    let prompts: Vec<Vec<u32>> = (0..128)
        .map(|i| {
            let mut p = g.sample_sequence(Some(i % 5), 8, &mut rng);
            p.truncate(9);
            p
        })
        .collect();
    let cfg = BoostConfig {
        n_ssms: n,
        ssm_config: ModelConfig::tiny_ssm(),
        epochs,
        batch_size: 8,
        lr: 3e-3,
        gen_len: 16,
        match_horizon: 3,
        seed,
    };
    let result = boost_tune_pool(&teacher, &prompts, &cfg);
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    for (i, ssm) in result.ssms.iter().enumerate() {
        let path = out_dir.join(format!("ssm{i}.ckpt"));
        checkpoint::save(ssm, &path).map_err(|e| e.to_string())?;
        println!("saved {}", path.display());
    }
    println!(
        "round coverage: {:?}; union coverage {:.2}",
        result.round_coverage, result.union_coverage
    );
    Ok(())
}

fn inference_mode(args: &Parsed) -> Result<InferenceMode, String> {
    Ok(match args.get("mode").unwrap_or("tree") {
        "incremental" => InferenceMode::Incremental,
        "sequence" => InferenceMode::SequenceSpeculative { depth: 8 },
        "tree" => InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::paper_default(),
        },
        "dynamic" => InferenceMode::DynamicTree {
            config: DynamicExpansionConfig::default(),
        },
        "adaptive" => InferenceMode::Adaptive {
            config: AdaptiveConfig::default(),
        },
        other => return Err(format!("unknown --mode {other:?}")),
    })
}

/// `specinfer generate` — one generation, printed as pseudo-text with
/// speculation statistics.
pub fn generate(args: &Parsed) -> Result<(), String> {
    let llm = load_model(args.require("llm")?)?;
    let ssms: Vec<Transformer> = args
        .get_all("ssm")
        .into_iter()
        .map(load_model)
        .collect::<Result<_, _>>()?;
    let tokens: usize = args.num("tokens", 48)?;
    let seed: u64 = args.num("seed", 0)?;
    let ds = dataset(args.get("dataset").unwrap_or("alpaca"))?;

    let g = grammar();
    let mut prompt = ds.prompts(&g, 1, 10, tokens, seed ^ 0x9999).remove(0);
    prompt.tokens = fold_vocab(vec![prompt.tokens], llm.config().vocab_size).remove(0);
    let prompt = &prompt;
    let decode = if args.switch("stochastic") {
        DecodeMode::stochastic()
    } else {
        DecodeMode::Greedy
    };
    let config = EngineConfig {
        decode,
        verifier: StochasticVerifier::MultiStep,
        mode: inference_mode(args)?,
        max_new_tokens: tokens,
        eos_token: Some(EOS_TOKEN),
    };
    // An empty pool decodes every mode incrementally; asking for a fixed
    // speculative shape without a drafter is a mistake worth naming.
    // Adaptive is exempt: serving incrementally is one of its rungs.
    let with_an_ssm = config.pool_speculation_rows(1);
    if ssms.is_empty() && with_an_ssm.worst_case > 1 && !with_an_ssm.adapts {
        return Err("speculative modes need at least one --ssm".into());
    }
    let engine = SpecEngine::new(&llm, ssms.iter().collect(), config);
    let audit = args.switch("audit");
    let is_greedy = matches!(engine.config().decode, DecodeMode::Greedy);
    let result = engine.generate(&prompt.tokens, seed);
    println!("prompt : {}", text::render(&prompt.tokens));
    println!("output : {}", text::render(result.generated()));
    println!(
        "stats  : {} tokens in {} LLM steps ({:.2} tokens/step)",
        result.generated().len(),
        result.llm_steps(),
        result.tokens_per_step()
    );
    if audit {
        if !is_greedy {
            return Err("--audit requires greedy decoding (drop --stochastic)".into());
        }
        let report = specinfer_spec::audit_greedy(&llm, &result);
        if report.lossless {
            println!("audit  : lossless ✓ (matches incremental decoding exactly)");
        } else {
            return Err(format!(
                "audit FAILED: first divergence at generated position {:?}",
                report.first_divergence
            ));
        }
    }
    Ok(())
}

/// `specinfer serve` — spins up the live daemon, pushes a batch of
/// requests through it, prints the report.
pub fn serve(args: &Parsed) -> Result<(), String> {
    let llm = Arc::new(load_model(args.require("llm")?)?);
    let ssms: Vec<Arc<Transformer>> = args
        .get_all("ssm")
        .into_iter()
        .map(|p| load_model(p).map(Arc::new))
        .collect::<Result<_, _>>()?;
    if ssms.is_empty() {
        return Err("serve needs at least one --ssm".into());
    }
    let requests: usize = args.num("requests", 8)?;
    let batch: usize = args.num("batch", 4)?;
    let tokens: usize = args.num("tokens", 32)?;
    let seed: u64 = args.num("seed", 0)?;
    let mode = if args.get("mode").is_some() {
        inference_mode(args)?
    } else {
        InferenceMode::TreeSpeculative {
            expansion: ExpansionConfig::paper_default(),
        }
    };

    let g = grammar();
    let vocab = llm.config().vocab_size;
    let daemon = ServerDaemon::spawn(
        llm,
        ssms,
        ServerConfig {
            engine: EngineConfig {
                decode: DecodeMode::Greedy,
                verifier: StochasticVerifier::MultiStep,
                mode,
                max_new_tokens: tokens,
                eos_token: Some(EOS_TOKEN),
            },
            max_batch_size: batch,
            timing: TimingConfig::llama_7b_single_gpu(),
            seed,
            faults: None,
            degradation: DegradationPolicy::serving_default(),
            queue: QueuePolicy::unbounded(),
            slab_rows: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let datasets = Dataset::all();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            let ds = datasets[i % datasets.len()];
            let prompt = ds.prompts(&g, 1, 10, tokens, seed + i as u64).remove(0);
            let folded = fold_vocab(vec![prompt.tokens], vocab).remove(0);
            daemon.submit(folded, tokens)
        })
        .collect();
    for t in tickets {
        let r = t
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?;
        println!(
            "{}: {} tokens, {:.2} tokens/step, {:.1} ms/token (simulated)",
            r.id,
            r.generated.len(),
            r.tokens_per_step(),
            r.per_token_latency_s() * 1e3
        );
    }
    let report = daemon.shutdown().map_err(|e| e.to_string())?;
    println!(
        "served {} requests in {} iterations; mean {:.1} ms/token, {:.0} tokens/s (simulated)",
        report.responses.len(),
        report.iterations,
        report.mean_per_token_latency_s() * 1e3,
        report.throughput_tokens_per_s()
    );
    if report.controller.rung_decisions.iter().any(|&d| d > 0) {
        println!(
            "controller: rung decisions {:?}, ssm routes {:?}, {} probes",
            report.controller.rung_decisions,
            report.controller.ssm_routes,
            report.controller.probes
        );
    }
    if report.verify_rows.single_pass_rows > 0 {
        println!(
            "verify rows: {} forwarded frontier-first of {} in whole trees ({} pruned)",
            report.verify_rows.forwarded_rows(),
            report.verify_rows.single_pass_rows,
            report.verify_rows.pruned_rows()
        );
    }
    Ok(())
}

/// `specinfer inspect` — prints a checkpoint's configuration.
pub fn inspect(args: &Parsed) -> Result<(), String> {
    let model = load_model(args.require("ckpt")?)?;
    let c = model.config();
    println!(
        "vocab {} | d_model {} | layers {} | heads {} | d_ff {} | max_seq {} | {} params",
        c.vocab_size,
        c.d_model,
        c.n_layers,
        c.n_heads,
        c.d_ff,
        c.max_seq_len,
        model.weights().param_count()
    );
    Ok(())
}
