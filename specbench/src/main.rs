//! `specbench` — the serving benchmark of the SpecInfer reproduction.
//!
//! ```text
//! specbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! specbench all      [--seed <n>] [--seconds <s>]   every workload, both runs
//! specbench prepare                                  build the model fixture
//! specbench check                                    quick contract check
//! specbench aa       [--seed <n>] [--seconds <s>]   same binary twice, compared
//! ```
//!
//! See `specbench/README.md` for the metrics and the workloads.

mod check;
mod components;
mod drive;
mod fixture;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use fixture::Fixture;
use run::Outcome;
use workloads::Workload;

/// Seconds one run measures when `--seconds` is not given; the value
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: f64 = 40.0;

/// Where the fixture cache and the span files go: the Cargo target
/// directory, which the repository's `.gitignore` already covers.
fn artefacts_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target.join("specbench")
}

/// The options shared by the subcommands.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One run of one workload, printed: the table, then the result line.
fn run_one(
    fixture: &Fixture,
    workload: &Workload,
    o: &Options,
    trace: bool,
) -> Result<Outcome, String> {
    let outcome = if trace {
        traced::traced(
            fixture,
            workload,
            o.seed,
            o.seconds,
            components::CALL_BUDGET_S,
            &artefacts_dir(),
        )?
    } else {
        run::end_to_end(fixture, workload, o.seed, o.seconds)?
    };
    print!("{}", outcome.table(workload.name));
    println!("{}", outcome.json_line());
    Ok(outcome)
}

/// Every workload, end to end and traced, each run in a process of its
/// own — as the driver runs them — so that one run's memory never shows
/// in the next one's `peak_rss_mb`.
fn all(o: &Options) -> Result<bool, String> {
    let mut correct = true;
    let mut end_to_end = Vec::new();
    for workload in workloads::all() {
        if !workload.declared {
            println!(
                "{} is not declared in BENCHMARK.json: its numbers are for attribution, no bound applies",
                workload.name
            );
        }
        for trace in [false, true] {
            let result = check::child_run(workload.name, o.seed, o.seconds, trace)?;
            print!("{}", result.stdout);
            correct &= result.correct;
            if !trace {
                end_to_end.push((workload.name, result));
            }
        }
    }
    check::chat_digests_agree(&end_to_end)?;
    Ok(correct)
}

/// The fixture cache, obtained by `get` ([`Fixture::ensure`] or
/// [`Fixture::prepare`]); warns when its weights are not the ones pinned
/// for this machine's SIMD backend.
fn fixture(get: fn(&std::path::Path) -> Result<Fixture, String>) -> Result<Fixture, String> {
    let fixture = get(&artefacts_dir())?;
    if let Some(pinned) = fixture.pinned_digest() {
        if pinned != fixture.info.weight_digest {
            eprintln!(
                "[specbench] warning: fixture weight digest {} differs from the {} pinned for backend {}: \
                 training numerics changed, so results are not comparable with earlier ones",
                fixture.info.weight_digest, pinned, fixture.info.backend
            );
        }
    }
    Ok(fixture)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .ok_or("usage: specbench <run|all|prepare|check|aa> [--workload W] [--seed N] [--seconds S] [--trace 0|1]")?;
    let o = parse(rest)?;
    // The command line is checked in full before the fixture is touched:
    // a refused invocation must not spend half a minute training first.
    match command.as_str() {
        "prepare" => {
            let fixture = fixture(Fixture::prepare)?;
            println!(
                "fixture {} backend {} weight digest {} (built in {:.1} s, primary SSM top-1 agreement {:.3})",
                fixture.dir.display(),
                fixture.info.backend,
                fixture.info.weight_digest,
                fixture.info.build_s,
                fixture.info.ssm_top1_agree
            );
            Ok(true)
        }
        "run" => {
            let name = o.workload.as_deref().ok_or("run needs --workload")?;
            let workload = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; the workloads are {names:?}")
            })?;
            // A run that printed its result line exits 0 even when
            // outputs were wrong: the line's `correct` and `failed` say so.
            let outcome = run_one(&fixture(Fixture::ensure)?, &workload, &o, o.trace)?;
            if !outcome.correct() {
                eprintln!(
                    "[specbench] {} of {} requests failed",
                    outcome.failed, outcome.attempted
                );
            }
            Ok(true)
        }
        // `all` and `aa` only start child runs; the first child builds
        // the fixture.
        "all" => all(&o),
        "check" => check::check(&fixture(Fixture::ensure)?, &artefacts_dir()).map(|()| true),
        "aa" => check::aa(o.seed, o.seconds, &artefacts_dir()),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[specbench] FAILED");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("[specbench] error: {e}");
            ExitCode::from(1)
        }
    }
}
