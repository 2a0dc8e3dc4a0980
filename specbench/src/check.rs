//! `specbench check` — the benchmark against its own declaration in
//! `BENCHMARK.json` — and `specbench aa` — the same binary measured
//! twice, compared against the declared bounds.

use std::path::Path;

use serde_json::Value;

use crate::fixture::Fixture;
use crate::run::{self, Metric, Outcome};
use crate::traced;
use crate::workloads;

/// The declaration, next to the benchmark's directory.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// `check` runs lists this many times shorter than a real run's.
const CHECK_DIVISOR: usize = 40;
const CHECK_SECONDS: f64 = 0.5;
/// Seconds `check` lets the component replay repeat one call.
const CHECK_CALL_BUDGET_S: f64 = 0.01;

/// One declared metric.
struct Declared {
    name: String,
    unit: String,
    /// Larger is better.
    higher: bool,
    /// Absent on per-layer metrics.
    bound: Option<f64>,
}

struct Declaration {
    workloads: Vec<(String, String)>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
    run_seconds: f64,
}

fn text<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(format!(
            "BENCHMARK.json: `{key}` is missing or not a string"
        )),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v.get(key) {
        Some(Value::Array(a)) => Ok(a),
        _ => Err(format!("BENCHMARK.json: `{key}` is missing or not a list")),
    }
}

fn name_ok(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn declared(v: &Value, bounded: bool) -> Result<Declared, String> {
    let name = text(v, "name")?.to_string();
    let unit = text(v, "unit")?.to_string();
    if !name_ok(&name, "_.-", 64) || !name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
        return Err(format!("BENCHMARK.json: bad metric name `{name}`"));
    }
    if !name_ok(&unit, "_/%.-", 16) {
        return Err(format!("BENCHMARK.json: bad unit `{unit}` of {name}"));
    }
    let higher = match text(v, "better")? {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("BENCHMARK.json: {name}: better is `{other}`")),
    };
    let bound = match (v.get("bound"), bounded) {
        (Some(Value::Number(b)), true) if *b > 0.0 && *b <= 0.25 => Some(*b),
        (None, false) => None,
        _ => {
            return Err(format!(
                "BENCHMARK.json: {name}: bound missing, misplaced or outside (0, 0.25]"
            ))
        }
    };
    Ok(Declared {
        name,
        unit,
        higher,
        bound,
    })
}

fn read_declaration() -> Result<Declaration, String> {
    let raw = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let v: Value = serde_json::from_str(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = list(&v, "workloads")?
        .iter()
        .map(|w| Ok((text(w, "name")?.to_string(), text(w, "why")?.to_string())))
        .collect::<Result<Vec<_>, String>>()?;
    let metrics = |key: &str, bounded: bool| {
        list(&v, key)?
            .iter()
            .map(|m| declared(m, bounded))
            .collect::<Result<Vec<_>, String>>()
    };
    let d = Declaration {
        workloads,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
        run_seconds: match v.get("run_seconds") {
            Some(Value::Number(s)) if s.fract() == 0.0 && (1.0..=60.0).contains(s) => *s,
            _ => {
                return Err("BENCHMARK.json: run_seconds is not a whole number from 1 to 60".into())
            }
        },
    };
    if !(2..=8).contains(&d.workloads.len())
        || !(1..=16).contains(&d.end_to_end.len())
        || !(1..=128).contains(&d.per_layer.len())
    {
        return Err(
            "BENCHMARK.json: needs 2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics"
                .into(),
        );
    }
    let setup = d.end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && !m.higher) {
        return Err(
            "BENCHMARK.json: setup_s (unit s, better lower) is missing from end_to_end".into(),
        );
    }
    let mut names: Vec<&str> = d
        .workloads
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(
            d.end_to_end
                .iter()
                .chain(&d.per_layer)
                .map(|m| m.name.as_str()),
        )
        .collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("BENCHMARK.json: the name `{}` is used twice", w[0]));
    }
    // The declared workloads and their reasons are written twice — in
    // the code and in BENCHMARK.json — and must say the same.
    let coded: Vec<(String, String)> = workloads::declared()
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if coded != d.workloads {
        return Err("BENCHMARK.json: workloads differ from specbench/src/workloads.rs".into());
    }
    for (name, why) in &d.workloads {
        if !name_ok(name, "_.-", 64) || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "BENCHMARK.json: workload `{name}` has a bad name or why"
            ));
        }
    }
    Ok(d)
}

/// The emitted metrics are exactly the declared ones, unit for unit, each
/// a finite number with at least one sample behind it.
fn compare(workload: &str, declared: &[Declared], emitted: &[Metric]) -> Result<(), String> {
    for d in declared {
        let m = emitted
            .iter()
            .find(|m| m.name == d.name)
            .ok_or_else(|| format!("{workload}: declared metric {} was not emitted", d.name))?;
        if m.unit != d.unit {
            return Err(format!(
                "{workload}: {} has unit {} but {} is declared",
                d.name, m.unit, d.unit
            ));
        }
        if !m.value.is_finite() || m.samples == 0 {
            return Err(format!(
                "{workload}: {} = {} from {} samples",
                d.name, m.value, m.samples
            ));
        }
    }
    match emitted
        .iter()
        .find(|m| !declared.iter().any(|d| d.name == m.name))
    {
        Some(extra) => Err(format!(
            "{workload}: emitted metric {} is not declared",
            extra.name
        )),
        None => Ok(()),
    }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Runs every workload, declared or not, on short lists, both runs, and
/// holds the output against `BENCHMARK.json`. The span checks (every parent exists and
/// encloses its child; shadow digest equals daemon digest) run inside
/// the traced run itself.
pub fn check(fixture: &Fixture, artefacts: &Path) -> Result<(), String> {
    let declaration = read_declaration()?;
    let mut digests = Vec::new();
    for workload in workloads::all() {
        let workload = workload.scaled(CHECK_DIVISOR);
        let name = workload.name;
        let end_to_end = run::end_to_end(fixture, &workload, 7, CHECK_SECONDS)?;
        compare(name, &declaration.end_to_end, &end_to_end.metrics)?;
        let traced = traced::traced(
            fixture,
            &workload,
            7,
            CHECK_SECONDS,
            CHECK_CALL_BUDGET_S,
            artefacts,
        )?;
        compare(name, &declaration.per_layer, &traced.metrics)?;
        for outcome in [&end_to_end, &traced] {
            if outcome.failed > 0 || outcome.attempted == 0 {
                return Err(format!(
                    "{name}: {} of {} requests failed",
                    outcome.failed, outcome.attempted
                ));
            }
        }
        let coverage = value(&traced, "harness.span_coverage");
        if coverage < 0.95 {
            return Err(format!(
                "{name}: named spans cover only {coverage:.3} of the shadow"
            ));
        }
        println!(
            "check {name}: ok ({} + {} requests, span coverage {coverage:.3})",
            end_to_end.attempted, traced.attempted
        );
        digests.push((name, end_to_end.digest));
    }
    let digest = |n: &str| {
        digests
            .iter()
            .find(|(name, _)| *name == n)
            .map(|(_, d)| d.clone())
    };
    if digest("chat_spec") != digest("chat_incr") {
        return Err("chat_spec and chat_incr digests differ".into());
    }
    println!(
        "check: BENCHMARK.json declares {} workloads, {} end-to-end and {} per-layer metrics; all emitted",
        declaration.workloads.len(),
        declaration.end_to_end.len(),
        declaration.per_layer.len()
    );
    Ok(())
}

/// What a child `specbench run` printed.
pub struct ChildRun {
    pub stdout: String,
    pub correct: bool,
    pub digest: String,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Runs `specbench run` for one workload in a child process, waits for
/// it, and reads its table header and result line back.
pub fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "the run of {workload} exited with {}",
            output.status
        ));
    }
    let bad = || format!("the run of {workload} printed no result line");
    let line = stdout.lines().last().ok_or_else(bad)?;
    let result: Value = serde_json::from_str(line).map_err(|_| bad())?;
    let metrics = match result.get("metrics") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .filter_map(|(name, m)| match m.get("value") {
                Some(Value::Number(v)) => Some((name.clone(), *v)),
                _ => None,
            })
            .collect(),
        _ => return Err(bad()),
    };
    // The table's first line ends with the digest.
    let digest = stdout
        .lines()
        .next()
        .and_then(|l| l.rsplit(' ').next())
        .unwrap_or_default()
        .to_string();
    Ok(ChildRun {
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        digest,
        metrics,
        stdout,
    })
}

/// `chat_incr` decodes `chat_spec`'s lists, so speculation is lossless
/// exactly when their digests agree.
pub fn chat_digests_agree(runs: &[(&'static str, ChildRun)]) -> Result<(), String> {
    let digest = |name: &str| {
        runs.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| &r.digest)
    };
    match (digest("chat_spec"), digest("chat_incr")) {
        (Some(a), Some(b)) if a != b => Err(format!(
            "chat_spec digest {a} differs from chat_incr digest {b}: speculation changed the output"
        )),
        _ => Ok(()),
    }
}

/// Two complete sets of end-to-end runs of the declared workloads on
/// this binary, one process per run. Prints, per workload and metric, how far apart the two sets are
/// — in either direction: for identical code a second set that is much
/// better is as much noise as one that is much worse — against the
/// declared bound; `Ok(false)` when any bound is broken. The comparison
/// is also written to `<artefacts>/aa.json`.
pub fn aa(seed: u64, seconds: f64, artefacts: &Path) -> Result<bool, String> {
    let declaration = read_declaration()?;
    if seconds != declaration.run_seconds {
        eprintln!(
            "[specbench] aa: measuring {seconds} s windows; BENCHMARK.json declares {}",
            declaration.run_seconds
        );
    }
    let mut sets: Vec<Vec<(&'static str, ChildRun)>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for workload in workloads::declared() {
            eprintln!("[specbench] aa: set {set}, {}", workload.name);
            runs.push((
                workload.name,
                child_run(workload.name, seed, seconds, false)?,
            ));
        }
        chat_digests_agree(&runs)?;
        sets.push(runs);
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>6}  second is",
        "workload", "metric", "first", "second", "apart", "bound"
    );
    for ((name, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
        ok &= a.correct && b.correct && a.digest == b.digest;
        for d in &declaration.end_to_end {
            let (x, y) = (a.value(&d.name), b.value(&d.name));
            let apart = (x - y).abs() / x.min(y);
            let second_is = if (y > x) == d.higher {
                "better"
            } else {
                "worse"
            };
            let bound = d.bound.unwrap_or(0.0);
            let breach = apart.is_nan() || apart > bound;
            ok &= !breach;
            println!(
                "{name:<14} {:<22} {x:>12.4} {y:>12.4} {apart:>8.4} {bound:>6.2}  {second_is}{}",
                d.name,
                if breach { "  BREACH" } else { "" }
            );
            rows.push(format!(
                "{{\"workload\": \"{name}\", \"metric\": \"{}\", \"first\": {x}, \"second\": {y}, \"apart\": {}, \"second_is\": \"{second_is}\", \"bound\": {bound}}}",
                d.name,
                if apart.is_finite() { apart } else { -1.0 }
            ));
        }
    }
    let path = artefacts.join("aa.json");
    std::fs::write(
        &path,
        format!("{{\"ok\": {ok}, \"rows\": [\n{}\n]}}\n", rows.join(",\n")),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "aa: {} (written to {})",
        if ok { "within bounds" } else { "BOUND BROKEN" },
        path.display()
    );
    Ok(ok)
}
