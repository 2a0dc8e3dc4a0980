//! CLI for specinfer-lint.
//!
//! ```text
//! cargo run -p specinfer-xtask -- lint                 # lint the workspace
//! cargo run -p specinfer-xtask -- lint --root DIR      # lint another tree
//! cargo run -p specinfer-xtask -- lint --strict F...   # all rules, given files
//! cargo run -p specinfer-xtask -- lint --json          # machine-readable report
//! cargo run -p specinfer-xtask -- lint --github        # CI workflow annotations
//! ```
//!
//! `--json` emits one object with a `findings` array (rule, path, line,
//! message, call_path) — the CI lint job uploads it as a report
//! artifact. `--github` prints GitHub Actions `::error` annotation lines
//! so findings land on the PR diff. Both compose with `--root` and
//! `--strict`.
//!
//! Exit code 0 means no findings; 1 means at least one finding; 2 means
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use specinfer_xtask::rules::Finding;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        _ => {
            eprintln!(
                "usage: specinfer-xtask lint [--json|--github] [--root DIR]\n       specinfer-xtask lint [--json|--github] --strict FILE..."
            );
            ExitCode::from(2)
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut rest: Vec<String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => format = Format::Json,
            "--github" => format = Format::Github,
            _ => rest.push(a.clone()),
        }
    }
    let args = rest;

    let findings = if args.first().map(String::as_str) == Some("--strict") {
        let files: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
        if files.is_empty() {
            eprintln!("lint --strict requires at least one file");
            return ExitCode::from(2);
        }
        specinfer_xtask::lint_files_strict(&files)
    } else {
        let root = match &args[..] {
            [] => default_root(),
            [flag, dir] if flag == "--root" => PathBuf::from(dir),
            _ => {
                eprintln!("unrecognised arguments: {args:?}");
                return ExitCode::from(2);
            }
        };
        specinfer_xtask::lint_workspace(&root)
    };

    match format {
        Format::Text => {
            if findings.is_empty() {
                println!("specinfer-lint: clean");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("specinfer-lint: {} finding(s)", findings.len());
            }
        }
        Format::Json => println!("{}", render_json(&findings)),
        Format::Github => {
            // One annotation per finding; Actions attaches it to the
            // file/line in the PR diff view.
            for f in &findings {
                println!(
                    "::error file={},line={},title=specinfer-lint {}::{}",
                    f.path,
                    f.line.max(1),
                    f.rule,
                    f.message.replace('\n', " ")
                );
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders findings as a JSON report. Hand-rolled on purpose: the lint
/// runs on the bare toolchain, so no serde inside the shim boundary.
fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
        out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
        let path: Vec<String> = f.call_path.iter().map(|s| json_str(s)).collect();
        out.push_str(&format!("\"call_path\": [{}]", path.join(", ")));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}", findings.len()));
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root: two levels up from this crate's manifest dir.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}
