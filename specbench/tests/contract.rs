//! Runs `specbench check`: every workload and metric `BENCHMARK.json`
//! declares is emitted, with its unit and at least one sample, by a
//! quick run on short request lists; outputs are correct; span trees are
//! well formed and cover the shadow.

use std::process::Command;

#[test]
fn check_passes_against_benchmark_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_specbench"))
        .arg("check")
        .output()
        .expect("specbench runs");
    assert!(
        output.status.success(),
        "specbench check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn a_run_ends_with_one_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_specbench"))
        .args([
            "run",
            "--workload",
            "batch_ragged",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("specbench runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\": true",
        "\"attempted\": ",
        "\"failed\": 0",
        "\"metrics\": {",
        "\"setup_s\": {\"value\": ",
    ] {
        assert!(last.contains(key), "result line lacks {key}: {last}");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_specbench"))
        .args([
            "run",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("specbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
