//! Runs the benchmark binary on every workload at seeds 0 and 1 with the
//! shortest window and the traced pass, and checks what it prints: every
//! metric `BENCHMARK.json` names, with its unit; no failed call; and the
//! traced pass's self times summing to its wall clock within 5%.
//!
//! Each run times real analyses, so this needs an optimised build:
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric `BENCHMARK.json` lists, one per line.
fn declared_metrics() -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    text.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn run(workload: &str, seed: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} seed {seed}: {stdout}");

    let printed: BTreeMap<&str, &str> = stdout
        .lines()
        .filter_map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [name, value, unit] if value.parse::<f64>().is_ok() => Some((name, unit)),
            _ => None,
        })
        .collect();
    let declared = declared_metrics();
    assert!(declared.len() > 10, "BENCHMARK.json lists its metrics");
    for (name, unit) in &declared {
        assert_eq!(
            printed.get(name.as_str()),
            Some(&unit.as_str()),
            "{workload} seed {seed}: metric {name} in {unit}"
        );
    }

    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload} seed {seed} failed calls:\n{stdout}"
    );

    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# trace: self times sum to "))
        .expect("the traced pass reports its self times");
    let numbers: Vec<f64> = line.split(' ').filter_map(|w| w.parse().ok()).collect();
    let (sum, wall) = (numbers[0], numbers[1]);
    assert!(
        (sum - wall).abs() <= 0.05 * wall,
        "{workload} seed {seed}: self times {sum} s against a {wall} s pass"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times real analyses: run with --release")]
fn table2() {
    run("table2", 0);
    run("table2", 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times real analyses: run with --release")]
fn pointsto_2t() {
    run("pointsto_2t", 0);
    run("pointsto_2t", 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times real analyses: run with --release")]
fn jeddc_whole_program() {
    run("jeddc_whole_program", 0);
    run("jeddc_whole_program", 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times real analyses: run with --release")]
fn pointsto_paged() {
    run("pointsto_paged", 0);
    run("pointsto_paged", 1);
}
