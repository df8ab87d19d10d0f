//! Smoke test of the benchmark itself: every workload runs briefly in both
//! modes, prints exactly the metrics `BENCHMARK.json` names with their
//! units, passes its correctness gate, and repeats its deterministic
//! counts across runs of one seed.

use std::process::Command;

const WORKLOADS: [&str; 2] = ["solve-regular", "solve-hub"];

/// Quoted values following `key` in `text`, in order.
fn values_after<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    text.match_indices(key)
        .map(|(i, _)| {
            let rest = &text[i + key.len()..];
            let rest = &rest[rest.find('"').expect("value is quoted") + 1..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// The (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let names = values_after(body, "\"name\":");
    let units = values_after(body, "\"unit\":");
    assert_eq!(names.len(), units.len());
    names
        .iter()
        .zip(units)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Runs one workload; returns the result line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// Checks the result line against the declared metrics; returns each
/// metric's value text.
fn check(workload: &str, line: &str, section: &str) -> Vec<(String, String)> {
    assert!(
        line.starts_with("{\"correct\":true,") && line.contains("\"failed\":0,"),
        "{workload}: {line}"
    );
    let want = declared(section);
    assert_eq!(
        line.matches("\"unit\":").count(),
        want.len(),
        "{workload} prints exactly the {section} metrics: {line}"
    );
    want.iter()
        .map(|(name, unit)| {
            let key = format!("\"{name}\":{{\"value\":");
            let at = line
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let rest = &line[at + key.len()..];
            let value = &rest[..rest.find(',').expect("value ends")];
            assert!(
                value.parse::<f64>().is_ok_and(f64::is_finite),
                "{workload}: {name}={value}"
            );
            assert!(
                rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
                "{workload}: {name} has unit {unit}"
            );
            (name.clone(), value.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in WORKLOADS {
        check(w, &run(w, 1, false), "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for w in WORKLOADS {
        let values = check(w, &run(w, 1, true), "per_layer");
        let coverage = &values
            .iter()
            .find(|(n, _)| n == "trace.coverage")
            .expect("coverage")
            .1;
        let coverage: f64 = coverage.parse().expect("number");
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{w}: coverage {coverage}"
        );
    }
}

#[test]
fn counts_repeat_across_runs_of_one_seed() {
    let declared = declared("per_layer");
    for w in WORKLOADS {
        let counts = |line: &str| -> Vec<(String, String)> {
            check(w, line, "per_layer")
                .into_iter()
                .filter(|(name, _)| {
                    declared.iter().any(|(n, u)| n == name && u == "count")
                        && !name.starts_with("serve.")
                })
                .collect()
        };
        let a = counts(&run(w, 5, true));
        let b = counts(&run(w, 5, true));
        assert!(a.len() >= 8, "{w}: {a:?}");
        assert_eq!(a, b, "{w}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
