//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `solve-regular` — `random_regular(4096, 16)` solved in a closed loop
//!   on the serial runtime;
//! * `solve-hub` — `kronecker(11, 8)`, a hub graph whose line graph is
//!   ~110× larger than the graph, same loop.
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around calls into each crate and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod gate;
mod layers;
mod serve;
mod solve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (solves, sessions, updates, requests).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed the gate.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed when `r` is an error (reported on
    /// standard error, first few only).
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: failed operation: {e}");
                }
                None
            }
        }
    }

    /// Folds another outcome's counts in (its metrics are dropped).
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        let correct = finite && self.failed == 0 && self.attempted > 0;
        let mut s = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // Non-finite values are not JSON; they also fail `correct`.
            let v = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(s, "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// The parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveRegular,
    SolveHub,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "solve-regular" => Workload::SolveRegular,
            "solve-hub" => Workload::SolveHub,
            _ => return None,
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <solve-regular|solve-hub> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = solve::run(&args);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload solve-hub --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SolveHub);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload solve-hub --seconds 1",
            "--workload solve-hub --seed 1 --seconds 0",
            "--workload solve-hub --seed 1 --seconds 1 --trace 2",
            "--workload solve-hub --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut o = Outcome::default();
        o.record(Ok::<(), String>(()));
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        o.record(Err::<(), String>("bad".into()));
        assert!(o
            .to_json()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }
}
