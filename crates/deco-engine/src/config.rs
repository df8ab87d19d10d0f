//! Structured engine configuration from the environment.
//!
//! CI pins its executor matrix through these environment variables, all
//! parsed here and nowhere else:
//!
//! | variable | values | meaning |
//! |---|---|---|
//! | `DECO_ENGINE_THREADS` | unset/empty/`0` = auto, else a thread count | worker threads (threads *per shard* when sharding) |
//! | `DECO_ENGINE_ASYNC` | unset/empty/`0` = barrier, `1` = async | round substrate of the parallel engine |
//! | `DECO_ENGINE_SHARDS` | unset/empty/`0` = unsharded, else a shard count | partition the network over that many shards |
//! | `DECO_TRACE` | unset/empty/`0`/`off`, `ring`, `jsonl` | trace sink ([`deco_trace`]); `jsonl` writes to `DECO_TRACE_PATH` (default `trace.jsonl`) |
//!
//! Malformed values are **structured errors**, never silent fallbacks and
//! never bare panics: a typo in a CI matrix cell must fail the run with
//! the variable name and the offending value, not quietly un-pin the
//! matrix (the historical behavior was a panic mid-parse; callers now get
//! an [`EngineEnvError`] they can report or escalate themselves).
//!
//! ```
//! use deco_engine::config::{parse_shards, EngineConfig};
//!
//! // Pure parsers back every variable; malformed input is a value.
//! assert_eq!(parse_shards("4").unwrap(), 4);
//! let err = parse_shards("many").unwrap_err();
//! assert_eq!(err.var, "DECO_ENGINE_SHARDS");
//! assert_eq!(err.value, "many");
//!
//! // In an environment with none of the variables set, the config is the
//! // auto default.
//! if std::env::var_os("DECO_ENGINE_THREADS").is_none()
//!     && std::env::var_os("DECO_ENGINE_ASYNC").is_none()
//!     && std::env::var_os("DECO_ENGINE_SHARDS").is_none()
//! {
//!     let cfg = EngineConfig::from_env().unwrap();
//!     assert_eq!(cfg.shards, 0);
//! }
//! ```

use crate::engine::{EngineMode, ParallelExecutor};
use crate::shard::ShardedExecutor;
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use deco_local::Executor;

/// `DECO_ENGINE_THREADS` — worker thread count (0 = auto).
pub const ENV_THREADS: &str = "DECO_ENGINE_THREADS";
/// `DECO_ENGINE_ASYNC` — round substrate of the parallel engine.
pub const ENV_ASYNC: &str = "DECO_ENGINE_ASYNC";
/// `DECO_ENGINE_SHARDS` — shard count (0 = unsharded).
pub const ENV_SHARDS: &str = "DECO_ENGINE_SHARDS";
/// `DECO_TRACE` — trace sink selection (`off` / `ring` / `jsonl`).
pub const ENV_TRACE: &str = "DECO_TRACE";
/// `DECO_TRACE_PATH` — JSONL output path (consumed by `deco-trace` at
/// install time; re-exported here so the env-var surface is listed in one
/// place).
pub const ENV_TRACE_PATH: &str = deco_trace::ENV_TRACE_PATH;

/// A malformed engine environment variable: which variable, what it held,
/// and what it accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineEnvError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// Human-readable description of the accepted values.
    pub expected: &'static str,
}

impl std::fmt::Display for EngineEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be {}, got {:?}",
            self.var, self.expected, self.value
        )
    }
}

impl std::error::Error for EngineEnvError {}

/// Parses a `DECO_ENGINE_THREADS` value: unset callers pass `""`; empty or
/// `0` means auto (returned as 0).
///
/// # Errors
///
/// [`EngineEnvError`] when the value is not a number.
pub fn parse_threads(raw: &str) -> Result<usize, EngineEnvError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(0);
    }
    raw.parse().map_err(|_| EngineEnvError {
        var: ENV_THREADS,
        value: raw.to_string(),
        expected: "a thread count (0 or empty = auto)",
    })
}

/// Parses a `DECO_ENGINE_ASYNC` value: empty or `0` = barrier, `1` =
/// async.
///
/// # Errors
///
/// [`EngineEnvError`] on anything else.
pub fn parse_mode(raw: &str) -> Result<EngineMode, EngineEnvError> {
    match raw.trim() {
        "" | "0" => Ok(EngineMode::Barrier),
        "1" => Ok(EngineMode::Async),
        other => Err(EngineEnvError {
            var: ENV_ASYNC,
            value: other.to_string(),
            expected: "0 or 1",
        }),
    }
}

/// Parses a `DECO_ENGINE_SHARDS` value: empty or `0` = unsharded
/// (returned as 0), else the shard count.
///
/// # Errors
///
/// [`EngineEnvError`] when the value is not a number.
pub fn parse_shards(raw: &str) -> Result<usize, EngineEnvError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(0);
    }
    raw.parse().map_err(|_| EngineEnvError {
        var: ENV_SHARDS,
        value: raw.to_string(),
        expected: "a shard count (0 or empty = unsharded)",
    })
}

/// Parses a `DECO_TRACE` value: empty, `0`, or `off` = tracing disabled,
/// `ring` = in-memory ring sink, `jsonl` = JSONL file sink.
///
/// # Errors
///
/// [`EngineEnvError`] on anything else.
pub fn parse_trace(raw: &str) -> Result<deco_trace::TraceMode, EngineEnvError> {
    match raw.trim() {
        "" | "0" | "off" => Ok(deco_trace::TraceMode::Off),
        "ring" => Ok(deco_trace::TraceMode::Ring),
        "jsonl" => Ok(deco_trace::TraceMode::Jsonl),
        other => Err(EngineEnvError {
            var: ENV_TRACE,
            value: other.to_string(),
            expected: "off, ring, or jsonl (empty = off)",
        }),
    }
}

fn env_raw(var: &'static str) -> String {
    std::env::var(var).unwrap_or_default()
}

/// The engine configuration CI and test harnesses pin via the
/// environment. Plain data; turn it into an executor with
/// [`EngineConfig::selection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (0 = auto). When sharding, threads *per shard*
    /// (0 = 1).
    pub threads: usize,
    /// Round substrate of the parallel engine (ignored when sharding; the
    /// sharded engine's cross-shard exchange is clock-driven by design).
    pub mode: EngineMode,
    /// Shard count (0 = unsharded).
    pub shards: usize,
}

impl EngineConfig {
    /// Reads and validates every engine variable from the environment.
    ///
    /// # Errors
    ///
    /// The first [`EngineEnvError`] among the malformed variables, with
    /// the variable name and the offending value.
    pub fn from_env() -> Result<EngineConfig, EngineEnvError> {
        Ok(EngineConfig {
            threads: parse_threads(&env_raw(ENV_THREADS))?,
            mode: parse_mode(&env_raw(ENV_ASYNC))?,
            shards: parse_shards(&env_raw(ENV_SHARDS))?,
        })
    }

    /// The executor this configuration selects: the sharded engine when
    /// `shards > 0`, otherwise the parallel engine in the configured mode.
    pub fn selection(&self) -> EngineSelection {
        if self.shards > 0 {
            EngineSelection::Sharded(
                ShardedExecutor::new(self.shards).with_threads_per_shard(self.threads.max(1)),
            )
        } else {
            let exec = if self.threads == 0 {
                ParallelExecutor::auto()
            } else {
                ParallelExecutor::with_threads(self.threads)
            };
            EngineSelection::Parallel(exec.with_mode(self.mode))
        }
    }
}

/// An environment-selected executor: one type that is whichever engine the
/// `DECO_ENGINE_*` variables picked, so differential suites can put "the
/// CI-pinned engine" in their lineup without committing to a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSelection {
    /// The in-process parallel engine (barrier or async substrate).
    Parallel(ParallelExecutor),
    /// The sharded engine.
    Sharded(ShardedExecutor),
}

impl EngineSelection {
    /// Shorthand for `EngineConfig::from_env()?.selection()`.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineEnvError`] from the malformed variable.
    pub fn from_env() -> Result<EngineSelection, EngineEnvError> {
        Ok(EngineConfig::from_env()?.selection())
    }
}

/// The stable one-line engine descriptor, embedded in run reports and
/// experiment table headers and parsed back by the [`std::str::FromStr`] impl:
///
/// * `barrier(threads=2)` / `async(threads=auto)` — the parallel engine,
///   named by its round substrate (`threads=auto` is the hardware default);
/// * `sharded(shards=4,threads=2)` — the sharded engine with its
///   threads-per-shard.
///
/// The format is an API: tooling that attributes measurements to engines
/// keys on these strings, and the round-trip test pins them.
impl std::fmt::Display for EngineSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSelection::Parallel(e) => {
                let substrate = match e.mode() {
                    EngineMode::Barrier => "barrier",
                    EngineMode::Async => "async",
                };
                write!(f, "{substrate}(threads={})", Threads(e.threads()))
            }
            EngineSelection::Sharded(e) => write!(
                f,
                "sharded(shards={},threads={})",
                e.shards(),
                e.threads_per_shard()
            ),
        }
    }
}

/// Renders a thread request (0 = `auto`).
struct Threads(usize);

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            f.write_str("auto")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Error parsing an engine descriptor back into an [`EngineSelection`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorParseError {
    /// The descriptor that failed to parse, verbatim.
    pub descriptor: String,
}

impl std::fmt::Display for DescriptorParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized engine descriptor {:?} (expected barrier(threads=N), \
             async(threads=N), or sharded(shards=N,threads=N))",
            self.descriptor
        )
    }
}

impl std::error::Error for DescriptorParseError {}

/// Splits `descriptor` as `head(k1=v1,k2=v2,…)` and returns the head and
/// the exact `key=` values requested, or `None` on any shape mismatch.
fn parse_fields<'a, const N: usize>(
    descriptor: &'a str,
    keys: [&str; N],
) -> Option<(&'a str, [&'a str; N])> {
    let open = descriptor.find('(')?;
    let body = descriptor[open..].strip_prefix('(')?.strip_suffix(')')?;
    let head = &descriptor[..open];
    let parts: Vec<&str> = body.split(',').collect();
    if parts.len() != N {
        return None;
    }
    let mut values = [""; N];
    for (slot, (part, key)) in values.iter_mut().zip(parts.iter().zip(keys)) {
        *slot = part.strip_prefix(key)?.strip_prefix('=')?;
    }
    Some((head, values))
}

fn parse_thread_request(raw: &str) -> Option<usize> {
    if raw == "auto" {
        Some(0)
    } else {
        raw.parse().ok().filter(|&t| t > 0)
    }
}

impl std::str::FromStr for EngineSelection {
    type Err = DescriptorParseError;

    fn from_str(s: &str) -> Result<EngineSelection, DescriptorParseError> {
        let err = || DescriptorParseError {
            descriptor: s.to_string(),
        };
        if let Some((head, [threads])) = parse_fields(s, ["threads"]) {
            let mode = match head {
                "barrier" => EngineMode::Barrier,
                "async" => EngineMode::Async,
                _ => return Err(err()),
            };
            let exec = match parse_thread_request(threads).ok_or_else(err)? {
                0 => ParallelExecutor::auto(),
                t => ParallelExecutor::with_threads(t),
            };
            return Ok(EngineSelection::Parallel(exec.with_mode(mode)));
        }
        if let Some(("sharded", [shards, threads])) = parse_fields(s, ["shards", "threads"]) {
            let shards: usize = shards.parse().ok().filter(|&n| n > 0).ok_or_else(err)?;
            let threads: usize = threads.parse().ok().filter(|&t| t > 0).ok_or_else(err)?;
            return Ok(EngineSelection::Sharded(
                ShardedExecutor::new(shards).with_threads_per_shard(threads),
            ));
        }
        Err(err())
    }
}

impl Executor for EngineSelection {
    fn execute<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send,
    {
        match self {
            EngineSelection::Parallel(e) => e.execute(net, protocol, max_rounds),
            EngineSelection::Sharded(e) => e.execute(net, protocol, max_rounds),
        }
    }

    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self {
            EngineSelection::Parallel(e) => e.execute_branches(weights, run),
            EngineSelection::Sharded(e) => e.execute_branches(weights, run),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_parsing_accepts_auto_spellings() {
        assert_eq!(parse_threads("").unwrap(), 0);
        assert_eq!(parse_threads(" 0 ").unwrap(), 0);
        assert_eq!(parse_threads("8").unwrap(), 8);
    }

    #[test]
    fn mode_parsing_is_strict() {
        assert_eq!(parse_mode("").unwrap(), EngineMode::Barrier);
        assert_eq!(parse_mode("0").unwrap(), EngineMode::Barrier);
        assert_eq!(parse_mode(" 1\n").unwrap(), EngineMode::Async);
        let err = parse_mode("yes").unwrap_err();
        assert_eq!(err.var, ENV_ASYNC);
        assert_eq!(err.value, "yes");
        assert!(err.to_string().contains("DECO_ENGINE_ASYNC"));
        assert!(err.to_string().contains("\"yes\""));
    }

    #[test]
    fn shard_parsing_reports_the_offending_value() {
        assert_eq!(parse_shards("").unwrap(), 0);
        assert_eq!(parse_shards("4").unwrap(), 4);
        let err = parse_shards("-2").unwrap_err();
        assert_eq!(err.var, ENV_SHARDS);
        assert_eq!(err.value, "-2");
    }

    #[test]
    fn malformed_threads_is_an_error_value_not_a_panic() {
        let err = parse_threads("three").unwrap_err();
        assert_eq!(err.var, ENV_THREADS);
        assert_eq!(
            err.to_string(),
            "DECO_ENGINE_THREADS must be a thread count (0 or empty = auto), got \"three\""
        );
    }

    #[test]
    fn selection_routes_shards_to_the_sharded_engine() {
        let cfg = EngineConfig {
            threads: 2,
            mode: EngineMode::Barrier,
            shards: 3,
        };
        match cfg.selection() {
            EngineSelection::Sharded(e) => {
                assert_eq!(e.shards(), 3);
                assert_eq!(e.threads_per_shard(), 2);
            }
            other => panic!("expected sharded, got {other:?}"),
        }
        let cfg = EngineConfig {
            threads: 0,
            mode: EngineMode::Async,
            shards: 0,
        };
        match cfg.selection() {
            EngineSelection::Parallel(e) => assert_eq!(e.mode(), EngineMode::Async),
            other => panic!("expected parallel, got {other:?}"),
        }
    }

    #[test]
    fn trace_parsing_accepts_every_documented_spelling() {
        assert_eq!(parse_trace("").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace("0").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace(" off ").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace("ring").unwrap(), deco_trace::TraceMode::Ring);
        assert_eq!(
            parse_trace("jsonl\n").unwrap(),
            deco_trace::TraceMode::Jsonl
        );
    }

    #[test]
    fn malformed_trace_values_are_structured_errors() {
        // Every malformed shape: wrong word, case drift, numbers other
        // than 0, trailing garbage, file-path-like values.
        for bad in [
            "on",
            "1",
            "true",
            "JSONL",
            "Ring",
            "jsonl,ring",
            "jsonl trace.jsonl",
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert_eq!(err.var, ENV_TRACE, "{bad}");
            assert_eq!(err.value, bad.trim(), "{bad}");
            assert_eq!(err.expected, "off, ring, or jsonl (empty = off)");
            assert_eq!(
                err.to_string(),
                format!(
                    "DECO_TRACE must be off, ring, or jsonl (empty = off), got {:?}",
                    bad.trim()
                )
            );
        }
    }

    #[test]
    fn descriptors_are_stable() {
        assert_eq!(
            EngineSelection::Parallel(ParallelExecutor::auto()).to_string(),
            "barrier(threads=auto)"
        );
        assert_eq!(
            EngineSelection::Parallel(
                ParallelExecutor::with_threads(2).with_mode(EngineMode::Async)
            )
            .to_string(),
            "async(threads=2)"
        );
        assert_eq!(
            EngineSelection::Sharded(ShardedExecutor::new(4).with_threads_per_shard(2)).to_string(),
            "sharded(shards=4,threads=2)"
        );
    }

    #[test]
    fn descriptors_round_trip() {
        let lineup = [
            EngineSelection::Parallel(ParallelExecutor::auto()),
            EngineSelection::Parallel(ParallelExecutor::with_threads(1)),
            EngineSelection::Parallel(
                ParallelExecutor::with_threads(4).with_mode(EngineMode::Async),
            ),
            EngineSelection::Parallel(ParallelExecutor::auto().with_mode(EngineMode::Async)),
            EngineSelection::Sharded(ShardedExecutor::new(1)),
            EngineSelection::Sharded(ShardedExecutor::new(4).with_threads_per_shard(2)),
            EngineSelection::Sharded(ShardedExecutor::new(2)),
        ];
        for sel in lineup {
            let descriptor = sel.to_string();
            let parsed: EngineSelection = descriptor.parse().expect("descriptor parses");
            assert_eq!(parsed, sel, "{descriptor} must round-trip");
        }
    }

    #[test]
    fn malformed_descriptors_are_errors() {
        for bad in [
            "",
            "serial",
            "barrier",
            "barrier()",
            "barrier(threads=0)",
            "barrier(threads=two)",
            "turbo(threads=2)",
            "sharded(shards=0,threads=1)",
            "sharded(shards=2,threads=0)",
            "sharded(shards=2)",
            "sharded(threads=1,shards=2)",
            // The former three-field form with a `transport=` field.
            "sharded(shards=2,threads=1,transport=channel)",
        ] {
            let err = bad.parse::<EngineSelection>().unwrap_err();
            assert_eq!(err.descriptor, bad);
            assert!(err.to_string().contains("descriptor"), "{err}");
        }
    }

    #[test]
    fn selection_executes_like_any_executor() {
        use crate::protocols::FloodMax;
        use deco_graph::generators;
        use deco_local::network::IdAssignment;
        use deco_local::SerialExecutor;

        let g = generators::cycle(20);
        let net = Network::new(&g, IdAssignment::Shuffled(2));
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 3 }, 20)
            .unwrap();
        for sel in [
            EngineSelection::Parallel(ParallelExecutor::with_threads(2)),
            EngineSelection::Sharded(ShardedExecutor::new(2)),
        ] {
            let out = sel.execute(&net, &FloodMax { radius: 3 }, 20).unwrap();
            assert_eq!(serial.outputs, out.outputs);
            assert_eq!(sel.execute_branches(&[1, 1, 1], |i| i), vec![0, 1, 2]);
        }
    }
}
