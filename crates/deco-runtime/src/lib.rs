//! # deco-runtime — one engine handle for the whole executor zoo
//!
//! Every executor in this workspace is observationally identical — the
//! serial reference runner, the barrier engine, the barrier-free async
//! engine, and the sharded engine all promise the same outputs, rounds,
//! messages, and errors for every protocol. What differed until now was
//! the *API*: each algorithm shipped a `foo` + `foo_with<E: Executor>`
//! pair, and picking an engine meant naming a concrete executor type at
//! every call site. This crate collapses that zoo behind one value:
//!
//! * [`Engine`] — an enum over the concrete executors, itself an
//!   [`Executor`] by static dispatch per arm. Adding a backend is one new
//!   arm, not another `_with` fan-out across the API surface.
//! * [`Runtime`] — the handle algorithms take (`fn(..., rt: &Runtime)`):
//!   an [`Engine`] plus cross-cutting run policy (the round budget for
//!   open-ended protocols).
//! * [`RuntimeBuilder`] — explicit settings (threads / mode / shards /
//!   max-rounds) layered over the `DECO_ENGINE_*` environment:
//!   builder settings always win, unset ones fall back to the environment
//!   ([`RuntimeBuilder::from_env`] delegates to the pure parsers in
//!   [`deco_engine::config`]), and a clean slate selects the serial
//!   reference executor.
//!
//! ```
//! use deco_runtime::{Engine, Runtime};
//!
//! // Explicit: two barrier worker threads, async substrate off.
//! let rt = Runtime::builder().threads(2).build();
//! assert_eq!(rt.descriptor(), "barrier(threads=2)");
//!
//! // A clean builder (and a clean environment) is the serial reference.
//! assert!(matches!(Runtime::builder().build().engine(), Engine::Serial(_)));
//! ```
//!
//! The facade is pure selection — it never changes what runs. The
//! differential suites hold every [`Engine`] arm to bit-identical
//! observables, so swapping arms (or letting the environment pick) is
//! always safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use deco_engine::config::{
    self, parse_mode, parse_shards, parse_threads, parse_trace, DescriptorParseError,
    EngineEnvError, EngineSelection,
};
use deco_engine::{EngineMode, ParallelExecutor, ShardedExecutor};
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use deco_local::{Executor, SerialExecutor};

/// Default round budget for open-ended protocols run through a [`Runtime`]
/// (fixed-schedule protocols compute their own). Far above any plausible
/// run — randomized baselines halt in `O(log n)` expected rounds — while
/// still turning a diverging protocol into a structured
/// [`RunError::RoundLimitExceeded`] instead of a hang.
pub const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// One value that is whichever executor the caller (or the environment)
/// picked. Implements [`Executor`] by static dispatch per arm — no
/// generics, no trait objects, no `_with` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The serial reference executor — always available, always correct,
    /// and the oracle every other arm is differentially tested against.
    Serial(SerialExecutor),
    /// The in-process parallel engine; its [`EngineMode`] selects the
    /// barrier substrate or the barrier-free async substrate.
    Parallel(ParallelExecutor),
    /// The sharded engine: the network partitioned over shard workers
    /// coupled only by the per-round cut exchange.
    Sharded(ShardedExecutor),
}

impl Engine {
    /// The serial reference engine.
    pub fn serial() -> Engine {
        Engine::Serial(SerialExecutor)
    }

    /// The engine the `DECO_ENGINE_*` variables select: serial when none
    /// of them is set, otherwise the configured parallel or sharded
    /// engine. See [`RuntimeBuilder::from_env`] for the exact layering.
    ///
    /// # Errors
    ///
    /// Propagates the [`EngineEnvError`] naming the malformed variable and
    /// its offending value.
    pub fn from_env() -> Result<Engine, EngineEnvError> {
        Ok(Runtime::from_env()?.into_engine())
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::serial()
    }
}

impl From<SerialExecutor> for Engine {
    fn from(e: SerialExecutor) -> Engine {
        Engine::Serial(e)
    }
}

impl From<ParallelExecutor> for Engine {
    fn from(e: ParallelExecutor) -> Engine {
        Engine::Parallel(e)
    }
}

impl From<ShardedExecutor> for Engine {
    fn from(e: ShardedExecutor) -> Engine {
        Engine::Sharded(e)
    }
}

impl From<EngineSelection> for Engine {
    fn from(sel: EngineSelection) -> Engine {
        match sel {
            EngineSelection::Parallel(e) => Engine::Parallel(e),
            EngineSelection::Sharded(e) => Engine::Sharded(e),
        }
    }
}

/// The stable one-line descriptor: `serial`, or the
/// [`EngineSelection`] descriptor of the parallel / sharded arm
/// (`barrier(threads=2)`, `async(threads=auto)`,
/// `sharded(shards=4,threads=2)`).
impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Serial(_) => f.write_str("serial"),
            Engine::Parallel(e) => EngineSelection::Parallel(*e).fmt(f),
            Engine::Sharded(e) => EngineSelection::Sharded(*e).fmt(f),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = DescriptorParseError;

    fn from_str(s: &str) -> Result<Engine, DescriptorParseError> {
        if s == "serial" {
            return Ok(Engine::serial());
        }
        s.parse::<EngineSelection>().map(Engine::from)
    }
}

impl Executor for Engine {
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
            Engine::Serial(e) => e.execute(net, protocol, max_rounds),
            Engine::Parallel(e) => e.execute(net, protocol, max_rounds),
            Engine::Sharded(e) => e.execute(net, protocol, max_rounds),
        }
    }

    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self {
            Engine::Serial(e) => e.execute_branches(weights, run),
            Engine::Parallel(e) => e.execute_branches(weights, run),
            Engine::Sharded(e) => e.execute_branches(weights, run),
        }
    }
}

/// The handle every algorithm and pipeline entry point takes: an
/// [`Engine`] plus cross-cutting run policy. Plain `Copy` data — share it,
/// store it, pass it by reference; it holds no threads or other resources
/// (workers are scoped to each execution).
///
/// A `Runtime` is itself an [`Executor`], so code written against the
/// executor contract accepts one directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    engine: Engine,
    max_rounds: u64,
}

impl Runtime {
    /// A runtime on the serial reference executor with default policy.
    pub fn serial() -> Runtime {
        Runtime::new(Engine::serial())
    }

    /// A runtime on `engine` with default policy.
    pub fn new(engine: Engine) -> Runtime {
        Runtime {
            engine,
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// A fresh [`RuntimeBuilder`] with nothing set.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The runtime the `DECO_ENGINE_*` variables select — shorthand for
    /// `Runtime::builder().from_env()?.build()`. On a clean environment
    /// (none of the variables set) this is the serial default.
    ///
    /// # Errors
    ///
    /// The [`EngineEnvError`] of the first malformed variable, carrying
    /// the variable name and the offending value verbatim — report it and
    /// bail rather than running on an engine the caller did not pin.
    pub fn from_env() -> Result<Runtime, EngineEnvError> {
        Ok(Runtime::builder().from_env()?.build())
    }

    /// The engine this runtime executes on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Consumes the runtime, returning its engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// The round budget for open-ended protocols run through this runtime
    /// (randomized baselines and other protocols without a fixed
    /// schedule). Exceeding it is [`RunError::RoundLimitExceeded`].
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// The stable one-line engine descriptor (see the [`Engine`]
    /// `Display`): embed it in reports and table headers so measurements
    /// stay attributable to the engine that produced them.
    pub fn descriptor(&self) -> String {
        self.engine.to_string()
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::serial()
    }
}

impl From<Engine> for Runtime {
    fn from(engine: Engine) -> Runtime {
        Runtime::new(engine)
    }
}

impl From<SerialExecutor> for Runtime {
    fn from(e: SerialExecutor) -> Runtime {
        Runtime::new(e.into())
    }
}

impl From<ParallelExecutor> for Runtime {
    fn from(e: ParallelExecutor) -> Runtime {
        Runtime::new(e.into())
    }
}

impl From<ShardedExecutor> for Runtime {
    fn from(e: ShardedExecutor) -> Runtime {
        Runtime::new(e.into())
    }
}

impl From<EngineSelection> for Runtime {
    fn from(sel: EngineSelection) -> Runtime {
        Runtime::new(sel.into())
    }
}

impl Executor for Runtime {
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
        self.engine.execute(net, protocol, max_rounds)
    }

    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.engine.execute_branches(weights, run)
    }
}

/// Builds a [`Runtime`] from explicit settings layered over the
/// environment. Each knob is independently tri-state: set by the builder
/// (always wins), set by its environment variable (used when the builder
/// left it unset and [`RuntimeBuilder::from_env`] ran), or absent. Engine
/// selection follows the settings that are present:
///
/// * `shards > 0` → the sharded engine (`threads` = threads per shard;
///   `mode` is ignored — the cut exchange is clock-driven by design);
/// * otherwise, any of `threads` / `mode` present → the in-process
///   parallel engine (`threads` 0 or unset = hardware auto);
/// * nothing present → the serial reference executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeBuilder {
    threads: Option<usize>,
    mode: Option<EngineMode>,
    shards: Option<usize>,
    max_rounds: Option<u64>,
    trace: Option<deco_trace::TraceMode>,
}

impl RuntimeBuilder {
    /// Requests a worker thread count (0 = hardware auto). Selects the
    /// parallel engine unless sharding is also requested, in which case
    /// this is the thread count *per shard*.
    pub fn threads(mut self, threads: usize) -> RuntimeBuilder {
        self.threads = Some(threads);
        self
    }

    /// Selects the round substrate of the parallel engine (barrier or
    /// async). Ignored when sharding.
    pub fn mode(mut self, mode: EngineMode) -> RuntimeBuilder {
        self.mode = Some(mode);
        self
    }

    /// Requests sharded execution over `shards` shards (0 = unsharded).
    pub fn shards(mut self, shards: usize) -> RuntimeBuilder {
        self.shards = Some(shards);
        self
    }

    /// Sets the round budget for open-ended protocols
    /// ([`Runtime::max_rounds`]).
    pub fn max_rounds(mut self, max_rounds: u64) -> RuntimeBuilder {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Selects the trace sink [`build`](RuntimeBuilder::build) installs
    /// process-globally: [`deco_trace::TraceMode::Off`] (the default — the
    /// zero-cost path), `Ring`, or `Jsonl` (path from `DECO_TRACE_PATH`,
    /// default `trace.jsonl`). Unset builders fall back to the `DECO_TRACE`
    /// environment variable via [`RuntimeBuilder::from_env`].
    pub fn trace(mut self, mode: deco_trace::TraceMode) -> RuntimeBuilder {
        self.trace = Some(mode);
        self
    }

    /// Fills every knob the builder has *not* set from its environment
    /// variable, parsing with the pure parsers of [`deco_engine::config`]:
    /// `DECO_ENGINE_THREADS`, `DECO_ENGINE_ASYNC`, `DECO_ENGINE_SHARDS`,
    /// `DECO_TRACE`.
    /// Explicit builder settings take precedence variable by variable —
    /// `.threads(4).from_env()` honors `DECO_ENGINE_SHARDS` while ignoring
    /// `DECO_ENGINE_THREADS`.
    ///
    /// # Errors
    ///
    /// The [`EngineEnvError`] of the first malformed *consulted* variable
    /// (a variable overridden by the builder is never read, so it cannot
    /// fail the build).
    pub fn from_env(mut self) -> Result<RuntimeBuilder, EngineEnvError> {
        fn fill<T>(
            slot: &mut Option<T>,
            var: &'static str,
            parse: impl Fn(&str) -> Result<T, EngineEnvError>,
        ) -> Result<(), EngineEnvError> {
            if slot.is_none() {
                if let Some(raw) = std::env::var_os(var) {
                    *slot = Some(parse(&raw.to_string_lossy())?);
                }
            }
            Ok(())
        }
        fill(&mut self.threads, config::ENV_THREADS, parse_threads)?;
        fill(&mut self.mode, config::ENV_ASYNC, parse_mode)?;
        fill(&mut self.shards, config::ENV_SHARDS, parse_shards)?;
        fill(&mut self.trace, config::ENV_TRACE, parse_trace)?;
        Ok(self)
    }

    /// Builds the runtime (see the type-level docs for the selection
    /// rules).
    pub fn build(self) -> Runtime {
        // The only selection logic the builder adds over EngineConfig is
        // the serial default: with no engine knob present at all, the
        // reference executor wins. Everything engine-shaped delegates to
        // deco-engine's own EngineConfig::selection, so there is exactly
        // one place that turns (threads, mode, shards) into a
        // concrete executor.
        let engine =
            if self.threads.is_none() && self.mode.is_none() && self.shards.unwrap_or(0) == 0 {
                Engine::serial()
            } else {
                config::EngineConfig {
                    threads: self.threads.unwrap_or(0),
                    mode: self.mode.unwrap_or_default(),
                    shards: self.shards.unwrap_or(0),
                }
                .selection()
                .into()
            };
        // Tracing is a process-global sink, not per-runtime state (the
        // Runtime stays Copy). Only an *explicit* selection touches the
        // global — a builder with no trace knob leaves whatever sink a
        // caller installed directly via deco_trace::install in place.
        if let Some(mode) = self.trace {
            if let Err(err) = deco_trace::install(deco_trace::TraceConfig::from_mode(mode)) {
                eprintln!("warning: could not install {mode} trace sink: {err}");
            }
        }
        Runtime {
            engine,
            max_rounds: self.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_is_the_serial_default() {
        let rt = Runtime::builder().build();
        assert_eq!(rt, Runtime::serial());
        assert_eq!(rt.descriptor(), "serial");
        assert_eq!(rt.max_rounds(), DEFAULT_MAX_ROUNDS);
    }

    #[test]
    fn builder_selects_engines_from_present_knobs() {
        assert_eq!(
            *Runtime::builder().threads(3).build().engine(),
            Engine::Parallel(ParallelExecutor::with_threads(3))
        );
        // threads=0 is an explicit request for the parallel auto engine,
        // not the serial default.
        assert_eq!(
            *Runtime::builder().threads(0).build().engine(),
            Engine::Parallel(ParallelExecutor::auto())
        );
        assert_eq!(
            *Runtime::builder().mode(EngineMode::Async).build().engine(),
            Engine::Parallel(ParallelExecutor::auto().with_mode(EngineMode::Async))
        );
        assert_eq!(
            *Runtime::builder().shards(4).threads(2).build().engine(),
            Engine::Sharded(ShardedExecutor::new(4).with_threads_per_shard(2))
        );
        // shards=0 explicitly means "not sharded"; with nothing else set
        // that is the serial default.
        assert_eq!(
            *Runtime::builder().shards(0).build().engine(),
            Engine::serial()
        );
    }

    #[test]
    fn builder_installs_and_uninstalls_the_trace_sink() {
        // Process-global: this test owns the sink for its duration (the
        // other tests in this file never set a trace knob, so they don't
        // touch it).
        assert!(!deco_trace::enabled());
        let rt = Runtime::builder()
            .trace(deco_trace::TraceMode::Ring)
            .build();
        assert!(deco_trace::enabled());
        assert_eq!(rt.descriptor(), "serial"); // trace knob never selects an engine
        let _ = Runtime::builder().build();
        assert!(
            deco_trace::enabled(),
            "trace-less builder leaves the sink alone"
        );
        let _ = Runtime::builder().trace(deco_trace::TraceMode::Off).build();
        assert!(!deco_trace::enabled());
    }

    #[test]
    fn engine_descriptors_round_trip_including_serial() {
        let engines = [
            Engine::serial(),
            Engine::Parallel(ParallelExecutor::with_threads(2)),
            Engine::Parallel(ParallelExecutor::auto().with_mode(EngineMode::Async)),
            Engine::Sharded(ShardedExecutor::new(4).with_threads_per_shard(2)),
        ];
        for engine in engines {
            let descriptor = engine.to_string();
            let parsed: Engine = descriptor.parse().expect("descriptor parses");
            assert_eq!(parsed, engine, "{descriptor} must round-trip");
        }
        assert!("turbo(threads=2)".parse::<Engine>().is_err());
    }

    #[test]
    fn runtime_from_concrete_executors() {
        assert_eq!(Runtime::from(SerialExecutor), Runtime::serial());
        assert_eq!(
            *Runtime::from(ParallelExecutor::with_threads(2)).engine(),
            Engine::Parallel(ParallelExecutor::with_threads(2))
        );
        assert_eq!(
            *Runtime::from(ShardedExecutor::new(2)).engine(),
            Engine::Sharded(ShardedExecutor::new(2))
        );
        assert_eq!(
            Engine::from(EngineSelection::Parallel(ParallelExecutor::auto())),
            Engine::Parallel(ParallelExecutor::auto())
        );
    }

    #[test]
    fn runtime_executes_on_every_arm() {
        use deco_engine::protocols::FloodMax;
        use deco_graph::generators;
        use deco_local::network::IdAssignment;

        let g = generators::cycle(24);
        let net = Network::new(&g, IdAssignment::Shuffled(3));
        let oracle = SerialExecutor
            .execute(&net, &FloodMax { radius: 3 }, 20)
            .unwrap();
        for rt in [
            Runtime::serial(),
            Runtime::from(ParallelExecutor::with_threads(2)),
            Runtime::from(ParallelExecutor::with_threads(2).with_mode(EngineMode::Async)),
            Runtime::from(ShardedExecutor::new(2)),
        ] {
            let out = rt.execute(&net, &FloodMax { radius: 3 }, 20).unwrap();
            assert_eq!(out.outputs, oracle.outputs, "{}", rt.descriptor());
            assert_eq!(out.rounds, oracle.rounds, "{}", rt.descriptor());
            assert_eq!(out.messages, oracle.messages, "{}", rt.descriptor());
            assert_eq!(rt.execute_branches(&[1, 1, 1], |i| i * 2), vec![0, 2, 4]);
        }
    }
}
