//! # deco-engine — high-throughput round execution for LOCAL protocols
//!
//! The serial runner in `deco-local` defines the model; this crate makes it
//! fast without changing a single observable bit:
//!
//! * [`mailbox`] — CSR-packed flat mailbox arenas with a precomputed
//!   mirror table: O(1) message delivery, zero per-round allocation,
//!   double-buffered across rounds — plus the per-port two-round
//!   [`mailbox::RingBuffer`] the barrier-free engine runs on.
//! * [`engine`] — [`ParallelExecutor`], which runs the send and receive
//!   phases across scoped threads over degree-balanced node ranges, and
//!   fans out callers' independent branch computations (the Theorem 4.1
//!   solver's parallel recursion) the same way via
//!   [`Executor::execute_branches`]. Parallelism is observationally
//!   invisible: outputs, round counts, message counts, and errors are
//!   identical to the serial runner for every protocol, network, and
//!   thread count (enforced by the differential suite in `tests/`).
//! * [`async_engine`] — [`AsyncExecutor`], the barrier-free executor:
//!   every node advances on its own component-local round counter
//!   ([`clock::RoundClock`]) the moment its neighbors' messages are
//!   present, with adjacent nodes at most one completed round apart (the
//!   ring buffer's depth-1 lookahead invariant). Same observational
//!   contract, proven by the three-way differential suite; disconnected
//!   and skewed-component workloads are where it shines.
//! * [`shard`] — sharded execution: a [`shard::ShardPlan`] partitions the
//!   network into degree-balanced shards, cut edges surface as ghost
//!   ports fed by a per-round cut exchange, and
//!   [`shard::ShardedExecutor`] runs the whole thing as a drop-in
//!   [`Executor`].
//! * [`scenario`] — the scenario matrix: graph families × sizes ×
//!   ID-assignment flavors enumerated from one base seed, with per-scenario
//!   named RNG streams (ixa-style), so sweeps and benchmarks share one
//!   declared source of workloads.
//! * [`protocols`] — stock substrate-stressing protocols used by the
//!   differential suite and the benches.
//! * [`config`] — structured parsing of the `DECO_ENGINE_*` environment
//!   variables CI pins its executor matrix with; malformed values are
//!   [`config::EngineEnvError`] values, never silent fallbacks.
//!
//! Threading is built on `std::thread::scope` (the build environment has no
//! crates.io access, so `rayon` is unavailable; see `par.rs` for the exact
//! swap-in point if that changes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_engine;
pub mod clock;
pub mod config;
pub mod engine;
pub mod mailbox;
pub mod par;
pub mod protocols;
pub mod scenario;
pub mod shard;

pub use async_engine::{AsyncExecutor, AsyncStats};
pub use clock::RoundClock;
pub use config::{EngineConfig, EngineEnvError, EngineSelection};
pub use engine::{EngineMode, ParallelExecutor};
pub use mailbox::MailboxPlan;
pub use scenario::{GraphSpec, IdFlavor, Scenario, ScenarioMatrix};
pub use shard::{ShardPlan, ShardedExecutor};

// Re-exported so engine users name the contract without importing
// deco-local explicitly.
pub use deco_local::{Executor, SerialExecutor};
