//! Engine-vs-serial substrate benchmarks: the same protocols on the same
//! large networks, executed by the serial reference runner, the engine
//! pinned to one thread (flat-mailbox fast path only), and the engine at
//! hardware parallelism. Outputs are asserted identical inside each
//! iteration, so the numbers can never drift apart from a correctness bug
//! silently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deco_bench::workloads;
use deco_engine::protocols::{FloodMax, PortEcho, StaggeredSum};
use deco_engine::{AsyncExecutor, Executor, ParallelExecutor, SerialExecutor, ShardedExecutor};
use deco_graph::generators;
use deco_local::{IdAssignment, Network};

/// The headline workload from the acceptance bar: random regular with
/// n = 10⁴, Δ = 32.
fn large_graph() -> deco_graph::Graph {
    generators::random_regular(10_000, 32, 41)
}

fn bench_flood_engine_vs_serial(c: &mut Criterion) {
    let g = large_graph();
    let net = Network::new(&g, IdAssignment::Shuffled(9));
    let protocol = FloodMax { radius: 4 };
    let mut group = c.benchmark_group("flood/regular(10k,32)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            SerialExecutor
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.bench_function("engine-1t", |b| {
        b.iter(|| {
            ParallelExecutor::with_threads(1)
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.bench_function("engine-auto", |b| {
        b.iter(|| {
            ParallelExecutor::auto()
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.finish();
}

fn bench_port_echo_thread_scaling(c: &mut Criterion) {
    let g = large_graph();
    let net = Network::new(&g, IdAssignment::Sequential);
    let protocol = PortEcho { rounds: 4 };
    let baseline = SerialExecutor.execute(&net, &protocol, 10).unwrap();
    let mut group = c.benchmark_group("port-echo/regular(10k,32)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            SerialExecutor
                .execute(&net, &protocol, 10)
                .unwrap()
                .messages
        })
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("engine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = ParallelExecutor::with_threads(threads)
                        .execute(&net, &protocol, 10)
                        .unwrap();
                    assert_eq!(out.outputs, baseline.outputs);
                    out.messages
                })
            },
        );
    }
    group.finish();
}

fn bench_solver_pipeline_on_engine(c: &mut Criterion) {
    use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
    use deco_runtime::Runtime;
    let g = generators::random_regular(512, 16, 23);
    let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
    let mut group = c.benchmark_group("solver/regular(512,16)");
    group.sample_size(10);
    let serial_rt = Runtime::serial();
    group.bench_function(serial_rt.descriptor(), |b| {
        b.iter(|| {
            solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &serial_rt)
                .expect("solver succeeds")
                .cost
                .actual_rounds()
        })
    });
    let engine_rt = Runtime::from(ParallelExecutor::auto());
    group.bench_function(engine_rt.descriptor(), |b| {
        b.iter(|| {
            solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &engine_rt)
                .expect("solver succeeds")
                .cost
                .actual_rounds()
        })
    });
    group.finish();
}

/// Barrier vs barrier-free on the workload built for asynchrony: one
/// dominant component plus a geometric tail of small ones. The staggered
/// protocol halts components at different local rounds, so the async
/// engine's skipped barrier waits are the whole story; outputs are
/// asserted identical against the serial baseline inside each iteration.
fn bench_async_component_skew(c: &mut Criterion) {
    let w = workloads::skewed_components(6000, 17);
    let net = Network::new(&w.graph, IdAssignment::Shuffled(7));
    let protocol = StaggeredSum { spread: 19 };
    let baseline = SerialExecutor.execute(&net, &protocol, 50).unwrap();
    let mut group = c.benchmark_group("async/skewed-components(6k)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            SerialExecutor
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.bench_function("engine-barrier", |b| {
        b.iter(|| {
            let out = ParallelExecutor::auto()
                .execute(&net, &protocol, 50)
                .unwrap();
            assert_eq!(out.outputs, baseline.outputs);
            out.messages
        })
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("engine-async", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = AsyncExecutor::with_threads(threads)
                        .execute(&net, &protocol, 50)
                        .unwrap();
                    assert_eq!(out.outputs, baseline.outputs);
                    out.messages
                })
            },
        );
    }
    group.finish();
}

/// Sharded execution on the headline workload: the partition, ghost-port,
/// and cut-exchange machinery at 1/2/4 shards against the serial and
/// barrier baselines: shards pay one boundary swap per round, so this
/// tracks the exchange overhead against whatever the extra threads buy on
/// the host's cores. Outputs are asserted identical inside each iteration.
fn bench_sharded_cut_exchange(c: &mut Criterion) {
    let g = large_graph();
    let net = Network::new(&g, IdAssignment::Shuffled(13));
    let protocol = FloodMax { radius: 4 };
    let baseline = SerialExecutor.execute(&net, &protocol, 50).unwrap();
    let mut group = c.benchmark_group("sharded/regular(10k,32)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            SerialExecutor
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.bench_function("engine-barrier", |b| {
        b.iter(|| {
            ParallelExecutor::auto()
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("engine-sharded", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let out = ShardedExecutor::new(shards)
                        .execute(&net, &protocol, 50)
                        .unwrap();
                    assert_eq!(out.outputs, baseline.outputs);
                    out.messages
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flood_engine_vs_serial,
    bench_port_echo_thread_scaling,
    bench_solver_pipeline_on_engine,
    bench_async_component_skew,
    bench_sharded_cut_exchange
);
criterion_main!(benches);
