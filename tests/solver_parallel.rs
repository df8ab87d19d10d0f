//! Differential suite for the parallel solver recursion through the
//! unified [`Runtime`] facade: running the Theorem 4.1 solver on every
//! engine arm — barrier, barrier-free async, and sharded alike — at 1/2/4
//! worker threads (and 2/4 shards) must be observationally identical to
//! the serial recursion — same colors, same cost tree (round counts and
//! structure), same merged `SolveStats`, same message totals — on every
//! scenario. Plus the structured error paths: depth overruns and residual
//! slack shortfalls surface as values, never panics, on every engine.

use deco::core_alg::instance;
use deco::core_alg::solver::{
    solve_pipeline, solve_two_delta_minus_one, SolveError, Solver, SolverConfig,
};
use deco::engine::{EngineMode, GraphSpec, IdFlavor, ParallelExecutor, Scenario, ShardedExecutor};
use deco::graph::{generators, Graph};
use deco::Runtime;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// The four-way lineup as runtimes: barrier and async engines at each
/// pinned thread count, the sharded engine at each shard ×
/// threads-per-shard cell (the solver's protocol executions and branch
/// fan-outs both route through the runtime), plus the env-pinned runtime
/// (`DECO_ENGINE_THREADS` × `DECO_ENGINE_ASYNC` × `DECO_ENGINE_SHARDS`).
/// Labels are the runtimes' own stable descriptors.
fn runtime_lineup() -> Vec<(String, Runtime)> {
    let mut runtimes: Vec<Runtime> = Vec::new();
    for &t in &THREAD_COUNTS {
        runtimes.push(Runtime::from(ParallelExecutor::with_threads(t)));
        runtimes.push(Runtime::from(
            ParallelExecutor::with_threads(t).with_mode(EngineMode::Async),
        ));
    }
    for (s, t) in [(2, 1), (4, 2)] {
        runtimes.push(Runtime::from(
            ShardedExecutor::new(s).with_threads_per_shard(t),
        ));
    }
    runtimes.push(Runtime::from_env().expect("engine env vars parse"));
    runtimes
        .into_iter()
        .map(|rt| (rt.descriptor(), rt))
        .collect()
}

/// Solves `g` on the serial runtime and on every engine of the lineup and
/// demands identical observables.
fn differential(name: &str, g: &Graph, cfg: SolverConfig) {
    let node_ids = ids(g);
    let serial =
        solve_two_delta_minus_one(g, &node_ids, cfg, &Runtime::serial()).expect("serial solves");
    assert_eq!(serial.engine_descriptor, "serial");
    for (label, rt) in runtime_lineup() {
        let par =
            solve_two_delta_minus_one(g, &node_ids, cfg, &rt).expect("parallel solver succeeds");
        assert_eq!(serial.colors, par.colors, "[{name} {label}] colors diverge");
        assert_eq!(serial.cost, par.cost, "[{name} {label}] cost trees diverge");
        assert_eq!(
            serial.solve_stats, par.solve_stats,
            "[{name} {label}] merged stats diverge"
        );
        assert_eq!(
            serial.messages, par.messages,
            "[{name} {label}] message totals diverge"
        );
        assert_eq!(
            serial.x_rounds, par.x_rounds,
            "[{name} {label}] pipeline rounds diverge"
        );
        assert_eq!(
            serial.rounds, par.rounds,
            "[{name} {label}] charged round totals diverge"
        );
        assert_eq!(par.engine_descriptor, label, "report attribution");
    }
}

#[test]
fn scenario_matrix_families_match_serial() {
    // One representative of every family the scenario matrix exercises,
    // sized so default-config solves stay fast but non-trivial.
    let specs = [
        GraphSpec::RandomRegular { n: 100, d: 8 },
        GraphSpec::RandomRegular { n: 60, d: 14 },
        GraphSpec::Gnp { n: 90, p: 0.1 },
        GraphSpec::PowerLaw { n: 120 },
        GraphSpec::TwoClusters { n: 30, d: 4 },
        GraphSpec::ManySmallComponents {
            components: 10,
            max_size: 6,
        },
        GraphSpec::Complete { n: 13 },
        GraphSpec::Cycle { n: 150 },
        GraphSpec::Path { n: 40 },
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        let scenario = Scenario::new(spec, IdFlavor::Shuffled, 5 + i as u64);
        let g = scenario.graph();
        differential(&scenario.name, &g, SolverConfig::default());
    }
}

#[test]
fn strategies_and_faithful_parameters_match_serial() {
    use deco::core_alg::solver::Strategy;
    let g = generators::random_regular(48, 8, 21);
    for (name, cfg) in [
        ("faithful", SolverConfig::faithful(1.0)),
        (
            "kuhn20",
            SolverConfig {
                strategy: Strategy::Kuhn20,
                ..SolverConfig::default()
            },
        ),
        (
            "constant-p3",
            SolverConfig {
                strategy: Strategy::ConstantP(3),
                ..SolverConfig::default()
            },
        ),
    ] {
        differential(name, &g, cfg);
    }
}

#[test]
fn list_instance_pipeline_matches_serial() {
    let g = generators::random_regular(40, 8, 33);
    let inst = instance::random_deg_plus_one(&g, 3 * g.max_edge_degree() as u32, 7);
    let node_ids = ids(&g);
    let serial = solve_pipeline(
        &g,
        inst.clone(),
        &node_ids,
        SolverConfig::default(),
        &Runtime::serial(),
    )
    .expect("serial solves");
    for (label, rt) in runtime_lineup() {
        let par = solve_pipeline(&g, inst.clone(), &node_ids, SolverConfig::default(), &rt)
            .expect("parallel solves");
        assert_eq!(serial.colors, par.colors, "{label}");
        assert_eq!(serial.cost, par.cost, "{label}");
        assert_eq!(serial.solve_stats, par.solve_stats, "{label}");
        assert_eq!(serial.messages, par.messages, "{label}");
        inst.check_solution(&par.colors).expect("valid coloring");
    }
}

#[test]
fn depth_exceeded_is_an_error_on_every_engine() {
    let g = generators::random_regular(40, 6, 9);
    let cfg = SolverConfig {
        max_depth: 1,
        ..SolverConfig::default()
    };
    let node_ids = ids(&g);
    let serial_err = solve_two_delta_minus_one(&g, &node_ids, cfg, &Runtime::serial()).unwrap_err();
    assert_eq!(serial_err, SolveError::DepthExceeded { depth: 1, limit: 1 });
    for (label, rt) in runtime_lineup() {
        let par_err = solve_two_delta_minus_one(&g, &node_ids, cfg, &rt).unwrap_err();
        assert_eq!(serial_err, par_err, "errors diverge at {label}");
    }
}

#[test]
fn overclaimed_slack_falls_back_identically_on_every_engine() {
    // Tight (deg+1)-lists over a huge palette + a wildly overclaimed slack:
    // the Lemma 4.3 residuals lose feasibility, and every engine must
    // degrade to the slack-1 path with identical output and fallback count.
    let g = generators::random_regular(36, 12, 7);
    let inst = instance::random_deg_plus_one(&g, 6000, 8);
    let node_ids = ids(&g);
    let x =
        deco::algos::edge_adapter::linial_edge_coloring(&g, &node_ids, &Runtime::serial()).unwrap();
    let xc: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap()).collect();
    let cfg = SolverConfig {
        beta_cap: None,
        p_cap: None,
        small_palette: 8,
        base_dbar: 6,
        ..SolverConfig::default()
    };
    let serial = Solver::new(cfg)
        .solve_slack_instance(&inst, &xc, x.palette as u32, 1e6)
        .expect("fallback keeps the solve alive");
    assert!(serial.stats.slack_fallbacks > 0, "{:?}", serial.stats);
    inst.check_solution(&deco::graph::coloring::EdgeColoring::from_complete(
        serial.colors.clone(),
    ))
    .expect("valid despite fallback");
    for (label, rt) in runtime_lineup() {
        let par = Solver::with_runtime(cfg, rt)
            .solve_slack_instance(&inst, &xc, x.palette as u32, 1e6)
            .expect("fallback keeps the solve alive");
        assert_eq!(serial.colors, par.colors, "{label}");
        assert_eq!(serial.cost, par.cost, "{label}");
        assert_eq!(serial.stats, par.stats, "{label}");
    }
}
