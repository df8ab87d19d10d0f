//! The traced pipeline: the solve of `solve_two_delta_minus_one`, rebuilt
//! from the public calls of each crate with a span around each call, plus
//! the in-process session replay of the serve cycle (see `serve.rs`).
//! Every result still goes through the gate.
//!
//! Span tree of one iteration:
//!
//! ```text
//! graph.line_graph                 LineGraph::of(G), a sibling of the pipeline
//! pipeline
//! ├── core.instance                instance::two_delta_minus_one
//! ├── algos.x_coloring             edge_adapter::linial_edge_coloring (builds L(G) again inside)
//! ├── core.solve                   Solver::solve_instance
//! └── graph.verify                 check_solution + check_edge_coloring
//! engine.serial_x_coloring         the two engine-backed calls again on
//! engine.serial_solve              Runtime::serial() and on the 2-thread
//! engine.barrier2_x_coloring       barrier engine: the engine overhead
//! engine.barrier2_solve            ratios
//! ```

use crate::gate::{self, Gate};
use crate::stats::{median, ms, us};
use crate::trace::Tracer;
use crate::Metric;
use deco::algos::edge_adapter::linial_edge_coloring;
use deco::core_alg::solver::SolverConfig;
use deco::core_alg::{instance, SolveStats, Solver};
use deco::graph::coloring::{check_edge_coloring, EdgeColoring};
use deco::graph::{EdgeUpdate, Graph, LineGraph};
use deco::{MutableGraph, Runtime, Session};
use std::time::Instant;

/// The deterministic counts of one traced pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub line_graph_edges: u64,
    pub x_rounds: u64,
    pub x_messages: u64,
    pub rounds_charged: u64,
    pub stats: SolveStats,
}

/// Runs one traced pipeline on `rt` (and the engine comparison calls) and
/// checks the result with `gate`.
pub fn traced_pipeline(
    tr: &mut Tracer,
    g: &Graph,
    ids: &[u64],
    rt: &Runtime,
    gate: &mut Gate,
) -> Result<Counts, String> {
    let config = SolverConfig::default();
    let lg = tr.span("graph.line_graph", None, || LineGraph::of(g));
    let line_graph_edges = lg.graph().num_edges() as u64;
    drop(lg);
    let want: usize = g
        .nodes()
        .map(|v| g.degree(v) * g.degree(v).saturating_sub(1) / 2)
        .sum();
    if line_graph_edges != want as u64 {
        return Err(format!(
            "L(G) has {line_graph_edges} edges, Σ C(deg, 2) = {want}"
        ));
    }

    let p = tr.open("pipeline", None);
    let inst = tr.span("core.instance", Some(p), || {
        instance::two_delta_minus_one(g)
    });
    let x = tr
        .span("algos.x_coloring", Some(p), || {
            linial_edge_coloring(g, ids, rt)
        })
        .map_err(|e| format!("x-coloring: {e}"))?;
    let x_coloring: Vec<u32> = g
        .edges()
        .map(|e| x.coloring.get(e).ok_or("x-coloring incomplete"))
        .collect::<Result<_, _>>()?;
    let x_palette = u32::try_from(x.palette).map_err(|_| "x palette exceeds u32")?;
    let solver = Solver::with_runtime(config, *rt);
    let sol = tr
        .span("core.solve", Some(p), || {
            solver.solve_instance(&inst, &x_coloring, x_palette)
        })
        .map_err(|e| format!("solve: {e}"))?;
    let coloring = EdgeColoring::from_complete(sol.colors.clone());
    tr.span("graph.verify", Some(p), || {
        inst.check_solution(&coloring)?;
        check_edge_coloring(g, &coloring).map_err(|v| v.to_string())
    })?;
    tr.close(p);

    // The two engine-backed calls again on the serial executor and on the
    // 2-thread barrier engine: the engine overhead ratios, and the
    // differential contract (identical colors on every engine).
    for (engine, x_name, solve_name) in [
        (
            Runtime::serial(),
            "engine.serial_x_coloring",
            "engine.serial_solve",
        ),
        (
            Runtime::builder().threads(2).build(),
            "engine.barrier2_x_coloring",
            "engine.barrier2_solve",
        ),
    ] {
        let ex = tr
            .span(x_name, None, || linial_edge_coloring(g, ids, &engine))
            .map_err(|e| format!("{x_name}: {e}"))?;
        let solver = Solver::with_runtime(config, engine);
        let es = tr
            .span(solve_name, None, || {
                solver.solve_instance(&inst, &x_coloring, x_palette)
            })
            .map_err(|e| format!("{solve_name}: {e}"))?;
        if ex.coloring.as_slice() != x.coloring.as_slice() || es.colors != sol.colors {
            return Err(format!("{} colors differ", engine.descriptor()));
        }
    }

    let cost_rounds = sol.cost.actual_rounds();
    gate.check_parts(
        &coloring,
        x.rounds + cost_rounds,
        x.rounds,
        cost_rounds,
        x.messages + sol.stats.messages,
        sol.stats.base_cases,
    )?;
    Ok(Counts {
        line_graph_edges,
        x_rounds: x.rounds,
        x_messages: x.messages,
        rounds_charged: x.rounds + cost_rounds,
        stats: sol.stats,
    })
}

/// The per-layer metrics of the traced pipelines in `tr`. `untraced_ms`
/// are the wall times of plain `solve_two_delta_minus_one` calls made in
/// the same run, the base of `trace.overhead_pct`.
pub fn pipeline_metrics(tr: &Tracer, counts: &Counts, untraced_ms: &mut [f64]) -> Vec<Metric> {
    let med = |name: &str| median(&mut tr.durations(name));
    let line_graph = med("graph.line_graph");
    let x_coloring = med("algos.x_coloring");
    let (mut shares, mut uncovered): (Vec<f64>, Vec<f64>) =
        tr.coverage("pipeline").into_iter().unzip();
    let pipeline = med("pipeline");
    let untraced = median(untraced_ms);
    let s = &counts.stats;
    vec![
        ("graph.line_graph_ms", line_graph, "ms"),
        (
            "graph.line_graph_edges",
            counts.line_graph_edges as f64,
            "count",
        ),
        ("graph.verify_ms", med("graph.verify"), "ms"),
        ("algos.x_coloring_ms", x_coloring, "ms"),
        // Computed, not a span: linial_edge_coloring builds L(G) inside.
        ("algos.x_self_ms", x_coloring - line_graph, "ms"),
        ("algos.x_rounds", counts.x_rounds as f64, "count"),
        ("algos.x_messages", counts.x_messages as f64, "count"),
        ("core.instance_ms", med("core.instance"), "ms"),
        ("core.solve_ms", med("core.solve"), "ms"),
        ("core.sweeps", s.sweeps as f64, "count"),
        ("core.base_cases", s.base_cases as f64, "count"),
        ("core.space_reductions", s.space_reductions as f64, "count"),
        ("core.slack_fallbacks", s.slack_fallbacks as f64, "count"),
        ("core.messages", s.messages as f64, "count"),
        ("core.rounds_charged", counts.rounds_charged as f64, "count"),
        (
            "core.useful_class_ratio",
            s.classes_nonempty as f64 / s.classes_total.max(1) as f64,
            "ratio",
        ),
        (
            "engine.x_coloring_overhead",
            med("engine.barrier2_x_coloring") / med("engine.serial_x_coloring"),
            "ratio",
        ),
        (
            "engine.solve_overhead",
            med("engine.barrier2_solve") / med("engine.serial_solve"),
            "ratio",
        ),
        ("trace.coverage", median(&mut shares), "ratio"),
        ("trace.uncovered_ms", median(&mut uncovered), "ms"),
        (
            "trace.overhead_pct",
            (pipeline - untraced) / untraced * 100.0,
            "%",
        ),
        // What a whole solve spends outside the pipeline's calls: the
        // session wrapper of solve_two_delta_minus_one.
        ("trace.outside_pipeline_ms", untraced - pipeline, "ms"),
    ]
}

/// What replaying an update trace on an in-process session measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of each update, µs.
    pub update_us: Vec<f64>,
    pub recolored: u64,
    pub updates: u64,
}

impl Replay {
    pub fn extend(&mut self, other: Replay) {
        self.update_us.extend(other.update_us);
        self.recolored += other.recolored;
        self.updates += other.updates;
    }
}

/// Applies `trace` to `session` of `g`, timing each update. After each
/// update, outside the timing, the live coloring must pass
/// [`gate::check_live`] against the benchmark's own mirror of the graph,
/// and the session must not have escalated to a full re-solve. Failed
/// updates go to `out`.
pub fn replay(
    session: &mut Session,
    g: &Graph,
    trace: &[EdgeUpdate],
    out: &mut crate::Outcome,
) -> Replay {
    let mut mirror = MutableGraph::from_graph(g);
    let mut r = Replay::default();
    for &u in trace {
        if mirror.apply(u).is_err() {
            out.record::<()>(Err(format!("{u} does not apply to the mirror")));
            continue;
        }
        let t = Instant::now();
        let res = session.apply(u);
        let dt = t.elapsed();
        let ok = out.record(res.map_err(|e| e.to_string()).and_then(|rep| {
            let live = session.graph().clone();
            gate::check_live(&mirror, &live, &session.report().colors, rep.palette_bound)?;
            if session.resolves() > 0 {
                return Err(format!("{u} escalated to a full re-solve"));
            }
            Ok(rep)
        }));
        if let Some(rep) = ok {
            r.update_us.push(us(dt));
            r.recolored += rep.recolored;
            r.updates += 1;
        }
    }
    r
}

/// `core.session_*` metrics: `open_ms` are the `Session::open` wall times.
pub fn session_metrics(open_ms: &mut [f64], r: &mut Replay) -> Vec<Metric> {
    vec![
        ("core.session_open_ms", median(open_ms), "ms"),
        ("core.apply_us", median(&mut r.update_us), "us"),
        (
            "core.recolored_per_update",
            r.recolored as f64 / r.updates.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Times `Session::open` of `g` on `rt`, gating its report.
pub fn open_session(
    g: &Graph,
    ids: &[u64],
    rt: &Runtime,
    gate: &mut Gate,
    out: &mut crate::Outcome,
) -> Option<(Session, f64)> {
    let t = Instant::now();
    let res = Session::open(g, ids, SolverConfig::default(), rt);
    let dt = ms(t.elapsed());
    let session = out.record(res.map_err(|e| e.to_string()).and_then(|mut s| {
        let report = s.report();
        gate.check_report(&report).map(|_| s)
    }))?;
    Some((session, dt))
}
