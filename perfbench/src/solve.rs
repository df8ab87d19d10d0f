//! The solve workloads: a closed loop of `solve_two_delta_minus_one` on one
//! seeded graph on `Runtime::serial()`.

use crate::gate::Gate;
use crate::layers::{self, Counts};
use crate::serve;
use crate::stats::{calibrate, median, ms, peak_rss_mb, percentile, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, Workload};
use deco::core_alg::solver::{solve_two_delta_minus_one, SolverConfig};
use deco::graph::{generators, EdgeId, Graph, GraphBuilder};
use deco::Runtime;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `peak_rss_mb` is read after this many timed solves (plus the set-ups),
/// so a faster build that fits more solves in a run reads the same point.
const RSS_AFTER_SOLVES: usize = 8;

/// The workload's graph. For `solve-hub` the seed relabels one fixed
/// Kronecker graph (nodes and edge order): the degree profile of
/// `kronecker(11, 8)` changes with the generator seed, and with it the
/// size of L(G) and the peak memory, so a fresh Kronecker graph per seed
/// would measure the seed rather than the program.
fn graph(workload: Workload, seed: u64) -> Graph {
    match workload {
        Workload::SolveHub => relabeled(&generators::kronecker(11, 8, 1), seed),
        Workload::SolveRegular => generators::random_regular(4096, 16, seed),
    }
}

/// `g` with its nodes and its edge order permuted by `seed`.
fn relabeled(g: &Graph, seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    let mut shuffle = |len: usize| {
        let mut p: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            p.swap(i, rng.below(i + 1));
        }
        p
    };
    let node = shuffle(g.num_nodes());
    let order = shuffle(g.num_edges());
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    for i in order {
        let [u, v] = g.endpoints(EdgeId(i as u32));
        b.add_edge(node[u.index()].into(), node[v.index()].into());
    }
    b.build().expect("relabeling keeps the graph simple")
}

fn ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// Solves `g` once and gates the report; returns the wall time in ms.
fn solve_once(g: &Graph, ids: &[u64], rt: &Runtime, gate: &mut Gate, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let res = solve_two_delta_minus_one(g, ids, SolverConfig::default(), rt);
    let dt = ms(t.elapsed());
    out.record(
        res.map_err(|e| e.to_string())
            .and_then(|r| gate.check_report(&r)),
    );
    dt
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let rt = Runtime::serial();

    // Set-up: generate the graph and solve it once (the warm-up), several
    // times. The gate's own work is not part of set-up.
    let mut gate = Gate::new(&graph(args.workload, args.seed));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let g = graph(args.workload, args.seed);
        let ids = ids(&g);
        let generated = t.elapsed().as_secs_f64();
        let warm_up_ms = solve_once(&g, &ids, &rt, &mut gate, &mut out);
        setup_s.push(generated + warm_up_ms / 1e3);
        prepared = Some((g, ids));
    }
    let (g, ids) = prepared.expect("at least one set-up");

    // The timed closed loop.
    let mut solve_ms = Vec::new();
    let mut rss = f64::NAN;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        solve_ms.push(solve_once(&g, &ids, &rt, &mut gate, &mut out));
        if solve_ms.len() == RSS_AFTER_SOLVES {
            rss = peak_rss_mb();
        }
    }
    if rss.is_nan() {
        rss = peak_rss_mb();
    }
    let solving: f64 = solve_ms.iter().sum::<f64>() / 1e3;
    let solves = solve_ms.len() as f64;

    out.push("setup_s", median(&mut setup_s), "s");
    out.push(
        "edges_per_s",
        g.num_edges() as f64 * solves / solving,
        "edges/s",
    );
    out.push("solve_p50_ms", median(&mut solve_ms), "ms");
    out.push("solve_p85_ms", percentile(&mut solve_ms, 0.85), "ms");
    out.push("peak_rss_mb", rss, "MB");
    let q: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&p| format!("{:.1}", percentile(&mut solve_ms, p)))
        .collect();
    eprintln!(
        "perfbench: {} solves of m={} in {solving:.2} s (ms at p0/10/25/50/75/90/100: {}); fingerprint {:?}",
        solve_ms.len(),
        g.num_edges(),
        q.join(" "),
        gate.expected()
    );
    out
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let calib_start = calibrate();
    let rt = Runtime::serial();
    let g = graph(args.workload, args.seed);
    let ids = ids(&g);
    let mut gate = Gate::new(&g);

    let mut tr = Tracer::new(args.seed);
    let mut untraced_ms = Vec::new();
    let mut counts: Option<Counts> = None;
    let start = Instant::now();
    while start.elapsed() < args.seconds || untraced_ms.is_empty() {
        untraced_ms.push(solve_once(&g, &ids, &rt, &mut gate, &mut out));
        if let Some(c) = out.record(layers::traced_pipeline(&mut tr, &g, &ids, &rt, &mut gate)) {
            if counts.as_ref().is_some_and(|prev| *prev != c) {
                out.record::<()>(Err(format!("layer counts changed: {c:?}")));
            }
            counts = Some(c);
        }
    }
    let Some(counts) = counts else {
        return out;
    };
    out.metrics = layers::pipeline_metrics(&tr, &counts, &mut untraced_ms);

    // The session and serve layers, on the serve cycle's own traffic.
    let cycles = serve::cycles(args.seed);
    out.absorb(&cycles);
    out.metrics.extend(cycles.metrics);

    out.push("host.calib_ms", (calib_start + calibrate()) / 2.0, "ms");
    if let Err(e) = tr.write_jsonl(&mut std::io::stderr().lock()) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    out
}
