//! The correctness gate every workload runs on every result it times.
//!
//! A solve passes when its coloring is complete, proper and on-list, uses
//! at most `2Δ − 1` colors, satisfies `rounds == x_rounds +
//! cost.actual_rounds()`, and repeats the deterministic fingerprint
//! (rounds, messages, base cases, colors) of the first accepted solve of
//! the same graph. A session's live coloring passes [`check_live`] after
//! each update. A failure is returned as an error, so callers count it as a
//! failed operation.

use deco::core_alg::{instance, ListInstance, RunReport, RunReportLine};
use deco::graph::coloring::{check_edge_coloring, EdgeColoring};
use deco::graph::Graph;
use deco::MutableGraph;

/// The deterministic observables of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rounds: u64,
    pub messages: u64,
    pub base_cases: u64,
    pub colors_digest: u64,
}

/// The gate for one graph.
pub struct Gate {
    inst: ListInstance,
    bound: usize,
    expect: Option<Fingerprint>,
}

impl Gate {
    pub fn new(g: &Graph) -> Gate {
        Gate {
            inst: instance::two_delta_minus_one(g),
            bound: (2 * g.max_degree()).saturating_sub(1).max(1),
            expect: None,
        }
    }

    /// The pinned fingerprint, once one solve passed.
    pub fn expected(&self) -> Option<Fingerprint> {
        self.expect
    }

    /// Checks an in-process run report.
    pub fn check_report(&mut self, r: &RunReport) -> Result<Fingerprint, String> {
        self.check_parts(
            &r.colors,
            r.rounds,
            r.x_rounds,
            r.cost.actual_rounds(),
            r.messages,
            r.solve_stats.base_cases,
        )
    }

    /// Checks a report that came back over the wire.
    pub fn check_line(&mut self, l: &RunReportLine) -> Result<Fingerprint, String> {
        self.check_parts(
            &l.coloring(),
            l.rounds,
            l.x_rounds,
            l.cost_rounds,
            l.messages,
            l.stats.base_cases,
        )
    }

    /// Checks a solve given by its parts (the traced pipeline has no
    /// `RunReport`).
    pub fn check_parts(
        &mut self,
        colors: &EdgeColoring,
        rounds: u64,
        x_rounds: u64,
        cost_rounds: u64,
        messages: u64,
        base_cases: u64,
    ) -> Result<Fingerprint, String> {
        self.inst.check_solution(colors)?;
        let used = colors.distinct_colors();
        if used > self.bound {
            return Err(format!("{used} colors used, bound 2Δ−1 = {}", self.bound));
        }
        if rounds != x_rounds + cost_rounds {
            return Err(format!(
                "rounds {rounds} != x_rounds {x_rounds} + cost rounds {cost_rounds}"
            ));
        }
        let got = Fingerprint {
            rounds,
            messages,
            base_cases,
            colors_digest: digest(colors),
        };
        match self.expect {
            Some(want) if want != got => Err(format!("not deterministic: {got:?} != {want:?}")),
            Some(_) => Ok(got),
            None => {
                self.expect = Some(got);
                Ok(got)
            }
        }
    }
}

/// Checks a session's live coloring after an update against `mirror`, the
/// benchmark's own copy of the graph with the same updates applied: the
/// session's graph `g` has the mirror's edges, `colors` is complete and
/// proper on `g`, and both the colors and the reported `palette_bound` stay
/// within `2Δ − 1` of the mirror's Δ.
pub fn check_live(
    mirror: &MutableGraph,
    g: &Graph,
    colors: &EdgeColoring,
    palette_bound: u32,
) -> Result<(), String> {
    let same_edges = g.num_edges() == mirror.num_edges()
        && g.edges().all(|e| {
            let [u, v] = g.endpoints(e);
            mirror.has_edge(u, v)
        });
    if !same_edges {
        return Err("session graph differs from the applied updates".into());
    }
    check_edge_coloring(g, colors).map_err(|v| format!("improper live coloring: {v}"))?;
    let bound = (2 * mirror.max_degree()).saturating_sub(1).max(1) as u32;
    if palette_bound != bound {
        return Err(format!("reported bound {palette_bound} != 2Δ−1 = {bound}"));
    }
    if colors.max_color().is_some_and(|c| c >= bound) {
        return Err(format!("live palette exceeds 2Δ−1 = {bound}"));
    }
    Ok(())
}

/// FNV-1a over the colors (uncolored edges hash as `u32::MAX`).
fn digest(colors: &EdgeColoring) -> u64 {
    colors
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, c| {
            c.unwrap_or(u32::MAX)
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco::core_alg::solver::{solve_two_delta_minus_one, SolverConfig};
    use deco::graph::{generators, EdgeId, EdgeUpdate};
    use deco::{Runtime, Session};

    fn solved() -> (Graph, RunReport) {
        let g = generators::random_regular(64, 6, 3);
        let ids: Vec<u64> = (1..=64).collect();
        let r = solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &Runtime::serial())
            .expect("solver succeeds");
        (g, r)
    }

    #[test]
    fn accepts_a_solve_and_its_repeat() {
        let (g, r) = solved();
        let mut gate = Gate::new(&g);
        let f = gate.check_report(&r).expect("valid solve passes");
        assert_eq!(gate.check_report(&r), Ok(f));
        let line = RunReportLine::from_report(&r);
        assert_eq!(gate.check_line(&line), Ok(f));
    }

    #[test]
    fn corrupted_coloring_fails() {
        let (g, mut r) = solved();
        // Give edge 0 the color of an edge it shares a node with.
        let e0 = EdgeId(0);
        let nb = g.edge_neighbors(e0).next().expect("edge 0 has a neighbor");
        r.colors.set(e0, r.colors.get(nb).expect("complete"));
        assert!(Gate::new(&g).check_report(&r).is_err());
    }

    #[test]
    fn off_list_color_fails() {
        let (g, mut r) = solved();
        r.colors.set(EdgeId(0), 10_000);
        assert!(Gate::new(&g).check_report(&r).is_err());
    }

    #[test]
    fn broken_round_invariant_fails() {
        let (g, mut r) = solved();
        r.rounds += 1;
        assert!(Gate::new(&g).check_report(&r).is_err());
    }

    #[test]
    fn drifting_counts_fail() {
        let (g, r) = solved();
        let mut gate = Gate::new(&g);
        gate.check_report(&r).expect("valid solve passes");
        let mut again = r.clone();
        again.messages += 1;
        assert!(gate.check_report(&again).is_err());
    }

    #[test]
    fn live_coloring_is_checked_against_the_mirror() {
        let g = generators::random_regular(64, 6, 3);
        let ids: Vec<u64> = (1..=64).collect();
        let mut session = Session::open(&g, &ids, SolverConfig::default(), &Runtime::serial())
            .expect("session opens");
        let mut mirror = MutableGraph::from_graph(&g);
        let [u, v] = g.endpoints(EdgeId(0));
        let update = EdgeUpdate::remove(u, v);
        mirror.apply(update).expect("edge 0 exists");
        let rep = session.apply(update).expect("update applies");
        let live = session.graph().clone();
        let colors = session.report().colors;
        assert_eq!(
            check_live(&mirror, &live, &colors, rep.palette_bound),
            Ok(())
        );

        // An improper live coloring fails.
        let mut bad = colors.clone();
        let e0 = EdgeId(0);
        let nb = live
            .edge_neighbors(e0)
            .next()
            .expect("edge 0 has a neighbor");
        bad.set(e0, bad.get(nb).expect("complete"));
        assert!(check_live(&mirror, &live, &bad, rep.palette_bound).is_err());
        // So do a wrong reported bound and a graph the updates do not give.
        assert!(check_live(&mirror, &live, &colors, rep.palette_bound + 2).is_err());
        assert!(check_live(&mirror, &g, &colors, rep.palette_bound).is_err());
    }
}
