//! The Theorem 4.1 solver: `(deg(e)+1)`-list edge coloring in
//! `log^{O(log log Δ)} Δ + O(log* n)` LOCAL rounds.
//!
//! Recursion structure (§4.3 of the paper):
//!
//! * [`Solver::solve_instance`] solves slack-1 instances via Lemma 4.2
//!   sweeps: a `deg(e)/2β`-defective coloring splits the instance into
//!   `O(β²)` classes whose active subgraphs have slack > β and degree
//!   ≤ Δ̄/2β; the residual degree halves per sweep.
//! * Slack-β instances go through Lemma 4.3 color space reductions with
//!   `p ≈ √Δ̄`: the subspace assignment itself is a small recursive
//!   `(deg+1)`-list instance on a virtual graph with Δ̄ ≤ 2p−1 ≈ 2√Δ̄ — the
//!   polynomial degree reduction that yields the `O(log log Δ)` recursion
//!   depth — and the per-subspace residuals (palette `C/p`, slack divided
//!   by `24·H_{2p}·log p`) recurse in parallel.
//! * Instances with constant degree (or constant palette) bottom out in the
//!   classic base case: Linial's coloring from the initial `X`-edge-coloring
//!   (`O(log* X)` rounds) followed by a constant number of class-elimination
//!   rounds.
//!
//! The solver is *always correct* for any parameter choice: whenever a
//! space reduction's slack requirement is not met (small `β` in clamped
//! practical runs), it falls back to the slack-1 path, which needs nothing
//! but (deg+1)-lists. Parameter strategies reproduce the paper's schedule
//! ([`Strategy::Paper`]), Kuhn SODA'20-shaped parameters
//! ([`Strategy::Kuhn20`]), or fixed small parameters
//! ([`Strategy::ConstantP`]) for ablation.
//!
//! ## Parallel recursion
//!
//! The recursion's logically-parallel composition points — the paper's
//! reason the round budget takes a `max`, not a sum — really do execute in
//! parallel, routed through [`Executor::execute_branches`]:
//!
//! * Lemma 4.3's per-subspace residuals use disjoint color ranges on
//!   edge-disjoint subgraphs and fan out directly;
//! * Lemma 4.2's per-class slack-β solves carry a sequential data
//!   dependency only between *adjacent* classes (a class's residual lists
//!   read the colors of neighboring, earlier classes), so `slack::sweep`
//!   schedules them in dependency wavefronts: classes in the same wave are
//!   mutually non-adjacent and solve concurrently.
//!
//! Parallelism is observationally invisible. Each recursive solve returns a
//! self-contained [`SolveBranch`] — colors, cost subtree, and its own
//! [`SolveStats`] — and branch stats are merged **in branch order** at
//! every join point ([`SolveStats::merge`]; all counters are sums or maxes,
//! so the merged totals are bit-identical to the serial recursion for every
//! thread count). There is no shared mutable state anywhere in the
//! recursion: the serial runtime ([`Runtime::serial`]) reproduces the
//! historical serial behavior exactly, and the differential suite holds
//! every engine to it.
//!
//! Failure is structured, never a panic: exceeding
//! [`SolverConfig::max_depth`] surfaces as [`SolveError::DepthExceeded`]
//! through [`Solver::solve_instance`] / [`solve_pipeline`], and a residual
//! sub-instance that loses (deg+1)-feasibility (an over-optimistic slack
//! claim) degrades to the always-correct slack-1 path, counted in
//! [`SolveStats::slack_fallbacks`].

use crate::instance::ListInstance;
use crate::lists::{ColorList, SubspacePartition};
use crate::slack;
use crate::space;
use deco_algos::{class_elimination, edge_adapter, linial};
use deco_graph::coloring::{Color, EdgeColoring};
use deco_graph::{EdgeId, Graph, LineGraph};
use deco_local::math::harmonic;
use deco_local::{CostNode, Executor, Network};
use deco_runtime::Runtime;
use std::fmt;
use std::time::{Duration, Instant};

/// Parameter strategies for β (Lemma 4.2) and p (Lemma 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// The paper's schedule: `β = α·log^{4c} Δ̄`, `p = ⌊√Δ̄⌋`.
    Paper,
    /// Kuhn SODA'20-shaped schedule: `β = α·2^{√log Δ̄}`, `p = 2^{⌈√log C⌉}`
    /// (one-level color space reduction geometry; reproduces the
    /// `2^{O(√log Δ)}` recursion shape inside the same machinery).
    Kuhn20,
    /// Fixed `p`; `β` is set to the single-step slack requirement
    /// `⌈α·24·H_{2p}·log p⌉`. Ablation baseline.
    ConstantP(u32),
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Parameter strategy.
    pub strategy: Strategy,
    /// The paper's "large enough constant" α multiplying β.
    pub alpha: f64,
    /// Maximum edge degree treated as the O(1) base case.
    pub base_dbar: usize,
    /// Palette size at or below which space reduction stops.
    pub small_palette: u32,
    /// Optional clamp on β for bounded-round practical runs (correctness is
    /// unaffected; slack shortfalls fall back to the slack-1 path).
    pub beta_cap: Option<u32>,
    /// Optional clamp on p.
    pub p_cap: Option<u32>,
    /// Hard recursion depth limit (safety net; the recursion provably
    /// terminates well before this).
    pub max_depth: u32,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            strategy: Strategy::Paper,
            alpha: 1.0,
            base_dbar: 8,
            small_palette: 12,
            beta_cap: Some(4),
            p_cap: Some(16),
            max_depth: 256,
        }
    }
}

impl SolverConfig {
    /// The paper's parameters without practical clamps: exactly the
    /// Theorem 4.1 schedule (rounds grow enormous, work stays proportional
    /// to the number of edges).
    pub fn faithful(alpha: f64) -> SolverConfig {
        SolverConfig {
            strategy: Strategy::Paper,
            alpha,
            beta_cap: None,
            p_cap: None,
            ..SolverConfig::default()
        }
    }
}

/// Structured solver failure. The solver never panics on these conditions;
/// they propagate as `Err` through every recursion level — including across
/// parallel branch joins, where the first failing branch *in branch order*
/// wins deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The recursion exceeded [`SolverConfig::max_depth`].
    DepthExceeded {
        /// The depth that was about to be entered.
        depth: u32,
        /// The configured limit.
        limit: u32,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DepthExceeded { depth, limit } => {
                write!(f, "recursion depth {depth} exceeds the limit {limit}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// One solved sub-recursion (a *branch*): the colors of its sub-instance,
/// its cost subtree, and the [`SolveStats`] accumulated beneath it. Every
/// internal solve returns a self-contained branch; join points merge
/// branch stats in branch order ([`SolveStats::merge`]), which is what
/// makes the recursion thread-safe without any shared mutable state.
#[derive(Debug, Clone)]
pub struct SolveBranch {
    /// One color per sub-instance edge, drawn from that edge's list.
    pub colors: Vec<Color>,
    /// Structured round cost of the branch.
    pub cost: CostNode,
    /// Counters of the branch's own recursion subtree.
    pub stats: SolveStats,
}

impl From<Solution> for SolveBranch {
    fn from(sol: Solution) -> SolveBranch {
        SolveBranch {
            colors: sol.colors,
            cost: sol.cost,
            stats: sol.stats,
        }
    }
}

/// Counters describing a solve, used by tests and the experiment harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Lemma 4.2 sweeps executed.
    pub sweeps: u64,
    /// Defective classes that contained edges (work was done).
    pub classes_nonempty: u64,
    /// Total defective classes scheduled (including empty ones).
    pub classes_total: u64,
    /// Lemma 4.3 space reductions executed.
    pub space_reductions: u64,
    /// Recursive subspace-assignment solves (virtual graphs + E⁽²⁾).
    pub assign_solves: u64,
    /// Times a slack instance fell back to the slack-1 path because the
    /// slack requirement `S ≥ 24·H_q·log p` was not met.
    pub slack_fallbacks: u64,
    /// Base cases executed.
    pub base_cases: u64,
    /// Worst Eq. (2) ratio observed across all space reductions.
    pub eq2_worst_ratio: f64,
    /// Maximum recursion depth reached.
    pub max_depth_seen: u32,
    /// Messages delivered by the solve's protocol executions (base-case
    /// Linial runs, defective-coloring conflict-path runs). A sum of
    /// per-run counts that are themselves engine-independent, so the total
    /// is bit-identical on every engine.
    pub messages: u64,
}

impl SolveStats {
    /// Folds another branch's counters into this one. Counts add, extrema
    /// take the max — every field is commutative and associative, so
    /// merging parallel branches in branch order reproduces the serial
    /// recursion's totals bit for bit.
    pub fn merge(&mut self, other: &SolveStats) {
        self.sweeps += other.sweeps;
        self.classes_nonempty += other.classes_nonempty;
        self.classes_total += other.classes_total;
        self.space_reductions += other.space_reductions;
        self.assign_solves += other.assign_solves;
        self.slack_fallbacks += other.slack_fallbacks;
        self.base_cases += other.base_cases;
        self.eq2_worst_ratio = self.eq2_worst_ratio.max(other.eq2_worst_ratio);
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.messages += other.messages;
    }
}

/// A complete solve: colors (per instance edge), round cost, statistics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// One color per edge, drawn from that edge's list.
    pub colors: Vec<Color>,
    /// Structured round cost of the whole computation.
    pub cost: CostNode,
    /// Execution counters.
    pub stats: SolveStats,
}

/// The Theorem 4.1 solver, running on a [`Runtime`] that carries whichever
/// engine executes its message-passing sub-protocols (the Linial base-case
/// runs, the defective coloring's conflict-path runs) *and* its parallel
/// recursion branches (per-subspace residuals, per-class slack-β solves).
/// Defaults to the serial reference runtime; pass an engine-backed
/// [`Runtime`] via [`Solver::with_runtime`] for large instances and real
/// worker-thread parallelism. No generics: every engine is one arm of the
/// runtime's `Engine`, and all of them are observationally identical.
///
/// The solver holds no mutable state — all counters live in per-branch
/// [`SolveStats`] merged at join points — so a `&Solver` is freely shared
/// across the engine's worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Solver {
    config: SolverConfig,
    rt: Runtime,
}

impl Solver {
    /// Creates a solver with the given configuration on the serial
    /// reference runtime.
    pub fn new(config: SolverConfig) -> Solver {
        Solver::with_runtime(config, Runtime::serial())
    }

    /// Creates a solver that runs its protocol executions and parallel
    /// recursion branches on `rt`'s engine.
    pub fn with_runtime(config: SolverConfig, rt: Runtime) -> Solver {
        Solver { config, rt }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The runtime the solver executes on.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Solves a `(deg(e)+1)`-list edge coloring instance given an initial
    /// proper `X`-edge-coloring of the instance graph.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DepthExceeded`] if the recursion would exceed
    /// [`SolverConfig::max_depth`].
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a (deg+1)-list instance or `x_coloring` is
    /// not proper with palette `x_palette`.
    pub fn solve_instance(
        &self,
        inst: &ListInstance,
        x_coloring: &[u32],
        x_palette: u32,
    ) -> Result<Solution, SolveError> {
        inst.validate_slack(1.0)
            .expect("instance must be (deg+1)-list");
        let branch = self.solve_deg1(inst, x_coloring, x_palette, 0)?;
        debug_assert!(inst
            .check_solution(&EdgeColoring::from_complete(branch.colors.clone()))
            .is_ok());
        Ok(Solution {
            colors: branch.colors,
            cost: branch.cost,
            stats: branch.stats,
        })
    }

    /// Solves an instance through the slack-S path, treating `slack` as the
    /// instance's claimed slack (the caller asserts `|L_e| > slack·deg(e)`;
    /// `slack ≥ 1` is validated, the rest trusted). With enough claimed
    /// slack this drives Lemma 4.3 space reductions directly; if a residual
    /// sub-instance turns out not to be (deg+1)-feasible — the claim was
    /// too optimistic — the solver degrades to the slack-1 path on the
    /// spot and counts it in [`SolveStats::slack_fallbacks`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DepthExceeded`] if the recursion would exceed
    /// [`SolverConfig::max_depth`].
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not at least a (deg+1)-list instance.
    pub fn solve_slack_instance(
        &self,
        inst: &ListInstance,
        x_coloring: &[u32],
        x_palette: u32,
        slack: f64,
    ) -> Result<Solution, SolveError> {
        inst.validate_slack(1.0)
            .expect("instance must be at least (deg+1)-list");
        let branch = self.solve_with_slack(inst, x_coloring, x_palette, slack, 0)?;
        debug_assert!(inst
            .check_solution(&EdgeColoring::from_complete(branch.colors.clone()))
            .is_ok());
        Ok(Solution {
            colors: branch.colors,
            cost: branch.cost,
            stats: branch.stats,
        })
    }

    fn check_depth(&self, depth: u32) -> Result<(), SolveError> {
        if depth >= self.config.max_depth {
            return Err(SolveError::DepthExceeded {
                depth,
                limit: self.config.max_depth,
            });
        }
        Ok(())
    }

    /// Slack-1 path (Lemma 4.2 + base case). The sweeps themselves are a
    /// sequential chain (each residual depends on the previous sweep), but
    /// the per-class solves inside each sweep fan out on the executor.
    fn solve_deg1(
        &self,
        inst: &ListInstance,
        x_coloring: &[u32],
        x_palette: u32,
        depth: u32,
    ) -> Result<SolveBranch, SolveError> {
        self.check_depth(depth)?;
        let mut stats = SolveStats {
            max_depth_seen: depth,
            ..SolveStats::default()
        };
        let m = inst.graph().num_edges();
        if m == 0 {
            return Ok(SolveBranch {
                colors: Vec::new(),
                cost: CostNode::free("empty instance"),
                stats,
            });
        }
        let dbar = inst.max_edge_degree();
        if dbar <= self.config.base_dbar {
            let (colors, cost, messages) = self.base_case(inst, x_coloring, x_palette);
            stats.base_cases += 1;
            stats.messages += messages;
            return Ok(SolveBranch {
                colors,
                cost,
                stats,
            });
        }
        let beta = self.beta_for(dbar, inst.palette());

        // Lemma 4.2 loop: sweep, write back, recurse on the residual.
        let mut final_colors: Vec<Option<Color>> = vec![None; m];
        let mut cur = inst.clone();
        let mut cur_x = x_coloring.to_vec();
        let mut map: Vec<EdgeId> = inst.graph().edges().collect();
        let mut costs: Vec<CostNode> = Vec::new();
        loop {
            let cur_dbar = cur.max_edge_degree();
            if cur.graph().num_edges() == 0 {
                break;
            }
            if cur_dbar <= self.config.base_dbar {
                let (colors, cost, messages) = self.base_case(&cur, &cur_x, x_palette);
                stats.base_cases += 1;
                stats.messages += messages;
                for (local, &orig) in map.iter().enumerate() {
                    final_colors[orig.index()] = Some(colors[local]);
                }
                costs.push(cost);
                break;
            }
            stats.sweeps += 1;
            let inner = |si: &ListInstance, sx: &[u32]| {
                self.solve_with_slack(si, sx, x_palette, f64::from(beta), depth + 1)
            };
            let out = slack::sweep(&cur, &cur_x, x_palette, beta, &self.rt, &inner)?;
            stats.classes_nonempty += out.stats.classes_nonempty;
            stats.classes_total += out.stats.classes_total;
            stats.messages += out.stats.messages;
            stats.merge(&out.inner_stats);
            for (local, &orig) in map.iter().enumerate() {
                if let Some(c) = out.colors[local] {
                    final_colors[orig.index()] = Some(c);
                }
            }
            costs.push(out.cost);
            let res = slack::residual_after_sweep(&cur, &cur_x, &out.colors);
            assert!(
                res.instance.max_edge_degree() <= cur_dbar / 2,
                "Lemma 4.2: residual degree must halve ({} -> {})",
                cur_dbar,
                res.instance.max_edge_degree()
            );
            map = res.edge_map.iter().map(|&le| map[le.index()]).collect();
            cur = res.instance;
            cur_x = res.x_coloring;
        }
        let colors: Vec<Color> = final_colors
            .into_iter()
            .map(|c| c.expect("all edges colored"))
            .collect();
        Ok(SolveBranch {
            colors,
            cost: CostNode::seq(format!("solve-slack1(Δ̄={dbar}, β={beta})"), costs),
            stats,
        })
    }

    /// Slack-S path (Lemma 4.3 / Lemma 4.5 unrolled one step at a time).
    /// The per-subspace residuals are edge-disjoint with disjoint color
    /// ranges, so they execute as parallel branches on the executor.
    fn solve_with_slack(
        &self,
        inst: &ListInstance,
        x_coloring: &[u32],
        x_palette: u32,
        slack_value: f64,
        depth: u32,
    ) -> Result<SolveBranch, SolveError> {
        self.check_depth(depth)?;
        let dbar = inst.max_edge_degree();
        let c_palette = inst.palette();
        if inst.graph().num_edges() == 0 {
            return Ok(SolveBranch {
                colors: Vec::new(),
                cost: CostNode::free("empty instance"),
                stats: SolveStats {
                    max_depth_seen: depth,
                    ..SolveStats::default()
                },
            });
        }
        if dbar <= self.config.base_dbar || c_palette <= self.config.small_palette {
            return self.solve_deg1(inst, x_coloring, x_palette, depth);
        }
        let p = self.p_for(dbar, c_palette);
        let feasible = p >= 2
            && p <= c_palette
            && 2 * p as usize - 1 < dbar
            && slack_value >= space_requirement(c_palette, p);
        if !feasible {
            let mut branch = self.solve_deg1(inst, x_coloring, x_palette, depth)?;
            branch.stats.slack_fallbacks += 1;
            return Ok(branch);
        }

        let mut stats = SolveStats {
            max_depth_seen: depth,
            space_reductions: 1,
            ..SolveStats::default()
        };
        // The assignment solves are inherently sequential (each phase reads
        // the assignments of earlier phases), so they run inline; their
        // branch stats accumulate into this frame's stats in call order.
        let mut assign_stats = SolveStats::default();
        let red = {
            let mut assign =
                |ai: &ListInstance, ax: &[u32]| -> Result<(Vec<Color>, CostNode), SolveError> {
                    let b = self.solve_deg1(ai, ax, x_palette, depth + 1)?;
                    assign_stats.assign_solves += 1;
                    assign_stats.merge(&b.stats);
                    Ok((b.colors, b.cost))
                };
            space::reduce_color_space(inst, p, x_coloring, &mut assign)?
        };
        stats.merge(&assign_stats);
        stats.eq2_worst_ratio = stats.eq2_worst_ratio.max(red.stats.eq2_max_ratio);

        // If any residual lost (deg+1)-feasibility, the claimed slack was
        // too optimistic for this reduction: degrade to the always-correct
        // slack-1 path on the whole instance instead of panicking.
        let new_slack = slack_value / space_requirement(c_palette, p);
        if red
            .sub_instances
            .iter()
            .any(|sub| sub.instance.validate_slack(1.0).is_err())
        {
            stats.slack_fallbacks += 1;
            let branch = self.solve_deg1(inst, x_coloring, x_palette, depth)?;
            stats.merge(&branch.stats);
            let cost = CostNode::seq(
                format!(
                    "solve-slack-S(Δ̄={dbar}, C={c_palette}, p={p}): residual slack \
                     shortfall, slack-1 fallback"
                ),
                vec![red.cost, branch.cost],
            );
            return Ok(SolveBranch {
                colors: branch.colors,
                cost,
                stats,
            });
        }

        // Per-subspace residuals: disjoint color ranges on edge-disjoint
        // subgraphs — truly parallel branches; each retains slack
        // ≥ S / (24·H_q·log p). Branch results are merged in branch order.
        let weights: Vec<usize> = red
            .sub_instances
            .iter()
            .map(|sub| sub.instance.graph().num_edges())
            .collect();
        let branches = self.rt.execute_branches(&weights, |i| {
            let _span = deco_trace::span(deco_trace::Phase::SolverBranch);
            let sub = &red.sub_instances[i];
            self.solve_with_slack(
                &sub.instance,
                &sub.x_coloring,
                x_palette,
                new_slack,
                depth + 1,
            )
        });
        let mut colors: Vec<Option<Color>> = vec![None; inst.graph().num_edges()];
        let mut children: Vec<CostNode> = Vec::new();
        for (sub, branch) in red.sub_instances.iter().zip(branches) {
            let branch = branch?;
            for (idx, &pe) in sub.edge_map.iter().enumerate() {
                colors[pe.index()] = Some(branch.colors[idx] + sub.color_offset);
            }
            stats.merge(&branch.stats);
            children.push(branch.cost);
        }
        let cost = CostNode::seq(
            format!("solve-slack-S(Δ̄={dbar}, C={c_palette}, p={p})"),
            vec![
                red.cost,
                CostNode::par("parallel subspace instances", children),
            ],
        );
        let colors: Vec<Color> = colors
            .into_iter()
            .map(|c| c.expect("subspaces cover all edges"))
            .collect();
        debug_assert!(inst
            .check_solution(&EdgeColoring::from_complete(colors.clone()))
            .is_ok());
        Ok(SolveBranch {
            colors,
            cost,
            stats,
        })
    }

    /// Base case `T(O(1), S, C) = O(log* X)`: Linial from the initial
    /// `X`-coloring, then one class-elimination round per (constantly many)
    /// class. A leaf of the recursion — the caller counts it in
    /// `SolveStats::base_cases`.
    fn base_case(
        &self,
        inst: &ListInstance,
        x_coloring: &[u32],
        x_palette: u32,
    ) -> (Vec<Color>, CostNode, u64) {
        let g = inst.graph();
        if g.num_edges() == 0 {
            return (Vec::new(), CostNode::free("empty base case"), 0);
        }
        let lg = LineGraph::of(g);
        // Linial on the line graph from the X-coloring (IDs are unused by
        // the protocol; the network just needs some for bookkeeping).
        let net = Network::new(lg.graph(), deco_local::IdAssignment::Sequential);
        let initial: Vec<u64> = x_coloring.iter().map(|&c| u64::from(c)).collect();
        let lin = linial::color_from_initial(&net, initial, u64::from(x_palette).max(2), &self.rt)
            .expect("fixed schedule terminates");
        let palette = u32::try_from(lin.palette).expect("constant-degree palettes are small");
        let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.as_slice().to_vec()).collect();
        let (colors, elim_rounds) =
            class_elimination::list_color_by_classes(lg.graph(), &lists, &lin.colors, palette);
        let cost = CostNode::seq(
            format!("base-case(Δ̄={})", g.max_edge_degree()),
            vec![
                CostNode::leaf("Linial from X-coloring (log* X)", lin.rounds),
                CostNode::leaf("eliminate O(1) classes", elim_rounds),
            ],
        );
        (colors, cost, lin.messages)
    }

    fn beta_for(&self, dbar: usize, c_palette: u32) -> u32 {
        let log_d = (dbar as f64).log2().max(1.0);
        let c_exp = palette_exponent(c_palette, dbar);
        let raw = match self.config.strategy {
            Strategy::Paper => self.config.alpha * log_d.powf(4.0 * c_exp),
            Strategy::Kuhn20 => self.config.alpha * 2f64.powf(log_d.sqrt()),
            Strategy::ConstantP(p0) => self.config.alpha * space_requirement(c_palette, p0.max(2)),
        };
        let beta = if raw >= u32::MAX as f64 {
            u32::MAX
        } else {
            raw.ceil().max(1.0) as u32
        };
        // β > Δ̄ adds nothing: defects are integral, so deg(e)/2β < 1 (a
        // proper coloring) is already reached at β = Δ̄; clamping keeps the
        // defective palette representable while preserving every guarantee.
        let beta = beta.min(dbar as u32 + 1);
        match self.config.beta_cap {
            Some(cap) => beta.min(cap).max(1),
            None => beta.max(1),
        }
    }

    fn p_for(&self, dbar: usize, c_palette: u32) -> u32 {
        let raw = match self.config.strategy {
            Strategy::Paper => (dbar as f64).sqrt().floor() as u32,
            Strategy::Kuhn20 => {
                let log_c = f64::from(c_palette).log2().max(1.0);
                2f64.powf(log_c.sqrt().ceil()) as u32
            }
            Strategy::ConstantP(p0) => p0,
        };
        let p = raw.clamp(2, c_palette);
        match self.config.p_cap {
            Some(cap) => p.min(cap).max(2),
            None => p,
        }
    }
}

/// Exponent `c` with `C ≤ Δ̄^c` (at least 1), from §4.3.
fn palette_exponent(c_palette: u32, dbar: usize) -> f64 {
    let ld = (dbar.max(2) as f64).ln();
    (f64::from(c_palette.max(2)).ln() / ld).max(1.0)
}

/// The slack divisor / requirement of one Lemma 4.3 step:
/// `24·H_q·log₂ p` for the actual `q` of the partition.
pub fn space_requirement(c_palette: u32, p: u32) -> f64 {
    let p = p.clamp(2, c_palette.max(2));
    let q = if c_palette >= p {
        SubspacePartition::new(c_palette, p).num_subspaces()
    } else {
        c_palette.max(1)
    };
    24.0 * harmonic(u64::from(q)) * f64::from(p).log2().max(1.0)
}

/// Structured report of one end-to-end pipeline run: everything an
/// experiment table or a caller needs, derived once here instead of
/// re-derived by hand at every call site.
///
/// The observational fields — [`RunReport::colors`], [`RunReport::rounds`],
/// [`RunReport::messages`], [`RunReport::solve_stats`],
/// [`RunReport::cost`] — are bit-identical on every engine (the
/// differential suites pin this). [`RunReport::engine_descriptor`] and
/// [`RunReport::wall_time`] describe the run itself: which engine executed
/// it and how long it took on the wall clock.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The solved coloring (complete, proper, on-list).
    pub colors: EdgeColoring,
    /// Total charged LOCAL rounds: the initial `X`-coloring's `O(log* n)`
    /// rounds plus the solve's adaptive rounds
    /// ([`CostNode::actual_rounds`] of [`RunReport::cost`]).
    pub rounds: u64,
    /// Total messages delivered across every protocol execution of the
    /// pipeline (initial Linial run + the solve's protocol runs).
    pub messages: u64,
    /// Counters of the solver recursion.
    pub solve_stats: SolveStats,
    /// Stable descriptor of the engine that executed the run
    /// ([`Runtime::descriptor`], e.g. `serial` or
    /// `sharded(shards=4,threads=2,transport=process)`).
    pub engine_descriptor: String,
    /// Wall-clock duration of the whole pipeline on this engine. The only
    /// field that legitimately varies between runs.
    pub wall_time: Duration,
    /// The palette of the initial `X`-edge-coloring (`X = O(Δ̄²)`).
    pub x_palette: u32,
    /// Rounds of the initial coloring (`O(log* n)`).
    pub x_rounds: u64,
    /// Structured round cost of the solve (excludes the initial coloring).
    pub cost: CostNode,
    /// Digested trace metrics of the run (per-phase wall time, counters,
    /// samples), populated when tracing is enabled via `DECO_TRACE` /
    /// `RuntimeBuilder::trace`; `None` when tracing is off. Outside the
    /// determinism contract (wall times vary run to run).
    pub metrics: Option<deco_trace::MetricsReport>,
}

/// Solves the `(2Δ−1)`-edge coloring problem on `g` end to end — Linial
/// initial coloring (`O(log* n)`) + the Theorem 4.1 solver — on whatever
/// engine `rt` carries. The solver is deterministic, so everything but
/// [`RunReport::wall_time`] is identical for every engine and thread
/// count; only the substrate speed changes.
///
/// A thin wrapper over the session API: opens a
/// [`Session`](crate::session::Session) and returns its zero-update report,
/// so static and dynamic callers run the identical pipeline.
///
/// # Errors
///
/// Returns [`SolveError`] when the solver recursion fails structurally
/// (e.g. [`SolveError::DepthExceeded`]).
pub fn solve_two_delta_minus_one(
    g: &Graph,
    node_ids: &[u64],
    config: SolverConfig,
    rt: &Runtime,
) -> Result<RunReport, SolveError> {
    let mut session = crate::session::Session::open(g, node_ids, config, rt)?;
    Ok(session.report())
}

/// Solves an arbitrary `(deg(e)+1)`-list instance over `g` end to end on
/// whatever engine `rt` carries: every message-passing protocol execution
/// (the initial Linial edge coloring, the solver's base-case and
/// defective-coloring runs) *and* every parallel recursion branch routes
/// through the runtime's engine.
///
/// # Errors
///
/// Returns [`SolveError`] when the solver recursion fails structurally.
///
/// # Panics
///
/// Panics if `inst.graph()` differs structurally from `g` or the instance
/// is not (deg+1)-feasible.
pub fn solve_pipeline(
    g: &Graph,
    inst: ListInstance,
    node_ids: &[u64],
    config: SolverConfig,
    rt: &Runtime,
) -> Result<RunReport, SolveError> {
    assert_eq!(
        inst.graph().num_edges(),
        g.num_edges(),
        "instance must match graph"
    );
    let start = Instant::now();
    let scope = deco_trace::run_scope();
    let pipeline_span = deco_trace::span(deco_trace::Phase::Pipeline);
    let run = || -> Result<_, SolveError> {
        let x = edge_adapter::linial_edge_coloring(g, node_ids, rt).expect("Linial terminates");
        let x_coloring: Vec<u32> = g
            .edges()
            .map(|e| x.coloring.get(e).expect("complete"))
            .collect();
        let x_palette = u32::try_from(x.palette).expect("X = O(Δ̄²) fits u32");
        let solver = Solver::with_runtime(config, *rt);
        let solution = solver.solve_instance(&inst, &x_coloring, x_palette)?;
        let coloring = EdgeColoring::from_complete(solution.colors.clone());
        inst.check_solution(&coloring)
            .expect("solver output must be valid");
        Ok((x, coloring, x_palette, solution))
    };
    let (x, coloring, x_palette, solution) = match run() {
        Ok(parts) => parts,
        Err(e) => {
            pipeline_span.cancel();
            let _ = scope.finish();
            return Err(e);
        }
    };
    drop(pipeline_span);
    let metrics = scope.finish();
    Ok(RunReport {
        colors: coloring,
        rounds: x.rounds + solution.cost.actual_rounds(),
        messages: x.messages + solution.stats.messages,
        solve_stats: solution.stats,
        engine_descriptor: rt.descriptor(),
        wall_time: start.elapsed(),
        x_palette,
        x_rounds: x.rounds,
        cost: solution.cost,
        metrics,
    })
}

/// Builds the (deg+1)-list instance view of an explicit list set.
pub fn instance_from_lists(g: &Graph, lists: Vec<Vec<Color>>, palette: u32) -> ListInstance {
    let lists = lists.into_iter().map(ColorList::new).collect();
    ListInstance::new_unchecked(g.clone(), lists, palette)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance;
    use deco_graph::generators;

    fn ids_for(g: &Graph) -> Vec<u64> {
        (1..=g.num_nodes() as u64).collect()
    }

    fn solve_and_check(g: &Graph, config: SolverConfig) -> RunReport {
        let res = solve_two_delta_minus_one(g, &ids_for(g), config, &Runtime::serial())
            .expect("solver succeeds");
        let bound = (2 * g.max_degree()).saturating_sub(1).max(1);
        assert!(res.colors.distinct_colors() <= bound);
        res
    }

    #[test]
    fn solves_small_dense_graphs() {
        for g in [
            generators::complete(10),
            generators::complete_bipartite(7, 7),
            generators::petersen(),
        ] {
            solve_and_check(&g, SolverConfig::default());
        }
    }

    #[test]
    fn solves_regular_graphs_default_config() {
        for (n, d, seed) in [(40, 6, 1), (60, 10, 2), (30, 16, 3)] {
            let g = generators::random_regular(n, d, seed);
            let res = solve_and_check(&g, SolverConfig::default());
            assert!(res.solve_stats.sweeps > 0);
        }
    }

    #[test]
    fn solves_with_faithful_parameters() {
        // Faithful (unclamped) paper parameters: rounds charged are huge but
        // the work is proportional to the edges — must still terminate.
        let g = generators::random_regular(40, 12, 4);
        let res = solve_and_check(&g, SolverConfig::faithful(1.0));
        assert!(res.solve_stats.sweeps > 0);
        // β = log^4(Δ̄) is far above Δ̄ here, so classes are mostly empty.
        assert!(res.solve_stats.classes_total > res.solve_stats.classes_nonempty);
    }

    #[test]
    fn list_instance_pipeline() {
        let g = generators::random_regular(30, 8, 5);
        let inst = instance::random_deg_plus_one(&g, 3 * g.max_edge_degree() as u32, 6);
        let res = solve_pipeline(
            &g,
            inst.clone(),
            &ids_for(&g),
            SolverConfig::default(),
            &Runtime::serial(),
        )
        .expect("solver succeeds");
        inst.check_solution(&res.colors)
            .expect("on-list proper coloring");
        // The report's totals are self-consistent with its parts.
        assert_eq!(res.rounds, res.x_rounds + res.cost.actual_rounds());
        assert!(res.messages >= res.solve_stats.messages);
        assert_eq!(res.engine_descriptor, "serial");
    }

    #[test]
    fn space_reduction_kicks_in_with_enough_slack() {
        // Force the slack path: big palette, huge slack, moderate degree.
        let g = generators::random_regular(36, 12, 7);
        let inst = instance::random_with_slack(&g, 6000, 130.0, 8);
        let x = edge_adapter::linial_edge_coloring(&g, &ids_for(&g), &Runtime::serial()).unwrap();
        let xc: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap()).collect();
        let solver = Solver::new(SolverConfig {
            beta_cap: None,
            p_cap: None,
            small_palette: 8,
            base_dbar: 6,
            ..SolverConfig::default()
        });
        // Drive solve_with_slack directly via a tiny shim: use solve_instance
        // on the slack instance (slack ≥ 1 implies (deg+1)), then also check
        // the slack path is exercised through sweeps' inner calls.
        let sol = solver
            .solve_instance(&inst, &xc, x.palette as u32)
            .expect("solver succeeds");
        inst.check_solution(&EdgeColoring::from_complete(sol.colors))
            .unwrap();
    }

    #[test]
    fn kuhn20_and_constantp_strategies_solve() {
        let g = generators::random_regular(40, 8, 9);
        for strategy in [Strategy::Kuhn20, Strategy::ConstantP(3)] {
            let cfg = SolverConfig {
                strategy,
                ..SolverConfig::default()
            };
            solve_and_check(&g, cfg);
        }
    }

    #[test]
    fn sparse_graphs_hit_base_case_directly() {
        let g = generators::cycle(200);
        let res = solve_and_check(&g, SolverConfig::default());
        assert_eq!(res.solve_stats.sweeps, 0);
        assert_eq!(res.solve_stats.base_cases, 1);
        // O(log* n) + O(1): tiny round count.
        assert!(res.cost.actual_rounds() < 200);
    }

    #[test]
    fn cost_tree_is_structured() {
        let g = generators::random_regular(30, 10, 11);
        let res = solve_and_check(&g, SolverConfig::default());
        assert!(res.cost.size() > 3);
        assert!(res.cost.actual_rounds() > 0);
        let rendered = res.cost.render();
        assert!(rendered.contains("solve-slack1"));
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let g = generators::random_regular(24, 6, 13);
        let rt = Runtime::serial();
        let a = solve_two_delta_minus_one(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        let b = solve_two_delta_minus_one(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.solve_stats, b.solve_stats);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn depth_limit_is_a_structured_error() {
        // Any graph that needs at least one sweep recurses to depth 1, so a
        // limit of 1 must surface as Err — the process must not abort.
        let g = generators::random_regular(40, 6, 1);
        let cfg = SolverConfig {
            max_depth: 1,
            ..SolverConfig::default()
        };
        let err = solve_two_delta_minus_one(&g, &ids_for(&g), cfg, &Runtime::serial()).unwrap_err();
        assert_eq!(err, SolveError::DepthExceeded { depth: 1, limit: 1 });
        // A zero limit refuses even the root call.
        let cfg0 = SolverConfig {
            max_depth: 0,
            ..SolverConfig::default()
        };
        let err0 =
            solve_two_delta_minus_one(&g, &ids_for(&g), cfg0, &Runtime::serial()).unwrap_err();
        assert_eq!(err0, SolveError::DepthExceeded { depth: 0, limit: 0 });
    }

    #[test]
    fn depth_error_formats() {
        let e = SolveError::DepthExceeded { depth: 7, limit: 7 };
        assert!(e.to_string().contains("depth 7"));
    }

    #[test]
    fn stats_merge_is_field_wise_sum_and_max() {
        let mut a = SolveStats {
            sweeps: 2,
            base_cases: 1,
            eq2_worst_ratio: 0.5,
            max_depth_seen: 3,
            ..SolveStats::default()
        };
        let b = SolveStats {
            sweeps: 3,
            slack_fallbacks: 1,
            eq2_worst_ratio: 1.5,
            max_depth_seen: 2,
            ..SolveStats::default()
        };
        a.merge(&b);
        assert_eq!(a.sweeps, 5);
        assert_eq!(a.base_cases, 1);
        assert_eq!(a.slack_fallbacks, 1);
        assert!((a.eq2_worst_ratio - 1.5).abs() < 1e-12);
        assert_eq!(a.max_depth_seen, 3);
    }

    #[test]
    fn overclaimed_slack_degrades_to_fallback_not_panic() {
        // Claim far more slack than the lists actually have: the space
        // reduction runs, some residual loses (deg+1)-feasibility, and the
        // solver must degrade to the slack-1 path (counted) — never panic —
        // while still returning a valid coloring. Tight (deg+1)-lists over a
        // huge palette make the per-subspace intersections collapse.
        let g = generators::random_regular(36, 12, 7);
        let inst = instance::random_deg_plus_one(&g, 6000, 8);
        let x = edge_adapter::linial_edge_coloring(&g, &ids_for(&g), &Runtime::serial()).unwrap();
        let xc: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap()).collect();
        let solver = Solver::new(SolverConfig {
            beta_cap: None,
            p_cap: None,
            small_palette: 8,
            base_dbar: 6,
            ..SolverConfig::default()
        });
        let claimed = 1e6;
        let sol = solver
            .solve_slack_instance(&inst, &xc, x.palette as u32, claimed)
            .expect("fallback keeps the solve alive");
        inst.check_solution(&EdgeColoring::from_complete(sol.colors))
            .expect("valid coloring despite the fallback");
        assert!(
            sol.stats.slack_fallbacks > 0,
            "the degraded path must be counted: {:?}",
            sol.stats
        );
    }

    #[test]
    fn empty_and_tiny() {
        solve_and_check(&Graph::empty(4), SolverConfig::default());
        solve_and_check(&generators::path(2), SolverConfig::default());
    }
}
