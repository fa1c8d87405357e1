//! Branch-and-bound solver for mixed 0/1 integer programs.
//!
//! The solver relaxes integrality, solves the LP relaxation with the
//! [`crate::simplex`] engine, and branches on the most fractional binary
//! variable by *fixing* it to 0 or 1, closed under the implication rules
//! below. Only the root LP is solved from scratch. A child starts from its
//! parent's final tableau: its fixes are bound changes, which keep the
//! parent's basis dual feasible, so a few dual simplex pivots re-optimise
//! it. A warm verdict other than optimal is confirmed by a cold solve of
//! the same bounds, so round-off accumulated along a deep dive can cost
//! time but never a subtree.
//!
//! Nodes are explored depth-first, the rounding-preferred child first. The
//! preferred child takes over its parent's tableau and only the pushed
//! sibling holds a copy, so the live tableaux are the open siblings along
//! the current path. At most `MAX_WARM_NODES` of them keep one; past that
//! the oldest, which depth-first order pops last, is solved cold when its
//! turn comes. When the deadline or node budget runs out the best
//! incumbent so far is returned with [`MipStatus::Feasible`] together with
//! the weakest open bound — the anytime behaviour the MUVE incremental
//! optimizer (paper §5.4) builds on.

use crate::model::Model;
use crate::simplex::{Budget, Lp, Sense, Status, Tableau};
use std::time::{Duration, Instant};

/// Integrality tolerance.
const INT_EPS: f64 = 1e-6;
/// Simplex pivot budget per node LP.
const PIVOTS_PER_NODE: usize = 200_000;
/// The search stops when `incumbent - bound <= ABS_GAP`.
const ABS_GAP: f64 = 1e-6;
/// Most open nodes that keep their parent's tableau at once.
const MAX_WARM_NODES: usize = 8;

/// Search limits for a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MipConfig {
    /// Wall-clock budget; `None` disables the deadline.
    pub time_budget: Option<Duration>,
    /// Maximum number of branch-and-bound nodes (deterministic budget used
    /// by tests). `usize::MAX` disables the limit.
    pub node_budget: usize,
    /// A starting incumbent objective (user direction); nodes whose bound
    /// cannot beat it are pruned. Used to warm-start restarts.
    pub initial_incumbent: Option<(Vec<f64>, f64)>,
    /// External cancellation point, checked once per node alongside the
    /// private `time_budget`. Firing stops the search exactly like a
    /// deadline: the best incumbent so far is returned with
    /// `timed_out = true`.
    pub cancel: Option<muve_obs::CancelToken>,
}

impl Default for MipConfig {
    fn default() -> Self {
        MipConfig {
            time_budget: None,
            node_budget: usize::MAX,
            initial_incumbent: None,
            cancel: None,
        }
    }
}

/// Final status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// The incumbent is proven optimal (within the gap tolerance).
    Optimal,
    /// A feasible incumbent exists but the budget expired before the proof.
    Feasible,
    /// No feasible integer point exists.
    Infeasible,
    /// The budget expired before any incumbent was found.
    Unknown,
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Status of the search.
    pub status: MipStatus,
    /// Best integer-feasible values (one per model variable), if any.
    pub values: Option<Vec<f64>>,
    /// Objective of the incumbent in the user's direction.
    pub objective: Option<f64>,
    /// Best proven bound on the optimum (user direction).
    pub bound: f64,
    /// Number of nodes explored.
    pub nodes: usize,
    /// Whether the run stopped because of the time budget.
    pub timed_out: bool,
    /// Times the incumbent was replaced by a better integer solution
    /// found during the search (the warm-start seed does not count).
    pub incumbent_updates: usize,
    /// Times a node's LP relaxation tightened the best bound observed so
    /// far — a monotone progress signal for stall detection.
    pub bound_improvements: usize,
    /// Whether the search burned its whole budget (time or nodes) without
    /// ever finding an incumbent.
    pub stalled: bool,
}

impl MipResult {
    /// Absolute gap between incumbent and bound (infinite with no incumbent).
    pub fn gap(&self) -> f64 {
        match self.objective {
            Some(o) => (o - self.bound).abs(),
            None => f64::INFINITY,
        }
    }
}

/// Solve `model` to integer optimality (or best effort under `config`).
///
/// # Examples
/// ```
/// use muve_solver::model::{Direction, Expr, Model};
/// use muve_solver::branch_bound::{solve_mip, MipConfig, MipStatus};
/// // 0/1 knapsack: max 10a + 6b + 4c st 5a + 4b + 3c <= 7.
/// let mut m = Model::new();
/// let a = m.binary("a");
/// let b = m.binary("b");
/// let c = m.binary("c");
/// m.le(Expr::from(a) * 5.0 + Expr::from(b) * 4.0 + Expr::from(c) * 3.0, 7.0);
/// m.set_objective(
///     Expr::from(a) * 10.0 + Expr::from(b) * 6.0 + Expr::from(c) * 4.0,
///     Direction::Maximize,
/// );
/// let r = solve_mip(&m, &MipConfig::default());
/// assert_eq!(r.status, MipStatus::Optimal);
/// assert_eq!(r.objective, Some(10.0)); // either {a} or {b, c}
/// ```
pub fn solve_mip(model: &Model, config: &MipConfig) -> MipResult {
    let start = Instant::now();
    let (lp, obj_constant, sign) = model.to_lp();
    let integer: Vec<bool> = (0..model.num_vars())
        .map(|i| model.is_integer(crate::model::Var(i)))
        .collect();
    let implications = Implications::extract(&lp, &integer);
    let searcher = Searcher {
        lp,
        integer,
        sign,
        obj_constant,
        config: config.clone(),
        start,
        implications,
    };
    let result = searcher.run();
    let obs = muve_obs::metrics();
    obs.counter("solver.runs").incr();
    obs.counter("solver.nodes").add(result.nodes as u64);
    obs.counter("solver.incumbent_updates")
        .add(result.incumbent_updates as u64);
    obs.counter("solver.bound_improvements")
        .add(result.bound_improvements as u64);
    if result.stalled {
        obs.counter("solver.stalls").incr();
    }
    obs.histogram("solver.solve_us")
        .record_duration(start.elapsed());
    result
}

/// A node: variables fixed so far (index -> value), parent LP bound
/// (minimization sense, internal) and the parent's optimal tableau to
/// re-optimise from (`None` at the root).
struct Node {
    fixes: Vec<(usize, f64)>,
    parent_bound: f64,
    warm: Option<Tableau>,
}

/// Logical implications extracted from the constraint structure, used to
/// propagate branching decisions onto further binaries (each fix drops a
/// column from the child's tableau and deepens the dive):
///
/// - `x <= y` rows (binaries): `y = 0 => x = 0`, `x = 1 => y = 1`;
/// - `Σ parts − total = 0` rows: `total = 0 => parts = 0`,
///   `part = 1 => total = 1`.
#[derive(Default)]
struct Implications {
    /// For each var y, the x's with `x <= y`.
    below: Vec<Vec<usize>>,
    /// For each var x, the y's with `x <= y`.
    above: Vec<Vec<usize>>,
    /// For each total var, its parts.
    parts_of: Vec<Vec<usize>>,
    /// For each part var, its totals.
    total_of: Vec<Vec<usize>>,
}

impl Implications {
    fn extract(lp: &Lp, integer: &[bool]) -> Implications {
        let n = lp.num_vars;
        let mut imp = Implications {
            below: vec![Vec::new(); n],
            above: vec![Vec::new(); n],
            parts_of: vec![Vec::new(); n],
            total_of: vec![Vec::new(); n],
        };
        for row in &lp.rows {
            match row.sense {
                Sense::Le if row.rhs == 0.0 && row.coeffs.len() == 2 => {
                    // a*x - b*y <= 0 with a = b = 1 => x <= y.
                    let (v0, c0) = row.coeffs[0];
                    let (v1, c1) = row.coeffs[1];
                    let pair = if c0 == 1.0 && c1 == -1.0 {
                        Some((v0, v1))
                    } else if c0 == -1.0 && c1 == 1.0 {
                        Some((v1, v0))
                    } else {
                        None
                    };
                    if let Some((x, y)) = pair {
                        if integer[x] && integer[y] {
                            imp.below[y].push(x);
                            imp.above[x].push(y);
                        }
                    }
                }
                Sense::Eq if row.rhs == 0.0 && row.coeffs.len() >= 2 => {
                    // Σ parts - total = 0 with unit coefficients.
                    let negs: Vec<usize> = row
                        .coeffs
                        .iter()
                        .filter(|(_, c)| *c == -1.0)
                        .map(|(v, _)| *v)
                        .collect();
                    let all_unit = row.coeffs.iter().all(|(_, c)| *c == 1.0 || *c == -1.0);
                    if negs.len() == 1 && all_unit {
                        let total = negs[0];
                        let parts: Vec<usize> = row
                            .coeffs
                            .iter()
                            .filter(|(v, c)| *c == 1.0 && integer[*v] && *v != total)
                            .map(|(v, _)| *v)
                            .collect();
                        if integer[total] && parts.len() + 1 == row.coeffs.len() {
                            for &pt in &parts {
                                imp.total_of[pt].push(total);
                            }
                            imp.parts_of[total] = parts;
                        }
                    }
                }
                _ => {}
            }
        }
        imp
    }

    /// Close `fixes` under the implication rules. Returns `None` on a
    /// conflict (some variable forced to both 0 and 1).
    fn propagate(&self, fixes: &[(usize, f64)], n_vars: usize) -> Option<Vec<(usize, f64)>> {
        let mut value: Vec<Option<bool>> = vec![None; n_vars];
        let mut queue: Vec<(usize, bool)> = Vec::with_capacity(fixes.len() * 2);
        for &(v, x) in fixes {
            let b = x > 0.5;
            match value[v] {
                Some(prev) if prev != b => return None,
                Some(_) => {}
                None => {
                    value[v] = Some(b);
                    queue.push((v, b));
                }
            }
        }
        let set = |v: usize,
                   b: bool,
                   value: &mut Vec<Option<bool>>,
                   queue: &mut Vec<(usize, bool)>|
         -> bool {
            match value[v] {
                Some(prev) => prev == b,
                None => {
                    value[v] = Some(b);
                    queue.push((v, b));
                    true
                }
            }
        };
        while let Some((v, b)) = queue.pop() {
            if b {
                // v = 1: everything above v becomes 1; totals of v become 1.
                for &y in &self.above[v] {
                    if !set(y, true, &mut value, &mut queue) {
                        return None;
                    }
                }
                for &t in &self.total_of[v] {
                    if !set(t, true, &mut value, &mut queue) {
                        return None;
                    }
                }
            } else {
                // v = 0: everything below v becomes 0; parts of v become 0.
                for &x in &self.below[v] {
                    if !set(x, false, &mut value, &mut queue) {
                        return None;
                    }
                }
                for &pt in &self.parts_of[v] {
                    if !set(pt, false, &mut value, &mut queue) {
                        return None;
                    }
                }
            }
        }
        Some(
            value
                .iter()
                .enumerate()
                .filter_map(|(v, b)| b.map(|b| (v, if b { 1.0 } else { 0.0 })))
                .collect(),
        )
    }
}

struct Searcher {
    lp: Lp,
    integer: Vec<bool>,
    /// +1 for minimize, -1 for maximize (user objective = sign * internal).
    sign: f64,
    obj_constant: f64,
    config: MipConfig,
    start: Instant,
    implications: Implications,
}

impl Searcher {
    fn run(self) -> MipResult {
        let mut incumbent: Option<(Vec<f64>, f64)> = None; // internal obj
        if let Some((vals, user_obj)) = &self.config.initial_incumbent {
            incumbent = Some((vals.clone(), (user_obj - self.obj_constant) * self.sign));
        }
        // Open nodes, explored depth-first (LIFO).
        let mut open: Vec<Node> = vec![Node {
            fixes: Vec::new(),
            parent_bound: f64::NEG_INFINITY,
            warm: None,
        }];
        let mut nodes = 0usize;
        let mut timed_out = false;
        let mut incumbent_updates = 0usize;
        let mut bound_improvements = 0usize;
        let mut best_bound_seen = f64::NEG_INFINITY;
        // Weakest (lowest, internal sense) bound among nodes whose LP hit
        // the pivot limit: their subtrees are only bounded by the parents.
        let mut limit_bound = f64::INFINITY;
        let mut lp_limit_hit = false;
        let deadline = self.config.time_budget.map(|b| self.start + b);

        while let Some(node) = open.pop() {
            if let Some(budget) = self.config.time_budget {
                if self.start.elapsed() >= budget {
                    timed_out = true;
                    open.push(node);
                    break;
                }
            }
            if let Some(cancel) = &self.config.cancel {
                if cancel.should_stop() {
                    timed_out = true;
                    open.push(node);
                    break;
                }
            }
            if nodes >= self.config.node_budget {
                open.push(node);
                break;
            }
            // Prune against incumbent using the parent bound.
            if let Some((_, inc)) = &incumbent {
                if node.parent_bound >= *inc - ABS_GAP {
                    continue;
                }
            }
            nodes += 1;
            let (status, tableau) = self.solve_node(node.warm, &node.fixes, deadline);
            match status {
                Status::Infeasible => continue,
                Status::Unbounded => {
                    // With all-binary integer vars and bounded continuous
                    // auxiliaries this signals an unbounded user model.
                    return MipResult {
                        status: MipStatus::Unknown,
                        values: None,
                        objective: None,
                        bound: f64::NEG_INFINITY * self.sign,
                        nodes,
                        timed_out: false,
                        incumbent_updates,
                        bound_improvements,
                        stalled: false,
                    };
                }
                Status::PivotLimit => {
                    // Cannot bound this node; treat conservatively as open.
                    lp_limit_hit = true;
                    limit_bound = limit_bound.min(node.parent_bound);
                    continue;
                }
                Status::Optimal => {}
            }
            let sol = tableau.solution(&self.lp);
            let bound = sol.objective;
            if bound > best_bound_seen {
                best_bound_seen = bound;
                bound_improvements += 1;
            }
            if let Some((_, inc)) = &incumbent {
                if bound >= *inc - ABS_GAP {
                    continue;
                }
            }
            // Find the most fractional integer variable (closest to one
            // half), if any.
            let full = sol.values;
            let mut branch_var = None;
            let mut best_score = INT_EPS;
            for (j, &is_int) in self.integer.iter().enumerate() {
                if !is_int {
                    continue;
                }
                let frac = full[j] - full[j].floor();
                let score = frac.min(1.0 - frac);
                if score > best_score {
                    best_score = score;
                    branch_var = Some(j);
                }
            }
            let Some(j) = branch_var else {
                // Integer feasible: snap and accept.
                let snapped = self.snap(&full);
                let obj = self.objective_of(&snapped);
                if incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc) {
                    incumbent = Some((snapped, obj));
                    incumbent_updates += 1;
                }
                continue;
            };
            // Push the rounding-preferred child last so the dive explores
            // it first; it takes the tableau, its sibling gets a copy.
            // Branch decisions are closed under the implication rules; a
            // conflicting child is pruned immediately.
            let preferred = full[j].round().clamp(0.0, 1.0);
            let children: Vec<Vec<(usize, f64)>> = [1.0 - preferred, preferred]
                .into_iter()
                .filter_map(|val| {
                    let mut fixes = node.fixes.clone();
                    fixes.push((j, val));
                    self.implications.propagate(&fixes, self.lp.num_vars)
                })
                .collect();
            let mut warm = Some(tableau);
            let last = children.len();
            for (i, fixes) in children.into_iter().enumerate() {
                open.push(Node {
                    fixes,
                    parent_bound: bound,
                    warm: if i + 1 == last {
                        warm.take()
                    } else {
                        warm.clone()
                    },
                });
            }
            // Bounded memory: past the cap, the oldest open node (the one
            // popped last) gives its tableau up and will be solved cold.
            let mut warm_nodes = open.iter().filter(|n| n.warm.is_some()).count();
            for n in open.iter_mut() {
                if warm_nodes <= MAX_WARM_NODES {
                    break;
                }
                if n.warm.take().is_some() {
                    warm_nodes -= 1;
                }
            }
        }

        let open_exists = !open.is_empty() || lp_limit_hit;
        let internal_bound = if open_exists {
            // Open nodes may still improve down to their parent bounds —
            // and the incumbent itself caps the bound (open subtrees worse
            // than the incumbent cannot weaken what is already achieved).
            let mut b = f64::INFINITY;
            for n in open.iter() {
                b = b.min(n.parent_bound);
            }
            if lp_limit_hit {
                // Unsolved node LPs inherit their parents' bounds only.
                b = b.min(limit_bound);
            }
            if let Some((_, inc)) = &incumbent {
                b = b.min(*inc);
            }
            if b == f64::INFINITY {
                f64::NEG_INFINITY
            } else {
                b
            }
        } else {
            incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
        };

        let proven = !open_exists
            || incumbent
                .as_ref()
                .is_some_and(|(_, inc)| internal_bound >= *inc - ABS_GAP);
        let status = match (&incumbent, proven) {
            (Some(_), true) => MipStatus::Optimal,
            (Some(_), false) => MipStatus::Feasible,
            (None, true) => MipStatus::Infeasible,
            (None, false) => MipStatus::Unknown,
        };
        let user_bound = if internal_bound.is_finite() {
            self.sign * internal_bound + self.obj_constant
        } else {
            self.sign * internal_bound
        };
        let stalled = incumbent.is_none() && (timed_out || nodes >= self.config.node_budget);
        MipResult {
            status,
            objective: incumbent
                .as_ref()
                .map(|(_, o)| self.sign * *o + self.obj_constant),
            values: incumbent.map(|(v, _)| v),
            bound: user_bound,
            nodes,
            timed_out,
            incumbent_updates,
            bound_improvements,
            stalled,
        }
    }

    /// Solve a node's LP: re-optimise the parent's tableau under the
    /// node's fixes by dual simplex, or solve cold at the root and whenever
    /// the warm verdict is not optimal.
    fn solve_node(
        &self,
        warm: Option<Tableau>,
        fixes: &[(usize, f64)],
        deadline: Option<Instant>,
    ) -> (Status, Tableau) {
        if let Some(mut tableau) = warm {
            for &(j, v) in fixes {
                tableau.fix(j, v);
            }
            if tableau.reoptimize(&mut Budget::new(PIVOTS_PER_NODE, deadline)) == Status::Optimal {
                return (Status::Optimal, tableau);
            }
        }
        Tableau::cold(&self.lp, fixes, &mut Budget::new(PIVOTS_PER_NODE, deadline))
    }

    fn snap(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .map(|(j, &v)| if self.integer[j] { v.round() } else { v })
            .collect()
    }

    fn objective_of(&self, values: &[f64]) -> f64 {
        values
            .iter()
            .zip(&self.lp.objective)
            .map(|(v, c)| v * c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Direction, Expr, Model};

    fn knapsack(utilities: &[f64], weights: &[f64], cap: f64) -> (Model, Vec<crate::model::Var>) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..utilities.len())
            .map(|i| m.binary(format!("x{i}")))
            .collect();
        let mut weight = Expr::zero();
        let mut util = Expr::zero();
        for (i, &v) in vars.iter().enumerate() {
            weight += Expr::from(v) * weights[i];
            util += Expr::from(v) * utilities[i];
        }
        m.le(weight, cap);
        m.set_objective(util, Direction::Maximize);
        (m, vars)
    }

    #[test]
    fn knapsack_optimal() {
        let (m, _) = knapsack(&[10.0, 6.0, 4.0], &[5.0, 4.0, 3.0], 7.0);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_eq!(r.objective, Some(10.0));
        assert!(r.gap() < 1e-6);
    }

    #[test]
    fn larger_knapsack_matches_dp() {
        // 12-item knapsack, compare against exact DP.
        let utilities: Vec<f64> = vec![9., 11., 13., 15., 2., 8., 4., 18., 6., 7., 3., 14.];
        let weights: Vec<f64> = vec![6., 5., 9., 7., 3., 4., 2., 10., 5., 6., 1., 8.];
        let cap = 25.0;
        let (m, _) = knapsack(&utilities, &weights, cap);
        let r = solve_mip(&m, &MipConfig::default());
        // DP over integer weights.
        let c = cap as usize;
        let mut dp = vec![0.0f64; c + 1];
        for i in 0..utilities.len() {
            let w = weights[i] as usize;
            for j in (w..=c).rev() {
                dp[j] = dp[j].max(dp[j - w] + utilities[i]);
            }
        }
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(
            (r.objective.unwrap() - dp[c]).abs() < 1e-6,
            "{:?} vs {}",
            r.objective,
            dp[c]
        );
    }

    #[test]
    fn infeasible_model() {
        let mut m = Model::new();
        let x = m.binary("x");
        m.ge(Expr::from(x), 2.0);
        m.set_objective(Expr::from(x), Direction::Maximize);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.values.is_none());
    }

    #[test]
    fn equality_constrained_assignment() {
        // Pick exactly 2 of 4 items, maximize utility.
        let mut m = Model::new();
        let xs: Vec<_> = (0..4).map(|i| m.binary(format!("x{i}"))).collect();
        let mut count = Expr::zero();
        for &x in &xs {
            count += Expr::from(x);
        }
        m.eq(count, 2.0);
        let utils = [3.0, 9.0, 1.0, 7.0];
        let mut obj = Expr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += Expr::from(x) * utils[i];
        }
        m.set_objective(obj, Direction::Maximize);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_eq!(r.objective, Some(16.0));
        let v = r.values.unwrap();
        assert_eq!(v[1], 1.0);
        assert_eq!(v[3], 1.0);
    }

    #[test]
    fn binary_product_in_mip() {
        // max a*b - 0.5a - 0.5b: optimum a=b=1 giving 0... equals a=b=0 giving 0.
        // Force a = 1; then optimum is b = 1? a*b - 0.5 - 0.5b at b=1: 1-0.5-0.5=0;
        // at b=0: -0.5. So b=1, objective 0.
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.binary("b");
        let ab = m.mul_binary(a, b, "ab");
        m.eq(Expr::from(a), 1.0);
        m.set_objective(
            Expr::from(ab) - Expr::from(a) * 0.5 - Expr::from(b) * 0.5,
            Direction::Maximize,
        );
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective.unwrap() - 0.0).abs() < 1e-6);
        let v = r.values.unwrap();
        assert_eq!(v[b.index()], 1.0);
        assert!((v[ab.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_budget_gives_feasible_or_unknown() {
        let utilities: Vec<f64> = (0..18).map(|i| ((i * 7) % 13 + 1) as f64).collect();
        let weights: Vec<f64> = (0..18).map(|i| ((i * 5) % 11 + 2) as f64).collect();
        let (m, _) = knapsack(&utilities, &weights, 30.0);
        let full = solve_mip(&m, &MipConfig::default());
        assert_eq!(full.status, MipStatus::Optimal);
        let r = solve_mip(
            &m,
            &MipConfig {
                node_budget: 3,
                ..MipConfig::default()
            },
        );
        assert!(matches!(
            r.status,
            MipStatus::Feasible | MipStatus::Unknown | MipStatus::Optimal
        ));
        if let Some(o) = r.objective {
            assert!(o <= full.objective.unwrap() + 1e-6);
        }
    }

    #[test]
    fn warm_start_incumbent_respected() {
        let (m, _) = knapsack(&[10.0, 6.0, 4.0], &[5.0, 4.0, 3.0], 7.0);
        // Give the known optimum as the initial incumbent with 0 nodes:
        // result keeps it.
        let inc_vals = vec![1.0, 0.0, 0.0];
        let cfg = MipConfig {
            node_budget: 0,
            initial_incumbent: Some((inc_vals.clone(), 10.0)),
            ..MipConfig::default()
        };
        let r = solve_mip(&m, &cfg);
        assert_eq!(r.objective, Some(10.0));
        assert_eq!(r.values, Some(inc_vals));
    }

    #[test]
    fn minimization_direction() {
        // min 3x + 2y st x + y >= 1 over binaries: pick y. obj 2.
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        m.ge(Expr::from(x) + Expr::from(y), 1.0);
        m.set_objective(
            Expr::from(x) * 3.0 + Expr::from(y) * 2.0,
            Direction::Minimize,
        );
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_eq!(r.objective, Some(2.0));
        assert_eq!(r.values.unwrap()[y.index()], 1.0);
    }

    #[test]
    fn fixed_constant_row_infeasibility() {
        // a + b = 1 with both branched... emulate: a=1, b=1 fixed via eq rows.
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.binary("b");
        m.eq(Expr::from(a) + Expr::from(b), 1.0);
        m.eq(Expr::from(a), 1.0);
        m.eq(Expr::from(b), 1.0);
        m.set_objective(Expr::from(a), Direction::Maximize);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn deterministic_across_runs() {
        let utilities: Vec<f64> = (0..14).map(|i| ((i * 3) % 9 + 1) as f64).collect();
        let weights: Vec<f64> = (0..14).map(|i| ((i * 5) % 7 + 1) as f64).collect();
        let (m, _) = knapsack(&utilities, &weights, 20.0);
        let a = solve_mip(&m, &MipConfig::default());
        let b = solve_mip(&m, &MipConfig::default());
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.nodes, b.nodes);
    }
}

#[cfg(test)]
mod propagation_tests {
    use super::*;
    use crate::model::{Direction, Expr, Model};

    #[test]
    fn implication_chains_respected() {
        // x <= y <= z; maximize x - 0.1y - 0.1z: optimum x=y=z=1 (0.8).
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary_implied("y");
        let z = m.binary_implied("z");
        m.le(Expr::from(x) - Expr::from(y), 0.0);
        m.le(Expr::from(y) - Expr::from(z), 0.0);
        // Cap z via an explicit row (its own bound is implied in tests of
        // the implied-binary API, so enforce it here).
        m.le(Expr::from(z), 1.0);
        m.set_objective(
            Expr::from(x) - Expr::from(y) * 0.1 - Expr::from(z) * 0.1,
            Direction::Maximize,
        );
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective.unwrap() - 0.8).abs() < 1e-6);
        let v = r.values.unwrap();
        assert_eq!(v[x.index()], 1.0);
        assert_eq!(v[y.index()], 1.0);
        assert_eq!(v[z.index()], 1.0);
    }

    #[test]
    fn sum_equality_propagation() {
        // a + b + c = t; t = 0 forces all parts to zero; conflicting with
        // a = 1 must be infeasible.
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        let t = m.binary("t");
        m.eq(
            Expr::from(a) + Expr::from(b) + Expr::from(c) - Expr::from(t),
            0.0,
        );
        m.eq(Expr::from(t), 0.0);
        m.eq(Expr::from(a), 1.0);
        m.set_objective(Expr::from(b), Direction::Maximize);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn implied_binaries_still_integral() {
        // An implied binary constrained only through x <= y must come back
        // integral in the optimum.
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary_implied("y");
        m.le(Expr::from(y) - Expr::from(x), 0.0);
        m.ge(Expr::from(x) + Expr::from(y), 1.0);
        m.set_objective(Expr::from(x) * 3.0 + Expr::from(y), Direction::Minimize);
        let r = solve_mip(&m, &MipConfig::default());
        assert_eq!(r.status, MipStatus::Optimal);
        let v = r.values.unwrap();
        assert_eq!(v[x.index()], 1.0);
        assert_eq!(v[y.index()], 0.0);
        assert_eq!(r.objective, Some(3.0));
    }
}
