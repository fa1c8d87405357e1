//! The integer-programming multiplot planner (paper §5).
//!
//! Decision variables follow the paper: `p_j^r` places plot (template) `j`
//! in row `r`; `q_{i,j}^r` shows query `i`'s result in that plot;
//! `h_{i,j}^r` highlights it. Auxiliaries `q_i`, `h_i`, `d_i` (displayed
//! but not highlighted) and `s_j^r` (plot contains a red bar) support the
//! objective. The §5.3 products of binaries are linearized; instead of one
//! auxiliary per *pair* of queries we multiply each `h_i`/`d_i` with the
//! aggregate count expressions (`Σ_j h_j`, `Σ s`, …), which is equivalent
//! (the paper notes its implementation also deviates from the exposition)
//! and shrinks the program from `O(n_q²)` to `O(n_q)` products.
//!
//! The §8.1 extension adds processing-group binaries `g_k` with coverage
//! constraints `q_i ≤ Σ_{k∈G(i)} g_k`, and either a hard bound on total
//! processing cost or a weighted objective term.

use crate::cost_model::UserCostModel;
use crate::greedy::{greedy_plan, greedy_plan_grouped, group_templates, Templates};
use crate::plot::{Multiplot, Plot, PlotEntry, ScreenConfig};
use crate::query::Candidate;
use muve_solver::{solve_mip, Direction, Expr, MipConfig, MipStatus, Model, Var};
use rustc_hash::FxHashMap;
use std::time::Duration;

/// Processing group for the §8.1 extension: executing the group (one merged
/// query) yields results for all `queries` at estimated cost `cost`.
#[derive(Debug, Clone)]
pub struct ProcessingGroup {
    /// Estimated processing cost (arbitrary units, e.g. cost-model units).
    pub cost: f64,
    /// Candidate indices covered by the group.
    pub queries: Vec<usize>,
}

/// Processing-cost-aware planning configuration.
#[derive(Debug, Clone, Default)]
pub struct ProcessingConfig {
    /// Available processing groups (from query merging).
    pub groups: Vec<ProcessingGroup>,
    /// Hard bound on total processing cost of selected groups.
    pub bound: Option<f64>,
    /// Weight of the processing cost term in the objective (0 disables).
    pub weight: f64,
}

/// ILP planner configuration.
#[derive(Debug, Clone, Default)]
pub struct IlpConfig {
    /// Wall-clock budget (the paper uses 1 s for interactive planning).
    pub time_budget: Option<Duration>,
    /// Deterministic node budget (used by tests instead of wall clock).
    pub node_budget: Option<usize>,
    /// Seed the search with the greedy solution so the solver is anytime.
    pub warm_start: bool,
    /// Explicit seed multiplot (e.g. the previous incremental step's
    /// result); takes precedence over the greedy warm start.
    pub seed: Option<Multiplot>,
    /// Processing-cost extension; `None` plans on user cost only.
    pub processing: Option<ProcessingConfig>,
    /// Disable the template dominance pruning (ablation knob; pruning is
    /// lossless, so disabling it only grows the program).
    pub no_template_pruning: bool,
    /// External cancellation point forwarded into the branch-and-bound
    /// node loop; firing behaves like a deadline (anytime incumbent kept).
    pub cancel: Option<muve_obs::CancelToken>,
}

impl IlpConfig {
    /// Interactive defaults: 1 s budget, greedy warm start.
    pub fn interactive() -> IlpConfig {
        IlpConfig {
            time_budget: Some(Duration::from_secs(1)),
            node_budget: None,
            warm_start: true,
            seed: None,
            processing: None,
            no_template_pruning: false,
            cancel: None,
        }
    }
}

/// Outcome of an ILP planning run.
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// The selected multiplot.
    pub multiplot: Multiplot,
    /// Expected user cost of the multiplot under the user model.
    pub expected_cost: f64,
    /// Solver status (`Optimal` or anytime `Feasible`).
    pub status: MipStatus,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Incumbent replacements inside the solver run.
    pub incumbent_updates: usize,
    /// Whether the time budget expired.
    pub timed_out: bool,
    /// Raw solver objective (user cost + weighted processing cost).
    pub objective: Option<f64>,
    /// Processing cost of the selected groups (0 without the extension).
    pub processing_cost: f64,
}

struct VarIndex {
    /// p[j][r]
    p: Vec<Vec<Var>>,
    /// (query, template, row) -> (q3, h3)
    qh: FxHashMap<(usize, usize, usize), (Var, Var)>,
    q_i: Vec<Var>,
    h_i: Vec<Var>,
    d_i: Vec<Var>,
    /// s[j][r]
    s: Vec<Vec<Var>>,
    y_h: Vec<Var>,
    y_d: Vec<Var>,
    g: Vec<Var>,
}

/// Plan a multiplot with the ILP solver.
pub fn ilp_plan(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    user_model: &UserCostModel,
    cfg: &IlpConfig,
) -> IlpOutcome {
    let templates = if cfg.no_template_pruning {
        crate::greedy::group_templates_unpruned(candidates)
    } else {
        group_templates(candidates)
    };
    let n_q = candidates.len();
    let n_t = templates.len();
    let rows = screen.rows;
    let mut m = Model::new();

    // --- Decision variables -------------------------------------------
    let p: Vec<Vec<Var>> = (0..n_t)
        .map(|j| (0..rows).map(|r| m.binary(format!("p_{j}_{r}"))).collect())
        .collect();
    let mut qh: FxHashMap<(usize, usize, usize), (Var, Var)> = FxHashMap::default();
    for j in 0..n_t {
        for (i, _) in templates.members(j) {
            for r in 0..rows {
                // q <= p and h <= q imply the unit bounds.
                let q3 = m.binary_implied(format!("q_{i}_{j}_{r}"));
                let h3 = m.binary_implied(format!("h_{i}_{j}_{r}"));
                qh.insert((i, j, r), (q3, h3));
            }
        }
    }
    let q_i: Vec<Var> = (0..n_q).map(|i| m.binary(format!("q_{i}"))).collect();
    // h_i = Σ h3 <= Σ q3 = q_i <= 1, d_i = q_i - h_i <= 1, s <= p <= 1:
    // all unit bounds are implied.
    let h_i: Vec<Var> = (0..n_q)
        .map(|i| m.binary_implied(format!("h_{i}")))
        .collect();
    let d_i: Vec<Var> = (0..n_q)
        .map(|i| m.binary_implied(format!("d_{i}")))
        .collect();
    let s: Vec<Vec<Var>> = (0..n_t)
        .map(|j| {
            (0..rows)
                .map(|r| m.binary_implied(format!("s_{j}_{r}")))
                .collect()
        })
        .collect();

    // --- Structural constraints ----------------------------------------
    for j in 0..n_t {
        for r in 0..rows {
            let mut h_sum = Expr::zero();
            for (i, _) in templates.members(j) {
                let (q3, h3) = qh[&(i, j, r)];
                // Containment: q <= p, h <= q.
                m.le(Expr::from(q3) - Expr::from(p[j][r]), 0.0);
                m.le(Expr::from(h3) - Expr::from(q3), 0.0);
                h_sum += Expr::from(h3);
            }
            // s_j^r consistency.
            m.le(Expr::from(s[j][r]) - Expr::from(p[j][r]), 0.0);
            m.le(Expr::from(s[j][r]) - h_sum.clone(), 0.0);
            let n_j = templates.members(j).len().max(1) as f64;
            m.ge(Expr::from(s[j][r]) - h_sum * (1.0 / n_j), 0.0);
        }
    }
    // Each query shown exactly q_i times (0/1) across all plots and rows.
    for (i, ((qi_var, hi_var), di_var)) in q_i.iter().zip(&h_i).zip(&d_i).enumerate() {
        let mut q_sum = Expr::zero();
        let mut h_sum = Expr::zero();
        for ((qi, _, _), (q3, h3)) in &qh {
            if *qi == i {
                q_sum += Expr::from(*q3);
                h_sum += Expr::from(*h3);
            }
        }
        m.eq(q_sum - Expr::from(*qi_var), 0.0);
        m.eq(h_sum - Expr::from(*hi_var), 0.0);
        // d_i = q_i - h_i.
        m.eq(
            Expr::from(*di_var) - Expr::from(*qi_var) + Expr::from(*hi_var),
            0.0,
        );
    }
    // Row width constraints.
    let width = screen.width_bars();
    for r in 0..rows {
        let mut w_expr = Expr::zero();
        for j in 0..n_t {
            w_expr += Expr::from(p[j][r]) * screen.plot_base_width(templates.title(j));
            for (i, _) in templates.members(j) {
                let (q3, _) = qh[&(i, j, r)];
                w_expr += Expr::from(q3);
            }
        }
        m.le(w_expr, width);
    }

    // --- Aggregate expressions -----------------------------------------
    let mut red_bars = Expr::zero(); // R_B = Σ h_i
    let mut plain_bars = Expr::zero(); // D_B = Σ d_i
    for i in 0..n_q {
        red_bars += Expr::from(h_i[i]);
        plain_bars += Expr::from(d_i[i]);
    }
    let mut red_plots = Expr::zero(); // R_P = Σ s
    let mut plain_plots = Expr::zero(); // NP = Σ (p - s)
    for j in 0..n_t {
        for r in 0..rows {
            red_plots += Expr::from(s[j][r]);
            plain_plots += Expr::from(p[j][r]) - Expr::from(s[j][r]);
        }
    }
    let n_slots = (n_t * rows) as f64;
    let cb = user_model.bar_ms;
    let cp = user_model.plot_ms;
    let dm = user_model.miss_ms;

    // exprs multiplied with h_i / d_i, with safe upper bounds.
    let expr_h = red_bars.clone() * (cb / 2.0) + red_plots.clone() * (cp / 2.0);
    let ub_h = (n_q as f64) * cb / 2.0 + n_slots * cp / 2.0;
    let expr_d = red_bars.clone() * cb
        + red_plots.clone() * cp
        + plain_bars.clone() * (cb / 2.0)
        + plain_plots.clone() * (cp / 2.0);
    let ub_d = (n_q as f64) * (cb + cb / 2.0) + n_slots * (cp + cp / 2.0);

    let mut y_h = Vec::with_capacity(n_q);
    let mut y_d = Vec::with_capacity(n_q);
    let mut objective = Expr::zero();
    for (i, c) in candidates.iter().enumerate() {
        let yh = m.mul_binary_expr(h_i[i], expr_h.clone(), ub_h, format!("yh_{i}"));
        let yd = m.mul_binary_expr(d_i[i], expr_d.clone(), ub_d, format!("yd_{i}"));
        y_h.push(yh);
        y_d.push(yd);
        objective += Expr::from(yh) * c.probability;
        objective += Expr::from(yd) * c.probability;
        objective += (Expr::constant(1.0) - Expr::from(q_i[i])) * (c.probability * dm);
    }

    // --- Processing-cost extension ---------------------------------------
    let mut g_vars: Vec<Var> = Vec::new();
    if let Some(proc) = &cfg.processing {
        let mut coverage: FxHashMap<usize, Expr> = FxHashMap::default();
        let mut total_cost = Expr::zero();
        for (k, group) in proc.groups.iter().enumerate() {
            let g = m.binary(format!("g_{k}"));
            g_vars.push(g);
            total_cost += Expr::from(g) * group.cost;
            for &qi in &group.queries {
                *coverage.entry(qi).or_insert_with(Expr::zero) += Expr::from(g);
            }
        }
        for (i, qi_var) in q_i.iter().enumerate() {
            let cov = coverage.remove(&i).unwrap_or_else(Expr::zero);
            // q_i <= sum of covering groups.
            m.le(Expr::from(*qi_var) - cov, 0.0);
        }
        if let Some(bound) = proc.bound {
            m.le(total_cost.clone(), bound);
        }
        if proc.weight != 0.0 {
            objective += total_cost * proc.weight;
        }
    }
    m.set_objective(objective, Direction::Minimize);

    let index = VarIndex {
        p,
        qh,
        q_i,
        h_i,
        d_i,
        s,
        y_h,
        y_d,
        g: g_vars,
    };

    // --- Warm start -------------------------------------------------------
    let initial_incumbent = if cfg.warm_start || cfg.seed.is_some() {
        encode_warm_start(&m, &index, candidates, &templates, screen, user_model, cfg)
    } else {
        None
    };

    let mip_cfg = MipConfig {
        time_budget: cfg.time_budget,
        node_budget: cfg.node_budget.unwrap_or(usize::MAX),
        initial_incumbent,
        cancel: cfg.cancel.clone(),
    };
    let result = solve_mip(&m, &mip_cfg);
    let multiplot = result
        .values
        .as_ref()
        .map(|v| extract(v, &index, candidates, &templates, screen))
        .unwrap_or_else(|| Multiplot::empty(screen.rows));
    let processing_cost = match (&cfg.processing, &result.values) {
        (Some(proc), Some(v)) => proc
            .groups
            .iter()
            .zip(&index.g)
            .filter(|(_, g)| v[g.index()] > 0.5)
            .map(|(grp, _)| grp.cost)
            .sum(),
        _ => 0.0,
    };
    IlpOutcome {
        expected_cost: user_model.expected_cost(&multiplot, candidates),
        multiplot,
        status: result.status,
        nodes: result.nodes,
        incumbent_updates: result.incumbent_updates,
        timed_out: result.timed_out,
        objective: result.objective,
        processing_cost,
    }
}

/// Convert a solver solution back into a multiplot.
fn extract(
    values: &[f64],
    index: &VarIndex,
    candidates: &[Candidate],
    templates: &Templates,
    screen: &ScreenConfig,
) -> Multiplot {
    let on = |v: Var| values[v.index()] > 0.5;
    let mut multiplot = Multiplot::empty(screen.rows);
    for j in 0..templates.len() {
        for r in 0..screen.rows {
            if !on(index.p[j][r]) {
                continue;
            }
            let mut entries: Vec<PlotEntry> = Vec::new();
            for (i, label) in templates.members(j) {
                let (q3, h3) = index.qh[&(i, j, r)];
                if on(q3) {
                    entries.push(PlotEntry {
                        candidate: i,
                        label: label.to_owned(),
                        highlighted: on(h3),
                    });
                }
            }
            if entries.is_empty() {
                continue;
            }
            entries.sort_by(|a, b| {
                candidates[b.candidate]
                    .probability
                    .total_cmp(&candidates[a.candidate].probability)
            });
            multiplot.rows[r].push(Plot {
                title: templates.title(j).to_owned(),
                entries,
            });
        }
    }
    multiplot
}

/// Encode the greedy solution as a feasible incumbent assignment.
fn encode_warm_start(
    m: &Model,
    index: &VarIndex,
    candidates: &[Candidate],
    templates: &Templates,
    screen: &ScreenConfig,
    user_model: &UserCostModel,
    cfg: &IlpConfig,
) -> Option<(Vec<f64>, f64)> {
    let greedy = match &cfg.seed {
        Some(seed) => seed.clone(),
        // Pruned templates are the ones greedy groups itself.
        None if !cfg.no_template_pruning => {
            greedy_plan_grouped(candidates, templates, screen, user_model)
        }
        None => greedy_plan(candidates, screen, user_model),
    };
    let title_to_template: FxHashMap<&str, usize> = (0..templates.len())
        .map(|j| (templates.title(j), j))
        .collect();
    let mut values = vec![0.0; m.num_vars()];
    let mut set = |v: Var, x: f64| values[v.index()] = x;

    for (r, row) in greedy.rows.iter().enumerate() {
        for plot in row {
            let &j = title_to_template.get(plot.title.as_str())?;
            set(index.p[j][r], 1.0);
            let mut any_red = false;
            for e in &plot.entries {
                let &(q3, h3) = index.qh.get(&(e.candidate, j, r))?;
                set(q3, 1.0);
                set(index.q_i[e.candidate], 1.0);
                if e.highlighted {
                    set(h3, 1.0);
                    set(index.h_i[e.candidate], 1.0);
                    any_red = true;
                }
            }
            if any_red {
                set(index.s[j][r], 1.0);
            }
        }
    }
    for i in 0..candidates.len() {
        let d = values[index.q_i[i].index()] - values[index.h_i[i].index()];
        values[index.d_i[i].index()] = d;
    }
    // Aggregates for the product variables.
    let r_b: f64 = index.h_i.iter().map(|v| values[v.index()]).sum();
    let d_b: f64 = index.d_i.iter().map(|v| values[v.index()]).sum();
    let r_p: f64 = index.s.iter().flatten().map(|v| values[v.index()]).sum();
    let n_p: f64 = index
        .p
        .iter()
        .flatten()
        .map(|v| values[v.index()])
        .sum::<f64>()
        - r_p;
    let cb = user_model.bar_ms;
    let cp = user_model.plot_ms;
    let eh = cb / 2.0 * r_b + cp / 2.0 * r_p;
    let ed = cb * r_b + cp * r_p + cb / 2.0 * d_b + cp / 2.0 * n_p;
    let mut objective = 0.0;
    for (i, c) in candidates.iter().enumerate() {
        let yh = values[index.h_i[i].index()] * eh;
        let yd = values[index.d_i[i].index()] * ed;
        values[index.y_h[i].index()] = yh;
        values[index.y_d[i].index()] = yd;
        objective +=
            c.probability * (yh + yd + user_model.miss_ms * (1.0 - values[index.q_i[i].index()]));
    }
    // Processing groups: greedily cover each shown query with its cheapest
    // group; bail out of warm starting if the bound cannot be met.
    if let Some(proc) = &cfg.processing {
        let mut total = 0.0;
        for (i, _) in candidates.iter().enumerate() {
            if values[index.q_i[i].index()] < 0.5 {
                continue;
            }
            let covered = proc
                .groups
                .iter()
                .enumerate()
                .filter(|(k, g)| g.queries.contains(&i) || values[index.g[*k].index()] > 0.5)
                .any(|(k, _)| values[index.g[k].index()] > 0.5);
            if covered {
                continue;
            }
            let cheapest = proc
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.queries.contains(&i))
                .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))?;
            values[index.g[cheapest.0].index()] = 1.0;
            total += cheapest.1.cost;
        }
        if let Some(bound) = proc.bound {
            if total > bound {
                return None;
            }
        }
        objective += proc.weight * total;
    }
    Some((values, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::parse;

    fn cands(probs: &[f64]) -> Vec<Candidate> {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Candidate::new(
                    parse(&format!(
                        "select avg(delay) from flights where origin = 'AP{i}'"
                    ))
                    .unwrap(),
                    p,
                )
            })
            .collect()
    }

    fn small_cfg() -> IlpConfig {
        IlpConfig {
            node_budget: Some(2_000),
            warm_start: true,
            ..IlpConfig::default()
        }
    }

    #[test]
    fn ilp_covers_all_when_space_allows() {
        let candidates = cands(&[0.4, 0.3, 0.2, 0.1]);
        let screen = ScreenConfig::desktop(1);
        let out = ilp_plan(
            &candidates,
            &screen,
            &UserCostModel::default(),
            &small_cfg(),
        );
        assert!(out.multiplot.fits(&screen));
        for i in 0..4 {
            assert!(out.multiplot.shows(i), "candidate {i}: {:?}", out.multiplot);
        }
    }

    #[test]
    fn ilp_at_least_as_good_as_greedy() {
        let candidates = cands(&[0.35, 0.25, 0.2, 0.12, 0.08]);
        let model = UserCostModel::default();
        for width in [420u32, 640, 900] {
            let screen = ScreenConfig::with_width(width, 1);
            let g = greedy_plan(&candidates, &screen, &model);
            let out = ilp_plan(&candidates, &screen, &model, &small_cfg());
            let gc = model.expected_cost(&g, &candidates);
            assert!(
                out.expected_cost <= gc + 1e-6,
                "width {width}: ilp {} vs greedy {gc}",
                out.expected_cost
            );
        }
    }

    #[test]
    fn warm_start_guarantees_solution() {
        let candidates = cands(&[0.4, 0.3, 0.3]);
        let screen = ScreenConfig::iphone(1);
        // Zero node budget: solver cannot even look at the root, but the
        // greedy warm start provides the answer.
        let cfg = IlpConfig {
            node_budget: Some(0),
            warm_start: true,
            ..IlpConfig::default()
        };
        let out = ilp_plan(&candidates, &screen, &UserCostModel::default(), &cfg);
        assert!(out.multiplot.num_plots() > 0);
    }

    #[test]
    fn warm_start_is_the_greedy_plan_with_and_without_pruning() {
        let candidates = cands(&[0.3, 0.25, 0.2, 0.15, 0.1]);
        let model = UserCostModel::default();
        for rows in 1..=2 {
            let screen = ScreenConfig::iphone(rows);
            let greedy =
                model.expected_cost(&greedy_plan(&candidates, &screen, &model), &candidates);
            for no_template_pruning in [false, true] {
                // No nodes: the outcome is the warm-start incumbent.
                let cfg = IlpConfig {
                    node_budget: Some(0),
                    warm_start: true,
                    no_template_pruning,
                    ..IlpConfig::default()
                };
                let out = ilp_plan(&candidates, &screen, &model, &cfg);
                assert_eq!(out.expected_cost.to_bits(), greedy.to_bits(), "{cfg:?}");
            }
        }
    }

    #[test]
    fn no_warm_start_no_nodes_empty() {
        let candidates = cands(&[0.6, 0.4]);
        let screen = ScreenConfig::iphone(1);
        let cfg = IlpConfig {
            node_budget: Some(0),
            warm_start: false,
            ..IlpConfig::default()
        };
        let out = ilp_plan(&candidates, &screen, &UserCostModel::default(), &cfg);
        assert_eq!(out.multiplot.num_plots(), 0);
        assert_eq!(out.status, MipStatus::Unknown);
    }

    #[test]
    fn width_constraint_respected() {
        let candidates = cands(&[0.3, 0.25, 0.2, 0.15, 0.1]);
        let screen = ScreenConfig::with_width(320, 1);
        let out = ilp_plan(
            &candidates,
            &screen,
            &UserCostModel::default(),
            &small_cfg(),
        );
        assert!(out.multiplot.fits(&screen), "{:?}", out.multiplot);
    }

    #[test]
    fn processing_bound_limits_groups() {
        let candidates = cands(&[0.5, 0.3, 0.2]);
        let screen = ScreenConfig::desktop(1);
        // Each query in its own group of cost 10; bound allows only one.
        let proc = ProcessingConfig {
            groups: (0..3)
                .map(|i| ProcessingGroup {
                    cost: 10.0,
                    queries: vec![i],
                })
                .collect(),
            bound: Some(10.0),
            weight: 0.0,
        };
        let cfg = IlpConfig {
            node_budget: Some(5_000),
            warm_start: false,
            processing: Some(proc),
            ..IlpConfig::default()
        };
        let out = ilp_plan(&candidates, &screen, &UserCostModel::default(), &cfg);
        assert!(out.processing_cost <= 10.0 + 1e-9);
        let shown = out.multiplot.candidates_shown();
        assert!(shown.len() <= 1, "{shown:?}");
        // The most likely candidate is the one worth paying for.
        assert_eq!(shown, vec![0]);
    }

    #[test]
    fn processing_weight_trades_cost() {
        let candidates = cands(&[0.5, 0.3, 0.2]);
        let screen = ScreenConfig::desktop(1);
        let groups: Vec<ProcessingGroup> = (0..3)
            .map(|i| ProcessingGroup {
                cost: 10.0,
                queries: vec![i],
            })
            .collect();
        let cheap = ilp_plan(
            &candidates,
            &screen,
            &UserCostModel::default(),
            &IlpConfig {
                node_budget: Some(5_000),
                warm_start: false,
                processing: Some(ProcessingConfig {
                    groups: groups.clone(),
                    bound: None,
                    weight: 0.0,
                }),
                ..IlpConfig::default()
            },
        );
        let costly = ilp_plan(
            &candidates,
            &screen,
            &UserCostModel::default(),
            &IlpConfig {
                node_budget: Some(5_000),
                warm_start: false,
                processing: Some(ProcessingConfig {
                    groups,
                    bound: None,
                    weight: 1e9,
                }),
                ..IlpConfig::default()
            },
        );
        // Massive weight: processing everything is not worth it anymore.
        assert!(costly.processing_cost <= cheap.processing_cost);
    }

    #[test]
    fn single_candidate_trivial_plan() {
        let candidates = cands(&[1.0]);
        let screen = ScreenConfig::iphone(1);
        let out = ilp_plan(
            &candidates,
            &screen,
            &UserCostModel::default(),
            &small_cfg(),
        );
        assert!(out.multiplot.shows(0));
        assert_eq!(out.status, MipStatus::Optimal);
    }
}
