//! Planner facade: one entry point over the greedy and ILP planners, plus
//! the incremental-ILP schedule of paper §5.4.

use crate::cost_model::UserCostModel;
use crate::greedy::greedy_plan;
use crate::ilp::{ilp_plan, IlpConfig};
use crate::plot::{Multiplot, ScreenConfig};
use crate::query::Candidate;
use muve_obs::{Counter, Histogram};
use muve_solver::MipStatus;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which planning algorithm to run.
#[derive(Debug, Clone)]
pub enum Planner {
    /// The greedy heuristic (paper §6).
    Greedy,
    /// The integer-programming planner (paper §5).
    Ilp(IlpConfig),
}

/// The exponential-timeout schedule for incremental ILP optimization
/// (paper §5.4: the `i`-th sequence lasts `k · bⁱ`).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalSchedule {
    /// Initial sequence duration `k` (paper default 62.5 ms).
    pub initial: Duration,
    /// Growth base `b` (paper default 2).
    pub growth: f64,
    /// Total optimization budget across sequences.
    pub total: Duration,
}

impl Default for IncrementalSchedule {
    fn default() -> Self {
        IncrementalSchedule {
            initial: Duration::from_micros(62_500),
            growth: 2.0,
            total: Duration::from_secs(1),
        }
    }
}

/// Result of one planning run.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// The planned multiplot.
    pub multiplot: Multiplot,
    /// Expected user disambiguation cost under the user model.
    pub expected_cost: f64,
    /// Wall-clock planning time.
    pub planning_time: Duration,
    /// Whether the planner hit its time budget before proving optimality.
    pub timed_out: bool,
    /// Whether the solution is proven optimal (always false for greedy).
    pub proven_optimal: bool,
    /// Solver restarts performed (incremental planning only).
    pub restarts: usize,
    /// Times the incumbent improved across the run (restarts included).
    pub incumbent_updates: usize,
    /// Branch-and-bound nodes explored across the run (0 for greedy).
    pub nodes: usize,
}

/// A thread-safe slot holding the best plan found so far.
///
/// [`plan_incremental_observed`] writes every improved incumbent into the
/// slot *before* continuing to optimize, so a caller that wraps planning in
/// [`std::panic::catch_unwind`] (or races it against a deadline on another
/// thread) can recover the latest incumbent even when the planner never
/// returns normally. Lock poisoning is deliberately ignored: the whole
/// point of the slot is reading state left behind by a panicked writer.
#[derive(Debug, Default)]
pub struct IncumbentSlot {
    inner: Mutex<Option<PlanResult>>,
}

impl IncumbentSlot {
    /// An empty slot.
    pub fn new() -> IncumbentSlot {
        IncumbentSlot::default()
    }

    /// Record an improved incumbent.
    pub fn record(&self, result: &PlanResult) {
        *self.lock() = Some(result.clone());
    }

    /// The best incumbent recorded so far, if any.
    pub fn get(&self) -> Option<PlanResult> {
        self.lock().clone()
    }

    /// Take the incumbent out of the slot, leaving it empty.
    pub fn take(&self) -> Option<PlanResult> {
        self.lock().take()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<PlanResult>> {
        // Poison-tolerant: a panic mid-`record` can only have happened
        // outside the guarded region (the critical section is a clone
        // assignment), so the stored value is always coherent.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Run one planner with its time budget clamped to `deadline`.
///
/// Greedy ignores the deadline (it is not interruptible, but runs in
/// microseconds at interactive candidate counts). For the ILP planner the
/// effective budget is the smaller of the configured budget and `deadline`,
/// so a pipeline can hand the planner exactly the interactivity budget it
/// has left.
pub fn plan_with_deadline(
    planner: &Planner,
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    deadline: Duration,
) -> PlanResult {
    let clamped = match planner {
        Planner::Greedy => Planner::Greedy,
        Planner::Ilp(cfg) => {
            let budget = cfg.time_budget.map_or(deadline, |b| b.min(deadline));
            Planner::Ilp(IlpConfig {
                time_budget: Some(budget),
                ..cfg.clone()
            })
        }
    };
    plan(&clamped, candidates, screen, model)
}

/// Run one planner.
pub fn plan(
    planner: &Planner,
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
) -> PlanResult {
    let start = Instant::now();
    let result = match planner {
        Planner::Greedy => {
            let multiplot = greedy_plan(candidates, screen, model);
            PlanResult {
                expected_cost: model.expected_cost(&multiplot, candidates),
                multiplot,
                planning_time: start.elapsed(),
                timed_out: false,
                proven_optimal: false,
                restarts: 0,
                incumbent_updates: 0,
                nodes: 0,
            }
        }
        Planner::Ilp(cfg) => {
            let out = ilp_plan(candidates, screen, model, cfg);
            PlanResult {
                expected_cost: out.expected_cost,
                multiplot: out.multiplot,
                planning_time: start.elapsed(),
                timed_out: out.timed_out || out.status == MipStatus::Feasible,
                proven_optimal: out.status == MipStatus::Optimal,
                restarts: 0,
                incumbent_updates: out.incumbent_updates,
                nodes: out.nodes,
            }
        }
    };
    record_plan_metrics(&result);
    result
}

/// Record a finished planning run into the global metric registry.
fn record_plan_metrics(result: &PlanResult) {
    // Every run touches these; look them up in the registry once.
    static METRICS: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
    static PLAN_US: OnceLock<Arc<Histogram>> = OnceLock::new();
    let obs = muve_obs::metrics();
    let [runs, restarts, incumbent_updates, nodes] = METRICS.get_or_init(|| {
        ["runs", "restarts", "incumbent_updates", "nodes"]
            .map(|name| obs.counter(&format!("planner.{name}")))
    });
    runs.incr();
    restarts.add(result.restarts as u64);
    incumbent_updates.add(result.incumbent_updates as u64);
    nodes.add(result.nodes as u64);
    if result.timed_out {
        obs.counter("planner.timeouts").incr();
    }
    PLAN_US
        .get_or_init(|| obs.histogram("planner.plan_us"))
        .record_duration(result.planning_time);
}

/// Incremental ILP optimization: restart the solver with exponentially
/// increasing budgets, seeding each restart with the best multiplot so far,
/// and hand every intermediate result to `on_step` (the paper shows each to
/// the user). Returns the final result.
pub fn plan_incremental(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    base: &IlpConfig,
    schedule: &IncrementalSchedule,
    on_step: impl FnMut(&PlanResult),
) -> PlanResult {
    plan_incremental_observed(
        candidates,
        screen,
        model,
        base,
        schedule,
        &IncumbentSlot::new(),
        on_step,
    )
}

/// [`plan_incremental`] with an externally observable incumbent.
///
/// Identical to [`plan_incremental`] except that every improved result is
/// also written to `incumbent` before optimization continues, so a caller
/// supervising the planner (panic isolation, deadline race) can recover the
/// best multiplot found so far even if this function never returns.
#[allow(clippy::too_many_arguments)]
pub fn plan_incremental_observed(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    base: &IlpConfig,
    schedule: &IncrementalSchedule,
    incumbent: &IncumbentSlot,
    mut on_step: impl FnMut(&PlanResult),
) -> PlanResult {
    let start = Instant::now();
    // An empty candidate list has a trivially optimal empty plan; reporting
    // it as a timeout would make callers degrade for no reason.
    if candidates.is_empty() {
        let multiplot = Multiplot::empty(screen.rows);
        let result = PlanResult {
            expected_cost: model.expected_cost(&multiplot, candidates),
            multiplot,
            planning_time: start.elapsed(),
            timed_out: false,
            proven_optimal: true,
            restarts: 0,
            incumbent_updates: 0,
            nodes: 0,
        };
        record_plan_metrics(&result);
        return result;
    }
    let mut best: Option<PlanResult> = None;
    // Honor a caller-provided warm start (`base.seed`, e.g. from the plan
    // cache) on the very first sequence, not just after a restart.
    let mut seed: Option<Multiplot> = base.seed.clone();
    let mut step = 0u32;
    let mut restarts = 0usize;
    let mut incumbent_updates = 0usize;
    let mut nodes = 0usize;
    loop {
        let remaining = schedule.total.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            break;
        }
        // A fired cancellation token ends the restart schedule outright;
        // without this the loop would keep launching near-instant solver
        // runs until `schedule.total` elapses.
        if base.cancel.as_ref().is_some_and(|c| c.should_stop()) {
            break;
        }
        // k · bⁱ overflows f64 (and Duration::from_secs_f64 panics) once
        // restarts are cheap enough to reach step ~1000 — a stalled solver
        // with a near-zero node budget gets there. Saturate at `remaining`,
        // which is the effective cap anyway.
        let raw = schedule.initial.as_secs_f64() * schedule.growth.powi(step as i32);
        let budget = if raw.is_finite() {
            Duration::from_secs_f64(raw.min(remaining.as_secs_f64()))
        } else {
            remaining
        };
        let cfg = IlpConfig {
            time_budget: Some(budget),
            seed: seed.clone(),
            ..base.clone()
        };
        let out = ilp_plan(candidates, screen, model, &cfg);
        restarts += 1;
        nodes += out.nodes;
        let result = PlanResult {
            expected_cost: out.expected_cost,
            multiplot: out.multiplot.clone(),
            planning_time: start.elapsed(),
            timed_out: out.timed_out || out.status == MipStatus::Feasible,
            proven_optimal: out.status == MipStatus::Optimal,
            restarts,
            incumbent_updates,
            nodes,
        };
        // An empty, unproven multiplot (solver found no incumbent yet) is
        // not worth showing; keep waiting for a real one.
        let meaningful = result.multiplot.num_plots() > 0 || result.proven_optimal;
        let improved = meaningful
            && best
                .as_ref()
                .is_none_or(|b| result.expected_cost < b.expected_cost - 1e-9);
        if improved {
            incumbent_updates += 1;
            let result = PlanResult {
                incumbent_updates,
                ..result
            };
            seed = Some(out.multiplot);
            incumbent.record(&result);
            on_step(&result);
            best = Some(result);
        } else if result.proven_optimal {
            incumbent.record(&result);
            best = Some(result);
            break;
        }
        if best.as_ref().is_some_and(|b| b.proven_optimal) {
            break;
        }
        step += 1;
    }
    let result = best.unwrap_or_else(|| {
        // No incumbent was ever found. Only call it a timeout when the
        // schedule's budget was actually exhausted.
        let multiplot = Multiplot::empty(screen.rows);
        PlanResult {
            expected_cost: model.expected_cost(&multiplot, candidates),
            multiplot,
            planning_time: start.elapsed(),
            timed_out: start.elapsed() >= schedule.total,
            proven_optimal: false,
            restarts,
            incumbent_updates,
            nodes,
        }
    });
    record_plan_metrics(&result);
    result
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
                    parse(&format!("select sum(v) from t where k = 'x{i}'")).unwrap(),
                    p,
                )
            })
            .collect()
    }

    #[test]
    fn greedy_plan_result() {
        let r = plan(
            &Planner::Greedy,
            &cands(&[0.6, 0.4]),
            &ScreenConfig::iphone(1),
            &UserCostModel::default(),
        );
        assert!(!r.timed_out);
        assert!(!r.proven_optimal);
        assert!(r.multiplot.num_plots() > 0);
    }

    #[test]
    fn ilp_plan_result_optimal_on_small_input() {
        let cfg = IlpConfig {
            node_budget: Some(5_000),
            warm_start: true,
            ..IlpConfig::default()
        };
        let r = plan(
            &Planner::Ilp(cfg),
            &cands(&[0.6, 0.4]),
            &ScreenConfig::iphone(1),
            &UserCostModel::default(),
        );
        assert!(r.proven_optimal);
        assert!(!r.timed_out);
    }

    #[test]
    fn incremental_reports_steps() {
        let candidates = cands(&[0.4, 0.3, 0.2, 0.1]);
        let screen = ScreenConfig::iphone(1);
        let model = UserCostModel::default();
        let mut steps = 0;
        let base = IlpConfig {
            warm_start: true,
            ..IlpConfig::default()
        };
        let schedule = IncrementalSchedule {
            initial: Duration::from_millis(20),
            growth: 2.0,
            total: Duration::from_millis(500),
        };
        let r = plan_incremental(&candidates, &screen, &model, &base, &schedule, |_| {
            steps += 1
        });
        assert!(steps >= 1);
        assert!(r.multiplot.num_plots() > 0);
        // Cost never above greedy (warm start guarantees it).
        let g = plan(&Planner::Greedy, &candidates, &screen, &model);
        assert!(r.expected_cost <= g.expected_cost + 1e-6);
    }

    #[test]
    fn incremental_empty_candidates_not_a_timeout() {
        let schedule = IncrementalSchedule::default();
        let r = plan_incremental(
            &[],
            &ScreenConfig::iphone(1),
            &UserCostModel::default(),
            &IlpConfig::default(),
            &schedule,
            |_| {},
        );
        assert!(!r.timed_out);
        assert!(r.proven_optimal);
        assert_eq!(r.multiplot.num_plots(), 0);
        // Trivial plan must come back immediately, not after the budget.
        assert!(r.planning_time < schedule.total);
    }

    #[test]
    fn explosive_schedule_never_overflows() {
        // A near-zero initial budget with an extreme growth base reaches
        // non-finite k · bⁱ within a few steps; the sequence budget must
        // saturate at the remaining time instead of panicking.
        let schedule = IncrementalSchedule {
            initial: Duration::from_nanos(1),
            growth: 1e9,
            total: Duration::from_millis(30),
        };
        let r = plan_incremental(
            &cands(&[0.6, 0.4]),
            &ScreenConfig::iphone(1),
            &UserCostModel::default(),
            &IlpConfig {
                node_budget: Some(1),
                warm_start: false,
                ..IlpConfig::default()
            },
            &schedule,
            |_| {},
        );
        assert!(r.planning_time >= Duration::from_millis(1));
    }

    #[test]
    fn observed_incumbent_matches_final_result() {
        let candidates = cands(&[0.4, 0.3, 0.2, 0.1]);
        let screen = ScreenConfig::iphone(1);
        let model = UserCostModel::default();
        let slot = IncumbentSlot::new();
        let schedule = IncrementalSchedule {
            initial: Duration::from_millis(20),
            growth: 2.0,
            total: Duration::from_millis(400),
        };
        let base = IlpConfig {
            warm_start: true,
            ..IlpConfig::default()
        };
        let r = plan_incremental_observed(
            &candidates,
            &screen,
            &model,
            &base,
            &schedule,
            &slot,
            |_| {},
        );
        let held = slot.get().expect("incumbent recorded");
        assert_eq!(held.multiplot, r.multiplot);
        assert!(slot.take().is_some());
        assert!(slot.get().is_none());
    }

    #[test]
    fn deadline_clamps_ilp_budget() {
        let candidates = cands(&[0.3, 0.25, 0.2, 0.15, 0.1]);
        let cfg = IlpConfig {
            time_budget: Some(Duration::from_secs(60)),
            warm_start: true,
            ..IlpConfig::default()
        };
        let start = Instant::now();
        let r = plan_with_deadline(
            &Planner::Ilp(cfg),
            &candidates,
            &ScreenConfig::iphone(1),
            &UserCostModel::default(),
            Duration::from_millis(150),
        );
        // Generous margin: the solver checks its clock between nodes.
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(r.multiplot.num_plots() > 0);
    }
}
