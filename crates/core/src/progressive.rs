//! Progressive result presentation (paper §8.2 and Figure 5).
//!
//! MUVE reduces the *impact* of processing overheads by showing users
//! partial visualizations early. Four presentation methods are modeled,
//! matching Figure 5:
//!
//! - **Default** — plan once, execute all (merged) queries, show the final
//!   multiplot;
//! - **Incremental plotting** — generate and show one plot at a time;
//! - **Approximate processing** — answer on a Bernoulli sample first
//!   (scaled estimates), then replace with exact results;
//! - **Incremental optimization** — re-plan with exponentially growing
//!   budgets (§5.4), executing and showing each improved multiplot.
//!
//! [`present`] runs a presentation and records a [`Trace`] of timestamped
//! visualization events, from which the evaluation derives F-Time (first
//! time the correct result is visible) and T-Time (final multiplot time) —
//! the metrics of paper Figures 9-11.

use crate::cost_model::UserCostModel;
use crate::planner::{plan, plan_incremental, IncrementalSchedule, Planner};
use crate::plot::{Multiplot, ScreenConfig};
use crate::query::Candidate;
use muve_dbms::{
    estimate, extract_merged, plan_merged, CostParams, ExecError, ExecOptions, Query, ScanRequest,
    ScanRows, Table,
};
use std::time::{Duration, Instant};

/// How results are presented once a multiplot is planned.
#[derive(Debug, Clone)]
pub enum Mode {
    /// One final visualization after all queries finish.
    Full,
    /// Plots appear one at a time as their queries finish.
    IncrementalPlot,
    /// A sampled approximation first, then the exact visualization.
    Approximate {
        /// Bernoulli sample fraction in `(0, 1]` (e.g. 0.01, 0.05).
        fraction: f64,
    },
    /// Approximation with a dynamically chosen sample size targeting an
    /// interactivity threshold.
    ApproximateDynamic {
        /// Target time until the first visualization.
        target: Duration,
    },
    /// Incremental ILP optimization: each improved multiplot is executed
    /// and shown (implies repeated processing).
    IncrementalIlp {
        /// The restart schedule.
        schedule: IncrementalSchedule,
    },
}

/// A presentation strategy: a planner plus a presentation mode.
#[derive(Debug, Clone)]
pub struct Presentation {
    /// Which planner produces the multiplot.
    pub planner: Planner,
    /// How results reach the screen.
    pub mode: Mode,
    /// Seed for sampling.
    pub seed: u64,
}

/// One visualization event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Time since presentation start.
    pub at: Duration,
    /// Human-readable event label.
    pub label: String,
    /// Whether the shown values are approximate.
    pub approx: bool,
    /// Per-candidate results visible after this event (`None` = pending).
    pub results: Vec<Option<f64>>,
    /// Candidates visible in the visualization after this event.
    pub visible: Vec<usize>,
}

/// The full timeline of one presentation.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Timestamped events, in order.
    pub events: Vec<TraceEvent>,
    /// The final multiplot.
    pub multiplot: Multiplot,
    /// Planning time (included in event timestamps).
    pub planning: Duration,
    /// Total time until the final visualization.
    pub total: Duration,
    /// Execution errors encountered along the way. A failed merged group
    /// leaves its candidates' results `None`; the error lands here instead
    /// of being silently dropped, so callers can degrade deliberately.
    pub errors: Vec<ExecError>,
}

impl Trace {
    /// Time until candidate `correct`'s result is first visible (exactly or
    /// approximately); `None` if it never appears.
    pub fn f_time(&self, correct: usize) -> Option<Duration> {
        self.events
            .iter()
            .find(|e| e.visible.contains(&correct) && e.results[correct].is_some())
            .map(|e| e.at)
    }

    /// Time until the final (exact, complete) visualization.
    pub fn t_time(&self) -> Duration {
        self.total
    }

    /// The first event (used for approximation-error analysis).
    pub fn initial_results(&self) -> Option<&TraceEvent> {
        self.events.first()
    }

    /// The last event (exact results).
    pub fn final_results(&self) -> Option<&TraceEvent> {
        self.events.last()
    }
}

/// Execute the shown queries of a multiplot (merged) over every row, or
/// over the `(fraction, seed)` sample with count/sum results scaled,
/// writing scalar results into `results`. A group that fails to execute
/// leaves its members' results untouched and contributes its error to the
/// returned list — the caller decides whether to degrade, never this
/// function.
fn execute_shown(
    table: &Table,
    candidates: &[Candidate],
    shown: &[usize],
    results: &mut [Option<f64>],
    sample: Option<(f64, u64)>,
) -> Vec<ExecError> {
    let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
    let rows = match sample {
        None => ScanRows::All,
        Some((fraction, seed)) => ScanRows::Sample { fraction, seed },
    };
    let request = ScanRequest::new(rows, ExecOptions::default());
    let mut errors = Vec::new();
    for g in &plan_merged(&queries) {
        match request.run(table, &g.merged) {
            Ok(rs) => {
                for (local_idx, v) in extract_merged(&rs, g) {
                    results[shown[local_idx]] = v;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    errors
}

/// Choose a sample fraction so the first visualization lands within
/// `target`: measure throughput on a pilot sample, extrapolate.
fn dynamic_fraction(table: &Table, target: Duration, seed: u64) -> f64 {
    let n = table.num_rows();
    if n < 20_000 {
        return 1.0;
    }
    let pilot_fraction = (10_000.0 / n as f64).min(1.0);
    let pilot_query = Query {
        table: table.name().to_owned(),
        aggregates: vec![muve_dbms::Aggregate::count_star()],
        predicates: Vec::new(),
        group_by: Vec::new(),
    };
    let start = Instant::now();
    let _ = muve_dbms::execute_approximate(table, &pilot_query, pilot_fraction, seed);
    let pilot_time = start.elapsed().as_secs_f64().max(1e-6);
    let rows_per_sec = (n as f64 * pilot_fraction) / pilot_time;
    // Leave most of the budget for planning, per-group scan startup and
    // aggregation overheads: the sample scan gets a quarter of it.
    let budget_rows = rows_per_sec * target.as_secs_f64() * 0.25;
    (budget_rows / n as f64).clamp(0.0005, 1.0)
}

/// Run one presentation end to end, measuring wall-clock times.
pub fn present(
    table: &Table,
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    presentation: &Presentation,
) -> Trace {
    let start = Instant::now();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut errors: Vec<ExecError> = Vec::new();
    let mut results: Vec<Option<f64>> = vec![None; candidates.len()];

    // Incremental ILP interleaves planning and execution.
    if let Mode::IncrementalIlp { schedule } = &presentation.mode {
        let base = match &presentation.planner {
            Planner::Ilp(cfg) => cfg.clone(),
            Planner::Greedy => crate::ilp::IlpConfig {
                warm_start: true,
                ..crate::ilp::IlpConfig::default()
            },
        };
        let mut final_plan: Option<Multiplot> = None;
        let planning_probe = Instant::now();
        let r = plan_incremental(candidates, screen, model, &base, schedule, |step| {
            let shown = step.multiplot.candidates_shown();
            errors.extend(execute_shown(table, candidates, &shown, &mut results, None));
            events.push(TraceEvent {
                at: start.elapsed(),
                label: format!("incremental step (cost {:.0})", step.expected_cost),
                approx: false,
                results: results.clone(),
                visible: shown,
            });
            final_plan = Some(step.multiplot.clone());
        });
        let planning = planning_probe.elapsed();
        let multiplot = final_plan.unwrap_or_else(|| r.multiplot.clone());
        return Trace {
            events,
            multiplot,
            planning,
            total: start.elapsed(),
            errors,
        };
    }

    let planned = plan(&presentation.planner, candidates, screen, model);
    let planning = planned.planning_time;
    let multiplot = planned.multiplot;
    let shown = multiplot.candidates_shown();

    match &presentation.mode {
        Mode::Full => {
            errors.extend(execute_shown(table, candidates, &shown, &mut results, None));
            events.push(TraceEvent {
                at: start.elapsed(),
                label: "final".into(),
                approx: false,
                results: results.clone(),
                visible: shown,
            });
        }
        Mode::IncrementalPlot => {
            for (pi, plot) in multiplot.plots().enumerate() {
                let plot_shown: Vec<usize> = plot.entries.iter().map(|e| e.candidate).collect();
                errors.extend(execute_shown(
                    table,
                    candidates,
                    &plot_shown,
                    &mut results,
                    None,
                ));
                let visible: Vec<usize> = multiplot
                    .plots()
                    .take(pi + 1)
                    .flat_map(|p| p.entries.iter().map(|e| e.candidate))
                    .collect();
                events.push(TraceEvent {
                    at: start.elapsed(),
                    label: format!("plot {} ready", pi + 1),
                    approx: false,
                    results: results.clone(),
                    visible,
                });
            }
        }
        Mode::Approximate { fraction } => {
            errors.extend(execute_shown(
                table,
                candidates,
                &shown,
                &mut results,
                Some((*fraction, presentation.seed)),
            ));
            events.push(TraceEvent {
                at: start.elapsed(),
                label: format!("approximate ({}%)", fraction * 100.0),
                approx: true,
                results: results.clone(),
                visible: shown.clone(),
            });
            let mut exact = vec![None; candidates.len()];
            errors.extend(execute_shown(table, candidates, &shown, &mut exact, None));
            results = exact;
            events.push(TraceEvent {
                at: start.elapsed(),
                label: "exact".into(),
                approx: false,
                results: results.clone(),
                visible: shown,
            });
        }
        Mode::ApproximateDynamic { target } => {
            let fraction = dynamic_fraction(table, *target, presentation.seed);
            errors.extend(execute_shown(
                table,
                candidates,
                &shown,
                &mut results,
                Some((fraction, presentation.seed)),
            ));
            events.push(TraceEvent {
                at: start.elapsed(),
                label: format!("approximate (dynamic {:.2}%)", fraction * 100.0),
                approx: fraction < 1.0,
                results: results.clone(),
                visible: shown.clone(),
            });
            if fraction < 1.0 {
                let mut exact = vec![None; candidates.len()];
                errors.extend(execute_shown(table, candidates, &shown, &mut exact, None));
                results = exact;
                events.push(TraceEvent {
                    at: start.elapsed(),
                    label: "exact".into(),
                    approx: false,
                    results: results.clone(),
                    visible: shown,
                });
            }
        }
        Mode::IncrementalIlp { .. } => unreachable!("handled above"),
    }

    Trace {
        events,
        multiplot,
        planning,
        total: start.elapsed(),
        errors,
    }
}

/// Estimated processing cost of executing the multiplot's shown queries
/// with merging, in cost-model units (used by the §8.1 experiments).
pub fn merged_processing_cost(
    table: &Table,
    candidates: &[Candidate],
    multiplot: &Multiplot,
    params: &CostParams,
) -> f64 {
    let shown = multiplot.candidates_shown();
    let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
    plan_merged(&queries)
        .iter()
        .map(|g| estimate(table, &g.merged, params).total)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::{parse, ColumnType, Schema, Table, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new([("origin", ColumnType::Str), ("delay", ColumnType::Int)]);
        let mut b = Table::builder("flights", schema);
        for i in 0..n {
            let o = ["JFK", "LGA", "EWR"][i % 3];
            b.push_row([Value::from(o), Value::from((i % 60) as i64)]);
        }
        b.build()
    }

    fn cands() -> Vec<Candidate> {
        [("JFK", 0.5), ("LGA", 0.3), ("EWR", 0.2)]
            .iter()
            .map(|(o, p)| {
                Candidate::new(
                    parse(&format!(
                        "select avg(delay) from flights where origin = '{o}'"
                    ))
                    .unwrap(),
                    *p,
                )
            })
            .collect()
    }

    fn presentation(mode: Mode) -> Presentation {
        Presentation {
            planner: Planner::Greedy,
            mode,
            seed: 42,
        }
    }

    #[test]
    fn full_mode_single_event_with_exact_results() {
        let t = table(3_000);
        let candidates = cands();
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::Full),
        );
        assert_eq!(trace.events.len(), 1);
        assert!(!trace.events[0].approx);
        for i in 0..3 {
            assert!(trace.events[0].results[i].is_some(), "candidate {i}");
        }
        assert!(trace.f_time(0).is_some());
        assert!(trace.f_time(0).unwrap() <= trace.t_time());
    }

    #[test]
    fn incremental_plot_shows_progressively() {
        let t = table(3_000);
        let candidates = cands();
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::IncrementalPlot),
        );
        assert!(!trace.events.is_empty());
        for w in trace.events.windows(2) {
            assert!(w[1].visible.len() >= w[0].visible.len());
        }
    }

    #[test]
    fn approximate_mode_two_events() {
        let t = table(50_000);
        let candidates = cands();
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::Approximate { fraction: 0.05 }),
        );
        assert_eq!(trace.events.len(), 2);
        assert!(trace.events[0].approx);
        assert!(!trace.events[1].approx);
        let approx = trace.events[0].results[0].unwrap();
        let exact = trace.events[1].results[0].unwrap();
        assert!(
            (approx - exact).abs() / exact.abs().max(1.0) < 0.2,
            "{approx} vs {exact}"
        );
        assert!(trace.f_time(0).unwrap() <= trace.t_time());
    }

    #[test]
    fn dynamic_mode_small_data_skips_approximation() {
        let t = table(1_000);
        let candidates = cands();
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::ApproximateDynamic {
                target: Duration::from_millis(500),
            }),
        );
        assert_eq!(trace.events.len(), 1);
        assert!(!trace.events[0].approx);
    }

    #[test]
    fn incremental_ilp_produces_events() {
        let t = table(2_000);
        let candidates = cands();
        let pres = Presentation {
            planner: Planner::Ilp(crate::ilp::IlpConfig {
                warm_start: true,
                ..crate::ilp::IlpConfig::default()
            }),
            mode: Mode::IncrementalIlp {
                schedule: IncrementalSchedule {
                    initial: Duration::from_millis(30),
                    growth: 2.0,
                    total: Duration::from_millis(400),
                },
            },
            seed: 1,
        };
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &pres,
        );
        assert!(!trace.events.is_empty());
        assert!(trace.multiplot.num_plots() > 0);
    }

    #[test]
    fn f_time_none_for_missing_candidate() {
        let t = table(1_000);
        let candidates = cands();
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::Full),
        );
        assert!(trace.f_time(99).is_none());
    }

    #[test]
    fn execution_errors_surface_in_trace() {
        let t = table(1_000);
        // One candidate aggregates a column that does not exist: its merged
        // group fails, and the failure must be reported, not swallowed. It
        // predicates on a different column so it cannot merge with (and
        // thereby fail) the healthy group.
        let mut candidates = cands();
        candidates.push(Candidate::new(
            parse("select avg(no_such_column) from flights where delay = 5").unwrap(),
            0.1,
        ));
        let trace = present(
            &t,
            &candidates,
            &ScreenConfig::desktop(2),
            &UserCostModel::default(),
            &presentation(Mode::Full),
        );
        assert!(
            !trace.errors.is_empty(),
            "expected surfaced execution error"
        );
        assert!(trace
            .errors
            .iter()
            .any(|e| matches!(e, muve_dbms::ExecError::UnknownColumn(_))));
        // The healthy candidates still got results.
        assert!(trace.events.last().unwrap().results[0].is_some());
    }

    #[test]
    fn healthy_trace_has_no_errors() {
        let t = table(1_000);
        let trace = present(
            &t,
            &cands(),
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
            &presentation(Mode::Full),
        );
        assert!(trace.errors.is_empty());
    }

    #[test]
    fn merged_cost_positive() {
        let t = table(5_000);
        let candidates = cands();
        let planned = plan(
            &Planner::Greedy,
            &candidates,
            &ScreenConfig::desktop(1),
            &UserCostModel::default(),
        );
        let c = merged_processing_cost(&t, &candidates, &planned.multiplot, &CostParams::default());
        assert!(c > 0.0);
    }
}
