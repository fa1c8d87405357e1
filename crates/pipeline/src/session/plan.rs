//! Stage 3: the planner ladder — ILP → incumbent → greedy →
//! headline-only — with its plan-cache use and its span in one place.

use super::record::{Counters, Run, Rung};
use super::{guard, top_candidate, Session};
use crate::cache::distribution_fingerprint;
use crate::error::{PipelineError, Stage};
use muve_core::{
    plan, plan_incremental_observed, Candidate, IlpConfig, IncrementalSchedule, IncumbentSlot,
    Multiplot, PlanResult, Planner, Plot, PlotEntry,
};

impl Session<'_> {
    /// The planning degradation ladder. Returns the multiplot; the rung it
    /// came from is the run's rung in effect afterwards.
    pub(super) fn plan_stage(
        &self,
        candidates: &[Candidate],
        headline_text: &str,
        run: &mut Run,
    ) -> Multiplot {
        let st = run.stage(Stage::Plan);
        // Deadline exhausted (or the request cancelled) before planning:
        // drop straight to the cheap rung.
        if let Some(why) = run.not_started(st, true) {
            run.finish(
                st,
                Rung::HeadlineOnly,
                format!("{why} before planning"),
                Vec::new(),
            );
            return headline_only_multiplot(candidates, headline_text);
        }

        // Rung 1: incremental ILP under the stage's budget share.
        if let Planner::Ilp(base_cfg) = &self.config.planner {
            let mut cfg = base_cfg.clone();
            // The cancellation point inside the solver: checked once per
            // branch-and-bound node, so a watchdog cancel (or deadline
            // expiry) surfaces mid-search as a timed-out anytime result.
            cfg.cancel = Some(run.cancel.clone());
            if self.injector.solver_stall() {
                // A stalled MIP search: no warm start, no room to branch —
                // the solver burns its restarts without ever finding an
                // incumbent.
                cfg.node_budget = Some(1);
                cfg.warm_start = false;
            }
            let schedule = IncrementalSchedule {
                total: run.budget.stage_budget(Stage::Plan),
                ..self.config.schedule
            };
            let slot = IncumbentSlot::new();
            // Plan cache: a proven-optimal hit for this distribution is
            // returned outright; an unproven one seeds the solver's warm
            // start and the incumbent slot, so planning resumes from the
            // best multiplot any previous request found.
            let dist_fp = self.caches.as_deref().map(|caches| {
                (
                    caches,
                    distribution_fingerprint(
                        candidates,
                        &self.config.screen,
                        &self.config.model,
                        plan_salt(&cfg),
                    ),
                )
            });
            // The entry this lookup returned is what later offers compare
            // against, so an offer is never a second lookup.
            let held = dist_fp.and_then(|(caches, fp)| caches.plans.get(&fp));
            if let Some(hit) = &held {
                if hit.proven_optimal && hit.multiplot.num_plots() > 0 {
                    run.finish(
                        st,
                        Rung::Ilp,
                        "plan cache hit (proven optimal)",
                        plan_counters(hit),
                    );
                    return hit.multiplot.clone();
                }
                slot.record(hit);
                cfg.seed = Some(hit.multiplot.clone());
            }
            let planned = guard(Stage::Plan, || {
                self.injector.trip(Stage::Plan)?;
                Ok(plan_incremental_observed(
                    candidates,
                    &self.config.screen,
                    &self.config.model,
                    &cfg,
                    &schedule,
                    &slot,
                    |_| {},
                ))
            });
            match planned {
                Ok(r) if r.multiplot.num_plots() > 0 => {
                    if let Some((caches, fp)) = dist_fp {
                        caches.offer_plan(fp, &r, held.as_ref());
                    }
                    let proof = if r.proven_optimal {
                        "optimal"
                    } else {
                        "feasible"
                    };
                    run.finish(
                        st,
                        Rung::Ilp,
                        format!("ILP planned ({proof})"),
                        plan_counters(&r),
                    );
                    return r.multiplot;
                }
                Ok(r) => {
                    run.errors.push(PipelineError::Planning(format!(
                        "solver produced no incumbent within its budget (timed_out = {})",
                        r.timed_out
                    )));
                }
                Err(e) => run.errors.push(e),
            }
            // Rung 2: the incumbent the observed planner left behind.
            if let Some(incumbent) = slot.take() {
                if incumbent.multiplot.num_plots() > 0 {
                    if let Some((caches, fp)) = dist_fp {
                        caches.offer_plan(fp, &incumbent, held.as_ref());
                    }
                    run.finish(
                        st,
                        Rung::Incumbent,
                        "recovered best incremental incumbent",
                        plan_counters(&incumbent),
                    );
                    return incumbent.multiplot;
                }
            }
        }

        // Rung 3: greedy. (`trip` is one-shot, so a fault already consumed
        // by the ILP attempt does not fire again here.)
        let greedy = guard(Stage::Plan, || {
            self.injector.trip(Stage::Plan)?;
            Ok(plan(
                &Planner::Greedy,
                candidates,
                &self.config.screen,
                &self.config.model,
            ))
        });
        match greedy {
            Ok(r) if r.multiplot.num_plots() > 0 || candidates.is_empty() => {
                run.finish(st, Rung::Greedy, "greedy plan", plan_counters(&r));
                return r.multiplot;
            }
            Ok(_) => run.errors.push(PipelineError::Planning(
                "greedy produced an empty plan".into(),
            )),
            Err(e) => run.errors.push(e),
        }

        // Rung 4: headline-only single plot; pure construction, cannot fail.
        run.finish(
            st,
            Rung::HeadlineOnly,
            "planning failed; headline-only single plot",
            Vec::new(),
        );
        headline_only_multiplot(candidates, headline_text)
    }
}

/// Planner-configuration salt for the plan-cache fingerprint: the knobs
/// beyond the candidate distribution itself that change the planning
/// answer (the processing-cost extension and the pruning ablation).
fn plan_salt(cfg: &IlpConfig) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(format!("{:?}|{}", cfg.processing, cfg.no_template_pruning).as_bytes());
    h.finish()
}

/// The plan span's counters, read off a [`PlanResult`].
fn plan_counters(r: &PlanResult) -> Counters {
    vec![
        ("restarts".into(), r.restarts as f64),
        ("incumbent_updates".into(), r.incumbent_updates as f64),
        ("nodes".into(), r.nodes as f64),
    ]
}

/// The headline-only rung: one plot, one bar — the most likely candidate —
/// titled with the shared headline skeleton.
pub(super) fn headline_only_multiplot(candidates: &[Candidate], headline_text: &str) -> Multiplot {
    let Some(top) = top_candidate(candidates) else {
        return Multiplot::empty(1);
    };
    let title = if headline_text.is_empty() {
        candidates[top].query.to_sql()
    } else {
        headline_text.to_owned()
    };
    Multiplot {
        rows: vec![vec![Plot {
            title,
            entries: vec![PlotEntry {
                candidate: top,
                label: "most likely".into(),
                highlighted: true,
            }],
        }]],
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{config, table};
    use super::*;
    use crate::fault::{FaultInjector, StageFault};
    use crate::session::Visualization;
    use crate::SESSION_STAGES;
    use muve_dbms::parse;
    use muve_obs::SpanStatus;
    use std::time::Duration;

    #[test]
    fn solver_panic_recovers_via_ladder() {
        let t = table(2_000);
        let inj = FaultInjector::none().with(
            Stage::Plan,
            StageFault {
                panic: true,
                ..Default::default()
            },
        );
        let out = Session::new(&t, config())
            .with_injector(inj)
            .run("average delay in jfk");
        assert!(out.degraded());
        assert!(out.errors.iter().any(|e| matches!(
            e,
            PipelineError::StagePanic {
                stage: Stage::Plan,
                ..
            }
        )));
        // The panic fired before planning started, so there is no
        // incumbent: the ladder lands on greedy.
        assert_eq!(out.trace.final_rung, Rung::Greedy);
        match &out.visualization {
            Visualization::Multiplot {
                multiplot, results, ..
            } => {
                assert!(multiplot.num_plots() > 0);
                assert!(results.iter().any(Option::is_some));
            }
            Visualization::Text { .. } => panic!("greedy rung still shows a multiplot"),
        }
    }

    #[test]
    fn solver_stall_degrades_without_panicking() {
        let t = table(2_000);
        let inj = FaultInjector::none().with(
            Stage::Plan,
            StageFault {
                stall_solver: true,
                ..Default::default()
            },
        );
        let mut cfg = config();
        cfg.deadline = Duration::from_millis(400);
        let out = Session::new(&t, cfg)
            .with_injector(inj)
            .run("average delay in jfk");
        assert!(
            out.degraded(),
            "stalled solver must degrade: {:?}",
            out.trace
        );
        assert!(
            out.elapsed < Duration::from_millis(1200),
            "stall must respect 2θ"
        );
        assert!(matches!(out.visualization, Visualization::Multiplot { .. }));
    }

    #[test]
    fn headline_only_highlights_top_candidate() {
        let cands = vec![
            Candidate::new(parse("select count(*) from t where k = 'a'").unwrap(), 0.3),
            Candidate::new(parse("select count(*) from t where k = 'b'").unwrap(), 0.7),
        ];
        let m = headline_only_multiplot(&cands, "count(*) from t where k = …");
        assert_eq!(m.num_bars(), 1);
        assert!(m.highlights(1), "bar must be the most likely candidate");
    }

    #[test]
    fn plan_panic_trace_records_caught_fault() {
        let t = table(2_000);
        let inj = FaultInjector::none().with(
            Stage::Plan,
            StageFault {
                panic: true,
                ..Default::default()
            },
        );
        let out = Session::new(&t, config())
            .with_injector(inj)
            .run("average delay in jfk");
        let st = &out.stage_trace;
        assert!(st.is_complete(&SESSION_STAGES), "{st:?}");
        let plan_span = st.span("plan").unwrap();
        assert_eq!(plan_span.status, SpanStatus::Panicked);
        assert_eq!(plan_span.rung, "greedy");
    }
}
