//! The run record: everything one session run carries from stage to stage
//! and everything it writes down about itself.
//!
//! A [`Run`] holds the three things every stage needs (the budget, the
//! cancellation token, the memory governor) and the one record of what
//! happened: typed errors, the rung-transition timeline, and one span per
//! stage. Stages never build a span or an event themselves. They open a
//! [`StageScope`] with [`Run::stage`] and close it with exactly one of
//! [`finish`](Run::finish), [`finish_quiet`](Run::finish_quiet),
//! [`fail`](Run::fail) or [`skip`](Run::skip); all four end in the same
//! private writer, which derives the span's status from the errors the
//! stage appended and stamps span and event off the same clock. The public
//! [`SessionOutcome`] is assembled from the record in one place,
//! [`Run::into_outcome`].

use super::{SessionOutcome, Visualization};
use crate::budget::DeadlineBudget;
use crate::error::{PipelineError, Stage};
use muve_core::Candidate;
use muve_dbms::Query;
use muve_obs::{CancelToken, MemBudget, SessionTrace, SpanStatus, StageSpan};
use std::time::Duration;

/// A rung of the degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Full incremental-ILP planning completed.
    Ilp,
    /// Best incremental incumbent, recovered after the planner died.
    Incumbent,
    /// Greedy heuristic plan.
    Greedy,
    /// A single plot of the top candidate under the headline.
    HeadlineOnly,
    /// The top candidate as text — the terminal fallback.
    Text,
}

impl Rung {
    /// Human-readable rung name.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Ilp => "ilp",
            Rung::Incumbent => "incumbent",
            Rung::Greedy => "greedy",
            Rung::HeadlineOnly => "headline-only",
            Rung::Text => "text",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded pipeline event (stage completion or rung transition).
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// Time since the session started.
    pub at: Duration,
    /// Stage the event belongs to.
    pub stage: Stage,
    /// Ladder rung in effect after the event.
    pub rung: Rung,
    /// What happened.
    pub detail: String,
}

/// The timeline of rung transitions for one run.
#[derive(Debug, Clone)]
pub struct DegradationTrace {
    /// Events in order.
    pub events: Vec<DegradationEvent>,
    /// The rung the session started on (per configuration).
    pub planned_rung: Rung,
    /// The rung the output was finally produced on.
    pub final_rung: Rung,
}

impl DegradationTrace {
    /// Whether the session had to degrade below its configured rung.
    pub fn degraded(&self) -> bool {
        self.final_rung > self.planned_rung
    }
}

/// Stage-specific span counters, insertion-ordered.
pub(crate) type Counters = Vec<(String, f64)>;

/// What [`Run::stage`] captured when a stage opened: enough to compute the
/// span's `started` / `spent` / `allotted` and to find the errors the
/// stage appended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageScope {
    stage: Stage,
    started: Duration,
    allotted: Duration,
    errs_before: usize,
}

/// One session run in flight.
pub(crate) struct Run {
    /// The ticking interactivity budget θ.
    pub(crate) budget: DeadlineBudget,
    /// The cancellation point every stage hot loop checks: the serve
    /// watchdog's token when one is attached, else one derived from the
    /// budget so θ is enforced *inside* stages too.
    pub(crate) cancel: CancelToken,
    /// The memory governor, alive for exactly this run: dropping it
    /// (normal return or unwind) releases every byte it still holds back
    /// to the global pool.
    pub(crate) mem: Option<MemBudget>,
    /// Every error encountered so far, in order.
    pub(crate) errors: Vec<PipelineError>,
    /// The ladder rung currently in effect.
    pub(crate) rung: Rung,
    planned: Rung,
    events: Vec<DegradationEvent>,
    strace: SessionTrace,
}

impl Run {
    pub(crate) fn new(
        budget: DeadlineBudget,
        cancel: Option<CancelToken>,
        mem: Option<MemBudget>,
        planned: Rung,
    ) -> Run {
        Run {
            cancel: cancel.unwrap_or_else(|| budget.cancel_token()),
            strace: SessionTrace::new(budget.total()),
            budget,
            mem,
            errors: Vec::new(),
            rung: planned,
            planned,
            events: Vec::new(),
        }
    }

    /// Open `stage`: capture its start offset, its budget share, and where
    /// its errors begin.
    pub(crate) fn stage(&self, stage: Stage) -> StageScope {
        StageScope {
            stage,
            started: self.budget.elapsed(),
            allotted: self.budget.stage_budget(stage),
            errs_before: self.errors.len(),
        }
    }

    /// The one "not started" exit. If θ was already spent before the stage
    /// began — or, for stages with cancellation points (`heed_cancel`),
    /// the token had already fired — record the typed error and return why,
    /// as the opening words of the stage's event text.
    pub(crate) fn not_started(
        &mut self,
        st: StageScope,
        heed_cancel: bool,
    ) -> Option<&'static str> {
        let stage = st.stage;
        let (err, why) = if self.budget.exhausted() {
            let budget = self.budget.total();
            (
                PipelineError::DeadlineExceeded { stage, budget },
                "deadline exhausted",
            )
        } else if heed_cancel && self.cancel.is_cancelled() {
            (PipelineError::Cancelled { stage }, "cancelled")
        } else {
            return None;
        };
        self.errors.push(err);
        Some(why)
    }

    /// Record a mid-stage ladder decision on the rung in effect.
    pub(crate) fn note(&mut self, st: StageScope, detail: impl Into<String>) {
        self.write(st, self.rung, None, Some(detail.into()));
    }

    /// Close the stage on `rung`, announcing it: the span and the event
    /// carry the same `detail`.
    pub(crate) fn finish(
        &mut self,
        st: StageScope,
        rung: Rung,
        detail: impl Into<String>,
        counters: Counters,
    ) {
        let detail = detail.into();
        let span = (self.status(st), detail.clone(), counters);
        self.write(st, rung, Some(span), Some(detail));
    }

    /// Close a stage that stayed on the rung in effect and has nothing to
    /// tell the ladder: a span, no event.
    pub(crate) fn finish_quiet(
        &mut self,
        st: StageScope,
        detail: impl Into<String>,
        counters: Counters,
    ) {
        let span = (self.status(st), detail.into(), counters);
        self.write(st, self.rung, Some(span), None);
    }

    /// Close a stage whose body died with `e`: the span carries the error
    /// text, the event carries the fallback `decision` that moved the run
    /// to `rung`.
    pub(crate) fn fail(
        &mut self,
        st: StageScope,
        e: PipelineError,
        rung: Rung,
        decision: &str,
        counters: Counters,
    ) {
        let detail = e.to_string();
        self.errors.push(e);
        let span = (self.status(st), detail, counters);
        self.write(st, rung, Some(span), Some(decision.to_owned()));
    }

    /// Close a stage that never ran and produced nothing: a `Skipped` span
    /// with no timings, no event.
    pub(crate) fn skip(&mut self, st: StageScope, detail: &str) {
        let span = (SpanStatus::Skipped, detail.to_owned(), Vec::new());
        self.write(st, self.rung, Some(span), None);
    }

    /// Disposition of a stage given the errors it appended: a caught panic
    /// anywhere in the stage dominates, then a cancellation, then a
    /// governor rejection, then any other error, then clean completion. A
    /// non-completed span can still carry fallback output — the span's
    /// rung tells that story.
    ///
    /// "θ was spent before the stage started" counts as a cancellation:
    /// the stage was stopped from outside and never touched its
    /// dependency, so — like a fired token — it must give the serving
    /// layer's circuit breakers no signal. Reporting it as `Failed` would
    /// let a few requests that ran out of time in the queue or in
    /// translate open the plan breaker and pre-degrade healthy requests.
    fn status(&self, st: StageScope) -> SpanStatus {
        let slice = &self.errors[st.errs_before..];
        let any = |pred: fn(&PipelineError) -> bool| slice.iter().any(pred);
        if any(|e| matches!(e, PipelineError::StagePanic { .. })) {
            SpanStatus::Panicked
        } else if any(|e| {
            matches!(
                e,
                PipelineError::Cancelled { .. } | PipelineError::DeadlineExceeded { .. }
            )
        }) {
            SpanStatus::Cancelled
        } else if any(|e| matches!(e, PipelineError::ResourceExhausted { .. })) {
            SpanStatus::Exhausted
        } else if !slice.is_empty() {
            SpanStatus::Failed
        } else {
            SpanStatus::Completed
        }
    }

    /// The single writer: `span` closes the stage, `event` adds a line to
    /// the rung timeline, and both read the clock once.
    fn write(
        &mut self,
        st: StageScope,
        rung: Rung,
        span: Option<(SpanStatus, String, Counters)>,
        event: Option<String>,
    ) {
        let now = self.budget.elapsed();
        self.rung = rung;
        if let Some(detail) = event {
            self.events.push(DegradationEvent {
                at: now,
                stage: st.stage,
                rung,
                detail,
            });
        }
        if let Some((status, detail, counters)) = span {
            let ran = status != SpanStatus::Skipped;
            self.strace.spans.push(StageSpan {
                stage: st.stage.name().to_owned(),
                started: if ran { st.started } else { Duration::ZERO },
                spent: if ran {
                    now.saturating_sub(st.started)
                } else {
                    Duration::ZERO
                },
                allotted: ran.then_some(st.allotted),
                status,
                rung: rung.name().to_owned(),
                detail,
                counters,
            });
        }
    }

    /// Close the record (rungs, total wall-clock, session metrics) and
    /// assemble the public outcome around it.
    pub(crate) fn into_outcome(
        mut self,
        transcript: &str,
        interpretation: Option<Query>,
        candidates: Vec<Candidate>,
        visualization: Visualization,
    ) -> SessionOutcome {
        let elapsed = self.budget.elapsed();
        self.strace.planned_rung = self.planned.name().to_owned();
        self.strace.final_rung = self.rung.name().to_owned();
        self.strace.total = elapsed;
        let obs = muve_obs::metrics();
        obs.counter("session.runs").incr();
        if self.rung > self.planned {
            obs.counter("session.degraded").incr();
        }
        obs.histogram("session.run_us").record_duration(elapsed);
        SessionOutcome {
            transcript: transcript.to_owned(),
            interpretation,
            candidates,
            visualization,
            trace: DegradationTrace {
                events: self.events,
                planned_rung: self.planned,
                final_rung: self.rung,
            },
            stage_trace: self.strace,
            errors: self.errors,
            elapsed,
            deadline: self.budget.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{config, table};
    use crate::{Session, SESSION_STAGES};
    use muve_obs::{SessionTrace, SpanStatus};

    #[test]
    fn clean_run_trace_is_complete() {
        let t = table(2_000);
        let out = Session::new(&t, config()).run("average delay in jfk");
        let st = &out.stage_trace;
        assert!(st.is_complete(&SESSION_STAGES), "{st:?}");
        assert_eq!(st.final_rung, out.trace.final_rung.name());
        assert_eq!(st.planned_rung, "ilp");
        assert_eq!(st.deadline, out.deadline);
        let translate = st.span("translate").unwrap();
        assert_eq!(translate.status, SpanStatus::Completed);
        assert!(translate.allotted.is_some());
        let cand = st.span("candidates").unwrap();
        assert!(cand.counter("candidates").unwrap() >= 1.0);
        let plan_span = st.span("plan").unwrap();
        assert!(plan_span.counter("nodes").is_some());
        let exec = st.span("execute").unwrap();
        assert!(exec.counter("rows_scanned").unwrap() > 0.0, "{exec:?}");
        assert!(exec.counter("attempts").unwrap() >= 1.0);
        // Round-trips losslessly through rendered JSON (durations are
        // stored as integer microseconds, so compare at that granularity).
        let v = st.to_json();
        let s = serde_json::to_string(&v).unwrap();
        let back = SessionTrace::from_json(&serde_json::from_str(&s).unwrap()).unwrap();
        assert_eq!(back.to_json(), v);
        assert!(back.is_complete(&SESSION_STAGES));
    }

    #[test]
    fn translate_failure_trace_has_skipped_spans() {
        let t = table(100);
        let out = Session::new(&t, config()).run("   ");
        let st = &out.stage_trace;
        assert!(st.is_complete(&SESSION_STAGES), "{st:?}");
        assert_eq!(st.span("translate").unwrap().status, SpanStatus::Failed);
        for stage in ["candidates", "plan", "execute", "render"] {
            assert_eq!(
                st.span(stage).unwrap().status,
                SpanStatus::Skipped,
                "{stage}"
            );
        }
        assert_eq!(st.final_rung, "text");
    }
}
