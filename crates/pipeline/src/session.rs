//! The deadline-enforced session pipeline.
//!
//! [`Session::run`] drives one voice-query interaction end to end —
//! transcript → text2sql → candidate generation → planning → merged
//! execution → render — under a single [`DeadlineBudget`], and **never
//! panics and never fails**: every stage error, caught panic, or deadline
//! exhaustion moves the session down a degradation ladder instead:
//!
//! 1. **ILP** — full incremental-ILP planning (paper §5.4);
//! 2. **Incumbent** — the best incremental incumbent recovered from a
//!    planner that died or ran out of time;
//! 3. **Greedy** — the submodular heuristic (paper §6);
//! 4. **Headline-only** — a single plot of the top candidate under the
//!    shared-headline skeleton (paper Figure 2b);
//! 5. **Text** — the top candidate as text, the terminal fallback.
//!
//! Execution has its own two recovery axes: a retry-with-escalation sample
//! ladder (1% → 5% → exact, via `muve-dbms`'s Bernoulli sampling) and an
//! automatic fallback from merged to separate execution when
//! [`execute_merged`] fails. Each run returns a [`SessionOutcome`] whose
//! [`DegradationTrace`] records every rung transition with a timestamp and
//! reason.

use crate::budget::DeadlineBudget;
use crate::cache::SessionCaches;
use crate::error::{PipelineError, Stage};
use crate::fault::{EscapedPanic, FaultInjector};
use muve_cache::Join;
use muve_core::{
    distribution_fingerprint, headline, plan, plan_incremental_observed, render_text, Candidate,
    IlpConfig, IncrementalSchedule, IncumbentSlot, Multiplot, Planner, Plot, PlotEntry,
    ScreenConfig, UserCostModel,
};
use muve_dbms::{
    execute_approximate_with_opts, execute_merged_with_opts, execute_with_opts, extract_merged,
    fidelity_key, parse, plan_merged, predicate_order_fingerprint, query_fingerprint, ExecError,
    ExecOptions, MergeGroup, Query, ResultKey, ResultSet, Table,
};
use muve_nlq::{translate, CandidateGenerator, CandidateKey, CandidateQuery};
use muve_obs::{CancelCause, CancelToken, MemBudget, MemPool, SessionTrace, SpanStatus, StageSpan};
use muve_shard::{ShardExecOptions, ShardSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;

/// Configuration of one session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The total interactivity budget θ for one `run`.
    pub deadline: Duration,
    /// Output geometry.
    pub screen: ScreenConfig,
    /// The user disambiguation cost model.
    pub model: UserCostModel,
    /// Preferred planner (top rung of the ladder). `Greedy` starts the
    /// ladder at the greedy rung.
    pub planner: Planner,
    /// Incremental-ILP restart schedule; its `total` is replaced at run
    /// time by the plan stage's remaining-budget share.
    pub schedule: IncrementalSchedule,
    /// Phonetic alternatives per query element (paper default 20).
    pub k: usize,
    /// Maximum candidate interpretations.
    pub max_candidates: usize,
    /// Ascending sample fractions tried before exact execution when the
    /// table is large or an execution attempt fails.
    pub sample_ladder: Vec<f64>,
    /// Tables with at least this many rows execute through the sample
    /// ladder before going exact.
    pub sample_threshold_rows: usize,
    /// Seed for sampling.
    pub seed: u64,
    /// Per-request memory cap for execution state (group-aggregation maps,
    /// materialized results), in bytes. `0` disables the governor
    /// entirely — execution is bit-identical to the ungoverned path.
    pub mem_cap_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            deadline: Duration::from_secs(1),
            screen: ScreenConfig::desktop(2),
            model: UserCostModel::default(),
            planner: Planner::Ilp(IlpConfig {
                warm_start: true,
                ..IlpConfig::default()
            }),
            schedule: IncrementalSchedule::default(),
            k: 20,
            max_candidates: 10,
            sample_ladder: vec![0.01, 0.05],
            sample_threshold_rows: 50_000,
            seed: 42,
            mem_cap_bytes: 0,
        }
    }
}

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

/// What the session puts on screen.
#[derive(Debug, Clone)]
pub enum Visualization {
    /// A planned multiplot with (possibly partial) results.
    Multiplot {
        /// The multiplot.
        multiplot: Multiplot,
        /// The shared-headline text above the plots.
        headline: String,
        /// Per-candidate scalar results (`None` = unavailable).
        results: Vec<Option<f64>>,
        /// Rendered terminal text.
        rendered: String,
        /// Whether the shown values come from a sample.
        approximate: bool,
    },
    /// Terminal fallback: the top candidate as text.
    Text {
        /// The message shown to the user.
        message: String,
    },
}

/// The complete, always-well-formed result of one session run.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The input transcript.
    pub transcript: String,
    /// The most likely interpretation, if translation succeeded.
    pub interpretation: Option<Query>,
    /// The candidate distribution handed to the planner.
    pub candidates: Vec<Candidate>,
    /// What ended up on screen.
    pub visualization: Visualization,
    /// The rung-transition timeline.
    pub trace: DegradationTrace,
    /// Per-stage spans of this run: allotted vs. spent budget, disposition,
    /// rung, and stage counters. Always complete — one span per stage in
    /// [`SESSION_STAGES`] order, even for stages that never ran.
    pub stage_trace: SessionTrace,
    /// Every error encountered (the outcome itself is never an error).
    pub errors: Vec<PipelineError>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The configured deadline θ.
    pub deadline: Duration,
}

impl SessionOutcome {
    /// Whether the session degraded below its configured rung.
    pub fn degraded(&self) -> bool {
        self.trace.degraded()
    }
}

// ---------------------------------------------------------------------------
// Panic-output suppression: injected panics are expected control flow here,
// so while a session with planted panics runs, the default "thread panicked
// at …" printout is silenced. The hook is installed once and consults a
// depth counter, so sessions on different threads compose.

static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);
static QUIET_INSTALL: Once = Once::new();

pub(crate) struct QuietPanics;

impl QuietPanics {
    pub(crate) fn engage() -> QuietPanics {
        QUIET_INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.load(Ordering::SeqCst) == 0 {
                    prev(info);
                }
            }));
        });
        QUIET_DEPTH.fetch_add(1, Ordering::SeqCst);
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Render a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Result of one execution attempt over the shown candidates.
struct ExecAttempt {
    /// `(candidate index, value)` per member that executed.
    values: Vec<(usize, Option<f64>)>,
    /// Per-member errors (the attempt still counts as successful if any
    /// member produced a value).
    member_errors: Vec<PipelineError>,
    /// Rows scanned across every query this attempt ran.
    rows_scanned: usize,
    /// Shard sub-results lost to degraded gathers across this attempt's
    /// queries (always 0 on the single-table path). Any non-zero count
    /// marks the attempt's values as scaled estimates.
    partial_shards: usize,
}

/// How a session holds its table: borrowed for single-threaded callers,
/// shared (`Arc`) for sessions that must be `Send + 'static` — e.g. work
/// items crossing into the `muve-serve` worker pool.
#[derive(Debug)]
enum TableRef<'a> {
    Borrowed(&'a Table),
    Shared(Arc<Table>),
}

impl TableRef<'_> {
    fn get(&self) -> &Table {
        match self {
            TableRef::Borrowed(t) => t,
            TableRef::Shared(t) => t,
        }
    }
}

/// A deadline-enforced voice-query session over one table.
#[derive(Debug)]
pub struct Session<'a> {
    table: TableRef<'a>,
    /// Built on first use: a candidate-cache hit never needs the phonetic
    /// index, so its construction cost (a scan of every dictionary) is
    /// deferred until a generation actually runs.
    generator: OnceLock<CandidateGenerator>,
    config: SessionConfig,
    injector: FaultInjector,
    caches: Option<Arc<SessionCaches>>,
    /// Externally supplied cancellation token (the serve watchdog holds a
    /// clone); when absent, each run derives one from its budget.
    cancel: Option<CancelToken>,
    /// Process-wide memory pool charged alongside the per-request cap.
    mem_pool: Option<Arc<MemPool>>,
    /// Replicated shard backend; when attached, every query this session
    /// executes goes through scatter-gather instead of the single-table
    /// path (bit-identical on full gathers, degrading to typed scaled
    /// estimates when shards are lost).
    shards: Option<Arc<ShardSet>>,
}

impl<'a> Session<'a> {
    /// Build a session over `table`.
    pub fn new(table: &'a Table, config: SessionConfig) -> Session<'a> {
        Session {
            generator: OnceLock::new(),
            table: TableRef::Borrowed(table),
            config,
            injector: FaultInjector::none(),
            caches: None,
            cancel: None,
            mem_pool: None,
            shards: None,
        }
    }

    /// Build a session that *shares* ownership of `table`. The returned
    /// session is `'static` (and `Send`), so it can be moved onto another
    /// thread — the constructor the concurrent serving layer uses.
    pub fn shared(table: Arc<Table>, config: SessionConfig) -> Session<'static> {
        Session {
            generator: OnceLock::new(),
            table: TableRef::Shared(table),
            config,
            injector: FaultInjector::none(),
            caches: None,
            cancel: None,
            mem_pool: None,
            shards: None,
        }
    }

    /// Thread a fault injector through every stage of this session.
    pub fn with_injector(mut self, injector: FaultInjector) -> Session<'a> {
        self.injector = injector;
        self
    }

    /// Attach a shared cache bundle. The caches must have been stamped
    /// with this session's table ([`SessionCaches::set_table`]);
    /// otherwise every lookup simply misses on the epoch check.
    pub fn with_caches(mut self, caches: Arc<SessionCaches>) -> Session<'a> {
        self.caches = Some(caches);
        self
    }

    /// Attach an external cancellation token. Stage hot loops (dbms scans,
    /// the solver node loop, single-flight waits) consult it; the serve
    /// watchdog holds a clone and can fire it to abort a wedged request.
    /// Without one, each run derives a token from its own deadline budget.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Session<'a> {
        self.cancel = Some(cancel);
        self
    }

    /// Attach the process-wide memory pool; execution-state charges count
    /// against it in addition to the per-request
    /// [`mem_cap_bytes`](SessionConfig::mem_cap_bytes) cap.
    pub fn with_mem_pool(mut self, pool: Arc<MemPool>) -> Session<'a> {
        self.mem_pool = Some(pool);
        self
    }

    /// Route execution through a replicated shard set instead of the
    /// single-table path. The set must have been built over this session's
    /// table. Full gathers are bit-identical to unsharded execution; lost
    /// shards degrade the run to coverage-scaled estimates (flagged
    /// `approximate`, with a degradation event) rather than failing it.
    pub fn with_shards(mut self, shards: Arc<ShardSet>) -> Session<'a> {
        self.shards = Some(shards);
        self
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The candidate generator, built on first use.
    fn generator(&self) -> &CandidateGenerator {
        self.generator
            .get_or_init(|| CandidateGenerator::new(self.table.get()))
    }

    /// The candidate distribution for `base`: cache lookup first, then
    /// phonetic generation (inserting the result on success). Returns the
    /// distribution and whether it came from the cache. A hit skips the
    /// whole stage body — including the injector trip — since no work of
    /// the candidates stage actually runs.
    fn candidate_distribution(
        &self,
        base: &Query,
        budget: &DeadlineBudget,
    ) -> Result<(Arc<Vec<CandidateQuery>>, bool), PipelineError> {
        let key = self.caches.as_deref().map(|caches| {
            let key = CandidateKey {
                fingerprint: query_fingerprint(base, Some(self.table.get())),
                predicate_order: predicate_order_fingerprint(base, Some(self.table.get())),
                k: self.config.k,
                max_candidates: self.config.max_candidates,
            };
            (caches, key)
        });
        if let Some((caches, key)) = key {
            if let Some(hit) = caches.candidates().get(&key) {
                return Ok((hit, true));
            }
        }
        self.injector.trip(Stage::Candidates)?;
        let t0 = budget.elapsed();
        let cq = self
            .generator()
            .try_candidates(base, self.config.k, self.config.max_candidates)
            .map_err(|e| PipelineError::Candidates(e.to_string()))?;
        let cq = Arc::new(cq);
        if let Some((caches, key)) = key {
            let cost = budget.elapsed().saturating_sub(t0).as_micros() as u64;
            caches.candidates().insert(key, Arc::clone(&cq), cost);
        }
        Ok((cq, false))
    }

    /// Run one transcript through the pipeline. Never panics; always
    /// returns a well-formed [`SessionOutcome`].
    pub fn run(&self, transcript: &str) -> SessionOutcome {
        self.run_with_budget(transcript, DeadlineBudget::new(self.config.deadline))
    }

    /// Run one transcript under an externally constructed budget. A budget
    /// created when the request was *submitted* (rather than when the
    /// worker got to it) charges queue wait against θ — see
    /// [`DeadlineBudget::mark_admitted`]. The serving layer also uses this
    /// to re-run a transcript on retry under the same ticking budget.
    pub fn run_with_budget(&self, transcript: &str, budget: DeadlineBudget) -> SessionOutcome {
        let _quiet = self.injector.any_panic().then(QuietPanics::engage);
        // The cancellation point every stage hot loop checks: the serve
        // watchdog's token when one is attached, else one derived from
        // this budget so θ is enforced *inside* stages too.
        let cancel = self.cancel.clone().unwrap_or_else(|| budget.cancel_token());
        // The memory governor, alive for exactly this run: dropping it
        // (normal return or unwind) releases every byte it still holds
        // back to the global pool.
        let mem: Option<MemBudget> = if self.config.mem_cap_bytes > 0 || self.mem_pool.is_some() {
            let cap = if self.config.mem_cap_bytes > 0 {
                self.config.mem_cap_bytes
            } else {
                usize::MAX
            };
            Some(MemBudget::new(cap, self.mem_pool.clone()))
        } else {
            None
        };
        let mut strace = SessionTrace::new(budget.total());
        let mut errors: Vec<PipelineError> = Vec::new();
        let mut events: Vec<DegradationEvent> = Vec::new();
        let planned_rung = match self.config.planner {
            Planner::Ilp(_) => Rung::Ilp,
            Planner::Greedy => Rung::Greedy,
        };

        // -- Stage 1: transcript → most likely SQL ------------------------
        let started = budget.elapsed();
        let allotted = budget.stage_budget(Stage::Translate);
        let base = match self.guard(Stage::Translate, || {
            self.injector.trip(Stage::Translate)?;
            let t = transcript.trim();
            if t.to_ascii_lowercase().starts_with("select") {
                parse(t).map_err(|e| PipelineError::Parse(e.to_string()))
            } else {
                translate(t, self.table.get()).map_err(|e| PipelineError::Translate(e.to_string()))
            }
        }) {
            Ok(q) => {
                push_span(
                    &mut strace,
                    Stage::Translate,
                    started,
                    Some(allotted),
                    &budget,
                    SpanStatus::Completed,
                    planned_rung,
                    "interpreted",
                    Vec::new(),
                );
                q
            }
            Err(e) => {
                // No interpretation at all: terminal text fallback.
                let message = format!("could not interpret {transcript:?}: {e}");
                let status = if matches!(e, PipelineError::StagePanic { .. }) {
                    SpanStatus::Panicked
                } else {
                    SpanStatus::Failed
                };
                push_span(
                    &mut strace,
                    Stage::Translate,
                    started,
                    Some(allotted),
                    &budget,
                    status,
                    Rung::Text,
                    e.to_string(),
                    Vec::new(),
                );
                errors.push(e);
                events.push(DegradationEvent {
                    at: budget.elapsed(),
                    stage: Stage::Translate,
                    rung: Rung::Text,
                    detail: "translation failed; falling back to text".into(),
                });
                for stage in [
                    Stage::Candidates,
                    Stage::Plan,
                    Stage::Execute,
                    Stage::Render,
                ] {
                    strace
                        .spans
                        .push(StageSpan::skipped(stage.name(), Rung::Text.name()));
                }
                finalize_trace(&mut strace, &budget, planned_rung, Rung::Text);
                return SessionOutcome {
                    transcript: transcript.to_owned(),
                    interpretation: None,
                    candidates: Vec::new(),
                    visualization: Visualization::Text { message },
                    trace: DegradationTrace {
                        events,
                        planned_rung,
                        final_rung: Rung::Text,
                    },
                    stage_trace: strace,
                    errors,
                    elapsed: budget.elapsed(),
                    deadline: budget.total(),
                };
            }
        };

        // -- Stage 2: candidate distribution ------------------------------
        let started = budget.elapsed();
        let allotted = budget.stage_budget(Stage::Candidates);
        let mut cand_status = SpanStatus::Completed;
        let mut cand_detail = "phonetic candidate distribution".to_owned();
        let candidates: Vec<Candidate> = if budget.exhausted() {
            errors.push(PipelineError::DeadlineExceeded {
                stage: Stage::Candidates,
                budget: budget.total(),
            });
            events.push(DegradationEvent {
                at: budget.elapsed(),
                stage: Stage::Candidates,
                rung: planned_rung,
                detail: "deadline exhausted; single base candidate".into(),
            });
            cand_status = SpanStatus::Failed;
            cand_detail = "deadline exhausted; single base candidate".into();
            vec![Candidate::new(base.clone(), 1.0)]
        } else {
            match self.guard(Stage::Candidates, || {
                self.candidate_distribution(&base, &budget)
            }) {
                Ok((cq, from_cache)) => {
                    if from_cache {
                        cand_detail = "candidate cache hit".to_owned();
                    }
                    cq.iter()
                        .map(|c| Candidate::new(c.query.clone(), c.probability))
                        .collect()
                }
                Err(e) => {
                    cand_status = if matches!(e, PipelineError::StagePanic { .. }) {
                        SpanStatus::Panicked
                    } else {
                        SpanStatus::Failed
                    };
                    cand_detail = e.to_string();
                    errors.push(e);
                    events.push(DegradationEvent {
                        at: budget.elapsed(),
                        stage: Stage::Candidates,
                        rung: planned_rung,
                        detail: "candidate stage failed; single base candidate".into(),
                    });
                    vec![Candidate::new(base.clone(), 1.0)]
                }
            }
        };
        push_span(
            &mut strace,
            Stage::Candidates,
            started,
            Some(allotted),
            &budget,
            cand_status,
            planned_rung,
            cand_detail,
            vec![("candidates".into(), candidates.len() as f64)],
        );
        let headline_text = headline(&candidates);

        // -- Stage 3: the planner ladder ----------------------------------
        let (multiplot, mut rung) = self.plan_stage(
            &candidates,
            &headline_text,
            &budget,
            &cancel,
            &mut strace,
            &mut errors,
            &mut events,
        );

        // -- Stage 4: execution (sample ladder + merged→separate fallback) -
        let shown = multiplot.candidates_shown();
        let mut results: Vec<Option<f64>> = vec![None; candidates.len()];
        let mut approximate = false;
        if budget.exhausted() || cancel.is_cancelled() {
            let (err, detail) = if budget.exhausted() {
                (
                    PipelineError::DeadlineExceeded {
                        stage: Stage::Execute,
                        budget: budget.total(),
                    },
                    "deadline exhausted; execution skipped",
                )
            } else {
                (
                    PipelineError::Cancelled {
                        stage: Stage::Execute,
                    },
                    "cancelled; execution skipped",
                )
            };
            errors.push(err);
            events.push(DegradationEvent {
                at: budget.elapsed(),
                stage: Stage::Execute,
                rung,
                detail: detail.into(),
            });
            strace
                .spans
                .push(StageSpan::skipped(Stage::Execute.name(), rung.name()));
        } else {
            approximate = self.execute_stage(
                &candidates,
                &shown,
                &mut results,
                &budget,
                &cancel,
                mem.as_ref(),
                &mut strace,
                &mut errors,
                &mut events,
                rung,
            );
        }

        // -- Stage 5: render ----------------------------------------------
        let started = budget.elapsed();
        let allotted = budget.stage_budget(Stage::Render);
        let visualization = match self.guard(Stage::Render, || {
            self.injector.trip(Stage::Render)?;
            Ok(render_text(&multiplot, &results))
        }) {
            Ok(rendered) => {
                events.push(DegradationEvent {
                    at: budget.elapsed(),
                    stage: Stage::Render,
                    rung,
                    detail: format!("rendered on the {rung} rung"),
                });
                push_span(
                    &mut strace,
                    Stage::Render,
                    started,
                    Some(allotted),
                    &budget,
                    SpanStatus::Completed,
                    rung,
                    format!("rendered on the {rung} rung"),
                    Vec::new(),
                );
                Visualization::Multiplot {
                    multiplot,
                    headline: headline_text,
                    results,
                    rendered,
                    approximate,
                }
            }
            Err(e) => {
                let status = if matches!(e, PipelineError::StagePanic { .. }) {
                    SpanStatus::Panicked
                } else {
                    SpanStatus::Failed
                };
                let detail = e.to_string();
                errors.push(e);
                rung = Rung::Text;
                events.push(DegradationEvent {
                    at: budget.elapsed(),
                    stage: Stage::Render,
                    rung,
                    detail: "render failed; top candidate as text".into(),
                });
                push_span(
                    &mut strace,
                    Stage::Render,
                    started,
                    Some(allotted),
                    &budget,
                    status,
                    rung,
                    detail,
                    Vec::new(),
                );
                Visualization::Text {
                    message: top_candidate_text(&candidates, &results),
                }
            }
        };

        finalize_trace(&mut strace, &budget, planned_rung, rung);
        SessionOutcome {
            transcript: transcript.to_owned(),
            interpretation: Some(base),
            candidates,
            visualization,
            trace: DegradationTrace {
                events,
                planned_rung,
                final_rung: rung,
            },
            stage_trace: strace,
            errors,
            elapsed: budget.elapsed(),
            deadline: budget.total(),
        }
    }

    /// Run a stage body with panic isolation.
    fn guard<T>(
        &self,
        stage: Stage,
        body: impl FnOnce() -> Result<T, PipelineError>,
    ) -> Result<T, PipelineError> {
        // AssertUnwindSafe: each stage body works on inputs constructed
        // fresh for this call (the transcript, this run's candidate vector,
        // this run's incumbent slot); nothing it can leave half-mutated is
        // observed again after a panic, except the IncumbentSlot, which is
        // designed for exactly that (single atomic clone-assignments).
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(r) => r,
            Err(payload) => {
                // The one panic the session does NOT absorb: the chaos
                // suites' escaped-panic fault, re-raised so it kills the
                // thread running this session (and thereby exercises the
                // serve watchdog's dead-worker respawn path).
                if payload.downcast_ref::<EscapedPanic>().is_some() {
                    std::panic::resume_unwind(payload);
                }
                Err(PipelineError::StagePanic {
                    stage,
                    message: panic_message(payload),
                })
            }
        }
    }

    /// The planning degradation ladder: ILP → incumbent → greedy →
    /// headline-only. Returns the multiplot and the rung it came from.
    #[allow(clippy::too_many_arguments)]
    fn plan_stage(
        &self,
        candidates: &[Candidate],
        headline_text: &str,
        budget: &DeadlineBudget,
        cancel: &CancelToken,
        strace: &mut SessionTrace,
        errors: &mut Vec<PipelineError>,
        events: &mut Vec<DegradationEvent>,
    ) -> (Multiplot, Rung) {
        let started = budget.elapsed();
        let allotted = budget.stage_budget(Stage::Plan);
        let errs_before = errors.len();
        // Deadline exhausted (or the request cancelled) before planning:
        // drop straight to the cheap rung.
        if budget.exhausted() || cancel.is_cancelled() {
            let (err, status, detail) = if budget.exhausted() {
                (
                    PipelineError::DeadlineExceeded {
                        stage: Stage::Plan,
                        budget: budget.total(),
                    },
                    SpanStatus::Failed,
                    "deadline exhausted before planning",
                )
            } else {
                (
                    PipelineError::Cancelled { stage: Stage::Plan },
                    SpanStatus::Cancelled,
                    "cancelled before planning",
                )
            };
            errors.push(err);
            events.push(DegradationEvent {
                at: budget.elapsed(),
                stage: Stage::Plan,
                rung: Rung::HeadlineOnly,
                detail: detail.into(),
            });
            push_span(
                strace,
                Stage::Plan,
                started,
                Some(allotted),
                budget,
                status,
                Rung::HeadlineOnly,
                detail,
                Vec::new(),
            );
            return (
                headline_only_multiplot(candidates, headline_text),
                Rung::HeadlineOnly,
            );
        }

        // Rung 1: incremental ILP under the stage's budget share.
        if let Planner::Ilp(base_cfg) = &self.config.planner {
            let mut cfg = base_cfg.clone();
            // The cancellation point inside the solver: checked once per
            // branch-and-bound node, so a watchdog cancel (or deadline
            // expiry) surfaces mid-search as a timed-out anytime result.
            cfg.cancel = Some(cancel.clone());
            if self.injector.solver_stall() {
                // A stalled MIP search: no warm start, no room to branch —
                // the solver burns its restarts without ever finding an
                // incumbent.
                cfg.node_budget = Some(1);
                cfg.warm_start = false;
            }
            let schedule = IncrementalSchedule {
                total: budget.stage_budget(Stage::Plan),
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
            if let Some((caches, fp)) = dist_fp {
                if let Some(hit) = caches.plans().get(fp) {
                    if hit.proven_optimal && hit.multiplot.num_plots() > 0 {
                        let detail = "plan cache hit (proven optimal)";
                        events.push(DegradationEvent {
                            at: budget.elapsed(),
                            stage: Stage::Plan,
                            rung: Rung::Ilp,
                            detail: detail.to_owned(),
                        });
                        push_span(
                            strace,
                            Stage::Plan,
                            started,
                            Some(allotted),
                            budget,
                            SpanStatus::Completed,
                            Rung::Ilp,
                            detail,
                            plan_counters(&hit),
                        );
                        return (hit.multiplot, Rung::Ilp);
                    }
                    slot.record(&hit);
                    cfg.seed = Some(hit.multiplot);
                }
            }
            let planned = self.guard(Stage::Plan, || {
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
                        caches.plans().offer(fp, &r);
                    }
                    let detail = format!(
                        "ILP planned ({})",
                        if r.proven_optimal {
                            "optimal"
                        } else {
                            "feasible"
                        }
                    );
                    events.push(DegradationEvent {
                        at: budget.elapsed(),
                        stage: Stage::Plan,
                        rung: Rung::Ilp,
                        detail: detail.clone(),
                    });
                    push_span(
                        strace,
                        Stage::Plan,
                        started,
                        Some(allotted),
                        budget,
                        stage_status(errors, errs_before),
                        Rung::Ilp,
                        detail,
                        plan_counters(&r),
                    );
                    return (r.multiplot, Rung::Ilp);
                }
                Ok(r) => {
                    errors.push(PipelineError::Planning(format!(
                        "solver produced no incumbent within its budget (timed_out = {})",
                        r.timed_out
                    )));
                }
                Err(e) => errors.push(e),
            }
            // Rung 2: the incumbent the observed planner left behind.
            if let Some(incumbent) = slot.take() {
                if incumbent.multiplot.num_plots() > 0 {
                    if let Some((caches, fp)) = dist_fp {
                        caches.plans().offer(fp, &incumbent);
                    }
                    events.push(DegradationEvent {
                        at: budget.elapsed(),
                        stage: Stage::Plan,
                        rung: Rung::Incumbent,
                        detail: "recovered best incremental incumbent".into(),
                    });
                    push_span(
                        strace,
                        Stage::Plan,
                        started,
                        Some(allotted),
                        budget,
                        stage_status(errors, errs_before),
                        Rung::Incumbent,
                        "recovered best incremental incumbent",
                        plan_counters(&incumbent),
                    );
                    return (incumbent.multiplot, Rung::Incumbent);
                }
            }
        }

        // Rung 3: greedy. (`trip` is one-shot, so a fault already consumed
        // by the ILP attempt does not fire again here.)
        let greedy = self.guard(Stage::Plan, || {
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
                events.push(DegradationEvent {
                    at: budget.elapsed(),
                    stage: Stage::Plan,
                    rung: Rung::Greedy,
                    detail: "greedy plan".into(),
                });
                push_span(
                    strace,
                    Stage::Plan,
                    started,
                    Some(allotted),
                    budget,
                    stage_status(errors, errs_before),
                    Rung::Greedy,
                    "greedy plan",
                    plan_counters(&r),
                );
                return (r.multiplot, Rung::Greedy);
            }
            Ok(_) => errors.push(PipelineError::Planning(
                "greedy produced an empty plan".into(),
            )),
            Err(e) => errors.push(e),
        }

        // Rung 4: headline-only single plot; pure construction, cannot fail.
        events.push(DegradationEvent {
            at: budget.elapsed(),
            stage: Stage::Plan,
            rung: Rung::HeadlineOnly,
            detail: "planning failed; headline-only single plot".into(),
        });
        push_span(
            strace,
            Stage::Plan,
            started,
            Some(allotted),
            budget,
            stage_status(errors, errs_before),
            Rung::HeadlineOnly,
            "planning failed; headline-only single plot",
            Vec::new(),
        );
        (
            headline_only_multiplot(candidates, headline_text),
            Rung::HeadlineOnly,
        )
    }

    /// The execution stage: sample-ladder escalation with merged→separate
    /// fallback inside each attempt. Returns whether the accepted results
    /// are approximate.
    #[allow(clippy::too_many_arguments)]
    fn execute_stage(
        &self,
        candidates: &[Candidate],
        shown: &[usize],
        results: &mut [Option<f64>],
        budget: &DeadlineBudget,
        cancel: &CancelToken,
        mem: Option<&MemBudget>,
        strace: &mut SessionTrace,
        errors: &mut Vec<PipelineError>,
        events: &mut Vec<DegradationEvent>,
        rung: Rung,
    ) -> bool {
        let started = budget.elapsed();
        let allotted = budget.stage_budget(Stage::Execute);
        let errs_before = errors.len();
        if shown.is_empty() {
            let mut span = StageSpan::skipped(Stage::Execute.name(), rung.name());
            span.detail = "no candidates shown".into();
            strace.spans.push(span);
            return false;
        }
        let opts = ExecOptions {
            cancel: Some(cancel),
            mem,
            ..ExecOptions::default()
        };
        let mut attempts = 0usize;
        let mut rows_scanned = 0usize;
        let mut labels: Vec<String> = Vec::new();
        // Small tables go exact directly; large ones walk the sample
        // ladder so something lands on screen within the budget. Either
        // way a failed attempt escalates to the next fidelity.
        let mut ladder: Vec<Option<f64>> = Vec::new();
        if self.table.get().num_rows() >= self.config.sample_threshold_rows {
            ladder.extend(self.config.sample_ladder.iter().copied().map(Some));
        }
        // Exact, plus one retry slot: a first exact attempt that dies on a
        // transient failure (the one-shot faults are consumed by it) gets
        // one clean retry; a successful exact attempt breaks before the
        // retry is ever reached.
        ladder.push(None);
        ladder.push(None);
        let mut approximate = false;
        let mut any_success = false;
        let mut mem_escalated = false;
        let mut rescued = false;
        let mut next = 0usize;
        while next < ladder.len() {
            let fraction = ladder[next];
            next += 1;
            if any_success && fraction.is_some() {
                continue; // never de-escalate
            }
            if any_success && (budget.exhausted() || cancel.is_cancelled()) {
                break; // keep the approximate results we already have
            }
            // The rescue attempt (see the cancelled branch below) runs
            // without the token — it exists precisely because the token
            // has already fired.
            let attempt_opts = if rescued {
                ExecOptions {
                    cancel: None,
                    mem,
                    ..ExecOptions::default()
                }
            } else {
                opts
            };
            let attempt = self.guard(Stage::Execute, || {
                self.injector.trip(Stage::Execute)?;
                Ok(self.execute_attempt(candidates, shown, fraction, budget, attempt_opts))
            });
            let label = fraction.map_or("exact".to_owned(), |f| format!("{}% sample", f * 100.0));
            attempts += 1;
            labels.push(label.clone());
            match attempt {
                Ok(a) => {
                    let partial_shards = a.partial_shards;
                    let produced = a.values.iter().any(|(_, v)| v.is_some());
                    let was_cancelled = a
                        .member_errors
                        .iter()
                        .any(|e| matches!(e, PipelineError::Cancelled { .. }));
                    let hit_cap = a
                        .member_errors
                        .iter()
                        .any(|e| matches!(e, PipelineError::ResourceExhausted { .. }));
                    errors.extend(a.member_errors);
                    rows_scanned += a.rows_scanned;
                    if was_cancelled {
                        // The token fired mid-attempt: a retry cannot mint
                        // time — keep whatever values already landed and
                        // abandon the ladder.
                        events.push(DegradationEvent {
                            at: budget.elapsed(),
                            stage: Stage::Execute,
                            rung,
                            detail: format!("cancelled mid-execution ({label})"),
                        });
                        let produced_now = a.values.iter().any(|(_, v)| v.is_some());
                        for (idx, v) in a.values {
                            results[idx] = v;
                        }
                        approximate = (fraction.is_some() || partial_shards > 0) && produced_now;
                        any_success = any_success || produced_now;
                        if any_success || rescued || cancel.cause() != Some(CancelCause::Deadline) {
                            break;
                        }
                        // Last gasp: the deadline died mid-scan with
                        // nothing on screen. Abandoning now would waste the
                        // wait the user has already paid, so run the
                        // cheapest fidelity once more without the token
                        // (the memory governor still applies, and the
                        // attempt is a bounded sample or a single pass).
                        // Explicit cancellation — the watchdog, shutdown —
                        // never takes this path: those must abort, period.
                        rescued = true;
                        let cheapest = ladder[0];
                        ladder.truncate(next);
                        ladder.push(cheapest);
                        events.push(DegradationEvent {
                            at: budget.elapsed(),
                            stage: Stage::Execute,
                            rung,
                            detail: "deadline expired with no values; last-gasp attempt at \
                                     cheapest fidelity"
                                .into(),
                        });
                        continue;
                    }
                    if hit_cap && fraction.is_none() && !mem_escalated {
                        // The governor rejected the exact attempt's state.
                        // Retrying exact would hit the same cap, but a
                        // sampled pass holds proportionally less — extend
                        // the ladder downward once.
                        mem_escalated = true;
                        ladder.extend(self.config.sample_ladder.iter().copied().map(Some));
                        events.push(DegradationEvent {
                            at: budget.elapsed(),
                            stage: Stage::Execute,
                            rung,
                            detail: format!(
                                "memory cap hit ({label}); retrying at sample fidelity"
                            ),
                        });
                    }
                    if a.values.is_empty() || !produced && fraction.is_some() {
                        // Nothing usable at this fidelity; escalate.
                        continue;
                    }
                    for (idx, v) in a.values {
                        results[idx] = v;
                    }
                    approximate = fraction.is_some();
                    any_success = true;
                    events.push(DegradationEvent {
                        at: budget.elapsed(),
                        stage: Stage::Execute,
                        rung,
                        detail: format!("executed ({label})"),
                    });
                    if partial_shards > 0 {
                        // Lost shards: the values on screen are coverage-
                        // scaled estimates even on the "exact" fidelity.
                        approximate = true;
                        events.push(DegradationEvent {
                            at: budget.elapsed(),
                            stage: Stage::Execute,
                            rung,
                            detail: format!(
                                "partial shard gather ({partial_shards} sub-result{} missing); \
                                 values are scaled estimates",
                                if partial_shards == 1 { "" } else { "s" }
                            ),
                        });
                    }
                    if fraction.is_none() {
                        break;
                    }
                }
                Err(e) => {
                    errors.push(e);
                    events.push(DegradationEvent {
                        at: budget.elapsed(),
                        stage: Stage::Execute,
                        rung,
                        detail: format!("execution failed ({label}); escalating"),
                    });
                }
            }
        }
        if !any_success {
            events.push(DegradationEvent {
                at: budget.elapsed(),
                stage: Stage::Execute,
                rung,
                detail: "all execution attempts failed; showing pending values".into(),
            });
        }
        let mut detail = labels.join(" -> ");
        if !any_success {
            detail.push_str("; all attempts failed");
        }
        push_span(
            strace,
            Stage::Execute,
            started,
            Some(allotted),
            budget,
            stage_status(errors, errs_before),
            rung,
            detail,
            vec![
                ("attempts".into(), attempts as f64),
                ("rows_scanned".into(), rows_scanned as f64),
                (
                    "values".into(),
                    results.iter().filter(|v| v.is_some()).count() as f64,
                ),
            ],
        );
        approximate
    }

    /// Execute one query exactly through whichever backend is attached:
    /// the shard set (scatter-gather with failover/hedging, degrading to
    /// a coverage-scaled estimate on lost shards) or the single table.
    /// Returns the result plus the number of shards missing from it (0 on
    /// the single-table path and on full gathers).
    fn run_exact(
        &self,
        query: &Query,
        opts: ExecOptions<'_>,
        budget: Option<Duration>,
    ) -> Result<(ResultSet, usize), ExecError> {
        match &self.shards {
            Some(set) => {
                let sr = set.execute(
                    query,
                    ShardExecOptions {
                        cancel: opts.cancel,
                        mem: opts.mem,
                        budget,
                        allow_partial: true,
                    },
                )?;
                let missing = sr.report.missing();
                Ok((sr.result, missing))
            }
            None => execute_with_opts(self.table.get(), query, None, opts).map(|rs| (rs, 0)),
        }
    }

    /// Sampled sibling of [`run_exact`](Self::run_exact): the same
    /// systematic sample either way (identical row ids, identical realized
    /// fraction, identical scaling), routed per shard when a set is
    /// attached.
    fn run_sampled(
        &self,
        query: &Query,
        fraction: f64,
        opts: ExecOptions<'_>,
        budget: Option<Duration>,
    ) -> Result<(ResultSet, usize), ExecError> {
        match &self.shards {
            Some(set) => {
                let (sr, _realized) = set.execute_sampled(
                    query,
                    fraction,
                    self.config.seed,
                    ShardExecOptions {
                        cancel: opts.cancel,
                        mem: opts.mem,
                        budget,
                        allow_partial: true,
                    },
                )?;
                let missing = sr.report.missing();
                Ok((sr.result, missing))
            }
            None => execute_approximate_with_opts(
                self.table.get(),
                query,
                fraction,
                self.config.seed,
                opts,
            )
            .map(|(rs, _realized)| (rs, 0)),
        }
    }

    /// One execution attempt at a fixed fidelity: per merge group, the
    /// result cache and single-flight table first (when caches are
    /// attached), then merged execution with per-group fallback to
    /// separate execution.
    fn execute_attempt(
        &self,
        candidates: &[Candidate],
        shown: &[usize],
        fraction: Option<f64>,
        budget: &DeadlineBudget,
        opts: ExecOptions<'_>,
    ) -> ExecAttempt {
        let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
        let mut out = ExecAttempt {
            values: Vec::new(),
            member_errors: Vec::new(),
            rows_scanned: 0,
            partial_shards: 0,
        };
        for g in plan_merged(&queries) {
            if !self.execute_group_cached(&g, &queries, shown, fraction, budget, opts, &mut out) {
                self.execute_group_direct(&g, &queries, shown, fraction, opts, &mut out);
            }
            // A fired token aborts the whole attempt, not just the group
            // that noticed it — remaining groups would fail the same way.
            if out
                .member_errors
                .iter()
                .any(|e| matches!(e, PipelineError::Cancelled { .. }))
            {
                break;
            }
        }
        out
    }

    /// Serve one merge group through the result cache and the
    /// single-flight table. Returns `true` when the group was fully
    /// handled here (cache hit, leader's published result, or executed
    /// and cached as the leader); `false` sends the caller to the direct
    /// path — there are no caches, or waiting on another request's leader
    /// failed and this request must make its own progress.
    ///
    /// Fidelity matching is strict by key construction ([`ResultKey`]):
    /// a request only ever sees a result computed at exactly the fidelity
    /// (sample fraction + seed, or exact) it would execute itself.
    #[allow(clippy::too_many_arguments)]
    fn execute_group_cached(
        &self,
        g: &MergeGroup,
        queries: &[Query],
        shown: &[usize],
        fraction: Option<f64>,
        budget: &DeadlineBudget,
        opts: ExecOptions<'_>,
        out: &mut ExecAttempt,
    ) -> bool {
        let Some(caches) = self.caches.as_deref() else {
            return false;
        };
        let table = self.table.get();
        let key = ResultKey {
            fingerprint: query_fingerprint(&g.merged, Some(table)),
            fidelity: fidelity_key(fraction, self.config.seed),
        };
        if let Some(rs) = caches.results().get(&key) {
            // A hit scans no rows on behalf of this request.
            for (local, v) in extract_merged(&rs, g) {
                out.values.push((shown[local], v));
            }
            return true;
        }
        match caches
            .flights()
            .join((caches.epoch(), key.fingerprint, key.fidelity))
        {
            Join::Leader(lead) => {
                let t0 = budget.elapsed();
                let run: Result<(ResultSet, usize), (ExecError, &str)> = match fraction {
                    None => self
                        .run_exact(&g.merged, opts, Some(budget.remaining()))
                        .map_err(|e| (e, "merged")),
                    Some(f) => self
                        .run_sampled(&g.merged, f, opts, Some(budget.remaining()))
                        .map_err(|e| (e, "sample")),
                };
                match run {
                    Ok((rs, missing)) => {
                        let rs = Arc::new(rs);
                        let cost = budget.elapsed().saturating_sub(t0).as_micros() as u64;
                        if missing == 0 {
                            // Insert before publishing the flight, so a
                            // request arriving after the flight resolves
                            // finds the entry in the cache.
                            caches.results().insert(key, Arc::clone(&rs), cost);
                        }
                        out.rows_scanned += rs.stats.rows_scanned;
                        out.partial_shards += missing;
                        for (local, v) in extract_merged(&rs, g) {
                            out.values.push((shown[local], v));
                        }
                        if missing == 0 {
                            lead.finish(Some(rs));
                        } else {
                            // A degraded gather is this request's answer,
                            // not everyone's: never cache it, and publish
                            // the flight as failed so waiters execute for
                            // themselves (their own gather may be whole).
                            drop(lead);
                        }
                    }
                    Err((e, context)) => {
                        // Dropping the leader publishes the failure so
                        // waiters stop blocking and execute themselves.
                        drop(lead);
                        let cancelled = matches!(e, ExecError::Cancelled);
                        out.member_errors.push(exec_error(e, context));
                        // A cancelled request skips the per-member fallback
                        // (its token stays fired); a governor rejection
                        // takes it — the merged query carries the group-by
                        // state, members are scalar.
                        if fraction.is_none() && !cancelled {
                            self.separate_fallback(g, queries, shown, opts, out);
                        }
                    }
                }
                true
            }
            Join::Waiter(waiter) => {
                let published = match opts.cancel {
                    Some(c) => waiter.wait_cancellable(budget.remaining(), c),
                    None => waiter.wait(budget.remaining()),
                };
                match published {
                    Some(Some(rs)) => {
                        for (local, v) in extract_merged(&rs, g) {
                            out.values.push((shown[local], v));
                        }
                        true
                    }
                    // Leader failed, or the wait outlived this request's
                    // remaining budget or its token: fall through to direct
                    // execution — a request never gives up because of
                    // someone else's flight. (A fired token makes the
                    // direct path abort at its first cancellation point.)
                    _ => false,
                }
            }
        }
    }

    /// One merge group, executed directly (the pre-cache code path).
    fn execute_group_direct(
        &self,
        g: &MergeGroup,
        queries: &[Query],
        shown: &[usize],
        fraction: Option<f64>,
        opts: ExecOptions<'_>,
        out: &mut ExecAttempt,
    ) {
        // Sharded sessions run the merged query through scatter-gather and
        // extract members from the combined result; unsharded sessions keep
        // the merged executor. Same values either way — the merged executor
        // is itself execute-then-extract over the same merged query.
        match fraction {
            None => match match &self.shards {
                Some(_) => self.run_exact(&g.merged, opts, None).map(|(rs, missing)| {
                    out.partial_shards += missing;
                    let stats = rs.stats;
                    (extract_merged(&rs, g), stats)
                }),
                None => execute_merged_with_opts(self.table.get(), g, opts)
                    .map(|r| (r.results, r.stats)),
            } {
                Ok((vals, stats)) => {
                    out.rows_scanned += stats.rows_scanned;
                    for (local, v) in vals {
                        out.values.push((shown[local], v));
                    }
                }
                Err(merged_err) => {
                    // Merged execution failed: fall back to executing each
                    // member separately so one bad query cannot starve the
                    // whole group. Cancellation is the exception — the
                    // members would abort at their first check too.
                    let cancelled = matches!(merged_err, ExecError::Cancelled);
                    out.member_errors.push(exec_error(merged_err, "merged"));
                    if !cancelled {
                        self.separate_fallback(g, queries, shown, opts, out);
                    }
                }
            },
            Some(f) => match self.run_sampled(&g.merged, f, opts, None) {
                Ok((rs, missing)) => {
                    out.rows_scanned += rs.stats.rows_scanned;
                    out.partial_shards += missing;
                    for (local, v) in extract_merged(&rs, g) {
                        out.values.push((shown[local], v));
                    }
                }
                Err(e) => {
                    out.member_errors.push(exec_error(e, "sample"));
                }
            },
        }
    }

    /// Per-member separate execution after a merged failure.
    fn separate_fallback(
        &self,
        g: &MergeGroup,
        queries: &[Query],
        shown: &[usize],
        opts: ExecOptions<'_>,
        out: &mut ExecAttempt,
    ) {
        for m in &g.members {
            match self.run_exact(&queries[m.index], opts, None) {
                Ok((rs, missing)) => {
                    out.rows_scanned += rs.stats.rows_scanned;
                    out.partial_shards += missing;
                    out.values.push((shown[m.index], rs.scalar()));
                }
                Err(e) => {
                    let cancelled = matches!(e, ExecError::Cancelled);
                    out.member_errors.push(exec_error(e, "separate"));
                    if cancelled {
                        break;
                    }
                }
            }
        }
    }
}

/// Fold a dbms execution error into the pipeline taxonomy: cancellation
/// and governor rejections keep their typed identity (they drive distinct
/// ladder decisions), everything else becomes a plain execution failure.
fn exec_error(e: ExecError, context: &str) -> PipelineError {
    match e {
        ExecError::Cancelled => PipelineError::Cancelled {
            stage: Stage::Execute,
        },
        ExecError::ResourceExhausted { used, cap, global } => PipelineError::ResourceExhausted {
            stage: Stage::Execute,
            used,
            cap,
            global,
        },
        other => PipelineError::Execution(format!("{context}: {other}")),
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

/// The stage names of one session run, in pipeline order — the argument to
/// [`SessionTrace::is_complete`] for session traces.
pub const SESSION_STAGES: [&str; 5] = ["translate", "candidates", "plan", "execute", "render"];

/// Append one stage span to the trace, computing `spent` from the budget.
#[allow(clippy::too_many_arguments)]
fn push_span(
    strace: &mut SessionTrace,
    stage: Stage,
    started: Duration,
    allotted: Option<Duration>,
    budget: &DeadlineBudget,
    status: SpanStatus,
    rung: Rung,
    detail: impl Into<String>,
    counters: Vec<(String, f64)>,
) {
    strace.spans.push(StageSpan {
        stage: stage.name().to_owned(),
        started,
        spent: budget.elapsed().saturating_sub(started),
        allotted,
        status,
        rung: rung.name().to_owned(),
        detail: detail.into(),
        counters,
    });
}

/// Disposition of a stage given the errors it appended: a caught panic
/// anywhere in the stage dominates, then a cancellation, then a governor
/// rejection, then any other error, then clean completion. A non-completed
/// span can still carry fallback output — the span's rung tells that story.
fn stage_status(errors: &[PipelineError], from: usize) -> SpanStatus {
    let slice = &errors[from..];
    if slice
        .iter()
        .any(|e| matches!(e, PipelineError::StagePanic { .. }))
    {
        SpanStatus::Panicked
    } else if slice
        .iter()
        .any(|e| matches!(e, PipelineError::Cancelled { .. }))
    {
        SpanStatus::Cancelled
    } else if slice
        .iter()
        .any(|e| matches!(e, PipelineError::ResourceExhausted { .. }))
    {
        SpanStatus::Exhausted
    } else if !slice.is_empty() {
        SpanStatus::Failed
    } else {
        SpanStatus::Completed
    }
}

/// The plan span's counters, read off a [`PlanResult`].
fn plan_counters(r: &muve_core::PlanResult) -> Vec<(String, f64)> {
    vec![
        ("restarts".into(), r.restarts as f64),
        ("incumbent_updates".into(), r.incumbent_updates as f64),
        ("nodes".into(), r.nodes as f64),
    ]
}

/// Close the trace (rungs, total wall-clock) and record session metrics.
fn finalize_trace(
    strace: &mut SessionTrace,
    budget: &DeadlineBudget,
    planned: Rung,
    final_rung: Rung,
) {
    strace.planned_rung = planned.name().to_owned();
    strace.final_rung = final_rung.name().to_owned();
    strace.total = budget.elapsed();
    let obs = muve_obs::metrics();
    obs.counter("session.runs").incr();
    if final_rung > planned {
        obs.counter("session.degraded").incr();
    }
    obs.histogram("session.run_us")
        .record_duration(strace.total);
}

/// Index of the most probable candidate. Uses `total_cmp`, so the answer is
/// deterministic even for NaN probabilities (positive NaN sorts greatest).
fn top_candidate(candidates: &[Candidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
        .map(|(i, _)| i)
}

/// The headline-only rung: one plot, one bar — the most likely candidate —
/// titled with the shared headline skeleton.
fn headline_only_multiplot(candidates: &[Candidate], headline_text: &str) -> Multiplot {
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

/// The terminal text fallback: the top candidate's SQL and value (if any).
fn top_candidate_text(candidates: &[Candidate], results: &[Option<f64>]) -> String {
    match top_candidate(candidates) {
        Some(i) => {
            let c = &candidates[i];
            let value = results
                .get(i)
                .copied()
                .flatten()
                .map_or("?".to_owned(), |v| format!("{v}"));
            format!("{} = {value} (p = {:.2})", c.query.to_sql(), c.probability)
        }
        None => "no candidate interpretations".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StageFault;
    use muve_dbms::{ColumnType, Schema, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new([("origin", ColumnType::Str), ("delay", ColumnType::Int)]);
        let mut b = Table::builder("flights", schema);
        for i in 0..n {
            let o = ["JFK", "LGA", "EWR"][i % 3];
            b.push_row([Value::from(o), Value::from((i % 60) as i64)]);
        }
        b.build()
    }

    fn config() -> SessionConfig {
        SessionConfig {
            deadline: Duration::from_millis(800),
            ..SessionConfig::default()
        }
    }

    #[test]
    fn clean_run_stays_on_top_rung() {
        let t = table(3_000);
        let s = Session::new(&t, config());
        let out = s.run("select avg(delay) from flights where origin = 'JFK'");
        assert!(!out.degraded(), "trace: {:?}", out.trace);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        match &out.visualization {
            Visualization::Multiplot {
                results,
                rendered,
                approximate,
                ..
            } => {
                assert!(results.iter().any(Option::is_some));
                assert!(!rendered.is_empty());
                assert!(!approximate);
            }
            Visualization::Text { .. } => panic!("expected a multiplot"),
        }
        assert_eq!(out.trace.final_rung, Rung::Ilp);
    }

    #[test]
    fn translation_failure_is_terminal_text() {
        let t = table(100);
        let out = Session::new(&t, config()).run("   ");
        assert_eq!(out.trace.final_rung, Rung::Text);
        assert!(matches!(out.visualization, Visualization::Text { .. }));
        assert!(out.interpretation.is_none());
        assert!(!out.errors.is_empty());
    }

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
    fn injected_execution_error_retries_clean() {
        let t = table(2_000);
        let inj = FaultInjector::none().with(
            Stage::Execute,
            StageFault {
                error: true,
                ..Default::default()
            },
        );
        let out = Session::new(&t, config())
            .with_injector(inj)
            .run("average delay in jfk");
        // The one-shot injected error is consumed by the first attempt;
        // escalation retries exact and succeeds.
        assert!(out.errors.iter().any(|e| matches!(
            e,
            PipelineError::FaultInjected {
                stage: Stage::Execute
            }
        )));
        match &out.visualization {
            Visualization::Multiplot { results, .. } => {
                assert!(results.iter().any(Option::is_some), "retry produced values");
            }
            Visualization::Text { .. } => panic!("expected a multiplot"),
        }
    }

    #[test]
    fn render_failure_falls_back_to_text() {
        let t = table(500);
        let inj = FaultInjector::none().with(
            Stage::Render,
            StageFault {
                panic: true,
                ..Default::default()
            },
        );
        let out = Session::new(&t, config())
            .with_injector(inj)
            .run("average delay in jfk");
        assert_eq!(out.trace.final_rung, Rung::Text);
        match &out.visualization {
            Visualization::Text { message } => assert!(message.contains("avg")),
            Visualization::Multiplot { .. } => panic!("render panic must fall back to text"),
        }
    }

    #[test]
    fn zero_deadline_still_produces_outcome() {
        let t = table(500);
        let mut cfg = config();
        cfg.deadline = Duration::ZERO;
        let out = Session::new(&t, cfg).run("average delay in jfk");
        assert_eq!(out.trace.final_rung, Rung::HeadlineOnly);
        assert!(out
            .errors
            .iter()
            .any(|e| matches!(e, PipelineError::DeadlineExceeded { .. })));
        match &out.visualization {
            Visualization::Multiplot { multiplot, .. } => {
                assert_eq!(multiplot.num_plots(), 1);
                assert_eq!(multiplot.num_bars(), 1);
            }
            Visualization::Text { .. } => panic!("headline-only rung is still a plot"),
        }
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
    fn empty_candidates_degrade_gracefully() {
        // Both fallback paths must survive a zero-candidate distribution.
        let m = headline_only_multiplot(&[], "anything");
        assert_eq!(m.num_bars(), 0);
        assert_eq!(top_candidate_text(&[], &[]), "no candidate interpretations");
        assert_eq!(top_candidate(&[]), None);
    }

    #[test]
    fn nan_probabilities_are_deterministic_and_never_panic() {
        let q = |s: &str| parse(s).unwrap();
        let cands = vec![
            Candidate::new(q("select count(*) from t where k = 'a'"), f64::NAN),
            Candidate::new(q("select count(*) from t where k = 'b'"), 0.9),
            Candidate::new(q("select count(*) from t where k = 'c'"), f64::NAN),
        ];
        // total_cmp gives one deterministic answer; both fallbacks agree
        // because they share the same scan.
        let top = top_candidate(&cands).unwrap();
        for _ in 0..8 {
            assert_eq!(top_candidate(&cands), Some(top));
        }
        let m = headline_only_multiplot(&cands, "");
        assert_eq!(m.num_bars(), 1);
        assert!(m.highlights(top));
        let text = top_candidate_text(&cands, &[None, None, None]);
        assert!(text.contains(&cands[top].query.to_sql()));
        // The greedy planner sorts by probability: must not panic on NaN.
        let r = plan(
            &Planner::Greedy,
            &cands,
            &ScreenConfig::desktop(2),
            &UserCostModel::default(),
        );
        assert!(r.multiplot.num_plots() > 0);
    }

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

    #[test]
    fn explicit_cancel_degrades_with_typed_errors() {
        let t = table(2_000);
        let token = CancelToken::never();
        token.cancel();
        let out = Session::new(&t, config())
            .with_cancel(token)
            .run("average delay in jfk");
        // Translation and candidates still run (their work is cheap and
        // has no cancellation points); the planner ladder and execution
        // are abandoned with typed cancellations, not deadline errors.
        assert_eq!(out.trace.final_rung, Rung::HeadlineOnly);
        assert!(
            out.errors
                .iter()
                .any(|e| matches!(e, PipelineError::Cancelled { stage: Stage::Plan })),
            "{:?}",
            out.errors
        );
        assert!(out.errors.iter().any(|e| matches!(
            e,
            PipelineError::Cancelled {
                stage: Stage::Execute
            }
        )));
        let st = &out.stage_trace;
        assert!(st.is_complete(&SESSION_STAGES), "{st:?}");
        assert_eq!(st.span("plan").unwrap().status, SpanStatus::Cancelled);
        assert_eq!(st.span("execute").unwrap().status, SpanStatus::Skipped);
    }

    #[test]
    fn tiny_mem_cap_yields_typed_exhaustion_and_releases_pool() {
        let t = table(2_000);
        let pool = Arc::new(MemPool::new(1));
        let mut cfg = config();
        cfg.mem_cap_bytes = 1;
        let out = Session::new(&t, cfg)
            .with_mem_pool(Arc::clone(&pool))
            .run("average delay in jfk");
        assert!(
            out.errors.iter().any(|e| matches!(
                e,
                PipelineError::ResourceExhausted {
                    stage: Stage::Execute,
                    ..
                }
            )),
            "{:?}",
            out.errors
        );
        // The exact attempt tripping the cap extends the ladder downward
        // once: sampled passes hold proportionally less state.
        assert!(
            out.trace
                .events
                .iter()
                .any(|ev| ev.detail.contains("memory cap hit")),
            "{:?}",
            out.trace.events
        );
        assert_eq!(
            out.stage_trace.span("execute").unwrap().status,
            SpanStatus::Exhausted
        );
        // Every byte the run charged has been released back to the pool.
        assert_eq!(pool.used(), 0, "pool must drain to baseline");
    }

    #[test]
    fn disabled_governor_is_bit_identical() {
        let t = table(3_000);
        let q = "select avg(delay) from flights where origin = 'JFK'";
        let base = Session::new(&t, config()).run(q);
        let mut cfg = config();
        cfg.mem_cap_bytes = 64 * 1024 * 1024;
        let governed = Session::new(&t, cfg).run(q);
        match (&base.visualization, &governed.visualization) {
            (
                Visualization::Multiplot {
                    rendered: a,
                    results: ra,
                    ..
                },
                Visualization::Multiplot {
                    rendered: b,
                    results: rb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "an ample cap must not change the output");
                assert_eq!(ra, rb);
            }
            _ => panic!("expected multiplots from both runs"),
        }
    }
}
