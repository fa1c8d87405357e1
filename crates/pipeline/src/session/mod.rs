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
//! automatic fallback from merged to separate execution when a merge
//! group's query fails. Each run returns a [`SessionOutcome`] whose
//! [`DegradationTrace`] records every rung transition with a timestamp and
//! reason.
//!
//! The code is laid out along the stage boundaries. This module holds the
//! session, the spine ([`Session::run_with_budget`]) and the three small
//! stages (translate, candidates, render); `plan` holds the planner
//! ladder; `execute` holds the sample ladder and the one execution path
//! per merge group; `record` holds the [`Run`] every stage writes its
//! errors, events and span through.

mod execute;
mod plan;
mod record;

pub use record::{DegradationEvent, DegradationTrace, Rung};

use crate::budget::DeadlineBudget;
use crate::cache::{CandidateKey, SessionCaches};
use crate::error::{PipelineError, Stage};
use crate::fault::{EscapedPanic, FaultInjector};
use muve_core::{
    headline, render_text, Candidate, IlpConfig, IncrementalSchedule, Multiplot, Planner,
    ScreenConfig, UserCostModel,
};
use muve_dbms::{parse, predicate_order_fingerprint, query_fingerprint, Query, Table};
use muve_nlq::{translate, CandidateGenerator, CandidateQuery};
use muve_obs::{CancelToken, MemBudget, MemPool, SessionTrace};
use muve_shard::ShardSet;
use record::Run;
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
    /// path (the unsharded answer on full gathers, degrading to typed
    /// scaled estimates when shards are lost).
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
    /// table. Full gathers answer as unsharded execution does; lost
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
            if let Some(hit) = caches.candidates.get(&key) {
                return Ok((hit, true));
            }
        }
        self.injector.trip(Stage::Candidates)?;
        let cq = self
            .generator()
            .try_candidates(base, self.config.k, self.config.max_candidates)
            .map_err(|e| PipelineError::Candidates(e.to_string()))?;
        let cq = Arc::new(cq);
        if let Some((caches, key)) = key {
            caches.insert_candidates(key, Arc::clone(&cq));
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
        let mem = (self.config.mem_cap_bytes > 0 || self.mem_pool.is_some()).then(|| {
            let cap = match self.config.mem_cap_bytes {
                0 => usize::MAX,
                cap => cap,
            };
            MemBudget::new(cap, self.mem_pool.clone())
        });
        let planned_rung = match self.config.planner {
            Planner::Ilp(_) => Rung::Ilp,
            Planner::Greedy => Rung::Greedy,
        };
        let mut run = Run::new(budget, self.cancel.clone(), mem, planned_rung);

        let base = match self.translate_stage(transcript, &mut run) {
            Ok(base) => base,
            Err(message) => {
                // No interpretation at all: terminal text fallback.
                for stage in &Stage::ALL[1..] {
                    let st = run.stage(*stage);
                    run.skip(st, "");
                }
                let text = Visualization::Text { message };
                return run.into_outcome(transcript, None, Vec::new(), text);
            }
        };
        let candidates = self.candidates_stage(&base, &mut run);
        let headline_text = headline(&candidates);
        let multiplot = self.plan_stage(&candidates, &headline_text, &mut run);
        let shown = multiplot.candidates_shown();
        let (results, approximate) = self.execute_stage(&candidates, &shown, &mut run);
        let visualization = match self.render_stage(&multiplot, &results, &mut run) {
            Some(rendered) => Visualization::Multiplot {
                multiplot,
                headline: headline_text,
                results,
                rendered,
                approximate,
            },
            None => Visualization::Text {
                message: top_candidate_text(&candidates, &results),
            },
        };
        run.into_outcome(transcript, Some(base), candidates, visualization)
    }

    /// Stage 1: transcript → most likely SQL. `Err` carries the message of
    /// the terminal text fallback.
    fn translate_stage(&self, transcript: &str, run: &mut Run) -> Result<Query, String> {
        let st = run.stage(Stage::Translate);
        let translated = guard(Stage::Translate, || {
            self.injector.trip(Stage::Translate)?;
            let t = transcript.trim();
            if t.to_ascii_lowercase().starts_with("select") {
                parse(t).map_err(|e| PipelineError::Parse(e.to_string()))
            } else {
                translate(t, self.table.get()).map_err(|e| PipelineError::Translate(e.to_string()))
            }
        });
        match translated {
            Ok(q) => {
                run.finish_quiet(st, "interpreted", Vec::new());
                Ok(q)
            }
            Err(e) => {
                let message = format!("could not interpret {transcript:?}: {e}");
                let decision = "translation failed; falling back to text";
                run.fail(st, e, Rung::Text, decision, Vec::new());
                Err(message)
            }
        }
    }

    /// Stage 2: the phonetic candidate distribution around `base`; the
    /// single base candidate when the stage cannot run or fails.
    fn candidates_stage(&self, base: &Query, run: &mut Run) -> Vec<Candidate> {
        let st = run.stage(Stage::Candidates);
        let base_only = || vec![Candidate::new(base.clone(), 1.0)];
        let count = |n: usize| vec![("candidates".to_owned(), n as f64)];
        // Generation has no cancellation points, so only a spent θ (not a
        // fired token) keeps it from starting.
        if let Some(why) = run.not_started(st, false) {
            let detail = format!("{why}; single base candidate");
            run.finish(st, run.rung, detail, count(1));
            return base_only();
        }
        match guard(Stage::Candidates, || self.candidate_distribution(base)) {
            Ok((cq, from_cache)) => {
                let detail = if from_cache {
                    "candidate cache hit"
                } else {
                    "phonetic candidate distribution"
                };
                run.finish_quiet(st, detail, count(cq.len()));
                cq.iter()
                    .map(|c| Candidate::new(c.query.clone(), c.probability))
                    .collect()
            }
            Err(e) => {
                let decision = "candidate stage failed; single base candidate";
                run.fail(st, e, run.rung, decision, count(1));
                base_only()
            }
        }
    }

    /// Stage 5: render the multiplot as terminal text; `None` (and the
    /// text rung) when rendering fails.
    fn render_stage(
        &self,
        multiplot: &Multiplot,
        results: &[Option<f64>],
        run: &mut Run,
    ) -> Option<String> {
        let st = run.stage(Stage::Render);
        match guard(Stage::Render, || {
            self.injector.trip(Stage::Render)?;
            Ok(render_text(multiplot, results))
        }) {
            Ok(rendered) => {
                let rung = run.rung;
                run.finish(st, rung, format!("rendered on the {rung} rung"), Vec::new());
                Some(rendered)
            }
            Err(e) => {
                let decision = "render failed; top candidate as text";
                run.fail(st, e, Rung::Text, decision, Vec::new());
                None
            }
        }
    }
}

/// Run a stage body with panic isolation.
fn guard<T>(
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

/// The stage names of one session run, in pipeline order — the argument to
/// [`SessionTrace::is_complete`] for session traces.
pub const SESSION_STAGES: [&str; 5] = ["translate", "candidates", "plan", "execute", "render"];

/// Index of the most probable candidate. Uses `total_cmp`, so the answer is
/// deterministic even for NaN probabilities (positive NaN sorts greatest).
fn top_candidate(candidates: &[Candidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
        .map(|(i, _)| i)
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

/// The table and configuration the stage modules' unit tests share.
#[cfg(test)]
mod fixtures {
    use super::SessionConfig;
    use muve_dbms::{ColumnType, Schema, Table, Value};
    use std::time::Duration;

    pub(super) fn table(n: usize) -> Table {
        let schema = Schema::new([("origin", ColumnType::Str), ("delay", ColumnType::Int)]);
        let mut b = Table::builder("flights", schema);
        for i in 0..n {
            let o = ["JFK", "LGA", "EWR"][i % 3];
            b.push_row([Value::from(o), Value::from((i % 60) as i64)]);
        }
        b.build()
    }

    pub(super) fn config() -> SessionConfig {
        SessionConfig {
            deadline: Duration::from_millis(800),
            ..SessionConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{config, table};
    use super::plan::headline_only_multiplot;
    use super::*;
    use crate::fault::StageFault;
    use muve_core::plan;
    use muve_obs::SpanStatus;

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
}
