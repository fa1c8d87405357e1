//! Stage 4: execution — the sample ladder over attempts, and inside each
//! attempt one path per merge group: [`Session::execute_group`] runs the
//! merged query through [`Session::run_query`] and extracts the members,
//! with the result cache and the single-flight table as optional guards
//! around that body.

use super::record::Run;
use super::{guard, Session};
use crate::cache::{fidelity_key, ResultKey};
use crate::error::{PipelineError, Stage};
use muve_cache::Join;
use muve_core::Candidate;
use muve_dbms::{
    extract_merged, plan_merged, query_fingerprint, ExecError, ExecOptions, MergeGroup, Query,
    ResultSet, ScanRequest, ScanRows,
};
use muve_obs::CancelCause;
use muve_shard::ShardExecOptions;
use std::sync::Arc;
use std::time::Duration;

/// One execution attempt over the shown candidates: what it runs (the
/// shown queries at one fidelity) and what it has produced so far.
struct ExecAttempt<'a> {
    /// The shown candidates' queries; merge-group member indices point
    /// into this.
    queries: Vec<Query>,
    /// Candidate index of each entry of `queries`.
    shown: &'a [usize],
    /// `None` = exact, `Some(f)` = the systematic `f` sample.
    fraction: Option<f64>,
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

impl ExecAttempt<'_> {
    /// Record every member of `g` from the merged result `rs`.
    fn extract(&mut self, rs: &ResultSet, g: &MergeGroup) {
        for (local, v) in extract_merged(rs, g) {
            self.values.push((self.shown[local], v));
        }
    }
}

impl Session<'_> {
    /// The execution stage: sample-ladder escalation with merged→separate
    /// fallback inside each attempt. Returns the per-candidate values and
    /// whether the accepted ones are approximate.
    pub(super) fn execute_stage(
        &self,
        candidates: &[Candidate],
        shown: &[usize],
        run: &mut Run,
    ) -> (Vec<Option<f64>>, bool) {
        let mut results: Vec<Option<f64>> = vec![None; candidates.len()];
        let st = run.stage(Stage::Execute);
        if let Some(why) = run.not_started(st, true) {
            run.note(st, format!("{why}; execution skipped"));
            run.skip(st, "");
            return (results, false);
        }
        if shown.is_empty() {
            run.skip(st, "no candidates shown");
            return (results, false);
        }
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
            if any_success && (run.budget.exhausted() || run.cancel.is_cancelled()) {
                break; // keep the approximate results we already have
            }
            let opts = ExecOptions {
                // The rescue attempt (see the cancelled branch below) runs
                // without the token — it exists precisely because the
                // token has already fired.
                cancel: (!rescued).then_some(&run.cancel),
                mem: run.mem.as_ref(),
                ..ExecOptions::default()
            };
            let attempt = guard(Stage::Execute, || {
                self.injector.trip(Stage::Execute)?;
                Ok(self.execute_attempt(candidates, shown, fraction, run, opts))
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
                    run.errors.extend(a.member_errors);
                    rows_scanned += a.rows_scanned;
                    if was_cancelled {
                        // The token fired mid-attempt: a retry cannot mint
                        // time — keep whatever values already landed and
                        // abandon the ladder.
                        run.note(st, format!("cancelled mid-execution ({label})"));
                        for (idx, v) in a.values {
                            results[idx] = v;
                        }
                        approximate = (fraction.is_some() || partial_shards > 0) && produced;
                        any_success = any_success || produced;
                        if any_success
                            || rescued
                            || run.cancel.cause() != Some(CancelCause::Deadline)
                        {
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
                        run.note(
                            st,
                            "deadline expired with no values; last-gasp attempt at \
                             cheapest fidelity",
                        );
                        continue;
                    }
                    if hit_cap && fraction.is_none() && !mem_escalated {
                        // The governor rejected the exact attempt's state.
                        // Retrying exact would hit the same cap, but a
                        // sampled pass holds proportionally less — extend
                        // the ladder downward once.
                        mem_escalated = true;
                        ladder.extend(self.config.sample_ladder.iter().copied().map(Some));
                        run.note(
                            st,
                            format!("memory cap hit ({label}); retrying at sample fidelity"),
                        );
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
                    run.note(st, format!("executed ({label})"));
                    if partial_shards > 0 {
                        // Lost shards: the values on screen are coverage-
                        // scaled estimates even on the "exact" fidelity.
                        approximate = true;
                        run.note(
                            st,
                            format!(
                                "partial shard gather ({partial_shards} sub-result{} missing); \
                                 values are scaled estimates",
                                if partial_shards == 1 { "" } else { "s" }
                            ),
                        );
                    }
                    if fraction.is_none() {
                        break;
                    }
                }
                Err(e) => {
                    run.errors.push(e);
                    run.note(st, format!("execution failed ({label}); escalating"));
                }
            }
        }
        let mut detail = labels.join(" -> ");
        if !any_success {
            run.note(st, "all execution attempts failed; showing pending values");
            detail.push_str("; all attempts failed");
        }
        let values = results.iter().filter(|v| v.is_some()).count();
        run.finish_quiet(
            st,
            detail,
            vec![
                ("attempts".into(), attempts as f64),
                ("rows_scanned".into(), rows_scanned as f64),
                ("values".into(), values as f64),
            ],
        );
        (results, approximate)
    }

    /// Execute one query at one fidelity (`None` = exact, `Some(f)` = the
    /// systematic `f` sample) through whichever backend is attached: the
    /// shard set (scatter-gather with failover/hedging, bounded by
    /// `gather_budget`, degrading to a coverage-scaled estimate on lost
    /// shards) or the single table. Same row ids, same realized fraction,
    /// same scaling either way. Returns the result plus the number of
    /// shards missing from it (0 on the single-table path and on full
    /// gathers).
    fn run_query(
        &self,
        query: &Query,
        fraction: Option<f64>,
        opts: ExecOptions<'_>,
        gather_budget: Option<Duration>,
    ) -> Result<(ResultSet, usize), ExecError> {
        let seed = self.config.seed;
        let Some(set) = &self.shards else {
            let rows = match fraction {
                None => ScanRows::All,
                Some(fraction) => ScanRows::Sample { fraction, seed },
            };
            let rs = ScanRequest::new(rows, opts).run(self.table.get(), query)?;
            return Ok((rs, 0));
        };
        let shard_opts = ShardExecOptions {
            cancel: opts.cancel,
            mem: opts.mem,
            budget: gather_budget,
            allow_partial: true,
        };
        let sr = match fraction {
            None => set.execute(query, shard_opts)?,
            Some(f) => set.execute_sampled(query, f, seed, shard_opts)?.0,
        };
        let missing = sr.report.missing();
        Ok((sr.result, missing))
    }

    /// One execution attempt at a fixed fidelity: every merge group of the
    /// shown candidates through [`execute_group`](Self::execute_group).
    fn execute_attempt<'a>(
        &self,
        candidates: &[Candidate],
        shown: &'a [usize],
        fraction: Option<f64>,
        run: &Run,
        opts: ExecOptions<'_>,
    ) -> ExecAttempt<'a> {
        let mut out = ExecAttempt {
            queries: shown.iter().map(|&i| candidates[i].query.clone()).collect(),
            shown,
            fraction,
            values: Vec::new(),
            member_errors: Vec::new(),
            rows_scanned: 0,
            partial_shards: 0,
        };
        for g in plan_merged(&out.queries) {
            self.execute_group(&g, run, opts, &mut out);
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

    /// One merge group, one path: run the merged query, extract each
    /// member's scalar, and — on an exact, non-cancelled failure — fall
    /// back to executing the members separately so one bad query cannot
    /// starve the group.
    ///
    /// With caches attached two guards stand in front of that body. A
    /// result-cache hit answers without scanning. Otherwise the request
    /// joins the group's flight: a waiter takes the leader's published
    /// result; the leader (and a waiter whose leader failed, or whose wait
    /// outlived its budget or token — a request never gives up because of
    /// someone else's flight) runs the body, and a leader with a whole
    /// result caches and publishes it.
    ///
    /// Fidelity matching is strict by key construction ([`ResultKey`]):
    /// a request only ever sees a result computed at exactly the fidelity
    /// (sample fraction + seed, or exact) it would execute itself.
    fn execute_group(
        &self,
        g: &MergeGroup,
        run: &Run,
        opts: ExecOptions<'_>,
        out: &mut ExecAttempt<'_>,
    ) {
        let fraction = out.fraction;
        let mut lead = None;
        if let Some(caches) = self.caches.as_deref() {
            let key = ResultKey {
                fingerprint: query_fingerprint(&g.merged, Some(self.table.get())),
                fidelity: fidelity_key(fraction, self.config.seed),
            };
            if let Some(rs) = caches.results.get(&key) {
                // A hit scans no rows on behalf of this request.
                return out.extract(&rs, g);
            }
            match caches
                .flights
                .join((caches.epoch(), key.fingerprint, key.fidelity))
            {
                Join::Leader(l) => lead = Some((l, caches, key)),
                Join::Waiter(waiter) => {
                    if let Some(Some(rs)) = waiter.wait(run.budget.remaining(), opts.cancel) {
                        return out.extract(&rs, g);
                    }
                }
            }
        }
        // The gather is bounded by what is left of θ exactly when the
        // attempt carries the token: the rescue attempt runs without both.
        let gather_budget = opts.cancel.map(|_| run.budget.remaining());
        match self.run_query(&g.merged, fraction, opts, gather_budget) {
            Ok((rs, missing)) => {
                out.rows_scanned += rs.stats.rows_scanned;
                out.partial_shards += missing;
                out.extract(&rs, g);
                // A degraded gather is this request's answer, not
                // everyone's: never cache it, and let the dropped leader
                // publish the flight as failed so waiters execute for
                // themselves (their own gather may be whole).
                if let (Some((lead, caches, key)), 0) = (lead, missing) {
                    let rs = Arc::new(rs);
                    // Insert before publishing the flight, so a request
                    // arriving after the flight resolves finds the entry
                    // in the cache.
                    caches.insert_result(key, Arc::clone(&rs));
                    lead.finish(Some(rs));
                }
            }
            Err(e) => {
                // Dropping the leader publishes the failure so waiters
                // stop blocking and execute themselves.
                drop(lead);
                let cancelled = matches!(e, ExecError::Cancelled);
                let context = if fraction.is_some() {
                    "sample"
                } else {
                    "merged"
                };
                out.member_errors.push(exec_error(e, context));
                // A cancelled request skips the per-member fallback (its
                // token stays fired — the members would abort at their
                // first check too); a governor rejection takes it — the
                // merged query carries the group-by state, members are
                // scalar.
                if fraction.is_none() && !cancelled {
                    self.separate_fallback(g, opts, out);
                }
            }
        }
    }

    /// Per-member separate execution after a merged failure.
    fn separate_fallback(&self, g: &MergeGroup, opts: ExecOptions<'_>, out: &mut ExecAttempt<'_>) {
        for m in &g.members {
            match self.run_query(&out.queries[m.index], None, opts, None) {
                Ok((rs, missing)) => {
                    out.rows_scanned += rs.stats.rows_scanned;
                    out.partial_shards += missing;
                    out.values.push((out.shown[m.index], rs.scalar()));
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

#[cfg(test)]
mod tests {
    use super::super::fixtures::{config, table};
    use super::*;
    use crate::fault::{FaultInjector, StageFault};
    use crate::session::Visualization;
    use muve_obs::{MemPool, SpanStatus};

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
