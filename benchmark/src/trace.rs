//! The traced pass: where a request's time goes, layer by layer.
//!
//! Tracing inside the program is a later change; here the benchmark times
//! calls into each layer's *public* functions from outside. Each traced
//! request first runs "in context" and single-threaded - wire bytes ->
//! `net::Parser::feed` -> `serve::Server::submit` / `Ticket::wait` ->
//! `net::Response::json(..).write_to` - with the five stage spans taken
//! from the outcome's own `stage_trace`; then every layer is re-invoked
//! alone on the same inputs. Every call is a [`Span`]; the per-layer `_us`
//! metrics are medians over requests of sums of spans, a layer's self time
//! is its span minus its children, and the spans are written out when the
//! pass ends.

use crate::oracle::Oracle;
use crate::spec::{Workload, K, THETA_MS};
use crate::stats::{median, ratio};
use crate::system::{caches, server_config, Inputs};
use crate::workload::Utterance;
use muve::core::{ilp_plan, plan_with_deadline, render_text, Candidate, IlpConfig};
use muve::dbms::{
    execute, execute_approximate, execute_batch, execute_merged_with_opts, index_registry, parse,
    plan_group_paths, plan_merged, AccessPath, Aggregate, BatchConfig, CostParams, ExecOptions,
    PredOp, Predicate, Query, Table, Value,
};
use muve::net::{Limits, Parsed, Parser, Response};
use muve::nlq::{translate, CandidateGenerator};
use muve::phonetics::PhoneticIndex;
use muve::pipeline::{SessionCaches, SessionConfig, SessionOutcome, Visualization, SESSION_STAGES};
use muve::serve::{Request, ServeOutcome, Server};
use muve::shard::{ShardExecOptions, ShardSet, ShardSpec};
use serde_json::Value as Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call: which layer function, for which request, caused by
/// which other span, from when to when (microseconds since the pass began).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans kept in memory until the pass ends. A disabled recorder records
/// nothing: the same request code run with one is the untraced baseline of
/// `pipeline.trace_overhead_ratio`.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_us: now,
            end_us: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_us = self.now_us();
        }
    }

    /// Time one call as a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = std::hint::black_box(call());
        self.close(id);
        out
    }

    /// Record a span whose clock someone else read: `offset` after span
    /// `parent` started, lasting `spent`.
    fn derived(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        offset: Duration,
        spent: Duration,
    ) -> u32 {
        let start_us = self.spans[parent as usize].start_us + offset.as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_us,
            end_us: start_us + spent.as_secs_f64() * 1e6,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Per-request sums of the durations (or self times) of spans by name.
pub struct SpanTable<'a> {
    spans: &'a [Span],
    /// Time covered by each span's children.
    children_us: Vec<f64>,
    requests: usize,
}

impl<'a> SpanTable<'a> {
    pub fn new(spans: &'a [Span], requests: usize) -> SpanTable<'a> {
        let mut children_us = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children_us[p as usize] += s.duration_us();
            }
        }
        SpanTable {
            spans,
            children_us,
            requests,
        }
    }

    fn sums(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut out = vec![0.0; self.requests];
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let own = if self_time { self.children_us[i] } else { 0.0 };
                out[s.request as usize] += s.duration_us() - own;
            }
        }
        out
    }

    /// Per request, the total duration of spans named `name`.
    pub fn total(&self, name: &str) -> Vec<f64> {
        self.sums(name, false)
    }

    /// Per request, the self time (span minus children) of spans named `name`.
    pub fn self_time(&self, name: &str) -> Vec<f64> {
        self.sums(name, true)
    }
}

/// One request served in-process.
struct Served {
    wall: Duration,
    outcome: Box<SessionOutcome>,
}

/// Serve one request in-process along the path a socket request takes,
/// recording the in-context spans. `None` when the request was shed.
/// `reply` is the document `muve-net` built for the same transcript in the
/// HTTP run (its `query` route is private): encoding it stands for encoding
/// this request's own reply, which differs only in its timings.
fn serve_in_process(
    server: &Server,
    config: &SessionConfig,
    wire: &[u8],
    reply: &Json,
    rec: &mut Recorder,
    request: u32,
) -> Option<Served> {
    let started = Instant::now();
    let root = rec.open("request", request, None);

    let transcript = rec.timed("net.parse", request, Some(root), || {
        let mut parser = Parser::new(Limits::default());
        let Ok(Parsed::Complete(req)) = parser.feed(wire) else {
            panic!("the load generator's own request did not parse");
        };
        let body: Json = serde_json::from_str(std::str::from_utf8(&req.body).expect("utf-8 body"))
            .expect("JSON body");
        body["transcript"].as_str().expect("transcript").to_owned()
    });

    let serve = rec.open("serve.request", request, Some(root));
    let resolved = server
        .submit(Request::new(transcript).with_config(config.clone()))
        .map(|ticket| ticket.wait());
    rec.close(serve);
    let Ok(ServeOutcome::Completed {
        outcome,
        queue_wait,
        ..
    }) = resolved
    else {
        rec.close(root);
        return None;
    };

    rec.timed("net.encode", request, Some(root), || {
        let mut sink = Vec::with_capacity(4096);
        Response::json(200, reply)
            .write_to(&mut sink)
            .expect("writing to memory");
        sink
    });
    rec.close(root);
    let wall = started.elapsed();

    if rec.enabled {
        // The serve layer's and the session's own clocks, as spans under
        // the call that contained them.
        rec.derived("serve.queue", request, serve, Duration::ZERO, queue_wait);
        let session = rec.derived(
            "pipeline.session",
            request,
            serve,
            queue_wait,
            outcome.elapsed,
        );
        for (stage, name) in SESSION_STAGES.iter().zip(STAGE_SPANS) {
            if let Some(span) = outcome.stage_trace.span(stage) {
                rec.derived(name, request, session, span.started, span.spent);
            }
        }
    }
    Some(Served { wall, outcome })
}

/// Span names of the five session stages, in [`SESSION_STAGES`] order.
const STAGE_SPANS: [&str; 5] = [
    "stage.translate",
    "stage.candidates",
    "stage.plan",
    "stage.execute",
    "stage.render",
];

/// Counts taken at the same boundaries as the spans. With one client they
/// repeat exactly.
#[derive(Debug, Default)]
struct Counts {
    candidates: usize,
    shown: usize,
    groups: usize,
    index_groups: usize,
    plans: usize,
    plan_nodes: usize,
    proven: usize,
    timed_out: usize,
    solver_nodes: usize,
    solver_us: f64,
    rows_scanned: f64,
    merged_rows: usize,
    merged_us: f64,
    degraded: usize,
}

/// What the traced pass found.
pub struct TracedPass {
    pub spans: Vec<Span>,
    /// `(metric name, value)` for every per-layer metric this pass owns.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests served in the traced pass.
    pub attempted: u64,
    /// Mismatches against the oracle or between context and isolation.
    pub failures: Vec<String>,
    pub retries: u64,
    pub shed: u64,
}

/// The requests the traced pass serves: the head of client 0's order.
pub fn sequence(w: &Workload, inputs: &Inputs) -> Vec<u32> {
    inputs.orders[0]
        .iter()
        .cycle()
        .take(w.traced)
        .copied()
        .collect()
}

/// Run the traced pass of workload `w` over what set-up built (minus the
/// HTTP server): `sequence` is traced, with `replies[i]` the HTTP run's
/// reply to `sequence[i]`; client 1's order warms the caches.
pub fn traced_pass(
    w: &Workload,
    shared_table: &Arc<Table>,
    oracle: &Oracle,
    inputs: &Inputs,
    sequence: &[u32],
    replies: &[Json],
) -> TracedPass {
    let table: &Table = shared_table;
    let config = oracle.config;
    let mut failures: Vec<String> = Vec::new();

    // A server of its own with fresh caches, so cache counts start from a
    // known state: pre-warmed where the workload pre-warms, then brought
    // to steady state by a fixed number of single-threaded requests.
    let caches: Option<Arc<SessionCaches>> = caches(w, table);
    let server = Server::new(Arc::clone(shared_table), server_config(caches.clone()));
    let mut untraced = Recorder::new(false);
    let any_reply = &replies[0];
    if w.prewarm {
        for wire in inputs.sent_wires() {
            serve_in_process(&server, config, wire, any_reply, &mut untraced, 0);
        }
    }
    for &i in inputs.orders[1].iter().cycle().take(w.traced_warmup) {
        let wire = &inputs.wires[i as usize];
        serve_in_process(&server, config, wire, any_reply, &mut untraced, 0);
    }

    let shards = {
        let started = Instant::now();
        let set = ShardSet::build(Arc::clone(shared_table), ShardSpec::new(2, 1));
        (set, started.elapsed())
    };
    // The generator's value vocabulary, for the phonetic index built alone.
    let vocabulary: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, _)| table.column(i).dictionary())
        .flat_map(|d| d.entries().iter().cloned())
        .collect();

    let mut rec = Recorder::new(true);
    let mut scratch = Recorder::new(true);
    let mut counts = Counts::default();
    // Whether the request's work was independent of cache state: it missed
    // no layer (or there are no caches to miss).
    let mut settled: Vec<bool> = Vec::new();
    let mut outcomes: Vec<Option<Box<SessionOutcome>>> = Vec::new();
    // Per cache layer, what the traced requests (and only they) did.
    let mut cache_use = [CacheUse::default(); 3];
    let mut overhead: Vec<f64> = Vec::new();

    for (request, &index) in sequence.iter().enumerate() {
        let wire = &inputs.wires[index as usize];
        let reply = &replies[request];
        let before = caches.as_ref().map(|c| layers(&c.stats()));
        let served = serve_in_process(&server, config, wire, reply, &mut rec, request as u32);
        let after = caches.as_ref().map(|c| layers(&c.stats()));
        let mut missed = 0;
        if let (Some(before), Some(after)) = (before, after) {
            for ((used, b), a) in cache_use.iter_mut().zip(before).zip(after) {
                used.hits += a.hits - b.hits;
                used.lookups += a.lookups - b.lookups;
                used.inserts += a.inserts - b.inserts;
                used.evictions += a.evictions - b.evictions;
                missed += a.misses - b.misses;
            }
        }
        let Some(served) = served else {
            failures.push(format!("traced request {request} was shed"));
            settled.push(false);
            outcomes.push(None);
            continue;
        };
        settled.push(missed == 0);
        outcomes.push(Some(served.outcome));

        // pipeline.trace_overhead_ratio: the same request again, once to
        // prime and then recording - not - not - recording, back to back, so
        // that a drift in this box's speed (tens of percent over seconds)
        // cancels. Only a request that missed no cache is repeatable: it
        // hits again, and touching the entries it just touched leaves the
        // caches as they were.
        if missed == 0 {
            let wall = |rec: &mut Recorder| {
                let served = serve_in_process(&server, config, wire, reply, rec, 0);
                rec.spans.clear();
                served.map_or(f64::NAN, |s| s.wall.as_secs_f64())
            };
            wall(&mut untraced);
            let recording = wall(&mut scratch);
            let plain = wall(&mut untraced) + wall(&mut untraced);
            let ratio = (recording + wall(&mut scratch)) / plain - 1.0;
            if ratio.is_finite() {
                overhead.push(ratio);
            }
        }
    }
    let cache_bytes: u64 = caches
        .as_ref()
        .map_or(0, |c| layers(&c.stats()).iter().map(|l| l.bytes).sum());

    // Each layer alone, on the inputs the in-context run just saw.
    let isolated = Isolated {
        table,
        config,
        shards: &shards.0,
        vocabulary: &vocabulary,
        oracle,
    };
    for (request, outcome) in outcomes.iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let utterance = &inputs.utterances[sequence[request] as usize];
        if let Err(e) = isolated.run(&mut rec, &mut counts, request as u32, utterance, outcome) {
            failures.push(e);
        }
    }

    let probes = Probes::run(table);
    let stats = server.drain().stats;
    let spans = rec.spans;
    let n = sequence.len();
    let t = SpanTable::new(&spans, n);
    let served = outcomes.iter().flatten().count() as f64;
    let per_request = |total: usize| ratio(total as f64, served);

    // pipeline.attributed_ratio: everything under the request that a named
    // layer accounts for - all of it except the root's own gaps and the
    // session's time outside its stage spans.
    let request_us = t.total("request");
    let unattributed: Vec<f64> = t
        .self_time("request")
        .iter()
        .zip(t.self_time("pipeline.session"))
        .map(|(a, b)| a + b)
        .collect();
    let attributed: Vec<f64> = request_us
        .iter()
        .zip(&unattributed)
        .filter(|(wall, _)| **wall > 0.0)
        .map(|(wall, un)| 1.0 - un / wall)
        .collect();

    let merged = t.total("dbms.execute_merged");
    let separate = t.total("dbms.execute");
    let gather = t.total("shard.execute");
    let pairwise = |num: &[f64], den: &[f64]| -> f64 {
        median(
            &num.iter()
                .zip(den)
                .filter(|(_, d)| **d > 0.0)
                .map(|(n, d)| n / d)
                .collect::<Vec<f64>>(),
        )
    };
    let session_us = t.total("pipeline.session");
    let warm_session: Vec<f64> = session_us
        .iter()
        .zip(&settled)
        .filter(|(_, s)| caches.is_some() && **s)
        .map(|(us, _)| *us)
        .collect();
    let metrics: Vec<(&'static str, f64)> = vec![
        ("net.parse_us", median(&t.total("net.parse"))),
        ("net.encode_us", median(&t.total("net.encode"))),
        ("serve.overhead_us", median(&t.self_time("serve.request"))),
        ("serve.queue_wait_us", median(&t.total("serve.queue"))),
        ("pipeline.session_us", median(&session_us)),
        ("pipeline.self_us", median(&t.self_time("pipeline.session"))),
        (
            "pipeline.stage_translate_us",
            median(&t.total("stage.translate")),
        ),
        (
            "pipeline.stage_candidates_us",
            median(&t.total("stage.candidates")),
        ),
        ("pipeline.stage_plan_us", median(&t.total("stage.plan"))),
        (
            "pipeline.stage_execute_us",
            median(&t.total("stage.execute")),
        ),
        ("pipeline.stage_render_us", median(&t.total("stage.render"))),
        ("pipeline.attributed_ratio", median(&attributed)),
        ("pipeline.degraded", counts.degraded as f64),
        ("pipeline.trace_overhead_ratio", median(&overhead)),
        ("nlq.translate_us", median(&t.total("nlq.translate"))),
        (
            "nlq.generator_build_us",
            median(&t.total("nlq.generator_build")),
        ),
        ("nlq.candidates_us", median(&t.total("nlq.candidates"))),
        ("nlq.candidates_per_request", per_request(counts.candidates)),
        (
            "phonetics.index_build_us",
            median(&t.total("phonetics.index_build")),
        ),
        ("phonetics.topk_us", median(&t.total("phonetics.top_k"))),
        ("phonetics.vocab_size", vocabulary.len() as f64),
        ("core.plan_us", median(&t.total("core.plan"))),
        (
            "core.plan_nodes",
            ratio(counts.plan_nodes as f64, counts.plans as f64),
        ),
        (
            "core.plan_proven_optimal_ratio",
            ratio(counts.proven as f64, counts.plans as f64),
        ),
        (
            "core.plan_timed_out_ratio",
            ratio(counts.timed_out as f64, counts.plans as f64),
        ),
        ("core.shown_per_request", per_request(counts.shown)),
        ("core.render_text_us", median(&t.total("core.render_text"))),
        (
            "solver.nodes_per_s",
            ratio(counts.solver_nodes as f64, counts.solver_us / 1e6),
        ),
        ("solver.solve_us", median(&t.total("solver.ilp_plan"))),
        ("dbms.parse_us", median(&t.total("dbms.parse"))),
        ("dbms.merge_plan_us", median(&t.total("dbms.merge_plan"))),
        ("dbms.merge_groups_per_request", per_request(counts.groups)),
        ("dbms.merged_exec_us", median(&merged)),
        ("dbms.separate_exec_us", median(&separate)),
        ("dbms.merge_speedup", pairwise(&separate, &merged)),
        (
            "dbms.rows_scanned_per_request",
            ratio(counts.rows_scanned, served),
        ),
        (
            "dbms.scan_mrows_per_s",
            ratio(counts.merged_rows as f64, counts.merged_us),
        ),
        ("dbms.eq_scan_mrows_per_s", probes.eq_mrows_per_s),
        ("dbms.in_scan_mrows_per_s", probes.in_mrows_per_s),
        (
            "dbms.sample_exec_us",
            median(&t.total("dbms.execute_approximate")),
        ),
        (
            "dbms.index_path_ratio",
            ratio(counts.index_groups as f64, counts.groups as f64),
        ),
        ("dbms.index_build_ms", probes.index_build_ms),
        ("cache.candidates_hit_ratio", cache_use[0].hit_ratio()),
        ("cache.plans_hit_ratio", cache_use[1].hit_ratio()),
        ("cache.results_hit_ratio", cache_use[2].hit_ratio()),
        (
            "cache.inserts",
            cache_use.iter().map(|l| l.inserts).sum::<u64>() as f64,
        ),
        (
            "cache.evictions",
            cache_use.iter().map(|l| l.evictions).sum::<u64>() as f64,
        ),
        ("cache.bytes", cache_bytes as f64),
        ("cache.warm_session_us", median(&warm_session)),
        ("shard.build_ms", shards.1.as_secs_f64() * 1e3),
        ("shard.gather_us", median(&gather)),
        ("shard.gather_vs_direct", pairwise(&gather, &merged)),
    ];
    TracedPass {
        metrics,
        attempted: n as u64,
        failures,
        retries: stats.retries,
        shed: stats.shed,
        spans,
    }
}

/// The three cache layers of a report: candidates, plans, results.
fn layers(report: &muve::pipeline::CachesReport) -> [muve::cache::CacheStats; 3] {
    [report.candidates, report.plans, report.results]
}

/// What a span of requests did to one cache layer.
#[derive(Debug, Default, Clone, Copy)]
struct CacheUse {
    hits: u64,
    lookups: u64,
    inserts: u64,
    evictions: u64,
}

impl CacheUse {
    fn hit_ratio(&self) -> f64 {
        ratio(self.hits as f64, self.lookups as f64)
    }
}

/// Everything one isolated re-invocation needs.
struct Isolated<'a> {
    table: &'a Table,
    config: &'a SessionConfig,
    shards: &'a ShardSet,
    vocabulary: &'a [String],
    oracle: &'a Oracle<'a>,
}

impl Isolated<'_> {
    /// Re-invoke each layer alone on what request `request` saw in context,
    /// check the isolated answers against the in-context ones, and check
    /// the in-context values against the oracle.
    fn run(
        &self,
        rec: &mut Recorder,
        counts: &mut Counts,
        request: u32,
        utterance: &Utterance,
        outcome: &SessionOutcome,
    ) -> Result<(), String> {
        let root = rec.open("isolated", request, None);
        let checked = self.layers(rec, counts, request, root, utterance, outcome);
        rec.close(root);
        checked
    }

    fn layers(
        &self,
        rec: &mut Recorder,
        counts: &mut Counts,
        request: u32,
        root: u32,
        utterance: &Utterance,
        outcome: &SessionOutcome,
    ) -> Result<(), String> {
        let table = self.table;
        let config = self.config;
        let transcript = utterance.transcript.as_str();
        let Visualization::Multiplot {
            multiplot,
            results,
            approximate,
            ..
        } = &outcome.visualization
        else {
            counts.degraded += 1;
            return Err(format!("{transcript:?}: text fallback in the traced pass"));
        };
        if outcome.degraded() || *approximate {
            counts.degraded += 1;
        }
        let root = Some(root);

        // nlq + phonetics
        let base = rec
            .timed("nlq.translate", request, root, || {
                translate(transcript, table)
            })
            .map_err(|e| format!("{transcript:?}: {e}"))?;
        let generator = rec.timed("nlq.generator_build", request, root, || {
            CandidateGenerator::new(table)
        });
        let generated = rec.timed("nlq.candidates", request, root, || {
            generator.candidates(&base, K, config.max_candidates)
        });
        counts.candidates += generated.len();
        let candidates: Vec<Candidate> = generated
            .into_iter()
            .map(|c| Candidate::new(c.query, c.probability))
            .collect();
        if candidates != outcome.candidates {
            return Err(format!("{transcript:?}: candidates differ in isolation"));
        }
        let index = rec.timed("phonetics.index_build", request, root, || {
            PhoneticIndex::build(self.vocabulary.iter().cloned())
        });
        for p in &base.predicates {
            if let PredOp::Eq(Value::Str(constant)) = &p.op {
                rec.timed("phonetics.top_k", request, root, || {
                    index.top_k(constant, K)
                });
            }
        }

        // core + solver
        let theta = Duration::from_millis(THETA_MS);
        let planned = rec.timed("core.plan", request, root, || {
            plan_with_deadline(
                &config.planner,
                &candidates,
                &config.screen,
                &config.model,
                theta,
            )
        });
        counts.plans += 1;
        counts.plan_nodes += planned.nodes;
        counts.proven += usize::from(planned.proven_optimal);
        counts.timed_out += usize::from(planned.timed_out);
        let in_context_cost = config.model.expected_cost(multiplot, &candidates);
        if (planned.expected_cost - in_context_cost).abs() > 1e-9 * in_context_cost.abs() {
            return Err(format!(
                "{transcript:?}: expected cost {in_context_cost} in context, {} in isolation",
                planned.expected_cost
            ));
        }
        if matches!(config.planner, muve::core::Planner::Ilp(_)) {
            let cfg = IlpConfig {
                time_budget: Some(theta),
                warm_start: true,
                ..IlpConfig::default()
            };
            let before = rec.now_us();
            let solved = rec.timed("solver.ilp_plan", request, root, || {
                ilp_plan(&candidates, &config.screen, &config.model, &cfg)
            });
            counts.solver_us += rec.now_us() - before;
            counts.solver_nodes += solved.nodes;
        }
        rec.timed("core.render_text", request, root, || {
            render_text(multiplot, results)
        });

        // dbms
        rec.timed("dbms.parse", request, root, || parse(&base.to_sql()))
            .map_err(|e| format!("{}: {e}", base.to_sql()))?;
        let shown = multiplot.candidates_shown();
        counts.shown += shown.len();
        let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
        let (groups, paths) = rec.timed("dbms.merge_plan", request, root, || {
            let groups = plan_merged(&queries);
            let paths = plan_group_paths(table, &groups, &CostParams::default());
            (groups, paths)
        });
        counts.groups += groups.len();
        counts.index_groups += paths
            .iter()
            .filter(|p| matches!(p, AccessPath::IndexScan { .. }))
            .count();
        counts.rows_scanned += outcome
            .stage_trace
            .span("execute")
            .and_then(|s| s.counter("rows_scanned"))
            .unwrap_or(0.0);
        for g in &groups {
            let before = rec.now_us();
            let merged = rec
                .timed("dbms.execute_merged", request, root, || {
                    execute_merged_with_opts(table, g, ExecOptions::default())
                })
                .map_err(|e| format!("{}: {e}", g.merged.to_sql()))?;
            counts.merged_us += rec.now_us() - before;
            counts.merged_rows += merged.stats.rows_scanned;
            if !*approximate {
                for (local, value) in merged.results {
                    if value != results[shown[local]] {
                        return Err(format!(
                            "{}: {value:?} merged alone, {:?} in context",
                            queries[local].to_sql(),
                            results[shown[local]]
                        ));
                    }
                }
            }
            rec.timed("dbms.execute_approximate", request, root, || {
                execute_approximate(table, &g.merged, 0.01, config.seed)
            })
            .map_err(|e| format!("{}: {e}", g.merged.to_sql()))?;
            let gathered = rec
                .timed("shard.execute", request, root, || {
                    self.shards.execute(&g.merged, ShardExecOptions::default())
                })
                .map_err(|e| format!("{}: {e}", g.merged.to_sql()))?;
            if gathered.report.is_partial() {
                return Err(format!(
                    "{}: partial gather on a healthy set",
                    g.merged.to_sql()
                ));
            }
        }
        for q in &queries {
            rec.timed("dbms.execute", request, root, || execute(table, q))
                .map_err(|e| format!("{}: {e}", q.to_sql()))?;
        }

        // The oracle: every in-context value against the reference executor.
        rec.timed("oracle.check", request, root, || {
            self.oracle.check(transcript, results, *approximate)
        })
    }
}

/// Fixed probes of the scan kernels on the workload's table, bypassing the
/// inverted index: a single equality, and a 4-value `IN` + `GROUP BY` on
/// the same column (the shape query merging emits).
struct Probes {
    eq_mrows_per_s: f64,
    in_mrows_per_s: f64,
    index_build_ms: f64,
}

impl Probes {
    fn run(table: &Table) -> Probes {
        let (column, values) = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .find_map(|(i, def)| {
                let dict = table.column(i).dictionary()?;
                Some((
                    def.name.clone(),
                    dict.entries().iter().take(4).cloned().collect::<Vec<_>>(),
                ))
            })
            .expect("every workload table has a categorical column");
        let count = |predicate: Predicate, group_by: Vec<String>| Query {
            table: table.name().to_owned(),
            aggregates: vec![Aggregate::count_star()],
            predicates: vec![predicate],
            group_by,
        };
        let eq = count(
            Predicate::eq(column.clone(), values[0].as_str()),
            Vec::new(),
        );
        let within = count(
            Predicate {
                column: column.clone(),
                op: PredOp::In(values.iter().map(|v| Value::from(v.as_str())).collect()),
            },
            vec![column.clone()],
        );
        let mrows_per_s = |q: &Query| {
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let started = Instant::now();
                    execute_batch(
                        table,
                        q,
                        None,
                        ExecOptions::default(),
                        &BatchConfig::default(),
                    )
                    .expect("probe executes");
                    started.elapsed().as_secs_f64()
                })
                .collect();
            ratio(table.num_rows() as f64 / 1e6, median(&times))
        };
        let eq_mrows_per_s = mrows_per_s(&eq);
        let in_mrows_per_s = mrows_per_s(&within);
        index_registry().drop_tables(&[table.fingerprint()]);
        let started = Instant::now();
        index_registry()
            .get_or_build(table, &column, &ExecOptions::default())
            .expect("index builds");
        Probes {
            eq_mrows_per_s,
            in_mrows_per_s,
            index_build_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Write the spans of one workload's traced pass as JSON.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"unit\": \"us\", \"spans\": ["
    )?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
             \"start\": {:.3}, \"end\": {:.3}}}{comma}",
            s.name, s.request, s.start_us, s.end_us
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, request, parent, start_us, end_us| Span {
            name,
            request,
            parent,
            start_us,
            end_us,
        };
        let spans = vec![
            span("request", 0, None, 0.0, 100.0),
            span("a", 0, Some(0), 10.0, 40.0),
            span("b", 0, Some(1), 15.0, 25.0),
            span("a", 0, Some(0), 50.0, 60.0),
            span("request", 1, None, 100.0, 150.0),
        ];
        let t = SpanTable::new(&spans, 2);
        assert_eq!(t.total("request"), vec![100.0, 50.0]);
        assert_eq!(t.self_time("request"), vec![60.0, 50.0]);
        assert_eq!(t.total("a"), vec![40.0, 0.0]);
        assert_eq!(t.self_time("a"), vec![30.0, 0.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("x", 0, None);
        assert_eq!(rec.timed("y", 0, Some(id), || 7), 7);
        rec.close(id);
        assert!(rec.spans.is_empty());
    }
}
