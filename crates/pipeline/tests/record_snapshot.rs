//! Snapshot of the run record: for six canonical runs, the ordered
//! `(stage, status, rung, detail)` of every span, the ordered
//! `(stage, rung, detail)` of every degradation event, and the variant +
//! stage of every error — no timings. The three ledgers are one story told
//! three ways; this pins the story so a change to how it is written cannot
//! change what it says.

use muve_dbms::{ColumnType, Schema, Table, Value};
use muve_pipeline::{
    CancelToken, FaultInjector, PipelineError, Session, SessionConfig, SessionOutcome,
};
use std::time::Duration;

fn table() -> Table {
    let schema = Schema::new([("origin", ColumnType::Str), ("delay", ColumnType::Int)]);
    let mut b = Table::builder("flights", schema);
    for i in 0..2_000usize {
        let o = ["JFK", "LGA", "EWR"][i % 3];
        b.push_row([Value::from(o), Value::from((i % 60) as i64)]);
    }
    b.build()
}

fn variant(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::Translate(_) => "Translate",
        PipelineError::Parse(_) => "Parse",
        PipelineError::Candidates(_) => "Candidates",
        PipelineError::Planning(_) => "Planning",
        PipelineError::Execution(_) => "Execution",
        PipelineError::Render(_) => "Render",
        PipelineError::DeadlineExceeded { .. } => "DeadlineExceeded",
        PipelineError::StagePanic { .. } => "StagePanic",
        PipelineError::FaultInjected { .. } => "FaultInjected",
        PipelineError::Cancelled { .. } => "Cancelled",
        PipelineError::ResourceExhausted { .. } => "ResourceExhausted",
    }
}

fn record(out: &SessionOutcome) -> String {
    let mut s = String::new();
    for sp in &out.stage_trace.spans {
        s.push_str(&format!(
            "span  {} {} {} | {}\n",
            sp.stage, sp.status, sp.rung, sp.detail
        ));
    }
    for ev in &out.trace.events {
        s.push_str(&format!("event {} {} | {}\n", ev.stage, ev.rung, ev.detail));
    }
    for e in &out.errors {
        s.push_str(&format!("error {}({})\n", variant(e), e.stage()));
    }
    s.push_str(&format!(
        "rungs {} -> {}\n",
        out.trace.planned_rung, out.trace.final_rung
    ));
    s
}

const TRANSCRIPT: &str = "average delay in jfk";

fn run(deadline_ms: u64, fault: &str, pre_cancelled: bool) -> SessionOutcome {
    let t = table();
    let cfg = SessionConfig {
        deadline: Duration::from_millis(deadline_ms),
        // Small enough that the ILP proves optimality in milliseconds, in
        // debug and release alike: the plan detail must not depend on
        // how fast this machine searches.
        max_candidates: 3,
        ..SessionConfig::default()
    };
    let mut s = Session::new(&t, cfg);
    if !fault.is_empty() {
        s = s.with_injector(FaultInjector::parse(fault).expect("spec parses"));
    }
    if pre_cancelled {
        let token = CancelToken::never();
        token.cancel();
        s = s.with_cancel(token);
    }
    s.run(TRANSCRIPT)
}

const CLEAN: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates completed ilp | phonetic candidate distribution\n\
span  plan completed ilp | ILP planned (optimal)\n\
span  execute completed ilp | exact\n\
span  render completed ilp | rendered on the ilp rung\n\
event plan ilp | ILP planned (optimal)\n\
event execute ilp | executed (exact)\n\
event render ilp | rendered on the ilp rung\n\
rungs ilp -> ilp\n\
";
const PLAN_PANIC: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates completed ilp | phonetic candidate distribution\n\
span  plan panicked greedy | greedy plan\n\
span  execute completed greedy | exact\n\
span  render completed greedy | rendered on the greedy rung\n\
event plan greedy | greedy plan\n\
event execute greedy | executed (exact)\n\
event render greedy | rendered on the greedy rung\n\
error StagePanic(plan)\n\
rungs ilp -> greedy\n\
";
const SOLVER_STALL: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates completed ilp | phonetic candidate distribution\n\
span  plan failed greedy | greedy plan\n\
span  execute completed greedy | exact\n\
span  render completed greedy | rendered on the greedy rung\n\
event plan greedy | greedy plan\n\
event execute greedy | executed (exact)\n\
event render greedy | rendered on the greedy rung\n\
error Planning(plan)\n\
rungs ilp -> greedy\n\
";
const EXECUTE_ERROR: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates completed ilp | phonetic candidate distribution\n\
span  plan completed ilp | ILP planned (optimal)\n\
span  execute failed ilp | exact -> exact\n\
span  render completed ilp | rendered on the ilp rung\n\
event plan ilp | ILP planned (optimal)\n\
event execute ilp | execution failed (exact); escalating\n\
event execute ilp | executed (exact)\n\
event render ilp | rendered on the ilp rung\n\
error FaultInjected(execute)\n\
rungs ilp -> ilp\n\
";
const PRE_CANCELLED: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates completed ilp | phonetic candidate distribution\n\
span  plan cancelled headline-only | cancelled before planning\n\
span  execute skipped headline-only | \n\
span  render completed headline-only | rendered on the headline-only rung\n\
event plan headline-only | cancelled before planning\n\
event execute headline-only | cancelled; execution skipped\n\
event render headline-only | rendered on the headline-only rung\n\
error Cancelled(plan)\n\
error Cancelled(execute)\n\
rungs ilp -> headline-only\n\
";
const ZERO_DEADLINE: &str = "\
span  translate completed ilp | interpreted\n\
span  candidates cancelled ilp | deadline exhausted; single base candidate\n\
span  plan cancelled headline-only | deadline exhausted before planning\n\
span  execute skipped headline-only | \n\
span  render completed headline-only | rendered on the headline-only rung\n\
event candidates ilp | deadline exhausted; single base candidate\n\
event plan headline-only | deadline exhausted before planning\n\
event execute headline-only | deadline exhausted; execution skipped\n\
event render headline-only | rendered on the headline-only rung\n\
error DeadlineExceeded(candidates)\n\
error DeadlineExceeded(plan)\n\
error DeadlineExceeded(execute)\n\
rungs ilp -> headline-only\n\
";

#[test]
fn run_records_match_their_snapshots() {
    let cases: [(&str, SessionOutcome, &str); 6] = [
        ("clean", run(800, "", false), CLEAN),
        ("plan panic", run(800, "plan:panic", false), PLAN_PANIC),
        ("solver stall", run(400, "plan:stall", false), SOLVER_STALL),
        (
            "injected execute error",
            run(800, "execute:error", false),
            EXECUTE_ERROR,
        ),
        ("pre-cancelled", run(800, "", true), PRE_CANCELLED),
        ("zero deadline", run(0, "", false), ZERO_DEADLINE),
    ];
    for (name, out, want) in &cases {
        let got = record(out);
        assert_eq!(
            got, *want,
            "\n--- {name}: got ---\n{got}--- want ---\n{want}"
        );
    }
}
