//! Per-run session traces: one span per pipeline stage.
//!
//! A [`SessionTrace`] records, for every stage of one deadline-enforced
//! session run, the budget the stage was allotted, the time it actually
//! spent, its disposition ([`SpanStatus`]), the degradation rung in effect
//! after the stage, and stage-specific counters (solver nodes, rows
//! scanned, …). Stage and rung names are plain strings so this crate stays
//! below the pipeline in the dependency graph.
//!
//! Traces round-trip losslessly through JSON: durations are serialized as
//! integer microseconds and counters as JSON numbers, both of which survive
//! `to_json` → render → parse → `from_json` bit-exactly.

use serde_json::{json, Value};
use std::fmt;
use std::time::Duration;

/// Disposition of one stage span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// The stage produced its output without recording a fault.
    Completed,
    /// The stage recorded at least one error (its output, if any, came
    /// from a fallback).
    Failed,
    /// A panic was caught inside the stage (recovered or not).
    Panicked,
    /// The stage never ran (an earlier stage short-circuited the run).
    Skipped,
    /// The stage was stopped from outside: cut short by a cancellation
    /// point (deadline expiry inside the stage, or an explicit watchdog
    /// cancel), or not started at all because the budget was already
    /// spent (its output, if any, is the cheapest fallback).
    Cancelled,
    /// The stage hit a memory-governor cap; its output (if any) came from
    /// a cheaper fallback rung.
    Exhausted,
}

impl SpanStatus {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Completed => "completed",
            SpanStatus::Failed => "failed",
            SpanStatus::Panicked => "panicked",
            SpanStatus::Skipped => "skipped",
            SpanStatus::Cancelled => "cancelled",
            SpanStatus::Exhausted => "exhausted",
        }
    }

    /// Parse a serialization name.
    pub fn parse(s: &str) -> Option<SpanStatus> {
        match s {
            "completed" => Some(SpanStatus::Completed),
            "failed" => Some(SpanStatus::Failed),
            "panicked" => Some(SpanStatus::Panicked),
            "skipped" => Some(SpanStatus::Skipped),
            "cancelled" => Some(SpanStatus::Cancelled),
            "exhausted" => Some(SpanStatus::Exhausted),
            _ => None,
        }
    }
}

impl fmt::Display for SpanStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage of one session run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage name (`translate`, `candidates`, `plan`, `execute`, `render`).
    pub stage: String,
    /// Offset of the stage start from the session start.
    pub started: Duration,
    /// Time the stage actually spent.
    pub spent: Duration,
    /// Budget share offered to the stage (`None` for skipped stages).
    pub allotted: Option<Duration>,
    /// Disposition.
    pub status: SpanStatus,
    /// Degradation rung in effect after the stage.
    pub rung: String,
    /// Human-readable note (fault messages, ladder decisions).
    pub detail: String,
    /// Stage-specific counters, insertion-ordered.
    pub counters: Vec<(String, f64)>,
}

impl StageSpan {
    /// A span for a stage that never ran.
    pub fn skipped(stage: &str, rung: &str) -> StageSpan {
        StageSpan {
            stage: stage.to_owned(),
            started: Duration::ZERO,
            spent: Duration::ZERO,
            allotted: None,
            status: SpanStatus::Skipped,
            rung: rung.to_owned(),
            detail: String::new(),
            counters: Vec::new(),
        }
    }

    /// The counter recorded under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// The complete trace of one session run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The configured interactivity budget θ.
    pub deadline: Duration,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// The rung the session was configured to start on.
    pub planned_rung: String,
    /// The rung the output was finally produced on.
    pub final_rung: String,
    /// One span per stage, in pipeline order.
    pub spans: Vec<StageSpan>,
}

impl SessionTrace {
    /// An empty trace for a run with deadline θ.
    pub fn new(deadline: Duration) -> SessionTrace {
        SessionTrace {
            deadline,
            total: Duration::ZERO,
            planned_rung: String::new(),
            final_rung: String::new(),
            spans: Vec::new(),
        }
    }

    /// The span of stage `stage`, if recorded.
    pub fn span(&self, stage: &str) -> Option<&StageSpan> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// Whether the trace holds exactly one span per name in `stages`, in
    /// order, with a rung recorded for every executed (non-skipped) span.
    pub fn is_complete(&self, stages: &[&str]) -> bool {
        self.spans.len() == stages.len()
            && self
                .spans
                .iter()
                .zip(stages)
                .all(|(s, want)| s.stage == *want)
            && self
                .spans
                .iter()
                .all(|s| s.status == SpanStatus::Skipped || !s.rung.is_empty())
            && !self.final_rung.is_empty()
    }

    /// Serialize to a JSON value (durations as integer microseconds).
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "stage": s.stage,
                    "started_us": s.started.as_micros() as u64,
                    "spent_us": s.spent.as_micros() as u64,
                    "allotted_us": s.allotted.map(|d| d.as_micros() as u64),
                    "status": s.status.as_str(),
                    "rung": s.rung,
                    "detail": s.detail,
                    "counters": Value::Object(
                        s.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Number(*v)))
                            .collect(),
                    ),
                })
            })
            .collect();
        json!({
            "deadline_us": self.deadline.as_micros() as u64,
            "total_us": self.total.as_micros() as u64,
            "planned_rung": self.planned_rung,
            "final_rung": self.final_rung,
            "spans": spans,
        })
    }

    /// Parse a trace back from [`SessionTrace::to_json`] output.
    pub fn from_json(v: &Value) -> Result<SessionTrace, TraceError> {
        let spans = match v.get("spans") {
            Some(Value::Array(spans)) => spans
                .iter()
                .map(span_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(TraceError("missing spans array".into())),
        };
        Ok(SessionTrace {
            deadline: micros(v, "deadline_us")?,
            total: micros(v, "total_us")?,
            planned_rung: string(v, "planned_rung")?,
            final_rung: string(v, "final_rung")?,
            spans,
        })
    }
}

/// A malformed trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

fn micros(v: &Value, key: &str) -> Result<Duration, TraceError> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|us| Duration::from_micros(us as u64))
        .ok_or_else(|| TraceError(format!("missing number {key:?}")))
}

fn string(v: &Value, key: &str) -> Result<String, TraceError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| TraceError(format!("missing string {key:?}")))
}

fn span_from_json(v: &Value) -> Result<StageSpan, TraceError> {
    let allotted = match v.get("allotted_us") {
        Some(Value::Null) | None => None,
        Some(n) => Some(
            n.as_f64()
                .map(|us| Duration::from_micros(us as u64))
                .ok_or_else(|| TraceError("allotted_us not a number".into()))?,
        ),
    };
    let status = v
        .get("status")
        .and_then(Value::as_str)
        .and_then(SpanStatus::parse)
        .ok_or_else(|| TraceError("bad span status".into()))?;
    let counters = match v.get("counters") {
        Some(Value::Object(entries)) => entries
            .iter()
            .map(|(k, n)| {
                n.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| TraceError(format!("counter {k:?} not a number")))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    Ok(StageSpan {
        stage: string(v, "stage")?,
        started: micros(v, "started_us")?,
        spent: micros(v, "spent_us")?,
        allotted,
        status,
        rung: string(v, "rung")?,
        detail: string(v, "detail")?,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionTrace {
        SessionTrace {
            deadline: Duration::from_millis(1_000),
            total: Duration::from_micros(123_456),
            planned_rung: "ilp".into(),
            final_rung: "greedy".into(),
            spans: vec![
                StageSpan {
                    stage: "translate".into(),
                    started: Duration::from_micros(3),
                    spent: Duration::from_micros(250),
                    allotted: Some(Duration::from_micros(58_823)),
                    status: SpanStatus::Completed,
                    rung: "ilp".into(),
                    detail: "translated".into(),
                    counters: vec![],
                },
                StageSpan {
                    stage: "plan".into(),
                    started: Duration::from_micros(900),
                    spent: Duration::from_micros(80_000),
                    allotted: Some(Duration::from_micros(470_000)),
                    status: SpanStatus::Panicked,
                    rung: "greedy".into(),
                    detail: "solver \"died\"; greedy plan".into(),
                    counters: vec![("nodes".into(), 42.0), ("restarts".into(), 3.0)],
                },
                StageSpan::skipped("render", "greedy"),
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = sample();
        let v = t.to_json();
        assert_eq!(SessionTrace::from_json(&v).unwrap(), t);
        // And through the rendered string, escapes included.
        let s = serde_json::to_string(&v).unwrap();
        let parsed = serde_json::from_str(&s).unwrap();
        assert_eq!(SessionTrace::from_json(&parsed).unwrap(), t);
    }

    #[test]
    fn completeness_check() {
        let t = sample();
        assert!(t.is_complete(&["translate", "plan", "render"]));
        assert!(!t.is_complete(&["translate", "plan"]));
        assert!(!t.is_complete(&["translate", "candidates", "render"]));
        let mut missing_rung = t.clone();
        missing_rung.spans[0].rung.clear();
        assert!(!missing_rung.is_complete(&["translate", "plan", "render"]));
    }

    #[test]
    fn span_lookup_and_counters() {
        let t = sample();
        let plan = t.span("plan").unwrap();
        assert_eq!(plan.counter("nodes"), Some(42.0));
        assert_eq!(plan.counter("missing"), None);
        assert!(t.span("execute").is_none());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(SessionTrace::from_json(&json!({})).is_err());
        let mut v = sample().to_json();
        if let Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k != "final_rung");
        }
        assert!(SessionTrace::from_json(&v).is_err());
    }
}
