//! # muve-obs — observability for the MUVE pipeline
//!
//! Two complementary views of a running system, plus the robustness
//! primitives every serving layer instantiates instead of rewriting:
//!
//! - [`metrics()`] — a process-global registry of monotonic counters,
//!   two-way gauges, and log₂-bucketed histograms, recorded by every layer
//!   of the stack
//!   (solver nodes, planner restarts, rows scanned, session runs). Cheap
//!   enough to leave on: recording is a handful of relaxed atomic adds.
//! - [`SessionTrace`] — a per-run record of the deadline-enforced pipeline:
//!   one [`StageSpan`] per stage with allotted vs. spent budget, the
//!   degradation rung in effect after the stage, caught faults, and
//!   stage-specific counters. Exports to JSON ([`SessionTrace::to_json`])
//!   and parses back losslessly ([`SessionTrace::from_json`]).
//! - [`Breaker`] — the one circuit-breaker state machine (closed → open →
//!   single probe), driven by an explicit `now` on every call. `muve-serve`
//!   keeps one per pipeline stage, `muve-shard` one per replica.
//! - [`ledger!`] — a flow ledger declared once as `field => "registry
//!   name"` lines: exact per-owner counters ([`LedgerCounter`]) mirrored
//!   into the registry through pre-resolved handles, a typed `Copy`
//!   snapshot, and the flow identities as data ([`Identity`]) behind one
//!   generic [`violations`] check.
//! - [`FaultClause`] — the `<target>:<kind>[=<arg>][@p=<0..=1>]` clause
//!   grammar and typed [`FaultSpecError`] both fault injectors parse with.
//! - [`QuietPanics`] — a thread-scoped guard that silences the panic
//!   printout for injected panics, used by both fault injectors' callers.
//!
//! The crate is dependency-light by design (only the vendored
//! `serde_json`), so every other crate in the workspace can record into it
//! without cycles.

#![warn(missing_docs)]

mod breaker;
mod cancel;
mod fault;
mod ledger;
mod metrics;
mod quiet;
mod sync;
mod trace;

pub use breaker::{Breaker, BreakerConfig, BreakerDecision, BreakerState, BreakerTransition};
pub use cancel::{CancelCause, CancelToken, MemBudget, MemExhausted, MemPool};
pub use fault::{fault_clauses, FaultClause, FaultSpecError, FaultSpecReason};
pub use ledger::{violations, Identity, LedgerCounter};
pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use quiet::QuietPanics;
pub use sync::{lock_recover, poisoned_locks};
pub use trace::{SessionTrace, SpanStatus, StageSpan, TraceError};
