//! # muve-pipeline — the deadline-enforced MUVE session pipeline
//!
//! MUVE (Wei, Trummer & Anderson, PVLDB 2021) answers a voice query by
//! planning a multiplot over the phonetically-confusable interpretations of
//! the transcript. The library crates implement the individual pieces —
//! `muve-nlq` for translation and candidate generation, `muve-core` for
//! planning and rendering, `muve-dbms` for merged and approximate
//! execution. This crate composes them into a *robust* end-to-end
//! [`Session`]:
//!
//! - every stage runs under one [`DeadlineBudget`] (the interactivity
//!   budget θ), with unspent time propagating to later stages;
//! - every stage failure — `Err`, caught panic, or deadline exhaustion —
//!   moves the output down a degradation ladder
//!   (ILP → incumbent → greedy → headline-only → text) instead of failing
//!   the session;
//! - execution retries with escalation through a sample ladder and falls
//!   back from merged to separate execution;
//! - a deterministic [`FaultInjector`] can plant latency, errors, panics,
//!   or a stalled solver in any stage, for robustness testing;
//! - [`Session::run`] therefore **never panics and always returns** a
//!   well-formed [`SessionOutcome`] with a [`DegradationTrace`] describing
//!   exactly what happened.

#![warn(missing_docs)]

mod budget;
mod cache;
mod error;
mod fault;
mod session;

pub use budget::DeadlineBudget;
pub use cache::{CachesReport, SessionCaches};
pub use error::{PipelineError, Stage};
pub use fault::{EscapedPanic, FaultInjector, StageFault};
pub use muve_nlq::Lexicon;
pub use muve_obs::FaultSpecError;
pub use session::{
    DegradationEvent, DegradationTrace, Rung, Session, SessionConfig, SessionOutcome,
    Visualization, SESSION_STAGES,
};

pub use muve_obs::{CancelToken, MemBudget, MemPool, SessionTrace, SpanStatus, StageSpan};
