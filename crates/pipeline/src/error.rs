//! The unified pipeline error taxonomy.
//!
//! Every failure a [`Session`](crate::Session) can encounter — stage
//! errors bubbling up from the library crates, deadline exhaustion,
//! injected faults, and panics caught at stage boundaries — is folded into
//! [`PipelineError`], tagged with the [`Stage`] it occurred in. The session
//! never propagates these to the caller as failures; they are recorded in
//! the outcome and drive the degradation ladder.

use std::fmt;
use std::time::Duration;

/// One stage of the voice-query pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Transcript to most-likely SQL (text2sql, or direct SQL parsing).
    Translate,
    /// Most-likely SQL to the phonetic candidate distribution.
    Candidates,
    /// Candidate distribution to a multiplot (the planner ladder).
    Plan,
    /// Executing the shown queries (merged, approximate, or separate).
    Execute,
    /// Rendering the final visualization.
    Render,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Translate,
        Stage::Candidates,
        Stage::Plan,
        Stage::Execute,
        Stage::Render,
    ];

    /// Stable lowercase name (also the CLI fault-spec syntax).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Translate => "translate",
            Stage::Candidates => "candidates",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
            Stage::Render => "render",
        }
    }

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Translate => 0,
            Stage::Candidates => 1,
            Stage::Plan => 2,
            Stage::Execute => 3,
            Stage::Render => 4,
        }
    }

    /// Parse a stage from its [`name`](Stage::name).
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything that can go wrong inside a session, tagged by stage.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The transcript could not be translated to SQL.
    Translate(String),
    /// A `select …` transcript failed to parse.
    Parse(String),
    /// Candidate generation failed or produced a malformed distribution.
    Candidates(String),
    /// The planner failed to produce a usable multiplot.
    Planning(String),
    /// Query execution failed.
    Execution(String),
    /// Rendering the visualization failed.
    Render(String),
    /// The interactivity budget ran out before the stage could run.
    DeadlineExceeded {
        /// Stage that was skipped or cut short.
        stage: Stage,
        /// The session's total budget θ.
        budget: Duration,
    },
    /// A panic was caught at the stage boundary.
    StagePanic {
        /// Stage whose body panicked.
        stage: Stage,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A fault injected by the test harness fired.
    FaultInjected {
        /// Stage the fault was planted in.
        stage: Stage,
    },
    /// A cancellation token fired *inside* the stage (deadline passed
    /// mid-scan / mid-search, or the serve watchdog cancelled the
    /// request). Unlike [`DeadlineExceeded`](Self::DeadlineExceeded) —
    /// which means a stage was skipped because the budget was gone before
    /// it started — this means work was abandoned at a cancellation point.
    Cancelled {
        /// Stage whose work was abandoned.
        stage: Stage,
    },
    /// The memory governor rejected an allocation charge.
    ResourceExhausted {
        /// Stage that tripped the cap.
        stage: Stage,
        /// Bytes in use at the cap that rejected the charge.
        used: usize,
        /// The cap in bytes.
        cap: usize,
        /// Whether the global pool (vs. the per-request cap) rejected it.
        global: bool,
    },
}

impl PipelineError {
    /// The stage this error is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            PipelineError::Translate(_) | PipelineError::Parse(_) => Stage::Translate,
            PipelineError::Candidates(_) => Stage::Candidates,
            PipelineError::Planning(_) => Stage::Plan,
            PipelineError::Execution(_) => Stage::Execute,
            PipelineError::Render(_) => Stage::Render,
            PipelineError::DeadlineExceeded { stage, .. }
            | PipelineError::StagePanic { stage, .. }
            | PipelineError::FaultInjected { stage }
            | PipelineError::Cancelled { stage }
            | PipelineError::ResourceExhausted { stage, .. } => *stage,
        }
    }

    /// Whether a fresh attempt at the same transcript could plausibly
    /// succeed. Drives the serving layer's retry policy: dependency-shaped
    /// failures (execution, planning, caught panics, injected faults) are
    /// transient; input-shaped failures (translate/parse — the transcript
    /// itself is bad) and deadline exhaustion (retrying cannot mint time)
    /// are not.
    pub fn is_transient(&self) -> bool {
        match self {
            PipelineError::Execution(_)
            | PipelineError::Planning(_)
            | PipelineError::Render(_)
            | PipelineError::StagePanic { .. }
            | PipelineError::FaultInjected { .. } => true,
            // Cancellation means time (or the watchdog) ran out — a retry
            // cannot mint either. A governor rejection is structural: the
            // same query against the same caps exhausts them again.
            PipelineError::Translate(_)
            | PipelineError::Parse(_)
            | PipelineError::Candidates(_)
            | PipelineError::DeadlineExceeded { .. }
            | PipelineError::Cancelled { .. }
            | PipelineError::ResourceExhausted { .. } => false,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Translate(m) => write!(f, "translate: {m}"),
            PipelineError::Parse(m) => write!(f, "parse: {m}"),
            PipelineError::Candidates(m) => write!(f, "candidates: {m}"),
            PipelineError::Planning(m) => write!(f, "planning: {m}"),
            PipelineError::Execution(m) => write!(f, "execution: {m}"),
            PipelineError::Render(m) => write!(f, "render: {m}"),
            PipelineError::DeadlineExceeded { stage, budget } => {
                write!(f, "deadline exceeded at {stage} (budget {budget:?})")
            }
            PipelineError::StagePanic { stage, message } => {
                write!(f, "panic in {stage} stage: {message}")
            }
            PipelineError::FaultInjected { stage } => write!(f, "injected fault in {stage} stage"),
            PipelineError::Cancelled { stage } => {
                write!(f, "cancelled inside {stage} stage")
            }
            PipelineError::ResourceExhausted {
                stage,
                used,
                cap,
                global,
            } => write!(
                f,
                "{} memory cap exhausted in {stage} stage ({used} of {cap} bytes in use)",
                if *global { "global" } else { "per-request" },
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn errors_report_their_stage() {
        assert_eq!(PipelineError::Parse("x".into()).stage(), Stage::Translate);
        assert_eq!(PipelineError::Planning("x".into()).stage(), Stage::Plan);
        let e = PipelineError::DeadlineExceeded {
            stage: Stage::Execute,
            budget: Duration::from_secs(1),
        };
        assert_eq!(e.stage(), Stage::Execute);
        assert!(format!("{e}").contains("execute"));
    }

    #[test]
    fn transience_splits_input_from_dependency_failures() {
        assert!(PipelineError::Execution("io".into()).is_transient());
        assert!(PipelineError::FaultInjected {
            stage: Stage::Execute
        }
        .is_transient());
        assert!(PipelineError::StagePanic {
            stage: Stage::Plan,
            message: "x".into()
        }
        .is_transient());
        assert!(!PipelineError::Parse("bad sql".into()).is_transient());
        assert!(!PipelineError::Translate("gibberish".into()).is_transient());
        assert!(!PipelineError::DeadlineExceeded {
            stage: Stage::Plan,
            budget: Duration::from_secs(1),
        }
        .is_transient());
    }

    #[test]
    fn cancellation_and_exhaustion_are_typed_and_non_transient() {
        let c = PipelineError::Cancelled {
            stage: Stage::Execute,
        };
        assert_eq!(c.stage(), Stage::Execute);
        assert!(!c.is_transient(), "a retry cannot mint time");
        assert!(format!("{c}").contains("cancelled"));
        let r = PipelineError::ResourceExhausted {
            stage: Stage::Execute,
            used: 2048,
            cap: 1024,
            global: false,
        };
        assert_eq!(r.stage(), Stage::Execute);
        assert!(!r.is_transient(), "caps are structural");
        let msg = format!("{r}");
        assert!(msg.contains("per-request") && msg.contains("2048"), "{msg}");
        let g = PipelineError::ResourceExhausted {
            stage: Stage::Execute,
            used: 1,
            cap: 1,
            global: true,
        };
        assert!(format!("{g}").contains("global"));
    }
}
