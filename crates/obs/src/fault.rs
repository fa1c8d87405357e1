//! The fault-spec clause grammar shared by every fault injector.
//!
//! A spec is a comma-separated list of clauses:
//!
//! ```text
//! <target>:<kind>[=<arg>][@p=<0..=1>]
//! ```
//!
//! This module owns the splitting, the probability range check, the
//! `=<millis>` argument parser and the one typed [`FaultSpecError`]. What
//! a `<target>` names (a pipeline stage, a `shard.replica` coordinate),
//! which `<kind>`s exist, and what an absent `@p=` means are the
//! injectors' business — as are their seeded RNGs.

use std::fmt;
use std::time::Duration;

/// One parsed clause of a fault spec. All parts are whitespace-trimmed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClause<'a> {
    /// The clause as written (for error messages).
    pub text: &'a str,
    /// What the fault is planted on.
    pub target: &'a str,
    /// The fault kind, without its argument.
    pub kind: &'a str,
    /// The text after `=`, if any.
    pub arg: Option<&'a str>,
    /// The `@p=` suffix, range-checked to `[0, 1]`.
    pub probability: Option<f64>,
}

impl<'a> FaultClause<'a> {
    /// Parse one clause.
    pub fn parse(text: &'a str) -> Result<FaultClause<'a>, FaultSpecError> {
        let text = text.trim();
        let error = |reason| FaultSpecError {
            reason,
            clause: text.to_owned(),
        };
        let (target, rest) = text
            .split_once(':')
            .ok_or_else(|| error(FaultSpecReason::MissingSeparator))?;
        let (body, probability) = match rest.split_once('@') {
            Some((body, suffix)) => {
                let p = suffix
                    .trim()
                    .strip_prefix("p=")
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| error(FaultSpecReason::BadProbability))?;
                (body, Some(p))
            }
            None => (rest, None),
        };
        let (kind, arg) = match body.split_once('=') {
            Some((kind, arg)) => (kind, Some(arg.trim())),
            None => (body, None),
        };
        Ok(FaultClause {
            text,
            target: target.trim(),
            kind: kind.trim(),
            arg,
            probability,
        })
    }

    /// The argument as whole milliseconds (`latency=<ms>`).
    pub fn millis(&self) -> Result<Duration, FaultSpecError> {
        self.arg
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .ok_or_else(|| self.error(FaultSpecReason::BadArgument))
    }

    /// This clause rejected for `reason`.
    pub fn error(&self, reason: FaultSpecReason) -> FaultSpecError {
        FaultSpecError {
            reason,
            clause: self.text.to_owned(),
        }
    }
}

/// The non-empty clauses of `spec`, each parsed.
pub fn fault_clauses(spec: &str) -> impl Iterator<Item = Result<FaultClause<'_>, FaultSpecError>> {
    spec.split(',')
        .filter(|c| !c.trim().is_empty())
        .map(FaultClause::parse)
}

/// Why a clause was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpecReason {
    /// No `:` separates target from kind.
    MissingSeparator,
    /// The injector does not know the target.
    UnknownTarget,
    /// The injector does not know the kind.
    UnknownKind,
    /// The kind's `=<arg>` is missing or is not whole milliseconds.
    BadArgument,
    /// The `@` suffix is not `p=<probability in [0, 1]>`.
    BadProbability,
    /// The kind exists but cannot be planted on this target.
    NotApplicable,
}

/// A malformed fault spec. Typed so front-ends (CLI flags, `\inject`,
/// HTTP query parameters) can print the injector's one-line usage hint
/// instead of aborting — fault injection is an operator tool, and a typo
/// in a spec must never take the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// What was wrong.
    pub reason: FaultSpecReason,
    /// The offending clause, as written.
    pub clause: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.reason {
            FaultSpecReason::MissingSeparator => "expected target:kind",
            FaultSpecReason::UnknownTarget => "unknown target",
            FaultSpecReason::UnknownKind => "unknown fault kind",
            FaultSpecReason::BadArgument => "expected =<whole milliseconds>",
            FaultSpecReason::BadProbability => "expected @p=<0..1>",
            FaultSpecReason::NotApplicable => "this kind does not apply to this target",
        };
        write!(f, "bad fault clause {:?}: {why}", self.clause)
    }
}

impl std::error::Error for FaultSpecError {}

#[cfg(test)]
mod tests {
    use super::FaultSpecReason::{BadArgument, BadProbability, MissingSeparator};
    use super::*;

    #[test]
    fn splits_target_kind_argument_and_probability() {
        let clauses: Vec<_> = fault_clauses("plan:panic, *.0:latency=5@p=0.25 ,,")
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(clauses.len(), 2, "empty clauses are skipped");
        let (plain, full) = (clauses[0], clauses[1]);
        assert_eq!(
            (plain.target, plain.kind, plain.arg),
            ("plan", "panic", None)
        );
        assert_eq!(plain.probability, None);
        assert_eq!((full.target, full.kind), ("*.0", "latency"));
        assert_eq!(full.millis(), Ok(Duration::from_millis(5)));
        assert_eq!(full.probability, Some(0.25));
        for (p, want) in [("1", 1.0), ("0.0", 0.0)] {
            let text = format!("x:error@p={p}");
            assert_eq!(FaultClause::parse(&text).unwrap().probability, Some(want));
        }
    }

    #[test]
    fn malformed_clauses_are_typed() {
        let reason = |text: &str| FaultClause::parse(text).map(|_| ()).map_err(|e| e.reason);
        assert_eq!(reason("plainitem"), Err(MissingSeparator));
        for bad in ["p=1.5", "p=-0.1", "p=abc", "p=", "p=NaN", "", "q=0.3"] {
            assert_eq!(
                reason(&format!("x:error@{bad}")),
                Err(BadProbability),
                "{bad:?}"
            );
        }
        for bad in ["x:latency=abc", "x:latency"] {
            let err = FaultClause::parse(bad).unwrap().millis().unwrap_err();
            assert_eq!((err.reason, err.clause.as_str()), (BadArgument, bad));
            assert!(err.to_string().contains(bad), "{err}");
        }
    }
}
