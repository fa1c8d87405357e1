//! Deterministic fault injection for pipeline robustness testing.
//!
//! A [`FaultInjector`] carries at most one [`StageFault`] per [`Stage`] and
//! is threaded through [`Session::run`](crate::Session::run). Faults are
//! planted either explicitly ([`FaultInjector::with`], or parsed from a
//! CLI spec via [`FaultInjector::parse`]) or drawn deterministically from a
//! seed ([`FaultInjector::from_seed`]), so every fault plan in the test
//! suite is reproducible from a single integer.
//!
//! Latency, error and panic faults are **one-shot** by default: the first
//! time a stage trips its fault the fault is consumed, so a retry (e.g.
//! the execution sample ladder escalating, or the planner ladder falling
//! back to greedy) runs clean — which is exactly the transient-failure
//! model the degradation ladder is designed around. A fault with a
//! [`probability`](StageFault::probability) is **intermittent** instead:
//! every trip rolls a seeded RNG and fires with probability `p`, and the
//! fault is *never* consumed — the flaky-dependency model the serving
//! layer's chaos soak drives. The solver-stall fault is
//! configuration-shaped rather than control-flow-shaped (it clamps the ILP
//! node budget so the solver gives up without an incumbent) and applies to
//! every ILP restart of the run.

use crate::error::{PipelineError, Stage};
use muve_obs::{fault_clauses, FaultSpecError, FaultSpecReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The fault plan for one stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageFault {
    /// Sleep this long at stage entry (models a slow dependency).
    pub latency: Option<Duration>,
    /// Fail the stage with [`PipelineError::FaultInjected`].
    pub error: bool,
    /// Panic inside the stage body (must be caught at the stage boundary).
    pub panic: bool,
    /// Panic with an [`EscapedPanic`] payload that the session's stage
    /// guard deliberately re-raises instead of catching — the panic
    /// unwinds through [`Session::run`](crate::Session::run) and kills the
    /// calling thread. Models a worker that dies mid-request; only the
    /// serve watchdog's respawn path keeps the pool whole.
    pub panic_escape: bool,
    /// Plan stage only: clamp the ILP node budget to near zero, so the
    /// solver behaves like a stalled MIP search that never finds an
    /// incumbent within its budget.
    pub stall_solver: bool,
    /// `None`: the fault is one-shot (fires once, then is consumed).
    /// `Some(p)`: the fault is intermittent — every trip fires with
    /// probability `p` (from the injector's seeded RNG) and the fault is
    /// never consumed. `Some(1.0)` is a *persistent* fault.
    pub probability: Option<f64>,
}

impl StageFault {
    fn is_noop(&self) -> bool {
        self.latency.is_none()
            && !self.error
            && !self.panic
            && !self.panic_escape
            && !self.stall_solver
    }
}

/// The marker payload of a `panic_escape` fault. The session's panic guard
/// downcasts every caught payload and re-raises this one via
/// [`std::panic::resume_unwind`], so the panic escapes the pipeline's
/// otherwise-total panic isolation and kills the thread running the
/// session — which is the point: it lets the chaos suites prove the serve
/// watchdog detects dead workers and respawns them.
#[derive(Debug)]
pub struct EscapedPanic {
    /// Stage the fault was planted in.
    pub stage: Stage,
}

/// A per-stage fault plan, deterministic and thread-safe.
#[derive(Debug)]
pub struct FaultInjector {
    plans: [Option<StageFault>; 5],
    /// Bitmask of stages whose one-shot fault has already fired.
    consumed: AtomicU8,
    /// Seed of the intermittent-fault RNG (kept so clones restart the
    /// same deterministic sequence).
    trip_seed: u64,
    /// RNG behind intermittent ([`StageFault::probability`]) faults.
    trip_rng: Mutex<StdRng>,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector {
            plans: Default::default(),
            consumed: AtomicU8::new(0),
            trip_seed: 0,
            trip_rng: Mutex::new(StdRng::seed_from_u64(0)),
        }
    }
}

impl Clone for FaultInjector {
    fn clone(&self) -> FaultInjector {
        FaultInjector {
            plans: self.plans.clone(),
            consumed: AtomicU8::new(self.consumed.load(Ordering::Relaxed)),
            trip_seed: self.trip_seed,
            // The clone restarts the seed's deterministic trip sequence
            // rather than continuing the original's.
            trip_rng: Mutex::new(StdRng::seed_from_u64(self.trip_seed)),
        }
    }
}

impl FaultInjector {
    /// No faults: every stage runs clean.
    pub fn none() -> FaultInjector {
        FaultInjector::default()
    }

    /// Plant `fault` in `stage` (replacing any previous plan for it).
    pub fn with(mut self, stage: Stage, fault: StageFault) -> FaultInjector {
        self.plans[stage.index()] = if fault.is_noop() { None } else { Some(fault) };
        self
    }

    /// Draw a deterministic fault plan from a seed. Per-stage probabilities
    /// are calibrated so most seeds produce one or two faults: latency 25%
    /// (5–40 ms), error 15%, panic 12%, and a 20% solver stall on the plan
    /// stage.
    pub fn from_seed(seed: u64) -> FaultInjector {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = FaultInjector::none();
        for stage in Stage::ALL {
            let fault = StageFault {
                latency: rng
                    .gen_bool(0.25)
                    .then(|| Duration::from_millis(rng.gen_range(5..40))),
                error: rng.gen_bool(0.15),
                panic: rng.gen_bool(0.12),
                // Seed-drawn plans never escape panics: they run in plain
                // sessions with no watchdog to respawn the thread.
                panic_escape: false,
                stall_solver: stage == Stage::Plan && rng.gen_bool(0.20),
                probability: None,
            };
            out = out.with(stage, fault);
        }
        out
    }

    /// Replace the seed of the RNG behind intermittent
    /// ([`StageFault::probability`]) faults. One-shot faults ignore it.
    pub fn with_trip_seed(mut self, seed: u64) -> FaultInjector {
        self.trip_seed = seed;
        self.trip_rng = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// A one-line usage hint suitable for a CLI or an HTTP 400 body.
    pub fn usage_hint() -> &'static str {
        "expected stage:kind[,stage:kind...] with stage in \
         translate|candidates|plan|execute|render and kind in \
         error|panic|panic_escape|stall|latency=MS, optionally @p=<0..1>"
    }

    /// Parse a CLI fault spec in the shared clause grammar
    /// ([`muve_obs::FaultClause`]): comma-separated `stage:kind` clauses
    /// where `kind` is `error`, `panic`, `panic_escape`, `stall`, or
    /// `latency=<ms>`, optionally suffixed `@p=<prob>` to make the stage's
    /// fault plan *intermittent* (it fires with probability `p` on every
    /// trip instead of once). Clauses naming the same stage accumulate.
    ///
    /// Examples: `plan:panic,execute:error,translate:latency=200`,
    /// `execute:error@p=0.3`, `plan:stall,execute:latency=20@p=0.5`.
    pub fn parse(spec: &str) -> Result<FaultInjector, FaultSpecError> {
        let mut out = FaultInjector::none();
        for clause in fault_clauses(spec) {
            let clause = clause?;
            let stage = Stage::parse(clause.target)
                .ok_or_else(|| clause.error(FaultSpecReason::UnknownTarget))?;
            let mut fault = out.plans[stage.index()].clone().unwrap_or_default();
            fault.probability = clause.probability.or(fault.probability);
            match (clause.kind, clause.arg) {
                ("error", None) => fault.error = true,
                ("panic", None) => fault.panic = true,
                ("panic_escape", None) => fault.panic_escape = true,
                ("stall", None) if stage == Stage::Plan => fault.stall_solver = true,
                ("stall", None) => return Err(clause.error(FaultSpecReason::NotApplicable)),
                ("latency", _) => fault.latency = Some(clause.millis()?),
                _ => return Err(clause.error(FaultSpecReason::UnknownKind)),
            }
            out = out.with(stage, fault);
        }
        Ok(out)
    }

    /// Whether no faults are planted at all.
    pub fn is_empty(&self) -> bool {
        self.plans.iter().all(Option::is_none)
    }

    /// The plan for `stage`, if any.
    pub fn fault(&self, stage: Stage) -> Option<&StageFault> {
        self.plans[stage.index()].as_ref()
    }

    /// Whether any stage has a panic planted (used to decide whether panic
    /// output needs suppressing for the run).
    pub fn any_panic(&self) -> bool {
        self.plans
            .iter()
            .flatten()
            .any(|f| f.panic || f.panic_escape)
    }

    /// Whether the plan stage should emulate a stalled solver.
    pub fn solver_stall(&self) -> bool {
        self.fault(Stage::Plan).is_some_and(|f| f.stall_solver)
    }

    /// Fire `stage`'s fault, if it has one that should fire now: sleep the
    /// injected latency, then panic or return the injected error. One-shot
    /// faults (no [`probability`](StageFault::probability)) fire exactly
    /// once; intermittent faults roll the seeded RNG on every call and are
    /// never consumed. Must be called *inside* the stage body so the panic
    /// is caught at the stage boundary.
    pub fn trip(&self, stage: Stage) -> Result<(), PipelineError> {
        let Some(fault) = self.fault(stage) else {
            return Ok(());
        };
        match fault.probability {
            Some(p) => {
                let fire = self
                    .trip_rng
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .gen_bool(p);
                if !fire {
                    return Ok(()); // the dice spared this trip
                }
            }
            None => {
                let bit = 1u8 << stage.index();
                if self.consumed.fetch_or(bit, Ordering::Relaxed) & bit != 0 {
                    return Ok(()); // already fired
                }
            }
        }
        if let Some(d) = fault.latency {
            std::thread::sleep(d);
        }
        if fault.panic_escape {
            std::panic::panic_any(EscapedPanic { stage });
        }
        if fault.panic {
            panic!("injected panic in {stage} stage");
        }
        if fault.error {
            return Err(PipelineError::FaultInjected { stage });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..100u64 {
            let a = FaultInjector::from_seed(seed);
            let b = FaultInjector::from_seed(seed);
            assert_eq!(a.plans, b.plans, "seed {seed}");
        }
        // Across 100 seeds, at least one plan of each kind must appear.
        let plans: Vec<FaultInjector> = (0..100).map(FaultInjector::from_seed).collect();
        assert!(plans.iter().any(|p| p.any_panic()));
        assert!(plans.iter().any(|p| p.solver_stall()));
        assert!(plans.iter().any(FaultInjector::is_empty));
        assert!(plans
            .iter()
            .any(|p| p.plans.iter().flatten().any(|f| f.error)));
    }

    #[test]
    fn trip_is_one_shot() {
        let inj = FaultInjector::none().with(
            Stage::Execute,
            StageFault {
                error: true,
                ..Default::default()
            },
        );
        assert!(matches!(
            inj.trip(Stage::Execute),
            Err(PipelineError::FaultInjected {
                stage: Stage::Execute
            })
        ));
        assert!(
            inj.trip(Stage::Execute).is_ok(),
            "fault consumed after first fire"
        );
        assert!(inj.trip(Stage::Plan).is_ok(), "unplanned stage never trips");
    }

    #[test]
    fn trip_panics_when_planted() {
        let inj = FaultInjector::none().with(
            Stage::Plan,
            StageFault {
                panic: true,
                ..Default::default()
            },
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.trip(Stage::Plan)));
        assert!(r.is_err());
        // One-shot: a retry does not panic again.
        assert!(inj.trip(Stage::Plan).is_ok());
    }

    #[test]
    fn parse_roundtrip() {
        let inj = FaultInjector::parse("plan:panic, execute:error,translate:latency=200").unwrap();
        assert!(inj.fault(Stage::Plan).unwrap().panic);
        assert!(inj.fault(Stage::Execute).unwrap().error);
        assert_eq!(
            inj.fault(Stage::Translate).unwrap().latency,
            Some(Duration::from_millis(200))
        );
        for (bad, why) in [
            ("bogus:error", FaultSpecReason::UnknownTarget),
            ("plan:frobnicate", FaultSpecReason::UnknownKind),
            ("plan:error=5", FaultSpecReason::UnknownKind),
            ("execute:stall", FaultSpecReason::NotApplicable), // plan-only
            ("translate:latency=soon", FaultSpecReason::BadArgument),
            ("plainitem", FaultSpecReason::MissingSeparator),
            ("execute:error@p=1.5", FaultSpecReason::BadProbability),
        ] {
            let err = FaultInjector::parse(bad).unwrap_err();
            assert_eq!((err.reason, err.clause.as_str()), (why, bad));
        }
        assert!(!FaultInjector::usage_hint().contains('\n'));
        assert!(FaultInjector::parse("").unwrap().is_empty());
        // Specs without a probability suffix stay one-shot (legacy).
        assert_eq!(inj.fault(Stage::Plan).unwrap().probability, None);
    }

    #[test]
    fn panic_escape_carries_the_marker_payload() {
        let inj = FaultInjector::parse("execute:panic_escape@p=1").unwrap();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.trip(Stage::Execute)))
                .expect_err("panic_escape must panic");
        let escaped = payload
            .downcast_ref::<EscapedPanic>()
            .expect("payload is the EscapedPanic marker");
        assert_eq!(escaped.stage, Stage::Execute);
        assert!(inj.any_panic(), "escape panics engage quiet-panic mode");
    }

    #[test]
    fn parse_probability_suffix() {
        let inj = FaultInjector::parse("execute:error@p=0.3, plan:latency=20@p=0.5").unwrap();
        let exec = inj.fault(Stage::Execute).unwrap();
        assert!(exec.error);
        assert_eq!(exec.probability, Some(0.3));
        let plan = inj.fault(Stage::Plan).unwrap();
        assert_eq!(plan.latency, Some(Duration::from_millis(20)));
        assert_eq!(plan.probability, Some(0.5));
    }

    #[test]
    fn intermittent_faults_fire_repeatedly_and_deterministically() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::parse("execute:error@p=0.4")
                .unwrap()
                .with_trip_seed(seed);
            (0..64).map(|_| inj.trip(Stage::Execute).is_err()).collect()
        };
        let a = fire_pattern(7);
        let b = fire_pattern(7);
        assert_eq!(a, b, "same seed, same trip sequence");
        let fires = a.iter().filter(|&&f| f).count();
        assert!(
            (8..=44).contains(&fires),
            "p=0.4 over 64 trips fired {fires} times"
        );
        // Not one-shot: it keeps firing after the first hit.
        let first = a.iter().position(|&f| f).unwrap();
        assert!(
            a[first + 1..].iter().any(|&f| f),
            "an intermittent fault is never consumed"
        );
        // A clone restarts the same deterministic sequence.
        let inj = FaultInjector::parse("execute:error@p=0.4")
            .unwrap()
            .with_trip_seed(7);
        let _ = inj.trip(Stage::Execute);
        let cloned = inj.clone();
        let replay: Vec<bool> = (0..64)
            .map(|_| cloned.trip(Stage::Execute).is_err())
            .collect();
        assert_eq!(replay, a);
    }

    #[test]
    fn persistent_fault_always_fires() {
        let inj = FaultInjector::parse("plan:error@p=1").unwrap();
        for _ in 0..16 {
            assert!(inj.trip(Stage::Plan).is_err(), "p=1 fires on every trip");
        }
        let never = FaultInjector::parse("plan:error@p=0.0").unwrap();
        for _ in 0..16 {
            assert!(never.trip(Stage::Plan).is_ok(), "p=0 never fires");
        }
    }
}
