//! Correctness and quality, recomputed outside the server: the candidates
//! a transcript must expand to, the values `dbms::execute_reference` says
//! each must have, and the paper's two outcome measures over a multiplot.

use crate::spec::{K, THETA_MS};
use crate::workload::{same_intent, Utterance};
use muve::core::{plan_with_deadline, Candidate, Multiplot};
use muve::dbms::{execute_reference, ExecOptions, Table};
use muve::nlq::{translate, CandidateGenerator};
use muve::pipeline::SessionConfig;
use std::time::Duration;

/// Relative tolerance of a value across the JSON round trip.
const TOLERANCE: f64 = 1e-12;

/// Regenerates interpretations for one table. Building the generator
/// scans every dictionary, so it is built once and shared.
pub struct Oracle<'a> {
    pub table: &'a Table,
    pub config: &'a SessionConfig,
    pub generator: CandidateGenerator,
}

impl<'a> Oracle<'a> {
    pub fn new(table: &'a Table, config: &'a SessionConfig) -> Oracle<'a> {
        Oracle {
            table,
            config,
            generator: CandidateGenerator::new(table),
        }
    }

    /// The candidate distribution the session must derive from
    /// `transcript`; `None` when the transcript cannot be interpreted (the
    /// session then answers with its text fallback).
    pub fn candidates(&self, transcript: &str) -> Option<Vec<Candidate>> {
        let base = translate(transcript.trim(), self.table).ok()?;
        let generated = self
            .generator
            .try_candidates(&base, K, self.config.max_candidates)
            .ok()?;
        Some(
            generated
                .into_iter()
                .map(|c| Candidate::new(c.query, c.probability))
                .collect(),
        )
    }

    /// Check one reply's per-candidate values. Exact replies must match
    /// the row-at-a-time reference executor on every non-null value;
    /// approximate ones only need to be finite.
    pub fn check(
        &self,
        transcript: &str,
        results: &[Option<f64>],
        approximate: bool,
    ) -> Result<(), String> {
        let candidates = self.candidates(transcript).ok_or_else(|| {
            format!("{transcript:?}: a multiplot for an uninterpretable transcript")
        })?;
        if candidates.len() != results.len() {
            return Err(format!(
                "{transcript:?}: {} values for {} candidates",
                results.len(),
                candidates.len()
            ));
        }
        for (candidate, value) in candidates.iter().zip(results) {
            let Some(value) = *value else { continue };
            if approximate {
                if !value.is_finite() {
                    return Err(format!("{transcript:?}: approximate value {value}"));
                }
                continue;
            }
            let reference =
                execute_reference(self.table, &candidate.query, None, ExecOptions::default())
                    .map_err(|e| format!("{}: reference failed: {e}", candidate.query.to_sql()))?
                    .scalar();
            if !reference.is_some_and(|r| close(r, value)) {
                return Err(format!(
                    "{transcript:?}: {} served {value}, reference {reference:?}",
                    candidate.query.to_sql()
                ));
            }
        }
        Ok(())
    }

    /// Check a reply body as it came over HTTP.
    pub fn check_body(&self, transcript: &str, body: &[u8]) -> Result<(), String> {
        let doc = std::str::from_utf8(body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
            .ok_or_else(|| format!("{transcript:?}: reply is not JSON"))?;
        let viz = &doc["visualization"];
        let serde_json::Value::Array(values) = &viz["results"] else {
            return Err(format!("{transcript:?}: reply carries no results"));
        };
        let results: Vec<Option<f64>> = values.iter().map(serde_json::Value::as_f64).collect();
        let approximate = viz["approximate"] != serde_json::Value::Bool(false);
        self.check(transcript, &results, approximate)
    }

    /// The paper's two outcomes for one utterance, planned as the session
    /// plans it: whether the intended query is among the candidates shown,
    /// and the expected disambiguation time of the multiplot. An
    /// uninterpretable transcript shows nothing and costs a miss.
    pub fn outcome(&self, utterance: &Utterance) -> (bool, f64) {
        let Some(candidates) = self.candidates(&utterance.transcript) else {
            return (false, self.config.model.d_miss());
        };
        let planned = plan_with_deadline(
            &self.config.planner,
            &candidates,
            &self.config.screen,
            &self.config.model,
            Duration::from_millis(THETA_MS),
        );
        self.judge(&utterance.intended, &candidates, &planned.multiplot)
    }

    /// The same two outcomes for a multiplot someone else planned.
    pub fn judge(
        &self,
        intended: &muve::dbms::Query,
        candidates: &[Candidate],
        multiplot: &Multiplot,
    ) -> (bool, f64) {
        let shown = multiplot
            .candidates_shown()
            .into_iter()
            .any(|i| same_intent(self.table, &candidates[i].query, intended));
        (
            shown,
            self.config.model.expected_cost(multiplot, candidates),
        )
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= TOLERANCE * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, Data};
    use crate::workload::{session_config, table, utterances};
    use muve::pipeline::{Session, Visualization};

    #[test]
    fn oracle_accepts_a_real_session_and_rejects_a_wrong_value() {
        let t = table(Data::Nyc311, 5_000, 3);
        let cfg = session_config(workload("scan_cold").unwrap());
        let oracle = Oracle::new(&t, &cfg);
        let mut checked = 0;
        for u in utterances(&t, 12, 3) {
            let out = Session::new(&t, cfg.clone()).run(&u.transcript);
            let Visualization::Multiplot {
                results,
                approximate,
                multiplot,
                ..
            } = &out.visualization
            else {
                continue;
            };
            oracle.check(&u.transcript, results, *approximate).unwrap();
            // The session's plan and the oracle's agree on both outcomes.
            assert_eq!(
                oracle.judge(&u.intended, &out.candidates, multiplot),
                oracle.outcome(&u)
            );
            let Some(i) = results.iter().position(Option::is_some) else {
                continue;
            };
            let mut wrong = results.clone();
            wrong[i] = wrong[i].map(|v| v + 1.0);
            assert!(oracle.check(&u.transcript, &wrong, false).is_err());
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1e9, 1e9 * (1.0 + 1e-13)));
        assert!(!close(1e9, 1e9 * (1.0 + 1e-9)));
        assert!(close(0.0, 0.0));
    }
}
