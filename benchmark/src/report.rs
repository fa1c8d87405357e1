//! Everything printed or saved: the `--list` catalogue, a run's metrics,
//! the result file of a full run with its `meta` block, and `compare`.

use crate::run::RunResult;
use crate::spec::{
    all_metrics, Better, Limit, Metric, CLIENTS, END_TO_END, ORACLE_EVERY, SETUPS, THETA_MS,
    WORKERS, WORKLOADS,
};
use serde_json::{json, Value};
use std::process::Command;

/// `--list`: every workload and every metric, without running anything.
pub fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        out.push_str(&format!(
            "  {:<12} rows {:>9}  pool {:>5}  cache {:>9} B  {}\n",
            w.name, w.rows, w.pool, w.cache_bytes, w.why
        ));
    }
    out.push_str("\nmetrics (name, unit, layer, better, bound across seeds, bound in `compare`)\n");
    for m in all_metrics() {
        let (across_seeds, fixed_seed) = match m.bound {
            Some(bound) => (
                show_limit(m, Limit::Share(bound)),
                show_limit(m, m.compare_limit()),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        out.push_str(&format!(
            "  {:<34} {:<8} {:<11} {:<7} {:<7} {:<11} {}\n",
            m.name,
            m.unit,
            m.layer,
            m.better.as_str(),
            across_seeds,
            fixed_seed,
            m.meaning
        ));
    }
    out
}

/// A limit as printed: the direction of worsening, then a share in percent
/// or an absolute amount.
fn show_limit(m: &Metric, limit: Limit) -> String {
    let sign = if m.better == Better::Lower { "+" } else { "-" };
    match limit {
        Limit::Share(share) => format!("{sign}{}%", share * 100.0),
        Limit::Absolute(amount) => format!("{sign}{amount} abs"),
    }
}

/// A run's metrics, one per line, by name with unit.
pub fn render(result: &RunResult) -> String {
    let mut out = format!(
        "# {}: attempted {}, failed {}\n",
        result.workload, result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        out.push_str(&format!("{name:<34} {value:>16.4} {unit}\n"));
    }
    for failure in result.failures.iter().take(8) {
        out.push_str(&format!("FAILED: {failure}\n"));
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What a result must carry to be comparable with another.
pub fn meta(seed: u64, window_s: u64) -> Value {
    let per_workload = |pick: fn(&crate::spec::Workload) -> f64| {
        Value::Object(
            WORKLOADS
                .iter()
                .map(|w| (w.name.to_owned(), Value::Number(pick(w))))
                .collect(),
        )
    };
    json!({
        "commit": command_line("git", &["rev-parse", "HEAD"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": command_line("rustc", &["-V"]),
        "seed": seed,
        "clients": CLIENTS,
        "workers": WORKERS,
        "theta_ms": THETA_MS,
        "window_s": window_s,
        "setups_per_run": SETUPS,
        "oracle_every": ORACLE_EVERY,
        "rows": per_workload(|w| w.rows as f64),
        "warmup_s": per_workload(|w| w.warmup_s as f64),
        "cache_bytes": per_workload(|w| w.cache_bytes as f64),
        "pool": per_workload(|w| w.pool as f64),
        "traced_requests": per_workload(|w| w.traced as f64),
    })
}

/// The result file of a full run: `meta` plus, per workload, both runs'
/// counts and every metric as a number.
pub fn result_file(meta: Value, runs: &[(Value, Value)]) -> Value {
    let workloads = WORKLOADS
        .iter()
        .zip(runs)
        .map(|(w, (end_to_end, per_layer))| {
            let mut metrics: Vec<(String, Value)> = Vec::new();
            for run in [end_to_end, per_layer] {
                if let Value::Object(entries) = &run["metrics"] {
                    metrics.extend(entries.iter().cloned());
                }
            }
            (
                w.name.to_owned(),
                json!({
                    "attempted": run_count(end_to_end, "attempted") + run_count(per_layer, "attempted"),
                    "failed": run_count(end_to_end, "failed") + run_count(per_layer, "failed"),
                    "metrics": Value::Object(metrics),
                }),
            )
        })
        .collect();
    json!({ "meta": meta, "workloads": Value::Object(workloads) })
}

fn run_count(run: &Value, key: &str) -> f64 {
    run[key].as_f64().unwrap_or(0.0)
}

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Worse than the bound allows, but by less than the runs' own
    /// slice-to-slice spread: unresolved, not unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `candidate` is than `base`, in the metric's unit
/// (negative = better).
fn worsening(m: &Metric, base: f64, candidate: f64) -> f64 {
    match m.better {
        Better::Lower => candidate - base,
        Better::Higher => base - candidate,
    }
}

/// `spread` is the runs' own noise as a share (`client.slice_spread`); it
/// can excuse only a measured time or rate, not one computed from a model.
fn judge(m: &Metric, base: f64, candidate: f64, spread: f64) -> Verdict {
    let worse = worsening(m, base, candidate);
    let allowed = match m.compare_limit() {
        Limit::Share(share) => share * base.abs(),
        Limit::Absolute(amount) => amount,
    };
    let timed = m.fixed_seed.is_none() && matches!(m.unit, "s" | "ms" | "1/s");
    if worse <= allowed {
        Verdict::Ok
    } else if timed && worse <= spread * base.abs() {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn metric_value(file: &Value, workload: &str, metric: &str) -> Option<f64> {
    file["workloads"][workload]["metrics"][metric]["value"].as_f64()
}

/// `compare`: one row per (workload, end-to-end metric) with both values,
/// the delta as a ratio with its base, the bound and the verdict. Returns
/// the Markdown table and whether anything regressed, or why the two files
/// cannot be compared: they must come from the same inputs (seed) and the
/// same window, or a difference says nothing about the code.
pub fn compare(base: &Value, candidate: &Value) -> Result<(String, bool), String> {
    for key in ["seed", "window_s"] {
        let (a, b) = (&base["meta"][key], &candidate["meta"][key]);
        if a != b || a.as_f64().is_none() {
            return Err(format!("the two files differ in `{key}`: {a} and {b}"));
        }
    }
    let describe = |file: &Value| {
        format!(
            "commit {} · seed {} · {} s windows · nproc {} · {}",
            file["meta"]["commit"].as_str().unwrap_or("?"),
            file["meta"]["seed"].as_f64().unwrap_or(f64::NAN),
            file["meta"]["window_s"].as_f64().unwrap_or(f64::NAN),
            file["meta"]["nproc"].as_f64().unwrap_or(f64::NAN),
            file["meta"]["rustc"].as_str().unwrap_or("?"),
        )
    };
    let mut out = format!(
        "base: {}\ncandidate: {}\n\n\
         | workload | metric | unit | base | candidate | delta (candidate/base - 1) | bound | slice spread | verdict |\n\
         |---|---|---|---:|---:|---:|---:|---:|---|\n",
        describe(base),
        describe(candidate)
    );
    let mut regressed = false;
    for w in WORKLOADS {
        // The noisier of the two runs' own spreads.
        let spread = [base, candidate]
            .iter()
            .filter_map(|f| metric_value(f, w.name, "client.slice_spread"))
            .fold(0.0, f64::max);
        for m in END_TO_END {
            let (Some(a), Some(b)) = (
                metric_value(base, w.name, m.name),
                metric_value(candidate, w.name, m.name),
            ) else {
                out.push_str(&format!(
                    "| {} | {} | {} | missing | missing | | | | regressed |\n",
                    w.name, m.name, m.unit
                ));
                regressed = true;
                continue;
            };
            let verdict = judge(m, a, b, spread);
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:.4} | {:+.2}% of {:.4} | {} | {:.1}% | {} |\n",
                w.name,
                m.name,
                m.unit,
                a,
                b,
                (b / a - 1.0) * 100.0,
                a,
                show_limit(m, m.compare_limit()),
                spread * 100.0,
                verdict.as_str(),
            ));
        }
        for count in ["failed", "attempted"] {
            let read = |f: &Value| f["workloads"][w.name][count].as_f64().unwrap_or(f64::NAN);
            let (a, b) = (read(base), read(candidate));
            let bad = count == "failed" && b > a;
            regressed |= bad;
            out.push_str(&format!(
                "| {} | {count} | count | {a} | {b} | | | | {} |\n",
                w.name,
                if bad { "regressed" } else { "ok" }
            ));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file in which every end-to-end metric reads 10 and the slice
    /// spread 2%, except for `overrides`.
    fn file(overrides: &[(&str, f64)], failed: f64) -> Value {
        let mut metrics: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(["client.slice_spread"])
            .map(|name| {
                let value = overrides
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(10.0, |(_, v)| *v);
                (name.to_owned(), json!({ "value": value, "unit": "x" }))
            })
            .collect();
        if !overrides.iter().any(|(k, _)| *k == "client.slice_spread") {
            metrics.last_mut().unwrap().1 = json!({ "value": 0.02, "unit": "ratio" });
        }
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                (
                    w.name.to_owned(),
                    json!({ "attempted": 100.0, "failed": failed, "metrics": Value::Object(metrics.clone()) }),
                )
            })
            .collect();
        json!({ "meta": meta(1, 10), "workloads": Value::Object(workloads) })
    }

    fn regressed(base: &Value, candidate: &Value) -> bool {
        compare(base, candidate).unwrap().1
    }

    #[test]
    fn compare_separates_ok_regressed_and_unresolved() {
        let timings = |p50: f64, qps: f64, spread: f64| {
            file(
                &[
                    ("latency_p50_ms", p50),
                    ("throughput_qps", qps),
                    ("client.slice_spread", spread),
                ],
                0.0,
            )
        };
        let base = timings(10.0, 100.0, 0.02);
        assert!(!regressed(&base, &base));
        // +10% latency and -10% throughput are inside the bounds.
        assert!(!regressed(&base, &timings(11.0, 90.0, 0.02)));
        // +40% latency is outside the bound and outside the spread.
        let (table, bad) = compare(&base, &timings(14.0, 100.0, 0.02)).unwrap();
        assert!(bad && table.contains("regressed"));
        // ... but inside a 50% slice spread it is unresolved, not regressed.
        let (table, bad) = compare(&base, &timings(14.0, 100.0, 0.50)).unwrap();
        assert!(!bad && table.contains("unresolved"));
        // Throughput is better when higher.
        assert!(regressed(&base, &timings(10.0, 60.0, 0.02)));
        assert!(!regressed(&base, &timings(10.0, 150.0, 0.02)));
        // A new failure regresses whatever the timings say.
        assert!(regressed(&base, &file(&[], 1.0)));
    }

    #[test]
    fn compare_holds_the_deterministic_metrics_to_their_tight_limits() {
        // No slice spread excuses a metric that is not timed.
        let with =
            |name: &str, value: f64| file(&[(name, value), ("client.slice_spread", 0.5)], 0.0);
        // -0.01 absolute on the shown ratio, +1% on the disambiguation time.
        let base = with("intended_shown_ratio", 0.52);
        assert!(!regressed(&base, &with("intended_shown_ratio", 0.511)));
        assert!(regressed(&base, &with("intended_shown_ratio", 0.505)));
        let base = with("expected_disambiguation_ms", 4000.0);
        assert!(!regressed(
            &base,
            &with("expected_disambiguation_ms", 4039.0)
        ));
        assert!(regressed(
            &base,
            &with("expected_disambiguation_ms", 4041.0)
        ));
        // Any drop of ok_ratio regresses; deadline_met_ratio may lose 0.005.
        let base = with("ok_ratio", 1.0);
        assert!(regressed(&base, &with("ok_ratio", 0.9999)));
        let base = with("deadline_met_ratio", 1.0);
        assert!(!regressed(&base, &with("deadline_met_ratio", 0.996)));
        assert!(regressed(&base, &with("deadline_met_ratio", 0.994)));
    }

    #[test]
    fn compare_refuses_files_from_different_inputs() {
        let a = file(&[], 0.0);
        let b = json!({ "meta": meta(2, 10), "workloads": a["workloads"] });
        assert!(compare(&a, &b).unwrap_err().contains("seed"));
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in all_metrics() {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }
}
