//! One run of one workload: set-up, warm-up, the measured HTTP window,
//! the correctness checks, and either the end-to-end metrics (`--trace 0`)
//! or the traced pass and the per-layer metrics (`--trace 1`).

use crate::client::{drive, ClientRun, Conn, Sample, Verdict};
use crate::oracle::Oracle;
use crate::par::parallel_map;
use crate::spec::{Workload, CLIENTS, END_TO_END, ORACLE_EVERY, PER_LAYER, SETUPS};
use crate::stats::{mean, median, percentile, ratio};
use crate::system::{setup, System};
use crate::trace::{self, traced_pass, write_spans};
use std::collections::BTreeMap;
use std::time::Duration;

/// What one run reports: the driver's result line, in memory.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// First few failure descriptions, for the human reading the log.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's last-line JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        let metrics: Vec<(String, serde_json::Value)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    serde_json::json!({ "value": value, "unit": unit }),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    }
}

/// The measured window is cut into this many equal slices; how far apart
/// their median latencies lie is the run's own spread.
const SLICES: usize = 20;

/// The measured HTTP window of one run, summarised. Everything covers the
/// whole window: no sample is left out for being slow.
struct Window {
    sent: u64,
    /// 200s on their planned rung with exact values.
    ok: u64,
    /// Non-200, shed, malformed.
    failed: u64,
    /// Failed, degraded, or slower than theta at the client.
    missed: u64,
    /// Of every request that got a well-formed reply.
    latencies_ms: Vec<f64>,
    http_overhead_us: f64,
    /// Interquartile range / median of the slices' median latencies.
    slice_spread: f64,
}

fn summarise(runs: &[ClientRun], window: Duration) -> Window {
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let count = |pred: fn(&Sample) -> bool| samples.iter().filter(|s| pred(s)).count() as u64;
    let ms = |s: &Sample| s.latency.as_secs_f64() * 1e3;
    let answered: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.verdict != Verdict::Failed)
        .copied()
        .collect();
    let overheads: Vec<f64> = answered
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e6 - s.server_ms * 1e3)
        .collect();
    let slice_s = window.as_secs_f64() / SLICES as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for s in &answered {
        slices[((s.at.as_secs_f64() / slice_s) as usize).min(SLICES - 1)].push(ms(s));
    }
    let slice_medians: Vec<f64> = slices
        .iter()
        .filter(|slice| !slice.is_empty())
        .map(|slice| median(slice))
        .collect();
    let spread = percentile(&slice_medians, 0.75) - percentile(&slice_medians, 0.25);
    Window {
        sent: samples.len() as u64,
        ok: count(|s| s.verdict == Verdict::Ok),
        failed: count(|s| s.verdict == Verdict::Failed),
        missed: count(Sample::missed),
        latencies_ms: answered.iter().map(|s| ms(s)).collect(),
        http_overhead_us: median(&overheads),
        slice_spread: ratio(spread, median(&slice_medians)),
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the traced pass writes its spans.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Fetch over HTTP the reply to each request of the traced sequence, so the
/// traced pass encodes documents `muve-net` really built.
fn traced_replies(system: &System, sequence: &[u32]) -> Vec<serde_json::Value> {
    let mut conn = Conn::new(system.net.local_addr());
    sequence
        .iter()
        .map(|&i| {
            let (status, body) = conn
                .roundtrip(&system.inputs.wires[i as usize])
                .unwrap_or_else(|e| panic!("traced request {i}: {e}"));
            assert_eq!(status, 200, "traced request {i} refused");
            serde_json::from_str(&String::from_utf8_lossy(body))
                .unwrap_or_else(|e| panic!("traced request {i}: reply is not JSON: {e}"))
        })
        .collect()
}

/// Run workload `w` once.
pub fn run(w: &'static Workload, seed: u64, window: Duration, traced: bool) -> RunResult {
    let utterances_needed = if traced {
        w.pool
    } else {
        w.pool.max(w.quality)
    };
    let system = setup(w, seed, utterances_needed, None);
    let mut setups_s = vec![system.setup.as_secs_f64()];

    // Warm-up, then the measured window, tracing off.
    let keep_every = if traced { 0 } else { ORACLE_EVERY };
    let runs = drive(
        system.net.local_addr(),
        &system.inputs.wires,
        &system.inputs.orders,
        Duration::from_secs(w.warmup_s),
        window,
        keep_every,
    );
    let sequence = trace::sequence(w, &system.inputs);
    let replies = if traced {
        traced_replies(&system, &sequence)
    } else {
        Vec::new()
    };
    let System {
        table,
        config,
        caches,
        net,
        mut inputs,
        generate,
        ..
    } = system;
    let report = net.shutdown();
    // Before the oracle, the quality pass and the repeated set-ups below
    // add the benchmark's own memory to the high-water mark.
    let peak_rss_mb = peak_rss_mb();

    // Descriptions for the reader; `failed` counts operations.
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    if !report.reconciled || report.stragglers > 0 {
        failed += 1;
        failures.push(format!(
            "server drain: reconciled={} stragglers={} ({})",
            report.reconciled, report.stragglers, report.stats
        ));
    }
    let oracle = Oracle::new(&table, &config);
    let http = summarise(&runs, window);
    failed += http.missed;
    let mut attempted = http.sent;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    if traced {
        let pass = traced_pass(w, &table, &oracle, &inputs, &sequence, &replies);
        std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
        write_spans(
            &out_dir().join(format!("trace-{}.json", w.name)),
            w.name,
            &pass.spans,
        )
        .expect("write the trace file");
        attempted += pass.attempted;
        failed += pass.failures.len() as u64;
        failures.extend(pass.failures);
        values.extend(pass.metrics);
        // Failed outright, as opposed to late or degraded.
        let broken = failed - http.missed + http.failed;
        values.extend([
            ("net.http_overhead_us", http.http_overhead_us),
            (
                "serve.retries",
                (report.stats.retries + pass.retries) as f64,
            ),
            ("serve.shed", (report.stats.shed + pass.shed) as f64),
            (
                "cache.singleflight_waits",
                caches.map_or(0, |c| c.stats().singleflight_waits) as f64,
            ),
            ("data.generate_ms", generate.as_secs_f64() * 1e3),
            ("data.rows", table.num_rows() as f64),
            ("client.sent", http.sent as f64),
            ("client.ok", http.ok as f64),
            ("client.failed", broken as f64),
            (
                "client.failed_ratio",
                ratio(broken as f64, attempted as f64),
            ),
            (
                "client.deadline_miss_ratio",
                ratio(http.missed as f64, http.sent as f64),
            ),
            ("client.aliases_skipped", inputs.skipped.len() as f64),
            (
                "client.latency_p99_ms",
                percentile(&http.latencies_ms, 0.99),
            ),
            ("client.slice_spread", http.slice_spread),
        ]);
    } else {
        let utterances = &inputs.utterances;
        // The oracle, over the replies the clients kept.
        let kept: Vec<&(u32, Vec<u8>)> = runs.iter().flat_map(|r| &r.kept).collect();
        let mismatches: Vec<String> = parallel_map(&kept, CLIENTS, |(index, body)| {
            oracle.check_body(&utterances[*index as usize].transcript, body)
        })
        .into_iter()
        .filter_map(Result::err)
        .collect();
        let mismatched = mismatches.len() as u64;
        failed += mismatched;
        failures.extend(mismatches);
        // The paper's two outcomes, over the head of the utterance stream.
        let outcomes = parallel_map(&utterances[..w.quality], CLIENTS, |u| oracle.outcome(u));
        let shown = outcomes.iter().filter(|(shown, _)| *shown).count();
        let costs: Vec<f64> = outcomes.iter().map(|(_, cost)| *cost).collect();
        let sent = http.sent as f64;
        values.extend([
            ("latency_p50_ms", median(&http.latencies_ms)),
            ("latency_p95_ms", percentile(&http.latencies_ms, 0.95)),
            (
                "throughput_qps",
                ratio(http.ok as f64, window.as_secs_f64()),
            ),
            (
                "ok_ratio",
                1.0 - ratio((http.failed + mismatched) as f64, sent),
            ),
            (
                "deadline_met_ratio",
                1.0 - ratio((http.missed + mismatched) as f64, sent),
            ),
            (
                "intended_shown_ratio",
                ratio(shown as f64, outcomes.len() as f64),
            ),
            ("expected_disambiguation_ms", mean(&costs)),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        // `setup_s` is the median of several set-ups. The others run here,
        // after everything that was measured on the first, so they disturb
        // neither the window nor the high-water mark.
        drop(oracle);
        drop(table);
        muve::dbms::index_registry().clear();
        for _ in 1..SETUPS {
            let again = setup(w, seed, utterances_needed, Some(inputs));
            setups_s.push(again.setup.as_secs_f64());
            inputs = again.teardown();
        }
        values.insert("setup_s", median(&setups_s));
    }

    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            (m.name, value, m.unit)
        })
        .collect();
    RunResult {
        workload: w.name,
        attempted,
        failed,
        metrics,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client, one request every 10 ms for 10 s; of the twenty slices,
    /// 3-5 are disturbed (3 ms instead of 1 ms).
    fn disturbed() -> Vec<ClientRun> {
        let samples = (0..1000)
            .map(|i| {
                let slice = i / 50;
                Sample {
                    at: Duration::from_millis(i * 10),
                    latency: Duration::from_millis(if (3..6).contains(&slice) { 3 } else { 1 }),
                    server_ms: 0.5,
                    verdict: Verdict::Ok,
                }
            })
            .collect();
        vec![ClientRun {
            samples,
            kept: Vec::new(),
            elapsed: Duration::from_secs(10),
        }]
    }

    #[test]
    fn timing_metrics_cover_the_whole_window() {
        let w = summarise(&disturbed(), Duration::from_secs(10));
        assert_eq!((w.sent, w.ok, w.failed, w.missed), (1000, 1000, 0, 0));
        // The disturbed 15% of the window is in the sample: it does not move
        // the median, and it is the 95th percentile.
        assert_eq!(w.latencies_ms.len(), 1000);
        assert_eq!(median(&w.latencies_ms), 1.0);
        assert_eq!(percentile(&w.latencies_ms, 0.95), 3.0);
        // Three slices of twenty lie outside the quartiles of the slice medians.
        assert_eq!(w.slice_spread, 0.0);
        assert!((w.http_overhead_us - 500.0).abs() < 1e-6);
    }

    #[test]
    fn slice_spread_is_the_interquartile_range_of_the_slice_medians() {
        let mut runs = disturbed();
        for s in &mut runs[0].samples {
            // Slices 10-19 at 2 ms: of the twenty medians seven are 1, ten 2
            // and three 3, so the quartiles are 1 and 2 and the median 2.
            if s.at >= Duration::from_secs(5) {
                s.latency = Duration::from_millis(2);
            }
        }
        let w = summarise(&runs, Duration::from_secs(10));
        assert_eq!(w.slice_spread, 0.5);
    }

    #[test]
    fn failures_and_slow_replies_are_misses() {
        let mut runs = disturbed();
        runs[0].samples[0].verdict = Verdict::Failed;
        runs[0].samples[1].verdict = Verdict::Degraded;
        runs[0].samples[2].latency = Duration::from_millis(1001);
        let w = summarise(&runs, Duration::from_secs(10));
        assert_eq!((w.sent, w.ok, w.failed, w.missed), (1000, 998, 1, 3));
        assert_eq!(w.latencies_ms.len(), 999);
    }
}
