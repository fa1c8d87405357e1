//! **Ablations** (beyond the paper): quantify the engineering choices this
//! reproduction's DESIGN calls out —
//!
//! 1. *template dominance pruning* (lossless ILP shrinking),
//! 2. *greedy warm start* for the ILP solver (anytime behaviour),
//! 3. *systematic vs Bernoulli sampling* (O(sample) vs O(table)),
//! 4. *query merging* across candidate-set sizes (generalizing Fig. 7).

use super::common::{dataset_table, fmt, test_cases, ResultTable, TestCase};
use muve_core::{ilp_plan, IlpConfig, ScreenConfig, UserCostModel};
use muve_data::Dataset;
use muve_dbms::{
    bernoulli_rows, execute, execute_merged_with_opts, plan_merged, systematic_rows, ExecOptions,
    Query,
};
use muve_sim::mean;
use std::time::{Duration, Instant};

/// Run all ablations.
pub fn run(quick: bool) -> Vec<ResultTable> {
    vec![
        pruning_ablation(quick),
        warm_start_ablation(quick),
        sampling_ablation(quick),
        merging_ablation(quick),
    ]
}

fn pruning_ablation(quick: bool) -> ResultTable {
    let n = if quick { 3 } else { 10 };
    let table = dataset_table(Dataset::Nyc311, 5_000, 311);
    let cases: Vec<TestCase> = test_cases(&table, n, 5, 20, 4242);
    let screen = ScreenConfig::iphone(1);
    let model = UserCostModel::default();
    let mut out = ResultTable::new(
        "ablation-pruning",
        "Template dominance pruning: ILP solve statistics with and without \
         (pruning is lossless, so costs must match when both prove optimality)",
        &["variant", "avg opt ms", "optimal %", "avg cost"],
    );
    for (label, no_pruning) in [("pruned", false), ("unpruned", true)] {
        let mut times = Vec::new();
        let mut costs = Vec::new();
        let mut optimal = 0usize;
        for case in &cases {
            let cfg = IlpConfig {
                time_budget: Some(Duration::from_secs(1)),
                warm_start: false,
                no_template_pruning: no_pruning,
                ..IlpConfig::default()
            };
            let start = Instant::now();
            let r = ilp_plan(&case.candidates, &screen, &model, &cfg);
            times.push(start.elapsed().as_secs_f64() * 1000.0);
            costs.push(r.expected_cost);
            if r.status == muve_solver::MipStatus::Optimal {
                optimal += 1;
            }
        }
        out.push(vec![
            label.into(),
            fmt(mean(&times)),
            fmt(100.0 * optimal as f64 / cases.len() as f64),
            fmt(mean(&costs)),
        ]);
    }
    out
}

fn warm_start_ablation(quick: bool) -> ResultTable {
    let n = if quick { 3 } else { 10 };
    let table = dataset_table(Dataset::Dob, 5_000, 7);
    let cases: Vec<TestCase> = test_cases(&table, n, 3, 20, 777);
    let screen = ScreenConfig::iphone(2);
    let model = UserCostModel::default();
    let mut out = ResultTable::new(
        "ablation-warmstart",
        "Greedy warm start for the ILP solver under a tight budget: without \
         it, timed-out runs may return nothing (cost = miss penalty)",
        &["variant", "budget ms", "avg cost", "no-solution %"],
    );
    for budget_ms in [100u64, 1000] {
        for (label, warm) in [("warm", true), ("cold", false)] {
            let mut costs = Vec::new();
            let mut empty = 0usize;
            for case in &cases {
                let cfg = IlpConfig {
                    time_budget: Some(Duration::from_millis(budget_ms)),
                    warm_start: warm,
                    ..IlpConfig::default()
                };
                let r = ilp_plan(&case.candidates, &screen, &model, &cfg);
                costs.push(r.expected_cost);
                if r.multiplot.num_plots() == 0 {
                    empty += 1;
                }
            }
            out.push(vec![
                label.into(),
                budget_ms.to_string(),
                fmt(mean(&costs)),
                fmt(100.0 * empty as f64 / cases.len() as f64),
            ]);
        }
    }
    out
}

fn sampling_ablation(quick: bool) -> ResultTable {
    let rows = if quick { 200_000 } else { 4_000_000 };
    let mut out = ResultTable::new(
        "ablation-sampling",
        "Drawing a 1% sample: systematic sampling is O(sample), Bernoulli \
         is O(table) — the difference that lets approximation stay \
         interactive on large data (Fig. 9)",
        &["method", "rows", "sample ms", "sample size"],
    );
    type Sampler = fn(usize, f64, u64) -> Vec<u32>;
    let methods: [(&str, Sampler); 2] = [
        ("systematic", systematic_rows),
        ("bernoulli", bernoulli_rows),
    ];
    for (label, f) in methods {
        let start = Instant::now();
        let sample = f(rows, 0.01, 99);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        out.push(vec![
            label.into(),
            rows.to_string(),
            fmt(ms),
            sample.len().to_string(),
        ]);
    }
    out
}

fn merging_ablation(quick: bool) -> ResultTable {
    let rows = if quick { 20_000 } else { 200_000 };
    let table = dataset_table(Dataset::Flights, rows, 3);
    let mut out = ResultTable::new(
        "ablation-merging",
        "Query merging speedup by candidate-set size (generalizing Fig. 7)",
        &["candidates", "separate ms", "merged ms", "speedup"],
    );
    let ks: &[usize] = if quick { &[5, 20] } else { &[5, 10, 20, 50] };
    for &k in ks {
        let cases = test_cases(&table, if quick { 2 } else { 5 }, 2, k, 5150 + k as u64);
        let mut sep = Vec::new();
        let mut mrg = Vec::new();
        for case in &cases {
            let queries: Vec<Query> = case.candidates.iter().map(|c| c.query.clone()).collect();
            let start = Instant::now();
            for q in &queries {
                let _ = execute(&table, q);
            }
            sep.push(start.elapsed().as_secs_f64() * 1000.0);
            let start = Instant::now();
            for g in plan_merged(&queries) {
                let _ = execute_merged_with_opts(&table, &g, ExecOptions::default());
            }
            mrg.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        let (s, m) = (mean(&sep), mean(&mrg));
        out.push(vec![k.to_string(), fmt(s), fmt(m), fmt(s / m.max(1e-9))]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ablations_run() {
        let tables = run(true);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{}", t.id);
        }
        // Systematic sampling must beat Bernoulli.
        let s = &tables[2];
        let sys: f64 = s.rows[0][2].parse().unwrap();
        let ber: f64 = s.rows[1][2].parse().unwrap();
        assert!(sys < ber, "systematic {sys} vs bernoulli {ber}");
        // Merging speedup > 1 at 20 candidates.
        let m = &tables[3];
        let speedup: f64 = m.rows.last().unwrap()[3].parse().unwrap();
        assert!(speedup > 1.0, "{speedup}");
    }
}
