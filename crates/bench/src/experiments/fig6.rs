//! **Figure 6**: greedy vs ILP visualization planning on the 311 data —
//! optimization time, timeout ratio, and solution cost while varying the
//! number of candidate queries, multiplot rows, and screen pixels.
//!
//! Paper defaults: one row, 20 candidates, iPhone resolution, 1 s timeout.
//! Expected shape: greedy never times out and is orders of magnitude
//! faster; ILP matches or beats greedy quality on small instances but its
//! timeout ratio explodes with the row count (near 100% at 3 rows), where
//! greedy becomes preferable.

use super::common::{dataset_table, fmt, test_cases, ResultTable, TestCase};
use muve_core::{plan, IlpConfig, Planner, ScreenConfig, UserCostModel};
use muve_data::Dataset;
use muve_sim::mean;
use std::time::Duration;

struct Setting {
    label: String,
    candidates: usize,
    rows: usize,
    width_px: u32,
}

fn settings(quick: bool) -> Vec<Setting> {
    let mut out = Vec::new();
    let cand_axis: &[usize] = if quick {
        &[5, 20]
    } else {
        &[5, 10, 20, 30, 50]
    };
    for &c in cand_axis {
        out.push(Setting {
            label: format!("candidates={c}"),
            candidates: c,
            rows: 1,
            width_px: 750,
        });
    }
    let row_axis: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    for &r in row_axis {
        out.push(Setting {
            label: format!("rows={r}"),
            candidates: 20,
            rows: r,
            width_px: 750,
        });
    }
    let px_axis: &[u32] = if quick {
        &[750]
    } else {
        &[375, 750, 1536, 1920]
    };
    for &w in px_axis {
        out.push(Setting {
            label: format!("pixels={w}"),
            candidates: 20,
            rows: 1,
            width_px: w,
        });
    }
    out
}

/// One planning case of a setting: both planners on the same candidates.
struct CaseOutcome {
    greedy_ms: f64,
    ilp_ms: f64,
    greedy_cost: f64,
    ilp_cost: f64,
    /// The ILP did not prove optimality within the budget.
    ilp_timed_out: bool,
}

/// Run both planners on every setting's cases.
fn run_cases(quick: bool) -> Vec<(Setting, Vec<CaseOutcome>)> {
    let n_queries = if quick { 5 } else { 30 };
    let timeout = Duration::from_secs(1);
    let table = dataset_table(Dataset::Nyc311, 5_000, 311);
    let model = UserCostModel::default();
    settings(quick)
        .into_iter()
        .map(|s| {
            let cases: Vec<TestCase> = test_cases(
                &table,
                n_queries,
                5,
                s.candidates,
                606 + s.candidates as u64,
            );
            let screen = ScreenConfig::with_width(s.width_px, s.rows);
            let outcomes = cases
                .iter()
                .map(|case| {
                    let g = plan(&Planner::Greedy, &case.candidates, &screen, &model);
                    // The ILP runs without the greedy warm start so that, as
                    // in the paper, its timeout behaviour is the solver's own.
                    let ilp_cfg = IlpConfig {
                        time_budget: Some(timeout),
                        warm_start: false,
                        ..IlpConfig::default()
                    };
                    let i = plan(&Planner::Ilp(ilp_cfg), &case.candidates, &screen, &model);
                    CaseOutcome {
                        greedy_ms: g.planning_time.as_secs_f64() * 1000.0,
                        ilp_ms: i.planning_time.as_secs_f64() * 1000.0,
                        greedy_cost: g.expected_cost,
                        ilp_cost: i.expected_cost,
                        ilp_timed_out: i.timed_out || !i.proven_optimal,
                    }
                })
                .collect();
            (s, outcomes)
        })
        .collect()
}

/// Run the solver comparison.
pub fn run(quick: bool) -> Vec<ResultTable> {
    table_of(run_cases(quick))
}

fn table_of(results: Vec<(Setting, Vec<CaseOutcome>)>) -> Vec<ResultTable> {
    let mut out = ResultTable::new(
        "fig6",
        "Greedy vs ILP planner on 311 data (paper Fig. 6; 1 s timeout; \
         cost = expected user disambiguation ms)",
        &[
            "setting",
            "greedy ms",
            "ilp ms",
            "ilp timeout %",
            "greedy cost",
            "ilp cost",
            "ilp wins %",
        ],
    );
    for (s, cases) in results {
        let col = |f: fn(&CaseOutcome) -> f64| cases.iter().map(f).collect::<Vec<f64>>();
        let share = |f: fn(&CaseOutcome) -> bool| {
            100.0 * cases.iter().filter(|c| f(c)).count() as f64 / cases.len() as f64
        };
        out.push(vec![
            s.label,
            fmt(mean(&col(|c| c.greedy_ms))),
            fmt(mean(&col(|c| c.ilp_ms))),
            fmt(share(|c| c.ilp_timed_out)),
            fmt(mean(&col(|c| c.greedy_cost))),
            fmt(mean(&col(|c| c.ilp_cost))),
            fmt(share(|c| c.ilp_cost < c.greedy_cost - 1e-6)),
        ]);
    }
    vec![out]
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_core::{greedy_plan, ilp_plan, Multiplot};
    use muve_solver::MipStatus;
    use rustc_hash::FxHasher;
    use std::hash::Hasher;

    #[test]
    fn quick_run_produces_rows() {
        let results = run_cases(true);
        // A proven ILP optimum is never worse than the greedy plan, which
        // is one of its feasible points.
        for (s, cases) in &results {
            for c in cases.iter().filter(|c| !c.ilp_timed_out) {
                assert!(
                    c.ilp_cost <= c.greedy_cost + 1e-6,
                    "{}: ilp {} > greedy {}",
                    s.label,
                    c.ilp_cost,
                    c.greedy_cost
                );
            }
        }
        let tables = table_of(results);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].rows.len() >= 4);
        // Greedy never slower than the 1s budget.
        for row in &tables[0].rows {
            let greedy_ms: f64 = row[1].parse().unwrap();
            assert!(greedy_ms < 1_000.0, "{row:?}");
        }
        // More rows never make the ILP time out less often.
        let timeout_pct = |label: &str| -> f64 {
            let row = tables[0].rows.iter().find(|r| r[0] == label).unwrap();
            row[3].parse().unwrap()
        };
        assert!(
            timeout_pct("rows=2") >= timeout_pct("rows=1"),
            "{:?}",
            tables[0].rows
        );
    }

    /// Proven optima of 32 seeded fig6 cases per candidate count, on one
    /// phone-width row, as the dense-tableau solver that preceded the warm
    /// dual re-solve found them.
    const OPTIMA_5: [f64; 32] = [
        8184.482758620688,
        8185.93314763231,
        11441.184153243361,
        5526.241134751774,
        12778.43137254902,
        11395.348837209303,
        15380.879832412877,
        12687.987563595252,
        15636.020151133504,
        12241.454545454544,
        5296.492595479345,
        11927.272727272724,
        8342.96205630355,
        12165.48347613219,
        8208.441558441556,
        12693.150684931508,
        2535.9999999999964,
        12241.454545454544,
        11998.999999999998,
        15523.255813953489,
        11848.225214198286,
        2129.674220963174,
        11998.999999999998,
        11612.847222222219,
        11862.549800796813,
        1550.0,
        15546.272493573262,
        12762.98955613577,
        15625.0,
        11366.007905138342,
        8380.136986301368,
        4982.476319350473,
    ];
    const OPTIMA_10: [f64; 32] = [
        12010.413630758885,
        15638.506876227897,
        10654.036087369417,
        11592.849608616,
        16134.782608695647,
        15588.575839444231,
        10613.859560918385,
        12127.389665719897,
        13739.439868204281,
        16134.782608695645,
        15919.551681195517,
        16134.782608695647,
        12093.897411135458,
        9738.538706377172,
        10380.34871794872,
        15309.570552147234,
        10624.185735760811,
        13491.566392231365,
        15714.843152257074,
        16525.47169811321,
        15852.879213483146,
        8529.025060075515,
        9060.54179657627,
        12050.498687664043,
        13267.700075738447,
        15794.48094612352,
        11814.604615966704,
        15693.425605536331,
        14065.95877576515,
        15400.09492803519,
        14340.148698884761,
        16077.941176470586,
    ];

    #[test]
    fn ilp_optima_match_recorded_values() {
        let table = dataset_table(Dataset::Nyc311, 5_000, 311);
        let model = UserCostModel::default();
        let screen = ScreenConfig::with_width(750, 1);
        for (candidates, optima) in [(5usize, &OPTIMA_5), (10, &OPTIMA_10)] {
            let cases = test_cases(&table, 32, 5, candidates, 606 + candidates as u64);
            for (i, (case, &want)) in cases.iter().zip(optima.iter()).enumerate() {
                let out = ilp_plan(&case.candidates, &screen, &model, &IlpConfig::default());
                assert_eq!(
                    out.status,
                    MipStatus::Optimal,
                    "{candidates} candidates, case {i}"
                );
                let got = out.objective.unwrap();
                assert!(
                    (got - want).abs() <= 1e-6 * want.abs(),
                    "{candidates} candidates, case {i}: {got} vs {want}"
                );
            }
        }
    }

    /// `(candidates, rows, pin)`: the greedy planner's output on 32 seeded
    /// fig6 cases per setting, on a 750 px screen. The pin is one FxHash
    /// over, per case, the `serde_json` of the multiplot followed by the
    /// bits of its expected cost. Recorded from the string-keyed greedy
    /// planner that preceded the index-based one; any change to a picked
    /// plot, a label, a title or a cost bit changes the pin.
    const GREEDY_PINS: [(usize, usize, u64); 8] = [
        (5, 1, 14237736161967547817),
        (5, 3, 4840778447842401121),
        (10, 1, 10709894275182455927),
        (10, 3, 17493316356148547132),
        (20, 1, 12417729410999077312),
        (20, 3, 15920105419490411058),
        (50, 1, 3009566419194210378),
        (50, 3, 14980433539626958172),
    ];

    /// A multiplot as JSON: rows of plots, each plot its title and its
    /// bars (candidate, label, highlighted) in x-axis order.
    fn multiplot_json(m: &Multiplot) -> String {
        let rows: Vec<serde_json::Value> = m
            .rows
            .iter()
            .map(|row| {
                let plots: Vec<serde_json::Value> = row
                    .iter()
                    .map(|p| {
                        let bars: Vec<serde_json::Value> = p
                            .entries
                            .iter()
                            .map(|e| {
                                serde_json::json!({
                                    "candidate": e.candidate,
                                    "label": e.label,
                                    "highlighted": e.highlighted,
                                })
                            })
                            .collect();
                        serde_json::json!({ "title": p.title, "entries": bars })
                    })
                    .collect();
                serde_json::json!(plots)
            })
            .collect();
        serde_json::to_string(&serde_json::json!({ "rows": rows })).unwrap()
    }

    #[test]
    fn greedy_output_matches_pins() {
        let table = dataset_table(Dataset::Nyc311, 5_000, 311);
        let model = UserCostModel::default();
        let mut got = Vec::new();
        for &(candidates, rows, _) in &GREEDY_PINS {
            let screen = ScreenConfig::with_width(750, rows);
            let mut h = FxHasher::default();
            for case in test_cases(&table, 32, 5, candidates, 606 + candidates as u64) {
                let m = greedy_plan(&case.candidates, &screen, &model);
                h.write(multiplot_json(&m).as_bytes());
                h.write_u64(model.expected_cost(&m, &case.candidates).to_bits());
            }
            got.push((candidates, rows, h.finish()));
        }
        assert_eq!(got, GREEDY_PINS);
    }
}
