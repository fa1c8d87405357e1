//! The user disambiguation-time model (paper §4.2).
//!
//! Calibrated by the paper's crowd-sourced study, the model distinguishes
//! three cases for the correct query's result:
//!
//! 1. **highlighted** — expected time `D_R = b_R·c_B/2 + p_R·c_P/2`
//!    (users scan red bars first, in random order);
//! 2. **visible but not highlighted** —
//!    `D_V = 2·D_R + (b−b_R)·c_B/2 + (p−p_R)·c_P/2`
//!    (all red bars first, then half the rest);
//! 3. **missing** — a large constant `D_M` (the user must re-query).
//!
//! Expected cost of a multiplot is `Σ_i r_i · case_cost(i)` over the
//! candidate distribution. Consistent with the study (Table 1), positions
//! of bars and plots do not enter the model — only counts do.

use crate::plot::Multiplot;
use crate::query::Candidate;
use serde::Serialize;

/// Cost-model constants, in estimated milliseconds of user time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UserCostModel {
    /// `c_B`: cost of reading one bar.
    pub bar_ms: f64,
    /// `c_P`: cost of understanding one plot (`c_P > c_B` per the study).
    pub plot_ms: f64,
    /// `D_M`: penalty when the correct result is missing (re-query).
    pub miss_ms: f64,
}

impl Default for UserCostModel {
    fn default() -> Self {
        // Values fitted from the simulated replication of the paper's user
        // study (see muve-sim): ~0.4 s per bar, ~1.1 s per plot, and a
        // 20 s re-query penalty.
        UserCostModel {
            bar_ms: 400.0,
            plot_ms: 1100.0,
            miss_ms: 20_000.0,
        }
    }
}

/// Aggregate multiplot statistics the model depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultiplotCounts {
    /// Total bars `b`.
    pub bars: usize,
    /// Highlighted bars `b_R`.
    pub red_bars: usize,
    /// Total plots `p`.
    pub plots: usize,
    /// Plots containing a highlighted bar `p_R`.
    pub red_plots: usize,
}

impl MultiplotCounts {
    /// Extract counts from a multiplot.
    pub fn of(m: &Multiplot) -> MultiplotCounts {
        MultiplotCounts {
            bars: m.num_bars(),
            red_bars: m.num_red_bars(),
            plots: m.num_plots(),
            red_plots: m.num_red_plots(),
        }
    }

    /// Count one more plot of `bars` bars, `red_bars` of them highlighted.
    pub(crate) fn add_plot(&mut self, bars: usize, red_bars: usize) {
        self.bars += bars;
        self.red_bars += red_bars;
        self.plots += 1;
        self.red_plots += usize::from(red_bars > 0);
    }
}

/// How a candidate's result appears in a multiplot; a candidate shown in
/// several plots takes the best (highest) of its bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Seen {
    /// Not on display (case 3, `D_M`).
    Missing,
    /// Shown, but in no highlighted bar (case 2, `D_V`).
    Visible,
    /// Shown in a highlighted bar (case 1, `D_R`).
    Highlighted,
}

impl Seen {
    /// The case of one bar.
    pub(crate) fn of(highlighted: bool) -> Seen {
        if highlighted {
            Seen::Highlighted
        } else {
            Seen::Visible
        }
    }
}

impl UserCostModel {
    /// `D_R`: expected time when the correct result is highlighted.
    pub fn d_red(&self, c: MultiplotCounts) -> f64 {
        c.red_bars as f64 * self.bar_ms / 2.0 + c.red_plots as f64 * self.plot_ms / 2.0
    }

    /// `D_V`: expected time when the correct result is visible, not red.
    pub fn d_visible(&self, c: MultiplotCounts) -> f64 {
        2.0 * self.d_red(c)
            + (c.bars - c.red_bars) as f64 * self.bar_ms / 2.0
            + (c.plots - c.red_plots) as f64 * self.plot_ms / 2.0
    }

    /// `D_M`: cost of a missing result.
    pub fn d_miss(&self) -> f64 {
        self.miss_ms
    }

    /// Expected disambiguation time of `multiplot` for the candidate
    /// distribution (paper: `r_R·D_R + r_V·D_V + r_M·D_M`).
    ///
    /// Candidates' probabilities need not sum to one; any residual mass
    /// (interpretations outside the candidate set) is charged `D_M`.
    pub fn expected_cost(&self, multiplot: &Multiplot, candidates: &[Candidate]) -> f64 {
        let mut seen = vec![Seen::Missing; candidates.len()];
        for e in multiplot.plots().flat_map(|p| &p.entries) {
            // Bars of candidates outside the distribution still count.
            if let Some(s) = seen.get_mut(e.candidate) {
                *s = (*s).max(Seen::of(e.highlighted));
            }
        }
        let probabilities: Vec<f64> = candidates.iter().map(|c| c.probability).collect();
        self.cost_of(&seen, MultiplotCounts::of(multiplot), &probabilities)
    }

    /// The cost kernel behind [`UserCostModel::expected_cost`]: `seen[i]`
    /// is how candidate `i`, of probability `probabilities[i]`, appears in
    /// a multiplot with `counts`. Sums `r_i · case_cost(i)` in candidate
    /// order, so a caller that tracks `seen` and `counts` incrementally
    /// gets the same bits as pricing the materialised multiplot.
    pub(crate) fn cost_of(
        &self,
        seen: &[Seen],
        counts: MultiplotCounts,
        probabilities: &[f64],
    ) -> f64 {
        debug_assert_eq!(seen.len(), probabilities.len());
        // Indexed by `Seen`.
        let case_cost = [self.miss_ms, self.d_visible(counts), self.d_red(counts)];
        let mut cost = 0.0;
        let mut covered = 0.0;
        for (p, s) in probabilities.iter().zip(seen) {
            covered += p;
            cost += p * case_cost[*s as usize];
        }
        cost + (1.0 - covered).max(0.0) * self.miss_ms
    }

    /// Cost savings of `multiplot` relative to the empty multiplot
    /// (paper Definition 6); the objective of the greedy planner.
    pub fn cost_savings(&self, multiplot: &Multiplot, candidates: &[Candidate]) -> f64 {
        let empty = Multiplot::default();
        self.expected_cost(&empty, candidates) - self.expected_cost(multiplot, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plot::{Plot, PlotEntry};
    use muve_dbms::parse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cands(probs: &[f64]) -> Vec<Candidate> {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Candidate::new(
                    parse(&format!("select count(*) from t where k = 'v{i}'")).unwrap(),
                    p,
                )
            })
            .collect()
    }

    fn plot(entries: &[(usize, bool)]) -> Plot {
        Plot {
            title: "t".into(),
            entries: entries
                .iter()
                .map(|&(c, h)| PlotEntry {
                    candidate: c,
                    label: String::new(),
                    highlighted: h,
                })
                .collect(),
        }
    }

    #[test]
    fn empty_multiplot_costs_miss() {
        let m = Multiplot::default();
        let model = UserCostModel::default();
        let cost = model.expected_cost(&m, &cands(&[0.6, 0.4]));
        assert!((cost - model.miss_ms).abs() < 1e-9);
    }

    #[test]
    fn case_ordering_d_r_le_d_v_le_d_m() {
        let model = UserCostModel::default();
        let c = MultiplotCounts {
            bars: 10,
            red_bars: 3,
            plots: 4,
            red_plots: 2,
        };
        assert!(model.d_red(c) <= model.d_visible(c));
        assert!(model.d_visible(c) <= model.d_miss());
    }

    #[test]
    fn highlighting_correct_result_reduces_cost() {
        let model = UserCostModel::default();
        let candidates = cands(&[0.9, 0.1]);
        let without = Multiplot {
            rows: vec![vec![plot(&[(0, false), (1, false)])]],
        };
        let with = Multiplot {
            rows: vec![vec![plot(&[(0, true), (1, false)])]],
        };
        assert!(
            model.expected_cost(&with, &candidates) < model.expected_cost(&without, &candidates)
        );
    }

    #[test]
    fn highlighting_everything_no_better_than_nothing() {
        // With all bars red, D_R equals the all-plain D_V/2 structure but
        // red-first scanning gains nothing: cost(all red) == cost(none red)
        // is NOT required, but cost should not improve by highlighting all.
        let model = UserCostModel::default();
        let candidates = cands(&[0.5, 0.5]);
        let none = Multiplot {
            rows: vec![vec![plot(&[(0, false), (1, false)])]],
        };
        let all = Multiplot {
            rows: vec![vec![plot(&[(0, true), (1, true)])]],
        };
        let c_none = model.expected_cost(&none, &candidates);
        let c_all = model.expected_cost(&all, &candidates);
        assert!((c_none - c_all).abs() < 1e-9, "{c_none} vs {c_all}");
    }

    #[test]
    fn uncovered_probability_mass_charged_as_miss() {
        let model = UserCostModel::default();
        let candidates = cands(&[0.5]); // half the mass is elsewhere
        let m = Multiplot {
            rows: vec![vec![plot(&[(0, true)])]],
        };
        let cost = model.expected_cost(&m, &candidates);
        assert!(cost >= 0.5 * model.miss_ms);
    }

    #[test]
    fn more_bars_cost_more_for_shown_queries() {
        let model = UserCostModel::default();
        let candidates = cands(&[1.0]);
        let small = Multiplot {
            rows: vec![vec![plot(&[(0, false)])]],
        };
        let big = Multiplot {
            rows: vec![vec![plot(&[(0, false), (9, false), (8, false)])]],
        };
        assert!(model.expected_cost(&big, &candidates) > model.expected_cost(&small, &candidates));
    }

    #[test]
    fn savings_positive_when_showing_likely_results() {
        let model = UserCostModel::default();
        let candidates = cands(&[0.7, 0.3]);
        let m = Multiplot {
            rows: vec![vec![plot(&[(0, true), (1, false)])]],
        };
        assert!(model.cost_savings(&m, &candidates) > 0.0);
    }

    #[test]
    fn paper_formulas_exact() {
        let model = UserCostModel {
            bar_ms: 10.0,
            plot_ms: 100.0,
            miss_ms: 1000.0,
        };
        let c = MultiplotCounts {
            bars: 6,
            red_bars: 2,
            plots: 3,
            red_plots: 1,
        };
        assert_eq!(model.d_red(c), 2.0 * 5.0 + 1.0 * 50.0);
        assert_eq!(model.d_visible(c), 2.0 * 60.0 + 4.0 * 5.0 + 2.0 * 50.0);
    }

    /// The paper's formula read literally: each candidate's case from
    /// [`Multiplot::highlights`] / [`Multiplot::shows`].
    fn reference_cost(model: &UserCostModel, m: &Multiplot, candidates: &[Candidate]) -> f64 {
        let counts = MultiplotCounts::of(m);
        let (d_r, d_v) = (model.d_red(counts), model.d_visible(counts));
        let mut cost = 0.0;
        let mut covered = 0.0;
        for (i, c) in candidates.iter().enumerate() {
            covered += c.probability;
            cost += c.probability
                * if m.highlights(i) {
                    d_r
                } else if m.shows(i) {
                    d_v
                } else {
                    model.miss_ms
                };
        }
        cost + (1.0 - covered).max(0.0) * model.miss_ms
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let model = UserCostModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let n = rng.gen_range(1usize..30);
            let probs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() / n as f64).collect();
            let candidates = cands(&probs);
            // Candidates repeat across plots, highlighted in some and not
            // in others; some bars show queries outside the distribution.
            let rows = (0..rng.gen_range(1usize..4))
                .map(|_| {
                    (0..rng.gen_range(0usize..4))
                        .map(|_| {
                            let bars: Vec<(usize, bool)> = (0..rng.gen_range(1usize..6))
                                .map(|_| (rng.gen_range(0..n + 2), rng.gen_bool(0.3)))
                                .collect();
                            plot(&bars)
                        })
                        .collect()
                })
                .collect();
            let m = Multiplot { rows };
            assert_eq!(
                model.expected_cost(&m, &candidates).to_bits(),
                reference_cost(&model, &m, &candidates).to_bits(),
                "{m:?}"
            );
        }
    }
}
