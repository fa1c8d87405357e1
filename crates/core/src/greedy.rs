//! The greedy multiplot planner (paper §6, Algorithms 1-4).
//!
//! Four phases, exactly as in Algorithm 1:
//!
//! 1. **Plot candidates** (Alg. 2): group candidate queries by template;
//!    for each template emit plots showing every *prefix* of the
//!    probability-sorted instantiating queries (the subset condition of
//!    Alg. 2 line 17 admits exactly the prefixes).
//! 2. **Coloring** (Alg. 3): for each plot, emit versions highlighting the
//!    `k` most likely queries for every `k` — by Theorem 2 the optimum
//!    colors a probability prefix, so nothing else needs to be tried.
//! 3. **Plot picking** (Alg. 4): cost savings are monotone and submodular
//!    (Theorems 1 & 3), so a density-greedy over (plot, row) items under
//!    the per-row width knapsacks (the multi-knapsack scheme of Yu et al.)
//!    carries the usual `O(1/(1+2r) − ε)` guarantee.
//! 4. **Polish**: remove redundant bars (the same query result shown in
//!    several plots) and backfill freed space with the most likely
//!    not-yet-shown compatible queries.
//!
//! Templates are grouped once per plan. Plot candidates and their colorings
//! are `(template, prefix length, red_k)` index triples with precomputed
//! widths, materialised into [`Plot`]s only when picked; a trial plot is
//! priced by overlaying its bars on the picked plots' per-candidate state
//! (no multiplot is built), so one picking round costs
//! `O(colored plots × candidates)`.

use crate::cost_model::{MultiplotCounts, Seen, UserCostModel};
use crate::plot::{Multiplot, Plot, PlotEntry, ScreenConfig};
use crate::query::{Candidate, TemplateBuf};
use rustc_hash::FxHashMap;

/// Candidates grouped by template, as [`group_templates`] returns them:
/// template `j` has a [`title`](Templates::title) and is instantiated by
/// its [`members`](Templates::members). Titles and labels stay in the one
/// buffer they were written to until a plot copies its own out.
#[derive(Debug)]
pub struct Templates {
    text: TemplateBuf,
    /// `(candidate, template instance in text)` per membership, grouped by
    /// template.
    slots: Vec<(usize, usize)>,
    /// Template `j`'s members are `slots[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
}

impl Templates {
    /// Number of templates.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no templates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Title of template `j` (the query with a `?` placeholder).
    pub fn title(&self, j: usize) -> &str {
        self.text.title(self.slots(j)[0].1)
    }

    /// The queries instantiating template `j`: `(candidate index, x label)`
    /// in descending probability order (ties by candidate index).
    pub fn members(&self, j: usize) -> impl ExactSizeIterator<Item = (usize, &str)> + '_ {
        self.slots(j).iter().map(|&(c, k)| (c, self.text.label(k)))
    }

    /// The template titled `title`, if any.
    pub fn position(&self, title: &str) -> Option<usize> {
        (0..self.len()).find(|&j| self.title(j) == title)
    }

    fn slots(&self, j: usize) -> &[(usize, usize)] {
        &self.slots[self.starts[j]..self.starts[j + 1]]
    }

    /// Group `candidates` by template title in first-seen order, dropping
    /// dominated templates if `prune`.
    fn new(candidates: &[Candidate], prune: bool) -> Templates {
        let mut text = TemplateBuf::with_capacity(candidates.len());
        // Candidate `i`'s template instances are `instances[i]..instances[i + 1]`.
        let mut instances = Vec::with_capacity(candidates.len() + 1);
        instances.push(0);
        for c in candidates {
            text.push(&c.query);
            instances.push(text.len());
        }
        // Each instance's template, numbered in first-seen order, or `None`
        // when its query already reached that template (a query can do so
        // through different masked elements only with identical labels; it
        // keeps its first).
        let mut index: FxHashMap<&str, usize> =
            FxHashMap::with_capacity_and_hasher(text.len(), Default::default());
        let mut firsts: Vec<First> = Vec::new();
        let mut template_of = Vec::with_capacity(text.len());
        for (i, range) in instances.windows(2).enumerate() {
            for k in range[0]..range[1] {
                let j = *index.entry(text.title(k)).or_insert(firsts.len());
                if j == firsts.len() {
                    firsts.push(First {
                        instance: k,
                        candidate: i,
                        last: usize::MAX,
                        size: 0,
                    });
                }
                let t = &mut firsts[j];
                template_of.push((t.last != i).then_some(j));
                t.size += usize::from(t.last != i);
                t.last = i;
            }
        }
        drop(index);
        let keep = if prune {
            undominated(&text, &instances, &template_of, &firsts)
        } else {
            vec![true; firsts.len()]
        };
        // Counting sort of the kept templates' members, in candidate order,
        // then each template's by descending probability (ties by index).
        let mut starts = vec![0];
        let mut fill = vec![0; firsts.len()];
        for (j, t) in firsts.iter().enumerate().filter(|&(j, _)| keep[j]) {
            fill[j] = starts[starts.len() - 1];
            starts.push(fill[j] + t.size);
        }
        let mut slots = vec![(0, 0); starts[starts.len() - 1]];
        let owners = instances
            .windows(2)
            .enumerate()
            .flat_map(|(i, range)| std::iter::repeat_n(i, range[1] - range[0]));
        for (k, (i, template)) in owners.zip(&template_of).enumerate() {
            if let Some(j) = template.filter(|&j| keep[j]) {
                slots[fill[j]] = (i, k);
                fill[j] += 1;
            }
        }
        let p = |i: usize| candidates[i].probability;
        let order =
            |a: &(usize, usize), b: &(usize, usize)| p(b.0).total_cmp(&p(a.0)).then(a.0.cmp(&b.0));
        for range in starts.windows(2) {
            let members = &mut slots[range[0]..range[1]];
            if !members.is_sorted_by(|a, b| order(a, b).is_le()) {
                members.sort_by(order);
            }
        }
        Templates {
            text,
            slots,
            starts,
        }
    }
}

/// A template as [`Templates::new`] first meets it.
struct First {
    /// Its first instance, and that instance's candidate.
    instance: usize,
    candidate: usize,
    /// The last candidate that joined it, and how many did.
    last: usize,
    size: usize,
}

/// The dominance rule of [`group_templates`]: whether to keep each template
/// of [`Templates::new`]'s grouping.
fn undominated(
    text: &TemplateBuf,
    instances: &[usize],
    template_of: &[Option<usize>],
    firsts: &[First],
) -> Vec<bool> {
    let n = firsts.len();
    // Member sets as bitsets over candidate indices.
    let words = (instances.len() - 1).div_ceil(64).max(1);
    let mut bits = vec![0u64; n * words];
    for (i, range) in instances.windows(2).enumerate() {
        for j in template_of[range[0]..range[1]].iter().flatten() {
            bits[j * words + i / 64] |= 1 << (i % 64);
        }
    }
    let set = |j: usize| &bits[j * words..(j + 1) * words];
    // Representative width: title length is what drives plot_base_width
    // for every screen configuration.
    let width: Vec<usize> = firsts
        .iter()
        .map(|t| text.title(t.instance).chars().count())
        .collect();
    let mut keep = vec![true; n];
    for a in 0..n {
        // Every superset of `a` is a template of `a`'s first member.
        let x = firsts[a].candidate;
        for &b in template_of[instances[x]..instances[x + 1]].iter().flatten() {
            let (len_a, len_b) = (firsts[a].size, firsts[b].size);
            if a == b
                || !keep[b]
                || len_a > len_b
                || set(a).iter().zip(set(b)).any(|(x, y)| x & !y != 0)
            {
                continue;
            }
            let strictly_smaller = len_a < len_b;
            let (wa, wb) = (width[a], width[b]);
            // Equal sets: keep the narrower (ties keep the earlier).
            if (strictly_smaller && wb <= wa)
                || (!strictly_smaller && (wb < wa || (wb == wa && b < a)))
            {
                keep[a] = false;
                break;
            }
        }
    }
    keep
}

/// An uncolored plot candidate: a template plus a probability-prefix of its
/// instantiating queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncoloredPlot {
    /// Template identity (index into the grouped [`Templates`]).
    pub template: usize,
    /// Number of bars: the template's `len` most likely queries.
    pub len: usize,
    /// Plot width in bar units ([`Plot::width`] of the materialised plot).
    pub width: f64,
}

/// A colored plot candidate: an [`UncoloredPlot`] with its `red_k` most
/// likely entries highlighted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColoredPlot {
    /// The underlying uncolored plot.
    pub plot: UncoloredPlot,
    /// Number of highlighted (most likely) entries.
    pub red_k: usize,
}

impl ColoredPlot {
    /// Materialize into a renderable [`Plot`]; `templates` are the ones
    /// the plot's `template` indexes.
    pub fn to_plot(&self, templates: &Templates) -> Plot {
        let j = self.plot.template;
        Plot {
            title: templates.title(j).to_owned(),
            entries: templates
                .members(j)
                .take(self.plot.len)
                .enumerate()
                .map(|(i, (c, label))| PlotEntry {
                    candidate: c,
                    label: label.to_owned(),
                    highlighted: i < self.red_k,
                })
                .collect(),
        }
    }

    /// Add this plot to the multiplot described by `seen` and `counts`.
    fn overlay(&self, templates: &Templates, seen: &mut [Seen], counts: &mut MultiplotCounts) {
        counts.add_plot(self.plot.len, self.red_k);
        let members = &templates.slots(self.plot.template)[..self.plot.len];
        for (i, &(c, _)) in members.iter().enumerate() {
            seen[c] = seen[c].max(Seen::of(i < self.red_k));
        }
    }
}

/// Group candidates by template and prune dominated templates, in
/// first-seen order.
///
/// Dominance rule: template `A` is dropped when some template `B` can show
/// a superset of `A`'s queries at no larger base width — any multiplot
/// using `A` can swap in `B` without increasing cost or width, so pruning
/// preserves optimality while shrinking both planners' search spaces
/// (candidate sets produce many singleton templates, one per masked
/// element).
pub fn group_templates(candidates: &[Candidate]) -> Templates {
    Templates::new(candidates, true)
}

/// [`group_templates`] without dominance pruning (exposed for tests and
/// ablation benchmarks).
pub fn group_templates_unpruned(candidates: &[Candidate]) -> Templates {
    Templates::new(candidates, false)
}

/// Algorithm 2: generate uncolored plot candidates over `templates`.
///
/// Prefix lengths are capped by how many bars could ever fit next to the
/// plot's title on the screen.
pub fn plot_candidates(templates: &Templates, screen: &ScreenConfig) -> Vec<UncoloredPlot> {
    let mut out = Vec::with_capacity(templates.slots.len());
    for template in 0..templates.len() {
        let base = screen.plot_base_width(templates.title(template));
        let max_bars =
            ((screen.width_bars() - base).floor() as usize).min(templates.slots(template).len());
        out.extend((1..=max_bars).map(|len| UncoloredPlot {
            template,
            len,
            width: base + len as f64,
        }));
    }
    out
}

/// Algorithm 3: generate colored versions (highlight top-k for each k).
pub fn add_colors(plots: &[UncoloredPlot]) -> Vec<ColoredPlot> {
    let mut out = Vec::with_capacity(plots.iter().map(|p| p.len + 1).sum());
    for &plot in plots {
        out.extend((0..=plot.len).map(|red_k| ColoredPlot { plot, red_k }));
    }
    out
}

/// Algorithm 4: pick plots by density-greedy submodular maximization under
/// the per-row width knapsacks. `colored` indexes into `templates`.
///
/// Each trial plot is priced by the cost kernel behind
/// [`UserCostModel::expected_cost`], on the picked plots' per-candidate
/// state with the trial's bars overlaid in a reused buffer — the same bits
/// as pricing the multiplot with the trial plot added, with nothing
/// materialised.
pub fn pick_plots(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    templates: &Templates,
    colored: &[ColoredPlot],
) -> Multiplot {
    let mut multiplot = Multiplot::empty(screen.rows);
    let width = screen.width_bars();
    let mut used_templates = vec![false; templates.len()];
    let mut row_used = vec![0.0f64; screen.rows];
    let mut seen = vec![Seen::Missing; candidates.len()];
    let mut counts = MultiplotCounts::default();
    let mut trial = seen.clone();
    let probabilities: Vec<f64> = candidates.iter().map(|c| c.probability).collect();
    let mut current_cost = model.cost_of(&seen, counts, &probabilities);
    loop {
        let mut best: Option<(usize, usize, f64, f64)> = None; // (plot idx, row, gain, width)
        for (pi, cp) in colored.iter().enumerate() {
            if used_templates[cp.plot.template] {
                continue;
            }
            let w = cp.plot.width;
            // Identical marginal effect in every row with space; take the
            // first row that fits (rows are interchangeable for the model).
            let Some(row) = (0..screen.rows).find(|&r| row_used[r] + w <= width + 1e-9) else {
                continue;
            };
            trial.copy_from_slice(&seen);
            let mut trial_counts = counts;
            cp.overlay(templates, &mut trial, &mut trial_counts);
            let new_cost = model.cost_of(&trial, trial_counts, &probabilities);
            let gain = current_cost - new_cost;
            if gain <= 1e-9 {
                continue;
            }
            let density = gain / w;
            let better = match &best {
                None => true,
                Some((_, _, bg, bw)) => {
                    let bd = bg / bw;
                    density > bd + 1e-12 || (density > bd - 1e-12 && gain > *bg)
                }
            };
            if better {
                best = Some((pi, row, gain, w));
            }
        }
        let Some((pi, row, gain, w)) = best else {
            break;
        };
        let cp = &colored[pi];
        cp.overlay(templates, &mut seen, &mut counts);
        multiplot.rows[row].push(cp.to_plot(templates));
        row_used[row] += w;
        used_templates[cp.plot.template] = true;
        current_cost -= gain;
    }
    multiplot
}

/// Final cleanup: drop redundant query results and backfill freed space
/// from the members of each plot's template in `templates` (looked up by
/// title).
pub fn polish(
    mut multiplot: Multiplot,
    candidates: &[Candidate],
    screen: &ScreenConfig,
    templates: &Templates,
) -> Multiplot {
    // Pass 1: a candidate shown multiple times keeps its highlighted
    // occurrence (or the first); others are removed.
    let mut keep: FxHashMap<usize, (usize, usize)> = FxHashMap::default(); // cand -> (plot#, entry#)
    for (p, plot) in multiplot.plots().enumerate() {
        for (e, en) in plot.entries.iter().enumerate() {
            if en.highlighted || !keep.contains_key(&en.candidate) {
                keep.insert(en.candidate, (p, e));
            }
        }
    }
    let mut plot_no = 0usize;
    for row in &mut multiplot.rows {
        for plot in row.iter_mut() {
            let mut e_no = 0usize;
            plot.entries.retain(|en| {
                let keep_it = keep.get(&en.candidate) == Some(&(plot_no, e_no));
                e_no += 1;
                keep_it
            });
            plot_no += 1;
        }
    }
    // Pass 2: backfill with the most likely non-displayed compatible query.
    let mut shown = vec![false; candidates.len()];
    for e in multiplot.plots().flat_map(|p| &p.entries) {
        if let Some(s) = shown.get_mut(e.candidate) {
            *s = true;
        }
    }
    let width = screen.width_bars();
    for row in &mut multiplot.rows {
        // Each plot's template and base width, looked up once.
        let looked_up: Vec<(Option<usize>, f64)> = row
            .iter()
            .map(|plot| {
                (
                    templates.position(&plot.title),
                    screen.plot_base_width(&plot.title),
                )
            })
            .collect();
        loop {
            let used: f64 = row
                .iter()
                .zip(&looked_up)
                .map(|(plot, (_, base))| base + plot.entries.len() as f64)
                .sum();
            if width - used < 1.0 {
                break;
            }
            // Best (probability) addition across this row's plots.
            let mut best: Option<(usize, usize, &str, f64)> = None; // (plot#, cand, label, prob)
            for (pi, (template, _)) in looked_up.iter().enumerate() {
                let Some(template) = template else {
                    continue;
                };
                for (cand, label) in templates.members(*template) {
                    if shown[cand] {
                        continue;
                    }
                    let prob = candidates[cand].probability;
                    if best.is_none_or(|(_, _, _, bp)| prob > bp) {
                        best = Some((pi, cand, label, prob));
                    }
                }
            }
            let Some((pi, cand, label, _)) = best else {
                break;
            };
            row[pi].entries.push(PlotEntry {
                candidate: cand,
                label: label.to_owned(),
                highlighted: false,
            });
            shown[cand] = true;
        }
    }
    // Drop plots that ended up empty.
    for row in &mut multiplot.rows {
        row.retain(|p| !p.entries.is_empty());
    }
    multiplot
}

/// Algorithm 1: the full greedy pipeline.
pub fn greedy_plan(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
) -> Multiplot {
    greedy_plan_grouped(candidates, &group_templates(candidates), screen, model)
}

/// [`greedy_plan`] over the templates [`group_templates`] already returned
/// for `candidates`.
pub(crate) fn greedy_plan_grouped(
    candidates: &[Candidate],
    templates: &Templates,
    screen: &ScreenConfig,
    model: &UserCostModel,
) -> Multiplot {
    let colored = add_colors(&plot_candidates(templates, screen));
    let picked = pick_plots(candidates, screen, model, templates, &colored);
    polish(picked, candidates, screen, templates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::parse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rustc_hash::FxHashSet;

    fn origin_candidates(probs: &[f64]) -> Vec<Candidate> {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Candidate::new(
                    parse(&format!(
                        "select avg(delay) from flights where origin = 'AP{i}'"
                    ))
                    .unwrap(),
                    p,
                )
            })
            .collect()
    }

    #[test]
    fn prefixes_only() {
        let cands = origin_candidates(&[0.5, 0.3, 0.2]);
        let screen = ScreenConfig::desktop(1);
        let templates = group_templates(&cands);
        let plots = plot_candidates(&templates, &screen);
        // The shared `origin = ?` template yields prefixes of length 1..3.
        let shared: Vec<_> = plots
            .iter()
            .filter(|p| templates.title(p.template).contains("origin = ?"))
            .collect();
        assert_eq!(shared.len(), 3);
        for p in &shared {
            let plot = ColoredPlot {
                plot: **p,
                red_k: 0,
            }
            .to_plot(&templates);
            assert_eq!(plot.entries.len(), p.len);
            assert_eq!(plot.width(&screen), p.width);
            // Entries are a probability prefix.
            for w in plot.entries.windows(2) {
                assert!(cands[w[0].candidate].probability >= cands[w[1].candidate].probability);
            }
            assert_eq!(plot.entries[0].candidate, 0);
        }
    }

    #[test]
    fn coloring_enumerates_k() {
        let templates = group_templates(&origin_candidates(&[0.6, 0.4]));
        let shared = templates.position("avg(delay) from flights where origin = ?");
        let plot = UncoloredPlot {
            template: shared.unwrap(),
            len: 2,
            width: 3.0,
        };
        let colored = add_colors(&[plot]);
        let ks: Vec<usize> = colored.iter().map(|c| c.red_k).collect();
        assert_eq!(ks, vec![0, 1, 2]);
        assert_eq!(colored[1].to_plot(&templates).red_bars(), 1);
    }

    #[test]
    fn greedy_covers_likely_candidates() {
        let cands = origin_candidates(&[0.4, 0.3, 0.2, 0.1]);
        let screen = ScreenConfig::desktop(1);
        let model = UserCostModel::default();
        let m = greedy_plan(&cands, &screen, &model);
        assert!(m.fits(&screen));
        // Plenty of space: all four candidates shown.
        for i in 0..4 {
            assert!(m.shows(i), "candidate {i} missing");
        }
    }

    #[test]
    fn narrow_screen_prefers_likely() {
        let cands = origin_candidates(&[0.8, 0.1, 0.06, 0.04]);
        let screen = ScreenConfig::with_width(360, 1);
        let model = UserCostModel::default();
        let m = greedy_plan(&cands, &screen, &model);
        assert!(m.fits(&screen));
        assert!(m.shows(0), "most likely candidate must be shown");
    }

    #[test]
    fn greedy_cost_beats_empty() {
        let cands = origin_candidates(&[0.5, 0.25, 0.15, 0.1]);
        let screen = ScreenConfig::iphone(1);
        let model = UserCostModel::default();
        let m = greedy_plan(&cands, &screen, &model);
        assert!(model.cost_savings(&m, &cands) > 0.0);
    }

    #[test]
    fn polish_removes_duplicates() {
        let cands = origin_candidates(&[0.6, 0.4]);
        let dup = Multiplot {
            rows: vec![vec![
                Plot {
                    title: "x".into(),
                    entries: vec![PlotEntry {
                        candidate: 0,
                        label: "a".into(),
                        highlighted: true,
                    }],
                },
                Plot {
                    title: "y".into(),
                    entries: vec![
                        PlotEntry {
                            candidate: 0,
                            label: "a".into(),
                            highlighted: false,
                        },
                        PlotEntry {
                            candidate: 1,
                            label: "b".into(),
                            highlighted: false,
                        },
                    ],
                },
            ]],
        };
        let screen = ScreenConfig::with_width(220, 1);
        let polished = polish(dup, &cands, &screen, &group_templates(&cands));
        let shown: Vec<usize> = polished
            .plots()
            .flat_map(|p| p.entries.iter().map(|e| e.candidate))
            .collect();
        let zero_count = shown.iter().filter(|&&c| c == 0).count();
        assert_eq!(zero_count, 1, "{polished:?}");
        // The highlighted occurrence survived.
        assert!(polished.highlights(0));
    }

    #[test]
    fn polish_backfills_free_space() {
        let cands = origin_candidates(&[0.5, 0.3, 0.2]);
        // A multiplot showing only candidate 0 on a wide screen.
        let m = Multiplot {
            rows: vec![vec![Plot {
                title: "avg(delay) from flights where origin = ?".into(),
                entries: vec![PlotEntry {
                    candidate: 0,
                    label: "AP0".into(),
                    highlighted: false,
                }],
            }]],
        };
        let screen = ScreenConfig::desktop(1);
        let polished = polish(m, &cands, &screen, &group_templates(&cands));
        assert!(polished.shows(1));
        assert!(polished.shows(2));
    }

    #[test]
    fn respects_row_count() {
        let cands = origin_candidates(&[0.3, 0.25, 0.2, 0.15, 0.1]);
        for rows in 1..=3 {
            let screen = ScreenConfig::iphone(rows);
            let m = greedy_plan(&cands, &screen, &UserCostModel::default());
            assert!(m.rows.len() <= rows);
            assert!(m.fits(&screen));
        }
    }

    #[test]
    fn more_rows_never_worse() {
        let cands = origin_candidates(&[0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05]);
        let model = UserCostModel::default();
        let narrow = ScreenConfig::with_width(400, 1);
        let tall = ScreenConfig::with_width(400, 3);
        let c1 = model.expected_cost(&greedy_plan(&cands, &narrow, &model), &cands);
        let c3 = model.expected_cost(&greedy_plan(&cands, &tall, &model), &cands);
        assert!(c3 <= c1 + 1e-6, "1 row: {c1}, 3 rows: {c3}");
    }

    #[test]
    fn empty_candidates_empty_plan() {
        let screen = ScreenConfig::iphone(1);
        let m = greedy_plan(&[], &screen, &UserCostModel::default());
        assert_eq!(m.num_plots(), 0);
    }

    #[test]
    fn heterogeneous_templates() {
        // Candidates varying the aggregation column share the `avg(?)`
        // template; ones varying the constant share `origin = ?`.
        let cands = vec![
            Candidate::new(
                parse("select avg(dep_delay) from flights where origin = 'JFK'").unwrap(),
                0.5,
            ),
            Candidate::new(
                parse("select avg(arr_delay) from flights where origin = 'JFK'").unwrap(),
                0.3,
            ),
            Candidate::new(
                parse("select avg(dep_delay) from flights where origin = 'LGA'").unwrap(),
                0.2,
            ),
        ];
        let screen = ScreenConfig::desktop(1);
        let m = greedy_plan(&cands, &screen, &UserCostModel::default());
        for i in 0..3 {
            assert!(m.shows(i), "candidate {i}");
        }
        // No candidate appears twice after polishing.
        let mut seen = Vec::new();
        for p in m.plots() {
            for e in &p.entries {
                assert!(!seen.contains(&e.candidate), "{:?} duplicated", e.candidate);
                seen.push(e.candidate);
            }
        }
    }

    /// The reference for [`pick_plots`]: the same density-greedy, pricing
    /// every trial by materialising the plot, pushing it onto the
    /// multiplot and calling [`UserCostModel::expected_cost`].
    fn naive_pick_plots(
        candidates: &[Candidate],
        screen: &ScreenConfig,
        model: &UserCostModel,
        templates: &Templates,
        colored: &[ColoredPlot],
    ) -> Multiplot {
        let mut multiplot = Multiplot::empty(screen.rows);
        let width = screen.width_bars();
        let mut used_templates: FxHashSet<usize> = FxHashSet::default();
        let mut row_used = vec![0.0f64; screen.rows];
        let mut current_cost = model.expected_cost(&multiplot, candidates);
        loop {
            let mut best: Option<(usize, usize, f64, f64)> = None;
            for (pi, cp) in colored.iter().enumerate() {
                if used_templates.contains(&cp.plot.template) {
                    continue;
                }
                let plot = cp.to_plot(templates);
                let w = plot.width(screen);
                let Some(row) = (0..screen.rows).find(|&r| row_used[r] + w <= width + 1e-9) else {
                    continue;
                };
                multiplot.rows[row].push(plot);
                let new_cost = model.expected_cost(&multiplot, candidates);
                multiplot.rows[row].pop();
                let gain = current_cost - new_cost;
                if gain <= 1e-9 {
                    continue;
                }
                let density = gain / w;
                let better = match &best {
                    None => true,
                    Some((_, _, bg, bw)) => {
                        let bd = bg / bw;
                        density > bd + 1e-12 || (density > bd - 1e-12 && gain > *bg)
                    }
                };
                if better {
                    best = Some((pi, row, gain, w));
                }
            }
            let Some((pi, row, gain, w)) = best else {
                break;
            };
            let cp = &colored[pi];
            multiplot.rows[row].push(cp.to_plot(templates));
            row_used[row] += w;
            used_templates.insert(cp.plot.template);
            current_cost -= gain;
        }
        multiplot
    }

    /// A seeded candidate distribution of `n` distinct queries mixing `=`
    /// on strings and numbers, `count(*)`, comparison operators, `IN` and
    /// two-predicate queries, each element drawn from a small pool so that
    /// templates are shared. With `ties`, weights come from {1, 2, 3}, so
    /// many candidates are equally likely; a third of the distributions
    /// leave 20% of the mass outside the candidate set.
    fn random_candidates(rng: &mut StdRng, n: usize, ties: bool) -> Vec<Candidate> {
        const FUNCS: [&str; 4] = ["avg", "sum", "min", "max"];
        const COLS: [&str; 3] = ["delay", "dist", "fare"];
        const OPS: [&str; 4] = ["<", "<=", ">", ">="];
        let mut out: Vec<Candidate> = Vec::new();
        for _ in 0..100 * n {
            if out.len() == n {
                break;
            }
            let agg = if rng.gen_bool(0.2) {
                "count(*)".to_owned()
            } else {
                let f = FUNCS[rng.gen_range(0..FUNCS.len())];
                format!("{f}({})", COLS[rng.gen_range(0..COLS.len())])
            };
            let op = OPS[rng.gen_range(0..OPS.len())];
            let (a, b): (u32, u32) = (rng.gen_range(0..6), rng.gen_range(0..6));
            let pred = match rng.gen_range(0..5) {
                0 => format!("origin = 'AP{a}'"),
                1 => format!("delay {op} {}", 5 * b),
                2 => format!("origin in ('AP{a}', 'AP{b}')"),
                3 => format!("origin = 'AP{a}' and month = {b}"),
                _ => format!("carrier = 'C{a}' and dist {op} {b}.5"),
            };
            let q = parse(&format!("select {agg} from flights where {pred}")).unwrap();
            if !out.iter().any(|c| c.query == q) {
                out.push(Candidate::new(q, 0.0));
            }
        }
        let weights: Vec<f64> = out
            .iter()
            .map(|_| f64::from(rng.gen_range(1u32..if ties { 4 } else { 1000 })))
            .collect();
        let mass = if rng.gen_range(0..3) == 0 { 0.8 } else { 1.0 };
        let total: f64 = weights.iter().sum();
        for (c, w) in out.iter_mut().zip(weights) {
            c.probability = mass * w / total;
        }
        out
    }

    #[test]
    fn incremental_pick_matches_naive_reference() {
        let model = UserCostModel::default();
        let mut rng = StdRng::seed_from_u64(35);
        let screens: Vec<ScreenConfig> = (1..=3)
            .flat_map(|rows| [ScreenConfig::iphone(rows), ScreenConfig::desktop(rows)])
            .collect();
        let mut picked_plots = 0;
        for case in 0..100 {
            let n = 1 + case % 50;
            let cands = random_candidates(&mut rng, n, case % 3 == 0);
            let templates = group_templates(&cands);
            for screen in &screens {
                let colored = add_colors(&plot_candidates(&templates, screen));
                let fast = pick_plots(&cands, screen, &model, &templates, &colored);
                let naive = naive_pick_plots(&cands, screen, &model, &templates, &colored);
                assert_eq!(fast, naive, "case {case}, {n} candidates, {screen:?}");
                assert_eq!(
                    model.expected_cost(&fast, &cands).to_bits(),
                    model.expected_cost(&naive, &cands).to_bits()
                );
                picked_plots += fast.num_plots();
            }
        }
        // The comparison is not vacuous.
        assert!(picked_plots > 600, "{picked_plots}");
    }
}
