//! Series plots for multi-row query results (paper §11, future work).
//!
//! The published MUVE supports only scalar aggregates — one bar per
//! candidate query. Its conclusion sketches the natural extension:
//! *"Queries with multiple result rows and up to two numerical result
//! columns (e.g., time series) could be plotted as lines or scatter
//! plots."* This module implements that extension: candidate queries with
//! a numeric `GROUP BY` column produce one *line* per candidate instead of
//! one bar, grouped into template plots exactly like bars are, with the
//! most likely candidates highlighted in the markup color.

use crate::greedy::group_templates;
use crate::query::Candidate;
use muve_dbms::ResultSet;

/// One line of a series plot.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Index of the candidate query this line shows.
    pub candidate: usize,
    /// Legend label (the template placeholder substitution).
    pub label: String,
    /// `(x, y)` points in ascending x order.
    pub points: Vec<(f64, f64)>,
    /// Whether the line is highlighted in the markup color.
    pub highlighted: bool,
}

/// A query-group plot whose members are series rather than bars.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesPlot {
    /// Plot title (template with a `?` placeholder).
    pub title: String,
    /// Lines, most likely candidate first.
    pub series: Vec<Series>,
}

/// Extract `(x, y)` points from a grouped result: the grouping column must
/// be numeric (first output column), the aggregate the second. Returns
/// `None` when the result is not a two-column numeric series.
pub fn points_from_result(rs: &ResultSet) -> Option<Vec<(f64, f64)>> {
    if rs.columns.len() < 2 {
        return None;
    }
    let mut points = Vec::with_capacity(rs.rows.len());
    for row in &rs.rows {
        let x = row.first()?.as_f64()?;
        let y = row.get(1)?.as_f64()?;
        points.push((x, y));
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    Some(points)
}

/// Group candidate series into template plots, highlighting the `red_k`
/// most likely candidates overall. `results[i]` holds candidate `i`'s
/// points (`None` = not executed or not a series).
pub fn series_plots(
    candidates: &[Candidate],
    results: &[Option<Vec<(f64, f64)>>],
    red_k: usize,
) -> Vec<SeriesPlot> {
    // Rank candidates by probability to decide highlighting.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        candidates[b]
            .probability
            .total_cmp(&candidates[a].probability)
    });
    let red: Vec<usize> = order.iter().copied().take(red_k).collect();

    let mut plots: Vec<SeriesPlot> = Vec::new();
    let mut placed: Vec<bool> = vec![false; candidates.len()];
    // Prefer templates covering more candidates: shared templates collect
    // the lines, singletons only catch leftovers.
    let templates = group_templates(candidates);
    let mut order: Vec<usize> = (0..templates.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(templates.members(j).len()));
    for j in order {
        let mut series: Vec<Series> = Vec::new();
        for (cand, label) in templates.members(j) {
            if placed[cand] {
                continue;
            }
            let Some(points) = results.get(cand).and_then(|r| r.clone()) else {
                continue;
            };
            placed[cand] = true;
            series.push(Series {
                candidate: cand,
                label: label.to_owned(),
                points,
                highlighted: red.contains(&cand),
            });
        }
        if !series.is_empty() {
            plots.push(SeriesPlot {
                title: templates.title(j).to_owned(),
                series,
            });
        }
    }
    plots
}

const LINE_COLORS: [&str; 6] = [
    "#4c78a8", "#72b7b2", "#9d755d", "#54a24b", "#b279a2", "#eeca3b",
];
const RED: &str = "#d62728";

/// Render series plots as a standalone SVG document (one plot per row).
pub fn render_series_svg(plots: &[SeriesPlot], width_px: u32) -> String {
    const PLOT_H: u32 = 200;
    const TITLE_H: u32 = 20;
    const PAD: u32 = 30;
    let height = (plots.len() as u32).max(1) * PLOT_H;
    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height}" font-family="sans-serif">"#
    );
    svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
    for (pi, plot) in plots.iter().enumerate() {
        let y0 = pi as u32 * PLOT_H;
        svg.push_str(&format!(
            r##"<text x="4" y="{}" font-size="12" fill="#333">{}</text>"##,
            y0 + 14,
            escape(&plot.title)
        ));
        // Data bounds across all series of the plot.
        let all: Vec<(f64, f64)> = plot
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if all.is_empty() {
            continue;
        }
        let (mut x_min, mut x_max, mut y_min, mut y_max) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for (x, y) in &all {
            x_min = x_min.min(*x);
            x_max = x_max.max(*x);
            y_min = y_min.min(*y);
            y_max = y_max.max(*y);
        }
        let x_span = (x_max - x_min).max(1e-9);
        let y_span = (y_max - y_min).max(1e-9);
        let chart_w = width_px.saturating_sub(2 * PAD) as f64;
        let chart_h = (PLOT_H - TITLE_H - PAD) as f64;
        let sx = |x: f64| PAD as f64 + (x - x_min) / x_span * chart_w;
        let sy = |y: f64| (y0 + TITLE_H) as f64 + (1.0 - (y - y_min) / y_span) * chart_h;
        // Axes.
        svg.push_str(&format!(
            r##"<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#999"/>"##,
            PAD,
            sy(y_min),
            PAD as f64 + chart_w,
            sy(y_min)
        ));
        for (si, s) in plot.series.iter().enumerate() {
            let color = if s.highlighted {
                RED
            } else {
                LINE_COLORS[si % LINE_COLORS.len()]
            };
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("{:.1},{:.1}", sx(*x), sy(*y)))
                .collect();
            svg.push_str(&format!(
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="{}"/>"#,
                pts.join(" "),
                if s.highlighted { 2.5 } else { 1.5 }
            ));
            // Legend entry.
            svg.push_str(&format!(
                r##"<text x="{}" y="{}" font-size="10" fill="{color}">{}</text>"##,
                PAD + 4 + (si as u32) * 90,
                y0 + PLOT_H - 6,
                escape(&s.label)
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::{execute, parse, ColumnType, Schema, Table, Value};

    fn table() -> Table {
        let schema = Schema::new([
            ("carrier", ColumnType::Str),
            ("month", ColumnType::Int),
            ("delay", ColumnType::Int),
        ]);
        let mut b = Table::builder("flights", schema);
        for m in 1..=6i64 {
            for (c, d) in [("UA", m * 2), ("AA", 20 - m)] {
                b.push_row([c.into(), Value::Int(m), Value::Int(d)]);
            }
        }
        b.build()
    }

    fn cands() -> Vec<Candidate> {
        [("UA", 0.7), ("AA", 0.3)]
            .iter()
            .map(|(c, p)| {
                Candidate::new(
                    parse(&format!(
                        "select avg(delay) from flights where carrier = '{c}' group by month"
                    ))
                    .unwrap(),
                    *p,
                )
            })
            .collect()
    }

    #[test]
    fn points_extracted_and_sorted() {
        let t = table();
        let rs = execute(&t, &cands()[0].query).unwrap();
        let pts = points_from_result(&rs).unwrap();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], (1.0, 2.0));
        assert_eq!(pts[5], (6.0, 12.0));
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn non_series_results_rejected() {
        let t = table();
        let rs = execute(&t, &parse("select count(*) from flights").unwrap()).unwrap();
        assert!(points_from_result(&rs).is_none());
        let rs = execute(
            &t,
            &parse("select count(*) from flights group by carrier").unwrap(),
        )
        .unwrap();
        assert!(points_from_result(&rs).is_none()); // string x axis
    }

    #[test]
    fn series_grouped_by_template_with_highlight() {
        let t = table();
        let candidates = cands();
        let results: Vec<Option<Vec<(f64, f64)>>> = candidates
            .iter()
            .map(|c| points_from_result(&execute(&t, &c.query).unwrap()))
            .collect();
        let plots = series_plots(&candidates, &results, 1);
        // Both candidates share the carrier = ? template: one plot, two lines.
        let shared = plots
            .iter()
            .find(|p| p.title.contains("carrier = ?"))
            .unwrap();
        assert_eq!(shared.series.len(), 2);
        let ua = shared.series.iter().find(|s| s.label == "UA").unwrap();
        assert!(ua.highlighted, "most likely candidate highlighted");
        let aa = shared.series.iter().find(|s| s.label == "AA").unwrap();
        assert!(!aa.highlighted);
        // A candidate appears in exactly one plot.
        let mut seen = Vec::new();
        for p in &plots {
            for s in &p.series {
                assert!(!seen.contains(&s.candidate));
                seen.push(s.candidate);
            }
        }
    }

    #[test]
    fn svg_renders_polylines() {
        let t = table();
        let candidates = cands();
        let results: Vec<Option<Vec<(f64, f64)>>> = candidates
            .iter()
            .map(|c| points_from_result(&execute(&t, &c.query).unwrap()))
            .collect();
        let plots = series_plots(&candidates, &results, 1);
        let svg = render_series_svg(&plots, 800);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.matches("<polyline").count() >= 2);
        assert!(svg.contains(RED));
    }

    #[test]
    fn missing_results_skipped() {
        let candidates = cands();
        let results = vec![None, Some(vec![(1.0, 2.0), (2.0, 3.0)])];
        let plots = series_plots(&candidates, &results, 1);
        let total: usize = plots.iter().map(|p| p.series.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn empty_everything() {
        let plots = series_plots(&[], &[], 0);
        assert!(plots.is_empty());
        let svg = render_series_svg(&plots, 400);
        assert!(svg.starts_with("<svg"));
    }
}
