//! # muve-core
//!
//! MUVE's primary contribution (Wei, Trummer, Anderson: *Robust Voice
//! Querying with MUVE*, PVLDB 2021): given a probability distribution over
//! candidate SQL queries, plan a *multiplot* — bar plots grouped by query
//! template, arranged in rows, with a subset of bars highlighted — that
//! minimizes expected user disambiguation time under a study-calibrated
//! cost model.
//!
//! - [`query`] / [`plot`] — the formal model (§2): candidates, templates,
//!   plots, multiplots, screen geometry;
//! - [`cost_model`] — the user behavior model (§4.2);
//! - [`ilp`] — the exact integer-programming planner (§5) on top of
//!   [`muve_solver`], including incremental optimization (§5.4) and the
//!   processing-cost extension (§8.1);
//! - [`greedy`] — the submodular greedy heuristic (§6, Algorithms 1-4);
//! - [`planner`] — a facade over both;
//! - [`progressive`] — presentation strategies (§8.2): default,
//!   incremental plotting, approximate processing;
//! - [`render`] — text and SVG multiplot rendering;
//! - [`timeseries`] — the §11 future-work extension: line plots for
//!   grouped (multi-row) candidate queries.
//!
//! ```
//! use muve_core::{greedy_plan, Candidate, ScreenConfig, UserCostModel};
//! use muve_dbms::parse;
//!
//! let candidates = vec![
//!     Candidate::new(parse("select avg(delay) from f where origin = 'JFK'").unwrap(), 0.6),
//!     Candidate::new(parse("select avg(delay) from f where origin = 'LGA'").unwrap(), 0.4),
//! ];
//! let screen = ScreenConfig::iphone(1);
//! let m = greedy_plan(&candidates, &screen, &UserCostModel::default());
//! assert!(m.shows(0) && m.shows(1));
//! assert!(m.fits(&screen));
//! ```

#![warn(missing_docs)]

pub mod cost_model;
pub mod greedy;
pub mod headline;
pub mod ilp;
pub mod planner;
pub mod plot;
pub mod progressive;
pub mod query;
pub mod render;
pub mod timeseries;

pub use cost_model::{MultiplotCounts, UserCostModel};
pub use greedy::greedy_plan;
pub use headline::headline;
pub use ilp::{ilp_plan, IlpConfig, IlpOutcome, ProcessingConfig, ProcessingGroup};
pub use planner::{
    plan, plan_incremental, plan_incremental_observed, plan_with_deadline, IncrementalSchedule,
    IncumbentSlot, PlanResult, Planner,
};
pub use plot::{Multiplot, Plot, PlotEntry, ScreenConfig};
pub use progressive::{present, Mode, Presentation, Trace, TraceEvent};
pub use query::{templates_of, Candidate, TemplateInstance};
pub use render::{render_svg, render_text};
pub use timeseries::{points_from_result, render_series_svg, series_plots, Series, SeriesPlot};
