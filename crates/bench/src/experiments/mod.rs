//! Experiment drivers, one per table/figure of the paper's evaluation.
//!
//! | id | paper content | module |
//! |---|---|---|
//! | `table1`, `fig3` | user study correlations & perception times | [`study`] |
//! | `fig6` | greedy vs ILP planning | [`fig6`] |
//! | `fig7` | query merging microbenchmark | [`fig7`] |
//! | `fig8` | processing-cost-aware planning | [`fig8`] |
//! | `fig9`-`fig11` | scaling in data size | [`fig9`] |
//! | `fig12` | MUVE vs drop-down baseline | [`fig12`] |
//! | `fig13` | presentation-method ratings | [`fig13`] |
//! | `ablation` | reproduction-specific design ablations | [`ablation`] |
//! | `serve` | network-stack shed/latency load curves | [`serve`] |

pub mod ablation;
pub mod common;
pub mod fig12;
pub mod fig13;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod serve;
pub mod study;

pub use common::ResultTable;

/// All experiment ids accepted by the `expt` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "ablation", "serve",
];

/// Run one experiment by id (fig3 is produced together with table1, and
/// fig10/fig11 together with fig9).
pub fn run(id: &str, quick: bool) -> Option<Vec<ResultTable>> {
    match id {
        "table1" | "fig3" => Some(study::run(quick)),
        "fig6" => Some(fig6::run(quick)),
        "fig7" => Some(fig7::run(quick)),
        "fig8" => Some(fig8::run(quick)),
        "fig9" | "fig10" | "fig11" => Some(fig9::run(quick)),
        "fig12" => Some(fig12::run(quick)),
        "fig13" => Some(fig13::run(quick)),
        "ablation" => Some(ablation::run(quick)),
        "serve" => Some(serve::run(quick)),
        _ => None,
    }
}
