//! # muve-solver
//!
//! Linear and 0/1 integer programming for MUVE's exact multiplot planner.
//!
//! The MUVE paper (Wei, Trummer, Anderson, PVLDB 2021) solves multiplot
//! selection with Gurobi. This crate is the from-scratch substitute: a
//! bounded-variable [`simplex`] LP engine (two-phase primal for a cold
//! solve, dual simplex to re-optimise after a bound change) and a
//! depth-first [`branch_bound`] search for mixed 0/1 programs that
//! re-solves each child from its parent's tableau, with deadlines and
//! warm-startable incumbents. The exponential-timeout restart schedule of
//! paper §5.4 runs on top of it in `muve-core`
//! (`plan_incremental_observed`). The [`model`] module offers a
//! small algebraic builder, including the binary-product linearizations the
//! §5.3 objective encoding requires.
//!
//! ```
//! use muve_solver::model::{Direction, Expr, Model};
//! use muve_solver::branch_bound::{solve_mip, MipConfig, MipStatus};
//!
//! let mut m = Model::new();
//! let x = m.binary("x");
//! let y = m.binary("y");
//! m.le(Expr::from(x) + Expr::from(y), 1.0);
//! m.set_objective(Expr::from(x) * 2.0 + Expr::from(y) * 3.0, Direction::Maximize);
//! let r = solve_mip(&m, &MipConfig::default());
//! assert_eq!(r.status, MipStatus::Optimal);
//! assert_eq!(r.objective, Some(3.0));
//! ```

#![warn(missing_docs)]

pub mod branch_bound;
pub mod model;
pub mod simplex;

pub use branch_bound::{solve_mip, MipConfig, MipResult, MipStatus};
pub use model::{Direction, Expr, Model, Var};
pub use simplex::{solve as solve_lp, Lp, LpOutcome, LpSolution};
