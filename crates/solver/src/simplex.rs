//! Bounded-variable simplex on a condensed tableau: two-phase primal for a
//! cold solve, dual simplex to re-optimise after bound changes.
//!
//! This is the LP engine underneath the branch-and-bound integer solver.
//! Problems are given in the form
//!
//! ```text
//! minimize    c'x
//! subject to  a_i'x {<=, =, >=} b_i      for each row i
//!             0 <= x_j <= ub_j           (ub_j may be +inf)
//! ```
//!
//! Each row gets one slack (`>=` rows are negated first), so row `i` reads
//! `a_i'x + s_i = b_i` with `s_i` in `[0, inf)` for inequalities and in
//! `[0, 0]` for equalities. Finite upper bounds stay implicit bounds of
//! their variables instead of becoming rows; a nonbasic variable sits at
//! its lower or its upper bound. The tableau is stored in condensed
//! (Tucker) form: one row per basic variable over the *nonbasic* columns
//! only, in one flat allocation, with the basic values and the reduced
//! costs alongside. A variable whose bounds meet is fixed and never enters
//! again, so its column is dropped.
//!
//! A cold solve starts from the slack basis; rows it leaves infeasible get
//! an artificial variable, phase 1 minimises their sum, the artificials
//! and any redundant rows are then dropped, and phase 2 runs primal simplex
//! on the objective. Fixing a variable on a finished tableau, as a
//! branch-and-bound child does, keeps the basis dual feasible, so
//! re-optimising needs only dual simplex pivots until the basic values are
//! back within their bounds. Pricing is Dantzig's rule with
//! Harris' two-pass ratio test (largest pivot among near-ties), falling
//! back to Bland's rule after a run of degenerate pivots, which guarantees
//! termination.

use std::time::Instant;

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `a'x <= b`
    Le,
    /// `a'x = b`
    Eq,
    /// `a'x >= b`
    Ge,
}

/// A linear constraint row in sparse form.
#[derive(Debug, Clone)]
pub struct Row {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program in the solver's standard form.
#[derive(Debug, Clone, Default)]
pub struct Lp {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Minimization objective coefficients, one per variable.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<Row>,
    /// Upper bounds per variable (`f64::INFINITY` for unbounded).
    /// Lower bounds are implicitly zero.
    pub upper: Vec<f64>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic feasible solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The pivot budget was exhausted before convergence.
    PivotLimit,
}

/// A primal solution with its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Value per structural variable.
    pub values: Vec<f64>,
    /// Objective value `c'x`.
    pub objective: f64,
}

/// Verdict of a tableau solve; [`LpOutcome`] without the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Optimal,
    Infeasible,
    Unbounded,
    PivotLimit,
}

/// Primal and dual feasibility tolerance.
const EPS: f64 = 1e-9;
/// Smallest tableau entry accepted as a pivot.
const PIVOT_EPS: f64 = 1e-9;
/// Smallest entry that can expel an artificial after phase 1; a row with
/// none is redundant.
const EXPEL_EPS: f64 = 1e-7;
/// Phase-1 objective above which the constraints are declared infeasible.
const PHASE1_EPS: f64 = 1e-6;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_LIMIT: usize = 40;
/// Pivots between two deadline checks.
const DEADLINE_STRIDE: usize = 8;

/// Solve `lp` with at most `max_pivots` simplex pivots across both phases.
///
/// # Examples
/// ```
/// use muve_solver::simplex::{solve, Lp, LpOutcome, Row, Sense};
/// // maximize x + y s.t. x + 2y <= 4, 3x + y <= 6  ==  minimize -(x + y)
/// let lp = Lp {
///     num_vars: 2,
///     objective: vec![-1.0, -1.0],
///     rows: vec![
///         Row { coeffs: vec![(0, 1.0), (1, 2.0)], sense: Sense::Le, rhs: 4.0 },
///         Row { coeffs: vec![(0, 3.0), (1, 1.0)], sense: Sense::Le, rhs: 6.0 },
///     ],
///     upper: vec![f64::INFINITY, f64::INFINITY],
/// };
/// match solve(&lp, 1000) {
///     LpOutcome::Optimal(s) => assert!((s.objective + 3.0 - 0.2).abs() < 1e-6),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn solve(lp: &Lp, max_pivots: usize) -> LpOutcome {
    solve_within(lp, max_pivots, None)
}

/// Like [`solve`], but additionally aborts with [`LpOutcome::PivotLimit`]
/// once `deadline` passes (checked every few pivots), so a single large LP
/// cannot overrun an interactive optimization budget.
pub fn solve_within(lp: &Lp, max_pivots: usize, deadline: Option<Instant>) -> LpOutcome {
    let mut budget = Budget::new(max_pivots, deadline);
    let (status, tableau) = Tableau::cold(lp, &[], &mut budget);
    match status {
        Status::Optimal => LpOutcome::Optimal(tableau.solution(lp)),
        Status::Infeasible => LpOutcome::Infeasible,
        Status::Unbounded => LpOutcome::Unbounded,
        Status::PivotLimit => LpOutcome::PivotLimit,
    }
}

/// Pivot allowance of one solve: a count and an optional wall-clock cutoff.
pub(crate) struct Budget {
    left: usize,
    deadline: Option<Instant>,
    since_check: usize,
}

impl Budget {
    pub(crate) fn new(pivots: usize, deadline: Option<Instant>) -> Budget {
        Budget {
            left: pivots,
            deadline,
            since_check: 0,
        }
    }

    /// Take one pivot; `false` once the count or the deadline is spent.
    fn take(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.since_check += 1;
        if self.since_check >= DEADLINE_STRIDE {
            self.since_check = 0;
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                self.left = 0;
                return false;
            }
        }
        self.left -= 1;
        true
    }
}

/// A condensed simplex tableau with bounded variables.
///
/// Variables are numbered structural `0..n`, then one slack per row
/// `n..n + m`, then (during phase 1 only) one artificial per row. Basic
/// variable `head[i]` satisfies `x_head[i] = value_i - Σ_k a[i][k] Δx_nonb[k]`
/// for moves `Δx` of the nonbasic variables away from their bounds.
#[derive(Debug)]
pub(crate) struct Tableau {
    /// Constraint rows (`rows` of them), then the objective's reduced-cost
    /// row, then during phase 1 the phase-1 reduced-cost row. Each row is
    /// `stride` cells: `cols` live entries, unused cells of dropped
    /// columns, and last a value: the basic variable's value for a
    /// constraint row, the objective value for a cost row.
    cells: Vec<f64>,
    rows: usize,
    cols: usize,
    stride: usize,
    /// Basic variable per row.
    head: Vec<usize>,
    /// Nonbasic variable per column.
    nonb: Vec<usize>,
    /// Bounds per variable; equal bounds fix the variable.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Whether a nonbasic variable sits at its upper bound.
    at_upper: Vec<bool>,
    num_structural: usize,
}

impl Clone for Tableau {
    /// A copy without the cells of dropped columns.
    fn clone(&self) -> Tableau {
        let stride = self.cols + 1;
        let mut cells = Vec::with_capacity(self.cells.len() / self.stride * stride);
        for line in self.cells.chunks_exact(self.stride) {
            cells.extend_from_slice(&line[..self.cols]);
            cells.push(line[self.stride - 1]);
        }
        Tableau {
            cells,
            stride,
            head: self.head.clone(),
            nonb: self.nonb.clone(),
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            at_upper: self.at_upper.clone(),
            ..*self
        }
    }
}

impl Tableau {
    /// Solve `lp` from scratch with the variables in `fixes` fixed to their
    /// values: phase 1 from the slack basis, then phase 2. The returned
    /// tableau is meaningful (and can be re-optimised) only when the status
    /// is [`Status::Optimal`].
    pub(crate) fn cold(lp: &Lp, fixes: &[(usize, f64)], budget: &mut Budget) -> (Status, Tableau) {
        let mut t = Tableau::build(lp, fixes);
        if t.cost_rows() == 2 {
            match t.primal(true, budget) {
                Status::PivotLimit => return (Status::PivotLimit, t),
                Status::Unbounded => {
                    // The phase-1 objective is bounded below by 0.
                    debug_assert!(false, "phase-1 unbounded");
                    return (Status::Infeasible, t);
                }
                _ => {}
            }
            if t.value(t.rows + 1) > PHASE1_EPS {
                return (Status::Infeasible, t);
            }
        }
        t.expel();
        let status = t.primal(false, budget);
        (status, t)
    }

    fn build(lp: &Lp, fixes: &[(usize, f64)]) -> Tableau {
        let n = lp.num_vars;
        let m = lp.rows.len();
        let mut lower = vec![0.0; n + m];
        let mut upper = Vec::with_capacity(n + 2 * m);
        upper.extend_from_slice(&lp.upper);
        upper.extend(lp.rows.iter().map(|r| match r.sense {
            Sense::Eq => 0.0,
            Sense::Le | Sense::Ge => f64::INFINITY,
        }));
        for &(j, v) in fixes {
            lower[j] = v;
            upper[j] = v;
        }
        // Row values with every structural at its lower bound; the rows the
        // slack cannot absorb get an artificial.
        let residual: Vec<f64> = lp
            .rows
            .iter()
            .map(|row| {
                let sign = row_sign(row);
                sign * (row.rhs - row.coeffs.iter().map(|&(j, c)| c * lower[j]).sum::<f64>())
            })
            .collect();
        let needs_artificial: Vec<bool> = residual
            .iter()
            .enumerate()
            .map(|(i, &r)| r < -EPS || (upper[n + i] == 0.0 && r > EPS))
            .collect();
        let phase1 = needs_artificial.iter().any(|&a| a);
        // Columns: the free structurals, then the slacks of rows whose
        // artificial is basic (equality slacks are fixed and never columns).
        let mut nonb: Vec<usize> = (0..n).filter(|&j| lower[j] < upper[j]).collect();
        nonb.extend(
            (0..m)
                .filter(|&i| needs_artificial[i] && upper[n + i] > 0.0)
                .map(|i| n + i),
        );
        let cols = nonb.len();
        let stride = cols + 1;
        let mut col_of = vec![usize::MAX; n + m];
        for (k, &v) in nonb.iter().enumerate() {
            col_of[v] = k;
        }
        let cost_rows = if phase1 { 2 } else { 1 };
        let mut cells = vec![0.0; (m + cost_rows) * stride];
        let mut head = Vec::with_capacity(m);
        for (i, row) in lp.rows.iter().enumerate() {
            let line = &mut cells[i * stride..(i + 1) * stride];
            let mut sign = row_sign(row);
            if needs_artificial[i] {
                // ρ·a'x + s + σ·art = ρ·b with σ the residual's sign, so the
                // artificial starts at |residual|; divide the row by σ.
                let sigma = residual[i].signum();
                sign *= sigma;
                if col_of[n + i] != usize::MAX {
                    line[col_of[n + i]] = sigma;
                }
                head.push(n + m + i);
                line[cols] = residual[i].abs();
            } else {
                head.push(n + i);
                line[cols] = residual[i];
            }
            for &(j, c) in &row.coeffs {
                debug_assert!(j < n, "coefficient references unknown variable {j}");
                if col_of[j] != usize::MAX {
                    line[col_of[j]] += sign * c;
                }
            }
        }
        // Objective row: the basic slacks and artificials cost nothing.
        let obj = m * stride;
        for (k, &v) in nonb.iter().enumerate() {
            if v < n {
                cells[obj + k] = lp.objective[v];
            }
        }
        cells[obj + cols] = (0..n).map(|j| lp.objective[j] * lower[j]).sum();
        if phase1 {
            // Phase-1 row: minimise the sum of the artificials.
            let p1 = (m + 1) * stride;
            for i in (0..m).filter(|&i| needs_artificial[i]) {
                for k in 0..=cols {
                    cells[p1 + k] -= cells[i * stride + k];
                }
            }
            cells[p1 + cols] = -cells[p1 + cols];
            lower.resize(n + 2 * m, 0.0);
            upper.resize(n + 2 * m, f64::INFINITY);
        }
        let at_upper = vec![false; lower.len()];
        Tableau {
            cells,
            rows: m,
            cols,
            stride,
            head,
            nonb,
            lower,
            upper,
            at_upper,
            num_structural: n,
        }
    }

    fn cost_rows(&self) -> usize {
        self.cells.len() / self.stride - self.rows
    }

    fn at(&self, i: usize, k: usize) -> f64 {
        self.cells[i * self.stride + k]
    }

    /// Value cell of row `i`: a basic value, or an objective value.
    fn value(&self, i: usize) -> f64 {
        self.at(i, self.stride - 1)
    }

    fn set_value(&mut self, i: usize, v: f64) {
        self.cells[(i + 1) * self.stride - 1] = v;
    }

    fn is_fixed(&self, v: usize) -> bool {
        self.lower[v] == self.upper[v]
    }

    /// Current value of nonbasic variable `v`.
    fn bound_value(&self, v: usize) -> f64 {
        if self.at_upper[v] {
            self.upper[v]
        } else {
            self.lower[v]
        }
    }

    /// Move the nonbasic variable in column `k` by `delta`, updating the
    /// basic values and the objective values.
    fn shift(&mut self, k: usize, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let s = self.stride;
        for (i, line) in self.cells.chunks_exact_mut(s).enumerate() {
            if i < self.rows {
                line[s - 1] -= line[k] * delta;
            } else {
                line[s - 1] += line[k] * delta;
            }
        }
    }

    /// Exchange basic row `r` with nonbasic column `k` (the Tucker pivot);
    /// values are left untouched.
    fn pivot(&mut self, r: usize, k: usize) {
        let s = self.stride;
        let cols = self.cols;
        let (before, rest) = self.cells.split_at_mut(r * s);
        let (prow, after) = rest.split_at_mut(s);
        let inv = 1.0 / prow[k];
        for v in &mut prow[..cols] {
            *v *= inv;
        }
        prow[k] = inv;
        let prow = &prow[..cols];
        for line in before.chunks_exact_mut(s).chain(after.chunks_exact_mut(s)) {
            let f = line[k];
            if f != 0.0 {
                for (v, &p) in line[..cols].iter_mut().zip(prow) {
                    *v -= f * p;
                }
                line[k] = -f * inv;
            }
        }
        std::mem::swap(&mut self.head[r], &mut self.nonb[k]);
    }

    /// Move column `k`'s variable by `delta` and make it basic in row `r`,
    /// whose variable leaves at its upper bound if `leave_upper`.
    fn exchange(&mut self, r: usize, k: usize, delta: f64, leave_upper: bool) {
        let entering = self.nonb[k];
        let entering_value = self.bound_value(entering) + delta;
        self.shift(k, delta);
        let leaving = self.head[r];
        self.at_upper[leaving] = leave_upper;
        self.pivot(r, k);
        self.set_value(r, entering_value);
        self.at_upper[entering] = false;
    }

    /// Drop the columns of fixed nonbasic variables; their values are
    /// already part of the basic values and objective values. The last
    /// live column moves into each dropped one, so rows keep their stride.
    fn compact(&mut self) {
        let mut k = 0;
        while k < self.cols {
            if !self.is_fixed(self.nonb[k]) {
                k += 1;
                continue;
            }
            let last = self.cols - 1;
            for line in self.cells.chunks_exact_mut(self.stride) {
                line[k] = line[last];
            }
            self.nonb.swap_remove(k);
            self.cols = last;
        }
    }

    /// Primal simplex on the objective row (or the phase-1 row) from a
    /// primal feasible basis: `Optimal`, `Unbounded` or `PivotLimit`.
    fn primal(&mut self, phase1: bool, budget: &mut Budget) -> Status {
        let cost = if phase1 { self.rows + 1 } else { self.rows };
        let mut degenerate_run = 0usize;
        loop {
            if !budget.take() {
                return Status::PivotLimit;
            }
            let bland = degenerate_run >= DEGENERATE_LIMIT;
            // Entering column: a reduced cost that improves in the
            // direction the variable can move.
            let mut enter = None;
            let mut best = 0.0;
            for k in 0..self.cols {
                let v = self.nonb[k];
                if self.is_fixed(v) {
                    continue;
                }
                let d = self.at(cost, k);
                let gain = if self.at_upper[v] { d } else { -d };
                if gain > EPS {
                    if bland {
                        if enter.is_none_or(|e: usize| v < self.nonb[e]) {
                            enter = Some(k);
                        }
                    } else if gain > best {
                        best = gain;
                        enter = Some(k);
                    }
                }
            }
            let Some(k) = enter else {
                return Status::Optimal;
            };
            let v = self.nonb[k];
            let dir = if self.at_upper[v] { -1.0 } else { 1.0 };
            // Ratio test: how far the entering variable can move before a
            // basic variable reaches a bound (or it reaches its own).
            let limit = |t: &Tableau, i: usize, slack: f64| -> Option<(f64, bool)> {
                let a = t.at(i, k) * dir;
                let h = t.head[i];
                if a > PIVOT_EPS {
                    Some((((t.value(i) - t.lower[h]) + slack) / a, false))
                } else if a < -PIVOT_EPS && t.upper[h].is_finite() {
                    Some((((t.upper[h] - t.value(i)) + slack) / -a, true))
                } else {
                    None
                }
            };
            let mut cap = f64::INFINITY;
            for i in 0..self.rows {
                if let Some((ratio, _)) = limit(self, i, if bland { 0.0 } else { EPS }) {
                    cap = cap.min(ratio);
                }
            }
            let flip = self.upper[v] - self.lower[v];
            if flip <= cap {
                if flip == f64::INFINITY {
                    return Status::Unbounded;
                }
                self.shift(k, dir * flip);
                self.at_upper[v] = !self.at_upper[v];
                degenerate_run = 0;
                continue;
            }
            let mut leave: Option<(usize, f64, bool)> = None;
            for i in 0..self.rows {
                let Some((ratio, to_upper)) = limit(self, i, 0.0) else {
                    continue;
                };
                if ratio > cap {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some((l, best_ratio, _)) if bland => {
                        ratio < best_ratio - EPS
                            || (ratio < best_ratio + EPS && self.head[i] < self.head[l])
                    }
                    Some((l, _, _)) => self.at(i, k).abs() > self.at(l, k).abs(),
                };
                if better {
                    leave = Some((i, ratio, to_upper));
                }
            }
            let (r, ratio, to_upper) = leave.expect("a finite cap has a blocking row");
            let step = ratio.max(0.0);
            degenerate_run = if step < EPS { degenerate_run + 1 } else { 0 };
            let leaving = self.head[r];
            self.exchange(r, k, dir * step, to_upper);
            if phase1 && leaving >= self.num_structural + self.rows {
                // An artificial that left the basis never returns.
                self.upper[leaving] = 0.0;
            }
        }
    }

    /// Before phase 2: pivot the basic artificials and the basic equality
    /// slacks out (they sit at zero), drop the rows where no pivot exists
    /// as redundant, then drop the artificials and the phase-1 row.
    fn expel(&mut self) {
        let first_artificial = self.num_structural + self.rows;
        for v in first_artificial..self.upper.len() {
            self.upper[v] = 0.0;
        }
        let mut i = 0;
        while i < self.rows {
            let h = self.head[i];
            if h < self.num_structural || !self.is_fixed(h) {
                i += 1;
                continue;
            }
            let mut pick: Option<usize> = None;
            for k in 0..self.cols {
                let a = self.at(i, k).abs();
                if a > EXPEL_EPS
                    && !self.is_fixed(self.nonb[k])
                    && pick.is_none_or(|p| a > self.at(i, p).abs())
                {
                    pick = Some(k);
                }
            }
            match pick {
                Some(k) => {
                    let delta = (self.value(i) - self.lower[h]) / self.at(i, k);
                    self.exchange(i, k, delta, false);
                    i += 1;
                }
                None => self.remove_row(i),
            }
        }
        self.compact();
        self.cells.truncate((self.rows + 1) * self.stride);
        self.lower.truncate(first_artificial);
        self.upper.truncate(first_artificial);
        self.at_upper.truncate(first_artificial);
    }

    fn remove_row(&mut self, i: usize) {
        let s = self.stride;
        self.cells.drain(i * s..(i + 1) * s);
        self.head.remove(i);
        self.rows -= 1;
    }

    /// Fix variable `v` (structural) to `value`. A nonbasic variable moves
    /// to the value at once and its column is dropped at the next
    /// [`Tableau::reoptimize`]; a basic one is pivoted out there.
    pub(crate) fn fix(&mut self, v: usize, value: f64) {
        if self.lower[v] == value && self.upper[v] == value {
            return;
        }
        if let Some(k) = self.nonb.iter().position(|&x| x == v) {
            let delta = value - self.bound_value(v);
            self.shift(k, delta);
        }
        self.lower[v] = value;
        self.upper[v] = value;
        self.at_upper[v] = false;
    }

    /// Restore primal feasibility after [`Tableau::fix`] calls by dual
    /// simplex, then clean up any dual infeasibility left by the ratio
    /// tolerances with primal pivots.
    pub(crate) fn reoptimize(&mut self, budget: &mut Budget) -> Status {
        // Fixed structurals still basic leave first, so their columns drop.
        for i in 0..self.rows {
            let h = self.head[i];
            if h >= self.num_structural || !self.is_fixed(h) {
                continue;
            }
            let x = self.value(i);
            let pivoted = if x < self.lower[h] - EPS {
                self.dual_pivot(i, true)
            } else if x > self.upper[h] + EPS {
                self.dual_pivot(i, false)
            } else {
                self.dual_pivot(i, false) || self.dual_pivot(i, true)
            };
            if !pivoted && (x - self.lower[h]).abs() > EPS {
                return Status::Infeasible;
            }
        }
        self.compact();
        let mut degenerate_run = 0usize;
        loop {
            if !budget.take() {
                return Status::PivotLimit;
            }
            let bland = degenerate_run >= DEGENERATE_LIMIT;
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, bool)> = None;
            let mut worst = EPS;
            for i in 0..self.rows {
                let h = self.head[i];
                let x = self.value(i);
                let (gap, up) = if x < self.lower[h] {
                    (self.lower[h] - x, true)
                } else {
                    (x - self.upper[h], false)
                };
                if gap > EPS {
                    if bland {
                        if leave.is_none_or(|(l, _)| h < self.head[l]) {
                            leave = Some((i, up));
                        }
                    } else if gap > worst {
                        worst = gap;
                        leave = Some((i, up));
                    }
                }
            }
            let Some((r, up)) = leave else {
                break;
            };
            let before = self.value(self.rows);
            if !self.dual_pivot(r, up) {
                return Status::Infeasible;
            }
            degenerate_run = if (self.value(self.rows) - before).abs() < EPS {
                degenerate_run + 1
            } else {
                0
            };
        }
        self.primal(false, budget)
    }

    /// One dual simplex pivot on row `r`: its basic variable moves up (or
    /// down) to the nearer bound in that direction and leaves. The entering
    /// column keeps every reduced cost's sign (Harris' two-pass ratio test
    /// on the objective row). Returns `false` if no column can move the
    /// row that way.
    fn dual_pivot(&mut self, r: usize, up: bool) -> bool {
        let cost = self.rows;
        // Column k can raise row r's basic variable if moving k in its
        // free direction has a < 0 effect on a·Δx.
        let ratio = |t: &Tableau, k: usize, slack: f64| -> Option<f64> {
            let v = t.nonb[k];
            if t.is_fixed(v) {
                return None;
            }
            let a = t.at(r, k);
            let dir = if t.at_upper[v] { -1.0 } else { 1.0 };
            let effect = if up { -a * dir } else { a * dir };
            if effect > PIVOT_EPS {
                let d = (t.at(cost, k) * dir).max(0.0);
                Some((d + slack) / a.abs())
            } else {
                None
            }
        };
        let mut cap = f64::INFINITY;
        for k in 0..self.cols {
            if let Some(q) = ratio(self, k, EPS) {
                cap = cap.min(q);
            }
        }
        if cap == f64::INFINITY {
            return false;
        }
        let mut enter: Option<usize> = None;
        for k in 0..self.cols {
            if ratio(self, k, 0.0).is_some_and(|q| q <= cap)
                && enter.is_none_or(|e| self.at(r, k).abs() > self.at(r, e).abs())
            {
                enter = Some(k);
            }
        }
        let k = enter.expect("cap is attained");
        let h = self.head[r];
        let target = if up { self.lower[h] } else { self.upper[h] };
        let delta = (self.value(r) - target) / self.at(r, k);
        self.exchange(r, k, delta, !up && self.lower[h] != self.upper[h]);
        true
    }

    /// The current basic solution in structural variables, with its
    /// objective recomputed from the values.
    pub(crate) fn solution(&self, lp: &Lp) -> LpSolution {
        let n = self.num_structural;
        let mut values: Vec<f64> = (0..n).map(|j| self.bound_value(j)).collect();
        for (i, &h) in self.head.iter().enumerate() {
            if h < n {
                values[h] = self.value(i);
            }
        }
        let objective = values.iter().zip(&lp.objective).map(|(x, c)| x * c).sum();
        LpSolution { values, objective }
    }
}

/// `-1` for a `>=` row (stored negated as `<=`), `+1` otherwise.
fn row_sign(row: &Row) -> f64 {
    if row.sense == Sense::Ge {
        -1.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(num_vars: usize, obj: &[f64], rows: Vec<Row>, upper: Option<Vec<f64>>) -> Lp {
        Lp {
            num_vars,
            objective: obj.to_vec(),
            rows,
            upper: upper.unwrap_or_else(|| vec![f64::INFINITY; num_vars]),
        }
    }

    fn optimal(lp: &Lp) -> LpSolution {
        match solve(lp, 100_000) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), obj 36.
        let p = lp(
            2,
            &[-3.0, -5.0],
            vec![
                Row {
                    coeffs: vec![(0, 1.0)],
                    sense: Sense::Le,
                    rhs: 4.0,
                },
                Row {
                    coeffs: vec![(1, 2.0)],
                    sense: Sense::Le,
                    rhs: 12.0,
                },
                Row {
                    coeffs: vec![(0, 3.0), (1, 2.0)],
                    sense: Sense::Le,
                    rhs: 18.0,
                },
            ],
            None,
        );
        let s = optimal(&p);
        assert!((s.objective + 36.0).abs() < 1e-6);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y st x + y = 10, x >= 3 => obj 10.
        let p = lp(
            2,
            &[1.0, 1.0],
            vec![
                Row {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    sense: Sense::Eq,
                    rhs: 10.0,
                },
                Row {
                    coeffs: vec![(0, 1.0)],
                    sense: Sense::Ge,
                    rhs: 3.0,
                },
            ],
            None,
        );
        let s = optimal(&p);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!(s.values[0] >= 3.0 - 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let p = lp(
            1,
            &[1.0],
            vec![
                Row {
                    coeffs: vec![(0, 1.0)],
                    sense: Sense::Ge,
                    rhs: 5.0,
                },
                Row {
                    coeffs: vec![(0, 1.0)],
                    sense: Sense::Le,
                    rhs: 2.0,
                },
            ],
            None,
        );
        assert_eq!(solve(&p, 100_000), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0 unbounded below.
        let p = lp(1, &[-1.0], vec![], None);
        assert_eq!(solve(&p, 100_000), LpOutcome::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x - y with x <= 2.5, y <= 1.5 -> (2.5, 1.5).
        let p = lp(2, &[-1.0, -1.0], vec![], Some(vec![2.5, 1.5]));
        let s = optimal(&p);
        assert!((s.objective + 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2  (i.e. y >= x + 2), min y => x = 0, y = 2.
        let p = lp(
            2,
            &[0.0, 1.0],
            vec![Row {
                coeffs: vec![(0, 1.0), (1, -1.0)],
                sense: Sense::Le,
                rhs: -2.0,
            }],
            None,
        );
        let s = optimal(&p);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (Beale-like): must not cycle.
        let p = lp(
            4,
            &[-0.75, 150.0, -0.02, 6.0],
            vec![
                Row {
                    coeffs: vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    sense: Sense::Le,
                    rhs: 0.0,
                },
                Row {
                    coeffs: vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    sense: Sense::Le,
                    rhs: 0.0,
                },
                Row {
                    coeffs: vec![(2, 1.0)],
                    sense: Sense::Le,
                    rhs: 1.0,
                },
            ],
            None,
        );
        let s = optimal(&p);
        assert!((s.objective + 0.05).abs() < 1e-6);
    }

    #[test]
    fn pivot_limit_reported() {
        let p = lp(
            2,
            &[-3.0, -5.0],
            vec![Row {
                coeffs: vec![(0, 3.0), (1, 2.0)],
                sense: Sense::Le,
                rhs: 18.0,
            }],
            Some(vec![4.0, 6.0]),
        );
        assert_eq!(solve(&p, 0), LpOutcome::PivotLimit);
    }

    #[test]
    fn redundant_equalities_ok() {
        // Duplicate equality rows must not cause infeasibility.
        let p = lp(
            2,
            &[1.0, 2.0],
            vec![
                Row {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    sense: Sense::Eq,
                    rhs: 4.0,
                },
                Row {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    sense: Sense::Eq,
                    rhs: 4.0,
                },
            ],
            None,
        );
        let s = optimal(&p);
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!((s.values[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn zero_variable_problem() {
        let p = lp(0, &[], vec![], Some(vec![]));
        let s = optimal(&p);
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn fractional_lp_relaxation_of_knapsack() {
        // max 10a + 6b st 5a + 4b <= 7, a,b in [0,1]: a=1, b=0.5, obj 13.
        let p = lp(
            2,
            &[-10.0, -6.0],
            vec![Row {
                coeffs: vec![(0, 5.0), (1, 4.0)],
                sense: Sense::Le,
                rhs: 7.0,
            }],
            Some(vec![1.0, 1.0]),
        );
        let s = optimal(&p);
        assert!((s.objective + 13.0).abs() < 1e-6);
        assert!((s.values[0] - 1.0).abs() < 1e-6);
        assert!((s.values[1] - 0.5).abs() < 1e-6);
    }
}

#[cfg(test)]
mod warm_tests {
    //! Differential: a tableau re-optimised by dual simplex after each
    //! step of a fix chain against a cold solve of the same bounds.
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random LP over 0/1-bounded variables (a few continuous ones with
    /// other bounds) whose rows all hold at the returned 0/1 point.
    fn random_model(rng: &mut StdRng) -> (Lp, Vec<f64>) {
        let n = rng.gen_range(20..60);
        let upper: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 2.5,
                1 => f64::INFINITY,
                _ => 1.0,
            })
            .collect();
        let point: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..2u8))).collect();
        let mut rows = Vec::new();
        for _ in 0..rng.gen_range(n / 3..2 * n / 3 + 1) {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.25) {
                    coeffs.push((j, f64::from(rng.gen_range(-5..=5i8))));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            let at: f64 = coeffs.iter().map(|&(j, c)| c * point[j]).sum();
            let (sense, rhs) = match rng.gen_range(0..8) {
                0 => (Sense::Eq, at),
                1..=3 => (Sense::Ge, at - f64::from(rng.gen_range(0..4u8))),
                _ => (Sense::Le, at + f64::from(rng.gen_range(0..4u8))),
            };
            rows.push(Row { coeffs, sense, rhs });
        }
        // Unbounded variables are capped by a row so the LP stays bounded.
        for j in (0..n).filter(|&j| upper[j].is_infinite()) {
            rows.push(Row {
                coeffs: vec![(j, 1.0)],
                sense: Sense::Le,
                rhs: 3.0,
            });
        }
        let lp = Lp {
            num_vars: n,
            objective: (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect(),
            rows,
            upper,
        };
        (lp, point)
    }

    fn cold(lp: &Lp, fixes: &[(usize, f64)]) -> (Status, Tableau) {
        Tableau::cold(lp, fixes, &mut Budget::new(100_000, None))
    }

    #[test]
    fn warm_dual_resolve_matches_cold_solve() {
        let mut rng = StdRng::seed_from_u64(0x5eed_d0a1);
        let (mut steps, mut infeasible, mut deep) = (0usize, 0usize, 0usize);
        for model in 0..200 {
            let (lp, point) = random_model(&mut rng);
            let (status, mut warm) = cold(&lp, &[]);
            assert_eq!(status, Status::Optimal, "model {model}: root");
            let mut fixes: Vec<(usize, f64)> = Vec::new();
            let depth = rng.gen_range(1..=40);
            for step in 0..depth {
                let free: Vec<usize> = (0..lp.num_vars)
                    .filter(|j| !fixes.iter().any(|(f, _)| f == j))
                    .collect();
                if free.is_empty() {
                    break;
                }
                // One to three fixes at once, as a branching decision and
                // the fixes it implies arrive together. Most agree with the
                // point every row holds at, so chains run deep; the rest
                // mostly take the rounded LP value, as a dive does.
                let values = warm.solution(&lp).values;
                let count = [1, 1, 1, 1, 1, 1, 1, 2, 2, 3][rng.gen_range(0..10)];
                for _ in 0..free.len().min(count) {
                    let j = free[rng.gen_range(0..free.len())];
                    if fixes.iter().any(|(f, _)| *f == j) {
                        continue;
                    }
                    let rounded = values[j].round().clamp(0.0, 1.0);
                    let v = match rng.gen_range(0..20) {
                        0..=16 => point[j],
                        17 | 18 => rounded,
                        _ => 1.0 - rounded,
                    };
                    fixes.push((j, v));
                    warm.fix(j, v);
                }
                steps += 1;
                if step >= 20 {
                    deep += 1;
                }
                let got = warm.reoptimize(&mut Budget::new(100_000, None));
                let (want, reference) = cold(&lp, &fixes);
                assert_eq!(got, want, "model {model}, step {step}, fixes {fixes:?}");
                if want != Status::Optimal {
                    infeasible += 1;
                    break;
                }
                let (w, c) = (warm.solution(&lp), reference.solution(&lp));
                assert!(
                    (w.objective - c.objective).abs() <= 1e-7 * c.objective.abs().max(1.0),
                    "model {model}, step {step}: warm {} vs cold {}",
                    w.objective,
                    c.objective
                );
                for &(j, v) in &fixes {
                    assert!(
                        (w.values[j] - v).abs() < 1e-9,
                        "model {model}, step {step}: x{j}"
                    );
                }
            }
        }
        // The chains go deep and reach both verdicts many times.
        assert!(
            steps > 2_000 && deep > 150 && infeasible > 50,
            "{steps} steps, {deep} past depth 20, {infeasible} infeasible"
        );
    }
}
