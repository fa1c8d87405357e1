//! High-level model builder for mixed 0/1 integer programs.
//!
//! [`Model`] collects variables, linear constraints and an objective, and
//! lowers them to the [`crate::simplex::Lp`] standard form consumed by the
//! LP and branch-and-bound engines. It also provides the two product
//! linearizations the MUVE ILP encoding needs (paper §5.3):
//!
//! - [`Model::mul_binary`] — `y = x1 * x2` for binaries, via
//!   `y <= x1`, `y <= x2`, `y >= x1 + x2 - 1`;
//! - [`Model::mul_binary_expr`] — `y = x * e` where `e` is a nonnegative
//!   linear expression with known upper bound `U`, via
//!   `y <= U*x`, `y <= e`, `y >= e - U*(1 - x)`.

use crate::simplex::{Lp, Row, Sense};
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Index of this variable in solution vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear expression `sum(coeff * var) + constant`.
#[derive(Debug, Clone, Default)]
pub struct Expr {
    /// `(var, coeff)` terms; may contain duplicates until normalized.
    pub terms: Vec<(Var, f64)>,
    /// Constant offset.
    pub constant: f64,
}

impl Expr {
    /// The zero expression.
    pub fn zero() -> Expr {
        Expr::default()
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Expr {
        Expr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Add `coeff * var` to the expression.
    pub fn add_term(&mut self, var: Var, coeff: f64) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// Sum coefficients of duplicate variables and drop zeros.
    pub fn normalized(mut self) -> Expr {
        self.terms.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(Var, f64)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| c.abs() > 0.0);
        Expr {
            terms: out,
            constant: self.constant,
        }
    }

    /// Evaluate the expression against a solution vector.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values[v.0]).sum::<f64>()
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Expr {
        Expr {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }
}

impl From<f64> for Expr {
    fn from(c: f64) -> Expr {
        Expr::constant(c)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(mut self, rhs: Expr) -> Expr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl AddAssign for Expr {
    fn add_assign(&mut self, rhs: Expr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self + (-rhs)
    }
}

impl SubAssign for Expr {
    fn sub_assign(&mut self, rhs: Expr) {
        *self += -rhs;
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(mut self) -> Expr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for Expr {
    type Output = Expr;
    fn mul(mut self, k: f64) -> Expr {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

impl Mul<f64> for Var {
    type Output = Expr;
    fn mul(self, k: f64) -> Expr {
        Expr {
            terms: vec![(self, k)],
            constant: 0.0,
        }
    }
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Minimize the objective (native form).
    #[default]
    Minimize,
    /// Maximize the objective (negated internally).
    Maximize,
}

#[derive(Debug, Clone)]
struct VarDef {
    name: String,
    upper: f64,
    integer: bool,
}

/// A mixed 0/1 integer linear program under construction.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<VarDef>,
    rows: Vec<Row>,
    objective: Expr,
    direction: Direction,
}

impl Model {
    /// Create an empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Add a binary (0/1) variable.
    pub fn binary(&mut self, name: impl Into<String>) -> Var {
        self.vars.push(VarDef {
            name: name.into(),
            upper: 1.0,
            integer: true,
        });
        Var(self.vars.len() - 1)
    }

    /// Add a binary variable whose `<= 1` bound is already implied by the
    /// model's constraints, so the LP carries no upper bound for it —
    /// branch-and-bound still enforces integrality by branching. Use only
    /// when the implication really holds; otherwise relaxations may
    /// exceed 1.
    pub fn binary_implied(&mut self, name: impl Into<String>) -> Var {
        self.vars.push(VarDef {
            name: name.into(),
            upper: f64::INFINITY,
            integer: true,
        });
        Var(self.vars.len() - 1)
    }

    /// Add a continuous variable in `[0, upper]` (`upper` may be infinite).
    pub fn continuous(&mut self, name: impl Into<String>, upper: f64) -> Var {
        self.vars.push(VarDef {
            name: name.into(),
            upper,
            integer: false,
        });
        Var(self.vars.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows (excluding variable bounds).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable (for diagnostics).
    pub fn name(&self, v: Var) -> &str {
        &self.vars[v.0].name
    }

    /// Whether a variable is integer-constrained.
    pub fn is_integer(&self, v: Var) -> bool {
        self.vars[v.0].integer
    }

    /// Add constraint `expr <= rhs`.
    pub fn le(&mut self, expr: Expr, rhs: f64) {
        self.push_row(expr, Sense::Le, rhs);
    }

    /// Add constraint `expr >= rhs`.
    pub fn ge(&mut self, expr: Expr, rhs: f64) {
        self.push_row(expr, Sense::Ge, rhs);
    }

    /// Add constraint `expr = rhs`.
    pub fn eq(&mut self, expr: Expr, rhs: f64) {
        self.push_row(expr, Sense::Eq, rhs);
    }

    fn push_row(&mut self, expr: Expr, sense: Sense, rhs: f64) {
        let e = expr.normalized();
        self.rows.push(Row {
            coeffs: e.terms.iter().map(|(v, c)| (v.0, *c)).collect(),
            sense,
            rhs: rhs - e.constant,
        });
    }

    /// Set the objective.
    pub fn set_objective(&mut self, expr: Expr, direction: Direction) {
        self.objective = expr.normalized();
        self.direction = direction;
    }

    /// Introduce `y = x1 * x2` for binary `x1`, `x2` (standard linearization).
    pub fn mul_binary(&mut self, x1: Var, x2: Var, name: impl Into<String>) -> Var {
        debug_assert!(self.is_integer(x1) && self.is_integer(x2));
        if x1 == x2 {
            // x * x = x for binaries.
            return x1;
        }
        let y = self.continuous(name, 1.0);
        self.le(Expr::from(y) - Expr::from(x1), 0.0);
        self.le(Expr::from(y) - Expr::from(x2), 0.0);
        self.ge(Expr::from(y) - Expr::from(x1) - Expr::from(x2), -1.0);
        y
    }

    /// Introduce `y = x * e` for binary `x` and nonnegative expression `e`
    /// bounded above by `upper`.
    pub fn mul_binary_expr(&mut self, x: Var, e: Expr, upper: f64, name: impl Into<String>) -> Var {
        debug_assert!(self.is_integer(x));
        let y = self.continuous(name, upper);
        // y <= U * x
        self.le(Expr::from(y) - Expr::from(x) * upper, 0.0);
        // y <= e
        self.le(Expr::from(y) - e.clone(), 0.0);
        // y >= e - U * (1 - x)
        self.ge(Expr::from(y) - e + Expr::from(x) * (-upper), -upper);
        y
    }

    /// Lower into the simplex standard form. Returns the LP (a minimization)
    /// together with the objective constant and a sign to recover the user
    /// objective: `user_obj = sign * lp_obj + constant`.
    pub fn to_lp(&self) -> (Lp, f64, f64) {
        let sign = match self.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        let mut objective = vec![0.0; self.vars.len()];
        for &(v, c) in &self.objective.terms {
            objective[v.0] = c * sign;
        }
        let lp = Lp {
            num_vars: self.vars.len(),
            objective,
            rows: self.rows.clone(),
            upper: self.vars.iter().map(|v| v.upper).collect(),
        };
        (lp, self.objective.constant, sign)
    }

    /// Indices of integer variables.
    pub fn integer_vars(&self) -> Vec<Var> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, d)| d.integer)
            .map(|(i, _)| Var(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve, LpOutcome};

    #[test]
    fn expr_arithmetic() {
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        let e = (Expr::from(x) * 2.0 + Expr::from(y) - Expr::constant(1.0)).normalized();
        assert_eq!(e.terms.len(), 2);
        assert_eq!(e.constant, -1.0);
        assert_eq!(e.eval(&[1.0, 0.5]), 2.0 + 0.5 - 1.0);
    }

    #[test]
    fn normalization_merges_duplicates() {
        let mut m = Model::new();
        let x = m.binary("x");
        let e = (Expr::from(x) + Expr::from(x) - Expr::from(x) * 2.0).normalized();
        assert!(e.terms.is_empty());
    }

    #[test]
    fn lp_lowering_maximize() {
        let mut m = Model::new();
        let x = m.continuous("x", 4.0);
        let y = m.continuous("y", 6.0);
        m.le(Expr::from(x) * 3.0 + Expr::from(y) * 2.0, 18.0);
        m.set_objective(
            Expr::from(x) * 3.0 + Expr::from(y) * 5.0,
            Direction::Maximize,
        );
        let (lp, constant, sign) = m.to_lp();
        let LpOutcome::Optimal(s) = solve(&lp, 10_000) else {
            panic!()
        };
        let user = sign * s.objective + constant;
        assert!((user - 36.0).abs() < 1e-6);
    }

    #[test]
    fn mul_binary_linearization() {
        // maximize y = a*b with a + b <= 1 forces y = 0.
        let mut m = Model::new();
        let a = m.binary("a");
        let b = m.binary("b");
        let y = m.mul_binary(a, b, "ab");
        m.le(Expr::from(a) + Expr::from(b), 1.0);
        m.set_objective(Expr::from(y), Direction::Maximize);
        let (lp, c, sign) = m.to_lp();
        let LpOutcome::Optimal(s) = solve(&lp, 10_000) else {
            panic!()
        };
        // LP relaxation: a = b = 0.5 allows y <= 0.5 but y >= a+b-1 = 0;
        // max y = 0.5 fractionally. Integrality handled by B&B elsewhere;
        // here we only check the constraint structure is consistent.
        assert!(sign * s.objective + c <= 0.5 + 1e-6);
    }

    #[test]
    fn mul_binary_same_var_is_identity() {
        let mut m = Model::new();
        let a = m.binary("a");
        assert_eq!(m.mul_binary(a, a, "aa"), a);
    }

    #[test]
    fn mul_binary_expr_bounds() {
        // y = x * e with e = 2a + 3b, U = 5; x = 1, a = b = 1 -> y = 5.
        let mut m = Model::new();
        let x = m.binary("x");
        let a = m.binary("a");
        let b = m.binary("b");
        let e = Expr::from(a) * 2.0 + Expr::from(b) * 3.0;
        let y = m.mul_binary_expr(x, e, 5.0, "xe");
        m.eq(Expr::from(x), 1.0);
        m.eq(Expr::from(a), 1.0);
        m.eq(Expr::from(b), 1.0);
        m.set_objective(Expr::from(y), Direction::Minimize);
        let (lp, c, sign) = m.to_lp();
        let LpOutcome::Optimal(s) = solve(&lp, 10_000) else {
            panic!()
        };
        assert!((sign * s.objective + c - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mul_binary_expr_zero_when_x_zero() {
        let mut m = Model::new();
        let x = m.binary("x");
        let a = m.binary("a");
        let y = m.mul_binary_expr(x, Expr::from(a) * 4.0, 4.0, "xa");
        m.eq(Expr::from(x), 0.0);
        m.eq(Expr::from(a), 1.0);
        m.set_objective(Expr::from(y), Direction::Maximize);
        let (lp, c, sign) = m.to_lp();
        let LpOutcome::Optimal(s) = solve(&lp, 10_000) else {
            panic!()
        };
        assert!((sign * s.objective + c).abs() < 1e-6);
    }

    #[test]
    fn names_and_counts() {
        let mut m = Model::new();
        let x = m.binary("flag");
        let y = m.continuous("amount", 10.0);
        assert_eq!(m.name(x), "flag");
        assert_eq!(m.name(y), "amount");
        assert!(m.is_integer(x));
        assert!(!m.is_integer(y));
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.integer_vars(), vec![x]);
    }

    #[test]
    fn constant_folded_into_rhs() {
        let mut m = Model::new();
        let x = m.continuous("x", f64::INFINITY);
        // x + 5 <= 7  =>  x <= 2
        m.le(Expr::from(x) + Expr::constant(5.0), 7.0);
        m.set_objective(Expr::from(x), Direction::Maximize);
        let (lp, c, sign) = m.to_lp();
        let LpOutcome::Optimal(s) = solve(&lp, 10_000) else {
            panic!()
        };
        assert!((sign * s.objective + c - 2.0).abs() < 1e-6);
    }
}
