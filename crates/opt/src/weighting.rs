//! The reduced optimal query weighting problem and its certified solver.

use crate::error::{OptError, Result};
use mm_linalg::{ops, Matrix};
use std::borrow::Cow;

/// The reduced form of Program 1:
///
/// ```text
///     minimize    Σᵢ cᵢ / uᵢ
///     subject to  B u ≤ 1,   u ≥ 0
/// ```
///
/// with `B ≥ 0` elementwise.  For design queries `Q` (one row per design
/// query, one column per cell) the constraint matrix is `B = (Q ∘ Q)ᵀ`, one
/// row per cell, so that `(B u)_j` is the squared L2 norm of column `j` of the
/// weighted strategy `diag(√u) Q`.
#[derive(Debug, Clone)]
pub struct WeightingProblem {
    costs: Vec<f64>,
    constraints: Matrix,
}

/// Solution of a [`WeightingProblem`], with its optimality certificate.
#[derive(Debug, Clone)]
pub struct WeightingSolution {
    /// The variables `u` (squared design-query weights), normalised so that
    /// the largest constraint value is 1.
    pub u: Vec<f64>,
    /// Objective value `Σ cᵢ/uᵢ` at `u` (entries with `cᵢ = 0` contribute 0).
    pub objective: f64,
    /// The best weak-duality lower bound found: the optimum lies in
    /// `[dual_bound, objective]`.
    pub dual_bound: f64,
    /// The certified relative gap `(objective − dual_bound) / objective`:
    /// `objective` is within this fraction of the optimum.
    pub gap: f64,
    /// Dual updates performed by the solver.
    pub iterations: usize,
}

/// Options for [`solve_weighting`].
#[derive(Debug, Clone)]
pub struct WeightingOptions {
    /// Relative duality gap `(objective − dual_bound) / objective` at which
    /// the solver stops.  Must be positive and finite.
    pub gap: f64,
}

impl Default for WeightingOptions {
    fn default() -> Self {
        WeightingOptions { gap: 1e-4 }
    }
}

impl WeightingOptions {
    /// A looser certificate (gap 1e-3) for the performance-optimised
    /// selection variants (eigen-query separation, principal vectors).
    pub fn fast() -> Self {
        WeightingOptions { gap: 1e-3 }
    }
}

impl WeightingProblem {
    /// Creates a problem from costs and a constraint matrix.
    ///
    /// `constraints` has one row per constraint and `costs.len()` columns; all
    /// entries must be nonnegative and finite.
    pub fn new(costs: Vec<f64>, constraints: Matrix) -> Result<Self> {
        if costs.is_empty() {
            return Err(OptError::InvalidProblem("no variables".into()));
        }
        if constraints.cols() != costs.len() {
            return Err(OptError::InvalidProblem(format!(
                "constraint matrix has {} columns but there are {} costs",
                constraints.cols(),
                costs.len()
            )));
        }
        if constraints.rows() == 0 {
            return Err(OptError::InvalidProblem("no constraints".into()));
        }
        if costs.iter().any(|&c| c < 0.0 || !c.is_finite()) {
            return Err(OptError::InvalidProblem(
                "costs must be nonnegative and finite".into(),
            ));
        }
        if constraints
            .as_slice()
            .iter()
            .any(|&b| b < 0.0 || !b.is_finite())
        {
            return Err(OptError::InvalidProblem(
                "constraint coefficients must be nonnegative and finite".into(),
            ));
        }
        // Every variable with a positive cost must appear in at least one
        // constraint, otherwise the optimum is unbounded (u_i -> infinity).
        // One row-major pass accumulates all column sums (the per-variable
        // column walk this replaces was a stride-n gather — the single most
        // expensive step of problem construction at serving sizes).
        let mut col_sums = vec![0.0f64; costs.len()];
        for r in 0..constraints.rows() {
            for (acc, &b) in col_sums.iter_mut().zip(constraints.row(r)) {
                *acc += b;
            }
        }
        for (i, (&c, &col_sum)) in costs.iter().zip(col_sums.iter()).enumerate() {
            if c > 0.0 && col_sum <= 0.0 {
                return Err(OptError::InvalidProblem(format!(
                    "variable {i} has positive cost but never appears in a constraint"
                )));
            }
        }
        Ok(WeightingProblem { costs, constraints })
    }

    /// Builds the problem for a design-query matrix `Q` (rows are design
    /// queries, columns are cells) and per-design-query costs.
    pub fn from_design_queries(q: &Matrix, costs: Vec<f64>) -> Result<Self> {
        if q.rows() != costs.len() {
            return Err(OptError::InvalidProblem(format!(
                "{} design queries but {} costs",
                q.rows(),
                costs.len()
            )));
        }
        // B = (Q ∘ Q)ᵀ : one constraint per cell.
        let b = Matrix::from_fn(q.cols(), q.rows(), |cell, query| {
            let v = q[(query, cell)];
            v * v
        });
        WeightingProblem::new(costs, b)
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.rows()
    }

    /// The cost vector `c`.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// The constraint matrix `B`.
    pub fn constraints(&self) -> &Matrix {
        &self.constraints
    }

    /// Objective value `Σ cᵢ/uᵢ`; entries with `cᵢ = 0` contribute nothing
    /// even when `uᵢ = 0`.
    pub fn objective(&self, u: &[f64]) -> f64 {
        assert_eq!(u.len(), self.costs.len());
        let terms: Vec<f64> = self
            .costs
            .iter()
            .zip(u.iter())
            .map(|(&c, &ui)| if c == 0.0 { 0.0 } else { c / ui })
            .collect();
        ops::sum(&terms)
    }

    /// The weak-duality lower bound `D(μ) = (Σᵢ √(cᵢ·(Bᵀμ)ᵢ))²` for a
    /// weighting `μ` of the constraints (one entry per constraint row).
    ///
    /// For every `μ` on the probability simplex, `D(μ)` is at most the
    /// objective of every feasible `u`: by Cauchy–Schwarz,
    /// `Σᵢ √(cᵢ vᵢ) ≤ √(Σᵢ cᵢ/uᵢ) · √(Σᵢ uᵢ vᵢ)` with `v = Bᵀμ`, and
    /// `Σᵢ uᵢ vᵢ = μᵀ(Bu) ≤ 1`.  On an Eigen-Design problem (unit-norm design
    /// rows) at uniform `μ` it equals the singular value bound of Theorem 2.
    pub fn dual_value(&self, mu: &[f64]) -> f64 {
        let v = self
            .constraints
            .matvec_transposed(mu)
            .expect("one weight per constraint");
        let sqrt_c: Vec<f64> = self.costs.iter().map(|c| c.sqrt()).collect();
        let sqrt_v: Vec<f64> = v.iter().map(|x| x.sqrt()).collect();
        let s = ops::dot(&sqrt_c, &sqrt_v);
        s * s
    }

    /// The constraint values `B u`.
    pub fn constraint_values(&self, u: &[f64]) -> Vec<f64> {
        self.constraints
            .matvec(u)
            .expect("dimension checked at construction")
    }

    /// The largest constraint value `max_j (B u)_j`.
    pub fn max_constraint(&self, u: &[f64]) -> f64 {
        self.constraint_values(u)
            .into_iter()
            .fold(0.0_f64, f64::max)
    }

    /// Scales `u` so that the largest constraint value is exactly 1 (a no-op
    /// when all constraints are zero).
    pub fn normalize(&self, u: &[f64]) -> Vec<f64> {
        let m = self.max_constraint(u);
        if m <= 0.0 {
            return u.to_vec();
        }
        u.iter().map(|&v| v / m).collect()
    }

    /// True when `u` is (numerically) feasible: nonnegative and `B u ≤ 1 + tol`.
    pub fn is_feasible(&self, u: &[f64], tol: f64) -> bool {
        u.iter().all(|&v| v >= -tol) && self.max_constraint(u) <= 1.0 + tol
    }

    /// A feasible starting point: `u ∝ c` (the Theorem-2 weighting `λᵢ = √σᵢ`
    /// when the costs are the workload eigenvalues), scaled to saturate the
    /// sensitivity budget.  Variables with zero cost start at zero.
    pub fn initial_point(&self) -> Vec<f64> {
        let max_c = self.costs.iter().fold(0.0_f64, |m, &c| m.max(c));
        let mut u: Vec<f64> = if max_c <= 0.0 {
            vec![0.0; self.costs.len()]
        } else {
            self.costs.iter().map(|&c| c / max_c).collect()
        };
        let m = self.max_constraint(&u);
        if m > 0.0 {
            for v in &mut u {
                *v /= m;
            }
        }
        u
    }
}

/// Dual updates after which [`solve_weighting`] returns its best iterate
/// even when the gap has not closed.
const MAX_ITERATIONS: usize = 5_000;

/// The first dual step exponent ρ; it halves (down to 1) whenever the dual
/// bound fails to rise.
const INITIAL_RHO: i32 = 8;

/// Share of the uniform weighting mixed into `μ` at every update, so no
/// constraint weight underflows to zero.  `√D` is concave in `μ`, so the
/// mix costs an update at most a factor `(1 − MU_FLOOR)²` of its dual value.
const MU_FLOOR: f64 = 1e-12;

/// Solves the weighting problem by multiplicative dual ascent and stops on a
/// certified relative duality gap (see the crate documentation).
///
/// The result is never worse than [`WeightingProblem::initial_point`], and
/// its `objective` exceeds the optimum by at most `gap · objective`.  If the
/// gap has not closed after a fixed number of updates, the best feasible
/// iterate is returned together with the gap it certifies.  The solver is
/// single-threaded, so its output repeats bit for bit on every thread count.
pub fn solve_weighting(
    problem: &WeightingProblem,
    opts: &WeightingOptions,
) -> Result<WeightingSolution> {
    if !(opts.gap > 0.0 && opts.gap.is_finite()) {
        return Err(OptError::InvalidProblem(format!(
            "the gap tolerance must be positive and finite, got {}",
            opts.gap
        )));
    }
    let costs = problem.costs();
    let active: Vec<usize> = (0..costs.len()).filter(|&i| costs[i] > 0.0).collect();
    if active.is_empty() {
        return Ok(WeightingSolution {
            u: vec![0.0; costs.len()],
            objective: 0.0,
            dual_bound: 0.0,
            gap: 0.0,
            iterations: 0,
        });
    }
    // Zero-cost variables stay at 0, so both products run over the active
    // columns only: `b` (cells × active) for `Bu`, `bt` for `Bᵀμ`.
    let sqrt_c: Vec<f64> = active.iter().map(|&i| costs[i].sqrt()).collect();
    let full = problem.constraints();
    let cells = full.rows();
    let b = if active.len() == costs.len() {
        Cow::Borrowed(full)
    } else {
        Cow::Owned(Matrix::from_fn(cells, active.len(), |j, a| {
            full[(j, active[a])]
        }))
    };
    let bt = b.transpose();

    let mut best_u = problem.initial_point();
    let mut best_f = problem.objective(&best_u);
    let mut best_d = 0.0_f64;
    let mut prev_d = 0.0_f64;
    let mut mu = vec![1.0 / cells as f64; cells];
    let mut rho = INITIAL_RHO;
    let mut iterations = 0;
    loop {
        // Dual bound at μ, and the primal point it induces.
        let sqrt_v: Vec<f64> = bt
            .rows_iter()
            .map(|row| ops::dot(row, &mu).sqrt())
            .collect();
        let s = ops::dot(&sqrt_c, &sqrt_v);
        let d = s * s;
        let u_act: Vec<f64> = sqrt_c.iter().zip(&sqrt_v).map(|(a, b)| a / b).collect();
        if !d.is_finite() || !u_act.iter().all(|x| x.is_finite()) {
            break;
        }
        if d <= prev_d {
            rho = (rho / 2).max(1);
        }
        prev_d = d;
        best_d = best_d.max(d);
        let bu: Vec<f64> = b.rows_iter().map(|row| ops::dot(row, &u_act)).collect();
        let m = bu.iter().fold(0.0_f64, |acc, &x| acc.max(x));
        let mut u = vec![0.0; costs.len()];
        for (&i, &ui) in active.iter().zip(&u_act) {
            u[i] = ui / m;
        }
        let f = problem.objective(&u);
        if f < best_f {
            best_f = f;
            best_u = u;
        }
        if best_f - best_d <= opts.gap * best_f || iterations == MAX_ITERATIONS {
            break;
        }
        // μⱼ ← μⱼ·((Bu)ⱼ / max (Bu))^ρ, renormalised onto the simplex.
        for (mj, &x) in mu.iter_mut().zip(&bu) {
            *mj *= (x / m).powi(rho);
        }
        let scale = (1.0 - MU_FLOOR) / ops::sum(&mu);
        let floor = MU_FLOOR / cells as f64;
        for mj in &mut mu {
            *mj = *mj * scale + floor;
        }
        iterations += 1;
    }
    let dual_bound = best_d.min(best_f);
    Ok(WeightingSolution {
        u: best_u,
        objective: best_f,
        dual_bound,
        gap: (best_f - dual_bound) / best_f,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::approx_eq;

    fn simple_problem() -> WeightingProblem {
        // Two variables sharing one constraint u1 + u2 <= 1.
        WeightingProblem::new(
            vec![4.0, 1.0],
            Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(WeightingProblem::new(vec![], Matrix::zeros(1, 0)).is_err());
        assert!(WeightingProblem::new(vec![1.0], Matrix::zeros(0, 1)).is_err());
        assert!(WeightingProblem::new(vec![-1.0], Matrix::identity(1)).is_err());
        assert!(
            WeightingProblem::new(vec![1.0], Matrix::from_rows(&[vec![-0.5]]).unwrap()).is_err()
        );
        // Positive cost variable never constrained -> unbounded.
        assert!(WeightingProblem::new(
            vec![1.0, 1.0],
            Matrix::from_rows(&[vec![1.0, 0.0]]).unwrap()
        )
        .is_err());
        // Zero-cost unconstrained variable is fine.
        assert!(WeightingProblem::new(
            vec![1.0, 0.0],
            Matrix::from_rows(&[vec![1.0, 0.0]]).unwrap()
        )
        .is_ok());
    }

    #[test]
    fn objective_and_constraints() {
        let p = simple_problem();
        assert!(approx_eq(p.objective(&[0.5, 0.5]), 10.0, 1e-12));
        assert_eq!(p.max_constraint(&[0.25, 0.5]), 0.75);
        assert!(p.is_feasible(&[0.5, 0.5], 1e-12));
        assert!(!p.is_feasible(&[0.8, 0.5], 1e-12));
    }

    #[test]
    fn zero_cost_entries_do_not_blow_up_objective() {
        let p = WeightingProblem::new(
            vec![1.0, 0.0],
            Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
        )
        .unwrap();
        assert!(p.objective(&[0.5, 0.0]).is_finite());
    }

    #[test]
    fn normalize_saturates_constraint() {
        let p = simple_problem();
        let u = p.normalize(&[0.1, 0.3]);
        assert!(approx_eq(p.max_constraint(&u), 1.0, 1e-12));
    }

    #[test]
    fn initial_point_is_feasible() {
        let p = simple_problem();
        let u = p.initial_point();
        assert!(p.is_feasible(&u, 1e-12));
        assert!(approx_eq(p.max_constraint(&u), 1.0, 1e-12));
    }

    #[test]
    fn from_design_queries_builds_squared_constraints() {
        let q = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.0, 3.0]]).unwrap();
        let p = WeightingProblem::from_design_queries(&q, vec![1.0, 1.0]).unwrap();
        // Constraint for cell 0: 1*u1 + 0*u2; for cell 1: 4*u1 + 9*u2.
        assert_eq!(p.constraints()[(0, 0)], 1.0);
        assert_eq!(p.constraints()[(1, 0)], 4.0);
        assert_eq!(p.constraints()[(1, 1)], 9.0);
        assert!(WeightingProblem::from_design_queries(&q, vec![1.0]).is_err());
    }

    #[test]
    fn dual_value_at_the_single_constraint_is_the_optimum() {
        // One constraint: μ = [1] gives D = (√4 + √1)² = 9, the optimum.
        let p = simple_problem();
        assert!(approx_eq(p.dual_value(&[1.0]), 9.0, 1e-12));
        assert!(p.dual_value(&[1.0]) <= p.objective(&[0.5, 0.5]));
    }

    #[test]
    fn single_variable_exact() {
        // min c/u s.t. b*u <= 1  =>  u = 1/b, objective = c*b.
        let p = WeightingProblem::new(vec![3.0], Matrix::from_rows(&[vec![2.0]]).unwrap()).unwrap();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        assert!(approx_eq(sol.u[0], 0.5, 1e-6));
        assert!(approx_eq(sol.objective, 6.0, 1e-6));
    }

    #[test]
    fn two_variables_shared_budget() {
        // min c1/u1 + c2/u2 s.t. u1 + u2 <= 1: optimum u_i ∝ sqrt(c_i),
        // objective (sqrt(c1) + sqrt(c2))^2.
        let p = simple_problem();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        let expected_obj = (2.0_f64 + 1.0).powi(2);
        assert!(
            sol.objective <= expected_obj * 1.001,
            "objective {} should be close to optimal {expected_obj}",
            sol.objective
        );
        assert!(approx_eq(sol.u[0], 2.0 / 3.0, 1e-2));
        assert!(approx_eq(sol.u[1], 1.0 / 3.0, 1e-2));
        assert!(p.is_feasible(&sol.u, 1e-9));
    }

    #[test]
    fn identity_design_identity_costs() {
        // B = I, c = 1: each u_i = 1, objective = n.
        let n = 6;
        let p = WeightingProblem::new(vec![1.0; n], Matrix::identity(n)).unwrap();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        assert!(sol.objective <= n as f64 * 1.001);
        for &u in &sol.u {
            assert!(approx_eq(u, 1.0, 1e-3), "u = {u}");
        }
    }

    #[test]
    fn zero_cost_variables_get_zero_weight() {
        let p = WeightingProblem::new(
            vec![1.0, 0.0],
            Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
        )
        .unwrap();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        assert_eq!(sol.u[1], 0.0);
        assert!(approx_eq(sol.u[0], 1.0, 1e-6));
    }

    #[test]
    fn all_zero_costs_return_zero_solution() {
        let p = WeightingProblem::new(
            vec![0.0, 0.0],
            Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
        )
        .unwrap();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        assert_eq!(sol.u, vec![0.0, 0.0]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn solution_never_worse_than_initial_point() {
        // A slightly larger random-ish problem.
        let k = 12;
        let n = 20;
        let b = Matrix::from_fn(n, k, |i, j| (((i * 7 + j * 3) % 5) as f64) / 4.0);
        let costs: Vec<f64> = (0..k).map(|i| 1.0 + (i as f64 % 4.0)).collect();
        let p = WeightingProblem::new(costs, b).unwrap();
        let init = p.initial_point();
        let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
        assert!(p.is_feasible(&sol.u, 1e-8));
        assert!(sol.objective <= p.objective(&init) * (1.0 + 1e-9));
    }

    #[test]
    fn fast_options_still_feasible() {
        let k = 8;
        let b = Matrix::from_fn(10, k, |i, j| (((i + j) % 3) as f64) / 2.0 + 0.1);
        let p = WeightingProblem::new(vec![1.0; k], b).unwrap();
        let sol = solve_weighting(&p, &WeightingOptions::fast()).unwrap();
        assert!(p.is_feasible(&sol.u, 1e-8));
    }

    #[test]
    fn invalid_gap_rejected() {
        let p = WeightingProblem::new(vec![1.0], Matrix::identity(1)).unwrap();
        for gap in [0.0, -1e-4, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    solve_weighting(&p, &WeightingOptions { gap }),
                    Err(OptError::InvalidProblem(_))
                ),
                "gap {gap} must be rejected"
            );
        }
    }

    #[test]
    fn certificate_brackets_the_objective() {
        let b = Matrix::from_fn(9, 7, |i, j| (((i * 5 + j * 2) % 7) as f64) / 6.0 + 0.05);
        let costs: Vec<f64> = (0..7).map(|i| 0.5 + (i * i % 5) as f64).collect();
        let p = WeightingProblem::new(costs, b).unwrap();
        let opts = WeightingOptions::default();
        let sol = solve_weighting(&p, &opts).unwrap();
        assert!(sol.dual_bound > 0.0 && sol.dual_bound <= sol.objective);
        assert_eq!(sol.gap, (sol.objective - sol.dual_bound) / sol.objective);
        assert!(sol.gap <= opts.gap, "gap {}", sol.gap);
        assert_eq!(sol.objective, p.objective(&sol.u));
    }

    #[test]
    fn underflowing_constraint_weights_keep_the_result_finite() {
        // With coefficient 1e-300, cell 1's load is ~1e-150 of the largest,
        // so one ρ = 8 update underflows its weight; without the floor Bᵀμ
        // would reach 0 for variable 1 and the ascent would stop at gap 0.5.
        // With the smallest subnormal, Bᵀμ is 0 from the start: the solver
        // stops at once, before a NaN reaches μ, and returns its (finite)
        // starting point.
        let opts = WeightingOptions::default();
        for tiny in [1e-300, f64::from_bits(1)] {
            let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, tiny]]).unwrap();
            let p = WeightingProblem::new(vec![1.0, 1.0], b).unwrap();
            let sol = solve_weighting(&p, &opts).unwrap();
            assert!(sol.objective.is_finite() && sol.u.iter().all(|u| u.is_finite()));
            assert!(p.is_feasible(&sol.u, 1e-9));
            if tiny == 1e-300 {
                assert!(sol.gap <= opts.gap, "gap {}", sol.gap);
            } else {
                assert_eq!(sol.iterations, 0);
            }
        }
    }

    #[test]
    fn sparse_design_with_zero_costs_stays_finite_and_feasible() {
        // Sparse nonnegative designs with zero-cost variables: every entry of
        // Bᵀμ a positive-cost variable reads may come from a handful of
        // cells, the case where a multiplicative update could starve it.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..64 {
            let k = 3 + (next() * 20.0) as usize;
            let n = 2 + (next() * 30.0) as usize;
            let mut b = Matrix::from_fn(
                n,
                k,
                |_, _| {
                    if next() < 0.15 {
                        next() * next()
                    } else {
                        0.0
                    }
                },
            );
            let costs: Vec<f64> = (0..k)
                .map(|_| if next() < 0.3 { 0.0 } else { 1e3 * next() })
                .collect();
            for i in 0..k {
                if (0..n).all(|j| b[(j, i)] == 0.0) {
                    let j = (next() * n as f64) as usize % n;
                    b[(j, i)] = 1e-3 + next();
                }
            }
            let p = WeightingProblem::new(costs.clone(), b).unwrap();
            let sol = solve_weighting(&p, &WeightingOptions::default()).unwrap();
            assert!(sol.objective.is_finite() && sol.dual_bound.is_finite());
            assert!(sol.u.iter().all(|u| u.is_finite() && *u >= 0.0));
            assert!(p.is_feasible(&sol.u, 1e-9));
            for (u, c) in sol.u.iter().zip(&costs) {
                if *c == 0.0 {
                    assert_eq!(*u, 0.0);
                }
            }
        }
    }
}
