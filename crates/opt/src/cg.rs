//! Conjugate gradient solver for symmetric positive definite systems.
//!
//! Provided for callers that need matrix-free least-squares steps on an
//! operator with no exact inverse at hand (see the crate docs for who calls
//! it).  The operator is supplied as a closure computing `A v`.

use crate::error::{OptError, Result};

/// Options for [`conjugate_gradient`].
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Maximum iterations (defaults to the problem dimension when 0).
    pub max_iters: usize,
    /// Relative residual tolerance.
    pub tol: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iters: 0,
            tol: 1e-10,
        }
    }
}

/// Solves `A x = b` for a symmetric positive definite operator given as a
/// closure `apply(v) = A v`, starting from `x = 0`.
pub fn conjugate_gradient<F>(apply: F, b: &[f64], opts: &CgOptions) -> Result<Vec<f64>>
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let n = b.len();
    if n == 0 {
        return Err(OptError::InvalidProblem("empty right-hand side".into()));
    }
    let max_iters = if opts.max_iters == 0 {
        2 * n
    } else {
        opts.max_iters
    };
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    // All CG inner products run through the fixed-lane kernel, so the
    // iteration trajectory is a pure function of the operator and b.
    let b_norm = mm_linalg::ops::dot(b, b).sqrt();
    if b_norm == 0.0 {
        return Ok(x);
    }
    let mut rs_old = mm_linalg::ops::dot(&r, &r);
    for _ in 0..max_iters {
        let ap = apply(&p);
        if ap.len() != n {
            return Err(OptError::InvalidProblem(
                "operator returned a vector of the wrong length".into(),
            ));
        }
        let p_ap = mm_linalg::ops::dot(&p, &ap);
        if p_ap <= 0.0 {
            return Err(OptError::InvalidProblem(
                "operator is not positive definite".into(),
            ));
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = mm_linalg::ops::dot(&r, &r);
        if rs_new.sqrt() <= opts.tol * b_norm {
            return Ok(x);
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    Ok(x)
}

/// Least-squares inference through the normal equations, matrix-free:
/// solves `AᵀA x = Aᵀ y` by conjugate gradient given only the actions
/// `apply(v) = A·v` and `apply_transpose(w) = Aᵀ·w`.
///
/// This is the structured serving path's replacement for the dense
/// `L⁻ᵀ(L⁻¹(Aᵀy))` Cholesky sweep: no gram matrix, no factor — O(apply)
/// memory.  For the strategy families it serves (Haar, hierarchies) the
/// gram spectrum has only O(log n) distinct eigenvalues, so CG converges in
/// a few dozen iterations regardless of n.  Requires `A` to have full
/// column rank (`AᵀA` positive definite); rank-deficient operators surface
/// as the [`conjugate_gradient`] "not positive definite" error.
pub fn cg_normal_equations<A, At>(
    apply: A,
    apply_transpose: At,
    y: &[f64],
    opts: &CgOptions,
) -> Result<Vec<f64>>
where
    A: Fn(&[f64]) -> Vec<f64>,
    At: Fn(&[f64]) -> Vec<f64>,
{
    let b = apply_transpose(y);
    conjugate_gradient(|v| apply_transpose(&apply(v)), &b, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::{approx_eq, Matrix};

    #[test]
    fn solves_small_spd_system() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = vec![1.0, 2.0];
        let x = conjugate_gradient(|v| a.matvec(v).unwrap(), &b, &CgOptions::default()).unwrap();
        // Exact solution: x = (1/11, 7/11).
        assert!(approx_eq(x[0], 1.0 / 11.0, 1e-8));
        assert!(approx_eq(x[1], 7.0 / 11.0, 1e-8));
    }

    #[test]
    fn solves_larger_diagonally_dominant_system() {
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0
            } else {
                1.0 / ((i as f64 - j as f64).abs() + 1.0)
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = conjugate_gradient(|v| a.matvec(v).unwrap(), &b, &CgOptions::default()).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!(approx_eq(*xi, *ti, 1e-6));
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = Matrix::identity(3);
        let x =
            conjugate_gradient(|v| a.matvec(v).unwrap(), &[0.0; 3], &CgOptions::default()).unwrap();
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    fn indefinite_operator_rejected() {
        let a = Matrix::from_diag(&[-1.0, 1.0]);
        let res = conjugate_gradient(|v| a.matvec(v).unwrap(), &[1.0, 0.0], &CgOptions::default());
        assert!(res.is_err());
    }

    #[test]
    fn empty_rhs_rejected() {
        let res = conjugate_gradient(|v| v.to_vec(), &[], &CgOptions::default());
        assert!(res.is_err());
    }

    #[test]
    fn normal_equations_recover_least_squares_solution() {
        // Overdetermined consistent system: A x = y exactly.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, -1.0],
        ])
        .unwrap();
        let x_true = vec![2.5, -1.25];
        let y = a.matvec(&x_true).unwrap();
        let x = cg_normal_equations(
            |v| a.matvec(v).unwrap(),
            |w| a.transpose().matvec(w).unwrap(),
            &y,
            &CgOptions::default(),
        )
        .unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!(approx_eq(*xi, *ti, 1e-8));
        }
    }

    #[test]
    fn normal_equations_handle_rank_deficiency_gracefully() {
        // Two identical columns: AᵀA is singular, but the right-hand side
        // Aᵀy always lies in its range, so CG still converges — to *a*
        // least-squares solution satisfying the normal equations.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let y = vec![1.0, 0.0, 1.0];
        let x = cg_normal_equations(
            |v| a.matvec(v).unwrap(),
            |w| a.transpose().matvec(w).unwrap(),
            &y,
            &CgOptions::default(),
        )
        .unwrap();
        let at = a.transpose();
        let residual = at.matvec(&a.matvec(&x).unwrap()).unwrap();
        let rhs = at.matvec(&y).unwrap();
        for (r, b) in residual.iter().zip(rhs.iter()) {
            assert!(approx_eq(*r, *b, 1e-8), "normal equations violated");
        }
    }
}
