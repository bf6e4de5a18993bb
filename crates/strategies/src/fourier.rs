//! The Fourier strategy for marginal workloads (Barak et al.), generalised to
//! non-binary attribute domains.
//!
//! Barak et al. answer a set of Fourier-basis queries (characters of `Z₂ᵈ`)
//! and derive the requested marginals from them; when the workload does not
//! need every marginal, the unnecessary basis queries are dropped, reducing
//! sensitivity.  For attributes with more than two values we use, per
//! attribute, any orthonormal basis whose first row is the uniform vector
//! (here the orthonormal DCT-II basis), and take as the strategy all tensor
//! products of per-attribute basis rows whose set of non-uniform components is
//! contained in some marginal of the workload.  For binary attributes this is
//! exactly the Fourier basis; in general it keeps the defining property that
//! the marginal on `S` is exactly reconstructible from the retained rows with
//! support `⊆ S`.

use crate::strategy::Strategy;
use mm_linalg::{ops, Matrix};
use mm_workload::marginal::MarginalWorkload;
use std::collections::BTreeSet;

/// The orthonormal DCT-II basis for a single attribute with `d` values.
///
/// Row 0 is the uniform vector `1/√d`; the remaining rows complete an
/// orthonormal basis.  For `d = 2` this equals the (normalised) Fourier /
/// Hadamard basis.
pub fn attribute_basis(d: usize) -> Matrix {
    assert!(d > 0);
    Matrix::from_fn(d, d, |f, x| {
        if f == 0 {
            1.0 / (d as f64).sqrt()
        } else {
            (2.0 / d as f64).sqrt()
                * (std::f64::consts::PI * (x as f64 + 0.5) * f as f64 / d as f64).cos()
        }
    })
}

/// The downward closure of the workload's marginal subsets: every subset of
/// every workload subset, deduplicated and sorted.
pub fn downward_closure(subsets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut closure: BTreeSet<Vec<usize>> = BTreeSet::new();
    for s in subsets {
        let k = s.len();
        for mask in 0..(1usize << k) {
            let sub: Vec<usize> = (0..k)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| s[i])
                .collect();
            closure.insert(sub);
        }
    }
    closure.into_iter().collect()
}

/// Builds the Fourier strategy for a marginal workload.
///
/// The strategy contains, for every subset `S` in the downward closure of the
/// workload's marginal sets, all tensor-basis rows whose non-uniform
/// components are exactly the attributes of `S`.
pub fn fourier_strategy(workload: &MarginalWorkload) -> Strategy {
    let domain = workload.domain();
    let sizes = domain.sizes();
    let k = sizes.len();
    let n = domain.n_cells();
    let bases: Vec<Matrix> = sizes.iter().map(|&d| attribute_basis(d)).collect();
    let closure = downward_closure(workload.subsets());

    // Count rows first.
    let row_count: usize = closure
        .iter()
        .map(|s| s.iter().map(|&a| sizes[a] - 1).product::<usize>())
        .sum();
    assert!(row_count > 0, "fourier strategy is empty");

    let mut matrix = Matrix::zeros(row_count, n);
    let mut r = 0;
    for subset in &closure {
        // Frequencies: f_a in 1..sizes[a] for a in subset, f_a = 0 otherwise.
        let mut freq = vec![0usize; k];
        // Odometer over the subset's attributes.
        let total: usize = subset.iter().map(|&a| sizes[a] - 1).product();
        let mut counters = vec![0usize; subset.len()];
        for _ in 0..total.max(1) {
            if subset.is_empty() {
                // Single all-uniform row.
            } else {
                for (pos, &a) in subset.iter().enumerate() {
                    freq[a] = counters[pos] + 1;
                }
            }
            // Fill the tensor-product row: entry for cell (x_1..x_k) is the
            // product of per-attribute basis entries.
            fill_tensor_row(matrix.row_mut(r), &bases, &freq, sizes);
            r += 1;
            // Advance counters.
            let mut pos = subset.len();
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                counters[pos] += 1;
                if counters[pos] < sizes[subset[pos]] - 1 {
                    break;
                }
                counters[pos] = 0;
                if pos == 0 {
                    break;
                }
            }
            if subset.is_empty() {
                break;
            }
        }
        // Reset the freq vector for the next subset.
        freq.fill(0);
    }
    debug_assert_eq!(r, row_count);
    Strategy::from_matrix(
        format!("fourier on {} ({} rows)", domain, row_count),
        matrix,
    )
}

/// Writes the tensor-product basis row for the given per-attribute
/// frequencies into `row` (length = number of cells, row-major).
fn fill_tensor_row(row: &mut [f64], bases: &[Matrix], freq: &[usize], sizes: &[usize]) {
    let k = sizes.len();
    let mut idx = vec![0usize; k];
    for slot in row.iter_mut() {
        let mut v = 1.0;
        for a in 0..k {
            v *= bases[a][(freq[a], idx[a])];
        }
        *slot = v;
        // Advance the cell odometer (last attribute fastest).
        let mut a = k;
        loop {
            if a == 0 {
                break;
            }
            a -= 1;
            idx[a] += 1;
            if idx[a] < sizes[a] {
                break;
            }
            idx[a] = 0;
            if a == 0 {
                break;
            }
        }
    }
}

/// Verifies (numerically) that a workload gram matrix lies in the span of the
/// strategy rows: `rank([A; W]) == rank(A)` would be exact; here we check that
/// projecting the workload's gram onto the strategy row space loses nothing.
/// Exposed for tests and diagnostics.
pub fn reconstructs_workload(strategy: &Strategy, workload_gram: &Matrix, tol: f64) -> bool {
    // The strategy rows span a subspace V; the workload is reconstructible iff
    // WᵀW restricted to the orthogonal complement of V is zero, i.e.
    // trace((I - P) WᵀW (I - P)) ~ 0 with P the projector onto V.
    let a = match strategy.matrix() {
        Some(m) => m,
        None => return false,
    };
    // P = Aᵀ (A Aᵀ)⁻¹ A ; use the gram AᵀA eigen-decomposition instead to
    // avoid inverting A Aᵀ for row-rank-deficient strategies.
    let eig = match mm_linalg::decomp::SymmetricEigen::new(&ops::gram(a)) {
        Ok(e) => e,
        Err(_) => return false,
    };
    let max_ev = eig.eigenvalues().first().copied().unwrap_or(0.0);
    let n = a.cols();
    let mut p = Matrix::zeros(n, n);
    for (k, &lam) in eig.eigenvalues().iter().enumerate() {
        if lam <= 1e-10 * max_ev {
            continue;
        }
        let qk = eig.eigenvector_rows().row(k);
        for (i, &vik) in qk.iter().enumerate() {
            if vik == 0.0 {
                continue;
            }
            for (pij, &vjk) in p.row_mut(i).iter_mut().zip(qk) {
                *pij += vik * vjk;
            }
        }
    }
    // residual = trace(WᵀW) - trace(P WᵀW P) = trace(WᵀW (I - P)) for projector P.
    let total = workload_gram.trace();
    let projected = ops::matmul(&ops::matmul(&p, workload_gram).unwrap(), &p)
        .unwrap()
        .trace();
    (total - projected).abs() <= tol * total.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::approx_eq;
    use mm_workload::marginal::MarginalKind;
    use mm_workload::{Domain, Workload};

    #[test]
    fn attribute_basis_is_orthonormal() {
        for d in [2usize, 3, 5, 8] {
            let b = attribute_basis(d);
            let g = ops::outer_gram(&b);
            for i in 0..d {
                for j in 0..d {
                    let e = if i == j { 1.0 } else { 0.0 };
                    assert!(approx_eq(g[(i, j)], e, 1e-10), "d={d} ({i},{j})");
                }
            }
            // First row is uniform.
            for x in 0..d {
                assert!(approx_eq(b[(0, x)], 1.0 / (d as f64).sqrt(), 1e-12));
            }
        }
    }

    #[test]
    fn binary_attribute_basis_is_hadamard() {
        let b = attribute_basis(2);
        let s = 1.0 / 2.0_f64.sqrt();
        assert!(approx_eq(b[(0, 0)], s, 1e-12));
        assert!(approx_eq(b[(0, 1)], s, 1e-12));
        assert!(approx_eq(b[(1, 0)], s, 1e-9));
        assert!(approx_eq(b[(1, 1)], -s, 1e-9));
    }

    #[test]
    fn downward_closure_of_two_way() {
        let closure = downward_closure(&[vec![0, 1], vec![1, 2]]);
        assert!(closure.contains(&vec![]));
        assert!(closure.contains(&vec![0]));
        assert!(closure.contains(&vec![1]));
        assert!(closure.contains(&vec![2]));
        assert!(closure.contains(&vec![0, 1]));
        assert!(closure.contains(&vec![1, 2]));
        assert_eq!(closure.len(), 6);
    }

    #[test]
    fn full_marginal_fourier_is_orthonormal_basis() {
        let d = Domain::new(&[2, 3]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let s = fourier_strategy(&w);
        assert_eq!(s.rows(), 6);
        assert!(approx_eq(s.l2_sensitivity(), 1.0, 1e-9));
    }

    #[test]
    fn low_order_fourier_has_fewer_rows_and_lower_sensitivity() {
        let d = Domain::new(&[4, 4, 4]);
        let w1 = MarginalWorkload::all_k_way(d.clone(), 1, MarginalKind::Point);
        let s1 = fourier_strategy(&w1);
        // Closure: {} + three singletons => 1 + 3*3 = 10 rows.
        assert_eq!(s1.rows(), 10);
        assert!(s1.l2_sensitivity() < 1.0);

        let w2 = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let s2 = fourier_strategy(&w2);
        assert_eq!(s2.rows(), 1 + 9 + 27);
        assert!(s2.rows() < 64);
    }

    #[test]
    fn fourier_spans_its_marginal_workload() {
        let d = Domain::new(&[3, 2, 2]);
        let w = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        let s = fourier_strategy(&w);
        assert!(reconstructs_workload(&s, &w.gram(), 1e-8));
    }

    #[test]
    fn fourier_does_not_span_unrelated_workload() {
        // 1-way Fourier strategy cannot reconstruct the 2-way marginal workload.
        let d = Domain::new(&[3, 3]);
        let w1 = MarginalWorkload::all_k_way(d.clone(), 1, MarginalKind::Point);
        let s = fourier_strategy(&w1);
        let w2 = MarginalWorkload::all_k_way(d, 2, MarginalKind::Point);
        assert!(!reconstructs_workload(&s, &w2.gram(), 1e-8));
    }
}
