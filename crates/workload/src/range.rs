//! Range-query workloads: all (multi-dimensional) range queries and random
//! subsets of them.
//!
//! The workload of **all** range queries over a product domain is a Kronecker
//! product of the per-attribute 1D all-range workloads, and under the matrix
//! mechanism only its gram matrix matters, which has a closed form per
//! attribute:
//!
//! * unweighted: `G[i][j] = (min(i,j)+1) · (d − max(i,j))` — the number of
//!   intervals of `{0,…,d−1}` containing both `i` and `j`;
//! * unit-norm scaled (used when optimizing towards relative error): each
//!   interval is scaled by `1/√len`, giving
//!   `G'[i][j] = Σ_len count(i,j,len) / len`.
//!
//! The full workload matrix (≈ n²/2 rows in 1D, far more in several
//! dimensions) is therefore never materialised.  Query evaluation uses a
//! summed-area table, so even the 665 000 range queries of the census domain
//! are evaluated in milliseconds: in 1D one contiguous prefix difference per
//! query, in 2D contiguous runs over two table rows, in more dimensions one
//! allocation-free odometer walk.

use crate::domain::Domain;
use crate::fingerprint::{Fingerprint, FingerprintMemo, NanGramEntry};
use crate::tensor::{box_sum, summed_area_table};
use crate::Workload;
use mm_linalg::{ops, Matrix};
use rand::Rng;

/// A hyper-rectangle over a multi-attribute domain (inclusive bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeBox {
    /// Inclusive lower bounds, one per attribute.
    pub lows: Vec<usize>,
    /// Inclusive upper bounds, one per attribute.
    pub highs: Vec<usize>,
}

impl RangeBox {
    /// Creates a range box, validating the bounds against the domain.
    pub fn new(domain: &Domain, lows: Vec<usize>, highs: Vec<usize>) -> Self {
        assert_eq!(lows.len(), domain.num_attributes());
        assert_eq!(highs.len(), domain.num_attributes());
        for a in 0..domain.num_attributes() {
            assert!(
                lows[a] <= highs[a] && highs[a] < domain.size(a),
                "invalid bounds on attribute {a}"
            );
        }
        RangeBox { lows, highs }
    }

    /// Number of cells covered by the box.
    pub fn volume(&self) -> usize {
        self.lows
            .iter()
            .zip(self.highs.iter())
            .map(|(&l, &h)| h - l + 1)
            .product()
    }
}

/// Gram matrix of the 1D all-range workload over `d` cells.
///
/// When `normalized` is true every range query is scaled to unit L2 norm.
pub fn all_range_1d_gram(d: usize, normalized: bool) -> Matrix {
    assert!(d > 0);
    if !normalized {
        return Matrix::from_fn(d, d, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (lo + 1.0) * (d as f64 - hi)
        });
    }
    // Normalized: sum over lengths of (count of ranges of that length
    // containing both cells) / length.
    let mut g = Matrix::zeros(d, d);
    for i in 0..d {
        for j in i..d {
            let mut acc = 0.0;
            for len in (j - i + 1)..=d {
                let lo_min = (j + 1).saturating_sub(len);
                let lo_max = i.min(d - len);
                if lo_max >= lo_min {
                    acc += (lo_max - lo_min + 1) as f64 / len as f64;
                }
            }
            g[(i, j)] = acc;
            g[(j, i)] = acc;
        }
    }
    g
}

/// Number of 1D range queries over `d` cells: `d(d+1)/2`.
pub fn all_range_1d_count(d: usize) -> usize {
    d * (d + 1) / 2
}

/// Explicit matrix of the 1D all-range workload over `d` cells, with rows
/// ordered by `(lo, hi)` — the same order used by
/// [`AllRangeWorkload::for_each_box`].
pub fn all_range_1d_matrix(d: usize) -> Matrix {
    let mut m = Matrix::zeros(all_range_1d_count(d), d);
    let mut r = 0;
    for lo in 0..d {
        for hi in lo..d {
            for c in lo..=hi {
                m[(r, c)] = 1.0;
            }
            r += 1;
        }
    }
    m
}

/// The workload of **all** axis-aligned range queries over a domain.
#[derive(Debug, Clone)]
pub struct AllRangeWorkload {
    domain: Domain,
    normalized: bool,
    fingerprint: FingerprintMemo,
}

impl AllRangeWorkload {
    /// All range queries over the given domain.
    pub fn new(domain: Domain) -> Self {
        AllRangeWorkload {
            domain,
            normalized: false,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// All range queries, each scaled to unit L2 norm (for relative-error
    /// oriented strategy selection, Sec. 3.4).
    pub fn normalized(domain: Domain) -> Self {
        AllRangeWorkload {
            domain,
            normalized: true,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// The underlying domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Whether queries are scaled to unit norm.
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    /// Enumerates all range boxes in the deterministic order used by
    /// [`Workload::evaluate`]: odometer over attributes (first attribute
    /// slowest), per attribute ordered by `(lo, hi)`.
    ///
    /// The one box enumeration of this workload: `f` sees a single box
    /// advanced in place, so the walk allocates nothing per box.
    pub fn for_each_box<F: FnMut(&RangeBox)>(&self, mut f: F) {
        let sizes = self.domain.sizes();
        let k = sizes.len();
        let mut b = RangeBox {
            lows: vec![0; k],
            highs: vec![0; k],
        };
        loop {
            f(&b);
            // Advance the odometer, last attribute fastest: `hi` steps
            // first, then `lo` (restarting `hi` at `lo`), then the carry.
            let mut a = k;
            loop {
                if a == 0 {
                    return;
                }
                a -= 1;
                if b.highs[a] + 1 < sizes[a] {
                    b.highs[a] += 1;
                    break;
                }
                if b.lows[a] + 1 < sizes[a] {
                    b.lows[a] += 1;
                    b.highs[a] = b.lows[a];
                    break;
                }
                b.lows[a] = 0;
                b.highs[a] = 0;
            }
        }
    }
}

/// Answers every 1D range `(lo, hi)` in `(lo, hi)` order from the prefix
/// sums `t`, appending to `out`: `0.0 + t[hi] − t[lo−1]`, or `0.0 + t[hi]`
/// when `lo = 0` — the additions [`box_sum`] makes in 1D, so the bits
/// (−0.0 included) are the same, over one contiguous run per `lo`.
fn evaluate_1d(t: &[f64], normalized: bool, out: &mut Vec<f64>) {
    let d = t.len();
    let roots: Vec<f64> = if normalized {
        (1..=d).map(|len| (len as f64).sqrt()).collect()
    } else {
        Vec::new()
    };
    for lo in 0..d {
        let start = out.len();
        match lo.checked_sub(1).map(|p| t[p]) {
            None => out.extend(t.iter().map(|&v| 0.0 + v)),
            Some(base) => out.extend(t[lo..].iter().map(|&v| 0.0 + v - base)),
        }
        if normalized {
            // `roots[len − 1]` is `sqrt(len)`, correctly rounded like the
            // per-box `sqrt(volume)` it replaces.
            for (v, root) in out[start..].iter_mut().zip(&roots) {
                *v /= root;
            }
        }
    }
}

/// Answers every 2D box of a `d0 × d1` domain in box order from the
/// summed-area table `t`, appending to `out`.  For each pair of rows
/// `(lo0, hi0)` and each `lo1`, the boxes `hi1 = lo1..d1` are one contiguous
/// run over table rows `hi0` and `lo0 − 1`.  Each box adds its corners in
/// [`box_sum`]'s order,
/// `0.0 + T[hi0][hi1] − T[lo0−1][hi1] − T[hi0][lo1−1] + T[lo0−1][lo1−1]`,
/// skipping the corners off the table as it does, so the bits (−0.0
/// included) are the same.
fn evaluate_2d(t: &[f64], d0: usize, d1: usize, normalized: bool, out: &mut Vec<f64>) {
    let mut roots = vec![0.0; d1];
    for lo0 in 0..d0 {
        for hi0 in lo0..d0 {
            let high = &t[hi0 * d1..(hi0 + 1) * d1];
            let low = lo0.checked_sub(1).map(|p| &t[p * d1..(p + 1) * d1]);
            if normalized {
                // `roots[len1 − 1]` is `sqrt(volume)`, rounded like the
                // per-box root it replaces.
                let len0 = hi0 - lo0 + 1;
                for (len1, root) in (1..=d1).zip(roots.iter_mut()) {
                    *root = ((len0 * len1) as f64).sqrt();
                }
            }
            for lo1 in 0..d1 {
                let start = out.len();
                let run = &high[lo1..];
                match (low, lo1.checked_sub(1)) {
                    (None, None) => out.extend(run.iter().map(|&a| 0.0 + a)),
                    (None, Some(p)) => {
                        let c = high[p];
                        out.extend(run.iter().map(|&a| 0.0 + a - c));
                    }
                    (Some(low), None) => {
                        out.extend(run.iter().zip(&low[lo1..]).map(|(&a, &b)| 0.0 + a - b));
                    }
                    (Some(low), Some(p)) => {
                        let (c, e) = (high[p], low[p]);
                        out.extend(
                            run.iter()
                                .zip(&low[lo1..])
                                .map(|(&a, &b)| 0.0 + a - b - c + e),
                        );
                    }
                }
                if normalized {
                    for (v, root) in out[start..].iter_mut().zip(&roots) {
                        *v /= root;
                    }
                }
            }
        }
    }
}

impl Workload for AllRangeWorkload {
    fn dim(&self) -> usize {
        self.domain.n_cells()
    }

    fn query_count(&self) -> usize {
        self.domain
            .sizes()
            .iter()
            .map(|&d| all_range_1d_count(d))
            .product()
    }

    fn gram(&self) -> Matrix {
        let factors: Vec<Matrix> = self
            .domain
            .sizes()
            .iter()
            .map(|&d| all_range_1d_gram(d, self.normalized))
            .collect();
        ops::kron_all(&factors)
    }

    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        self.fingerprint.get_or_derive(|| self.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim());
        let shape = self.domain.sizes();
        let table = summed_area_table(x, shape);
        let mut out = Vec::with_capacity(self.query_count());
        let normalized = self.normalized;
        match *shape {
            [_] => {
                evaluate_1d(&table, normalized, &mut out);
                return out;
            }
            [d0, d1] => {
                evaluate_2d(&table, d0, d1, normalized, &mut out);
                return out;
            }
            _ => {}
        }
        self.for_each_box(|b| {
            let mut v = box_sum(&table, shape, &b.lows, &b.highs);
            if normalized {
                v /= (b.volume() as f64).sqrt();
            }
            out.push(v);
        });
        out
    }

    fn description(&self) -> String {
        format!(
            "all range queries on {}{}",
            self.domain,
            if self.normalized { " (normalized)" } else { "" }
        )
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.query_count());
        if self.normalized {
            out.resize(self.query_count(), 1.0);
            return out;
        }
        self.for_each_box(|b| out.push(b.volume() as f64));
        out
    }
}

/// A workload of uniformly sampled range queries.
///
/// Sampling follows the two-step method used by Xiao et al.: for each
/// attribute independently, a range length is drawn uniformly from
/// `1..=d` and then a starting position uniformly among the valid ones.
#[derive(Debug, Clone)]
pub struct RandomRangeWorkload {
    domain: Domain,
    boxes: Vec<RangeBox>,
    normalized: bool,
    fingerprint: FingerprintMemo,
}

impl RandomRangeWorkload {
    /// Samples `count` random range queries over `domain` using `rng`.
    pub fn sample<R: Rng + ?Sized>(domain: Domain, count: usize, rng: &mut R) -> Self {
        let boxes = (0..count)
            .map(|_| {
                let mut lows = Vec::with_capacity(domain.num_attributes());
                let mut highs = Vec::with_capacity(domain.num_attributes());
                for &d in domain.sizes() {
                    let len = rng.gen_range(1..=d);
                    let lo = rng.gen_range(0..=(d - len));
                    lows.push(lo);
                    highs.push(lo + len - 1);
                }
                RangeBox { lows, highs }
            })
            .collect();
        RandomRangeWorkload {
            domain,
            boxes,
            normalized: false,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Builds the workload from explicit boxes.
    pub fn from_boxes(domain: Domain, boxes: Vec<RangeBox>) -> Self {
        assert!(
            !boxes.is_empty(),
            "random range workload needs at least one query"
        );
        RandomRangeWorkload {
            domain,
            boxes,
            normalized: false,
            fingerprint: FingerprintMemo::default(),
        }
    }

    /// Returns a unit-norm scaled copy of the workload.
    pub fn into_normalized(mut self) -> Self {
        self.normalized = true;
        self.fingerprint = FingerprintMemo::default();
        self
    }

    /// The sampled range boxes.
    pub fn boxes(&self) -> &[RangeBox] {
        &self.boxes
    }

    /// The underlying domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    fn query_weight(&self, b: &RangeBox) -> f64 {
        if self.normalized {
            1.0 / (b.volume() as f64).sqrt()
        } else {
            1.0
        }
    }

    fn cells_of(&self, b: &RangeBox) -> Vec<usize> {
        // Enumerate covered cells via an odometer over the box.
        let k = self.domain.num_attributes();
        let mut cells = Vec::with_capacity(b.volume());
        let mut cur = b.lows.clone();
        loop {
            cells.push(self.domain.index_of(&cur));
            let mut a = k;
            loop {
                if a == 0 {
                    return cells;
                }
                a -= 1;
                if cur[a] < b.highs[a] {
                    cur[a] += 1;
                    cur[(a + 1)..k].copy_from_slice(&b.lows[(a + 1)..k]);
                    break;
                }
                if a == 0 {
                    return cells;
                }
            }
        }
    }
}

impl Workload for RandomRangeWorkload {
    fn dim(&self) -> usize {
        self.domain.n_cells()
    }

    fn query_count(&self) -> usize {
        self.boxes.len()
    }

    fn gram(&self) -> Matrix {
        let n = self.dim();
        let mut g = Matrix::zeros(n, n);
        for b in &self.boxes {
            let w = self.query_weight(b);
            let w2 = w * w;
            let cells = self.cells_of(b);
            for &i in &cells {
                let row = g.row_mut(i);
                for &j in &cells {
                    row[j] += w2;
                }
            }
        }
        g
    }

    fn try_fingerprint(&self) -> Result<(Fingerprint, Option<Matrix>), NanGramEntry> {
        self.fingerprint.get_or_derive(|| self.gram())
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim());
        let shape = self.domain.sizes().to_vec();
        let table = summed_area_table(x, &shape);
        self.boxes
            .iter()
            .map(|b| self.query_weight(b) * box_sum(&table, &shape, &b.lows, &b.highs))
            .collect()
    }

    fn description(&self) -> String {
        format!(
            "{} random range queries on {}{}",
            self.boxes.len(),
            self.domain,
            if self.normalized { " (normalized)" } else { "" }
        )
    }

    fn query_squared_norms(&self) -> Vec<f64> {
        self.boxes
            .iter()
            .map(|b| {
                if self.normalized {
                    1.0
                } else {
                    b.volume() as f64
                }
            })
            .collect()
    }

    fn to_matrix(&self) -> Option<Matrix> {
        let n = self.dim();
        if n * self.boxes.len() > 16_000_000 {
            return None;
        }
        let mut m = Matrix::zeros(self.boxes.len(), n);
        for (r, b) in self.boxes.iter().enumerate() {
            let w = self.query_weight(b);
            for c in self.cells_of(b) {
                m[(r, c)] = w;
            }
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::gram_consistent;
    use crate::query::LinearQuery;
    use mm_linalg::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn explicit_all_range_gram(d: usize, normalized: bool) -> Matrix {
        // Brute force reference.
        let mut g = Matrix::zeros(d, d);
        for lo in 0..d {
            for hi in lo..d {
                let len = (hi - lo + 1) as f64;
                let w2 = if normalized { 1.0 / len } else { 1.0 };
                for i in lo..=hi {
                    for j in lo..=hi {
                        g[(i, j)] += w2;
                    }
                }
            }
        }
        g
    }

    #[test]
    fn all_range_1d_gram_matches_brute_force() {
        for d in [1usize, 2, 5, 9] {
            for normalized in [false, true] {
                let closed = all_range_1d_gram(d, normalized);
                let brute = explicit_all_range_gram(d, normalized);
                for i in 0..d {
                    for j in 0..d {
                        assert!(
                            approx_eq(closed[(i, j)], brute[(i, j)], 1e-10),
                            "d={d} normalized={normalized} ({i},{j}): {} vs {}",
                            closed[(i, j)],
                            brute[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_range_1d_matrix_gram_matches_closed_form() {
        for d in [1usize, 3, 6] {
            let m = all_range_1d_matrix(d);
            assert_eq!(m.rows(), all_range_1d_count(d));
            let g1 = mm_linalg::ops::gram(&m);
            let g2 = all_range_1d_gram(d, false);
            for i in 0..d {
                for j in 0..d {
                    assert!(approx_eq(g1[(i, j)], g2[(i, j)], 1e-10));
                }
            }
        }
    }

    #[test]
    fn all_range_query_count() {
        let w = AllRangeWorkload::new(Domain::new(&[4, 3]));
        assert_eq!(w.query_count(), 10 * 6);
        assert_eq!(w.dim(), 12);
        assert_eq!(all_range_1d_count(2048), 2048 * 2049 / 2);
    }

    #[test]
    fn all_range_multi_dim_gram_matches_explicit() {
        let domain = Domain::new(&[3, 2]);
        let w = AllRangeWorkload::new(domain.clone());
        // Build the explicit workload matrix by enumerating boxes.
        let mut queries = Vec::new();
        w.for_each_box(|b| {
            queries.push(LinearQuery::range(&domain, &b.lows, &b.highs));
        });
        let explicit = crate::explicit::ExplicitWorkload::new("explicit", queries);
        let g1 = w.gram();
        let g2 = explicit.gram();
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(g1[(i, j)], g2[(i, j)], 1e-10));
            }
        }
    }

    #[test]
    fn all_range_evaluate_matches_explicit() {
        let domain = Domain::new(&[3, 4]);
        let w = AllRangeWorkload::new(domain.clone());
        let x: Vec<f64> = (0..12).map(|i| (i % 5) as f64 + 0.5).collect();
        let fast = w.evaluate(&x);
        let mut slow = Vec::new();
        w.for_each_box(|b| {
            slow.push(LinearQuery::range(&domain, &b.lows, &b.highs).evaluate(&x));
        });
        assert_eq!(fast.len(), w.query_count());
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(*f, *s, 1e-10));
        }
    }

    #[test]
    fn normalized_all_range_has_unit_norms() {
        let w = AllRangeWorkload::normalized(Domain::new(&[4]));
        assert!(w.query_squared_norms().iter().all(|&v| v == 1.0));
        assert!(w.is_normalized());
        // Evaluating on the all-ones vector gives sqrt(len) per query.
        let vals = w.evaluate(&[1.0; 4]);
        let mut expected = Vec::new();
        w.for_each_box(|b| expected.push((b.volume() as f64).sqrt()));
        for (v, e) in vals.iter().zip(expected.iter()) {
            assert!(approx_eq(*v, *e, 1e-12));
        }
    }

    #[test]
    fn all_range_unnormalized_norms_are_volumes() {
        let w = AllRangeWorkload::new(Domain::new(&[3]));
        assert_eq!(w.query_squared_norms(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn random_range_gram_consistent_with_matrix() {
        let domain = Domain::new(&[4, 3]);
        let mut rng = StdRng::seed_from_u64(7);
        let w = RandomRangeWorkload::sample(domain, 25, &mut rng);
        assert_eq!(w.query_count(), 25);
        assert!(gram_consistent(&w, 1e-9));
    }

    #[test]
    fn random_range_normalized_consistency() {
        let domain = Domain::new(&[5]);
        let mut rng = StdRng::seed_from_u64(11);
        let w = RandomRangeWorkload::sample(domain, 10, &mut rng).into_normalized();
        assert!(gram_consistent(&w, 1e-9));
        assert!(w.query_squared_norms().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn random_range_evaluate_matches_matrix() {
        let domain = Domain::new(&[3, 3]);
        let mut rng = StdRng::seed_from_u64(3);
        let w = RandomRangeWorkload::sample(domain, 12, &mut rng);
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let fast = w.evaluate(&x);
        let m = w.to_matrix().unwrap();
        let slow = m.matvec(&x).unwrap();
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(*f, *s, 1e-10));
        }
    }

    /// Cells mixing ±0.0 with values far apart in magnitude, so any change
    /// to the order or grouping of the prefix differences shows in the bits.
    fn signed_zero_cells(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.gen_range(0..5) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1e16..1e16),
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    /// Every box in evaluation order, enumerated independently of
    /// `for_each_box`: the cartesian product of the per-attribute `(lo, hi)`
    /// lists, first attribute slowest.
    fn reference_boxes(sizes: &[usize]) -> Vec<RangeBox> {
        let mut boxes = vec![RangeBox {
            lows: Vec::new(),
            highs: Vec::new(),
        }];
        for &d in sizes {
            let mut next = Vec::new();
            for b in &boxes {
                for lo in 0..d {
                    for hi in lo..d {
                        let mut c = b.clone();
                        c.lows.push(lo);
                        c.highs.push(hi);
                        next.push(c);
                    }
                }
            }
            boxes = next;
        }
        boxes
    }

    #[test]
    fn evaluate_is_the_reference_box_walk_bit_for_bit() {
        let domains: [&[usize]; 9] = [
            &[1],
            &[2],
            &[37],
            &[1, 1],
            &[1, 37],
            &[37, 1],
            &[16, 24],
            &[16, 32],
            &[3, 4, 5],
        ];
        for (case, sizes) in domains.into_iter().enumerate() {
            let n: usize = sizes.iter().product();
            let x = signed_zero_cells(n, 40 + case as u64);
            let table = summed_area_table(&x, sizes);
            let expected = reference_boxes(sizes);
            let mut walked = Vec::new();
            AllRangeWorkload::new(Domain::new(sizes)).for_each_box(|b| walked.push(b.clone()));
            assert_eq!(walked, expected, "{sizes:?}: box order");
            for w in [
                AllRangeWorkload::new(Domain::new(sizes)),
                AllRangeWorkload::normalized(Domain::new(sizes)),
            ] {
                let bits: Vec<u64> = w.evaluate(&x).iter().map(|v| v.to_bits()).collect();
                let reference: Vec<u64> = expected
                    .iter()
                    .map(|b| {
                        let mut v = box_sum(&table, sizes, &b.lows, &b.highs);
                        if w.is_normalized() {
                            v /= (b.volume() as f64).sqrt();
                        }
                        v.to_bits()
                    })
                    .collect();
                assert_eq!(bits, reference, "{}", w.description());
                let one = w.evaluate_matrix(&Matrix::from_vec(n, 1, x.clone()).unwrap());
                assert_eq!(one.shape(), (w.query_count(), 1));
                let one: Vec<u64> = one.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(one, reference, "{}: K = 1 column", w.description());
            }
        }
        // A lone −0.0 answers +0.0 (the `0.0 +` start), as `box_sum` does.
        let lone = AllRangeWorkload::new(Domain::one_dim(1)).evaluate(&[-0.0]);
        assert_eq!(lone[0].to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn memoised_key_is_the_gram_fingerprint() {
        use crate::fingerprint::try_gram_fingerprint;
        use crate::transform::{seeded_permutation, PermutedWorkload};
        for w in [
            AllRangeWorkload::new(Domain::one_dim(24)),
            AllRangeWorkload::normalized(Domain::one_dim(24)),
            AllRangeWorkload::new(Domain::new(&[4, 6])),
            AllRangeWorkload::normalized(Domain::new(&[3, 2, 4])),
        ] {
            let expected = try_gram_fingerprint(&w.gram()).unwrap();
            let (first, gram) = w.try_fingerprint().unwrap();
            assert_eq!(first, expected, "{}", w.description());
            let gram = gram.expect("the first call builds the gram");
            assert_eq!(try_gram_fingerprint(&gram).unwrap(), expected);
            let (again, none) = w.try_fingerprint().unwrap();
            assert_eq!(again, expected);
            assert!(none.is_none(), "a repeated call builds no gram");
            // A clone carries the memo: it has the same gram.
            let (cloned, none) = w.clone().try_fingerprint().unwrap();
            assert_eq!(cloned, expected);
            assert!(none.is_none());
        }
        // Random ranges memoise too, and normalising resets the memo.
        let mut rng = StdRng::seed_from_u64(5);
        let w = RandomRangeWorkload::sample(Domain::new(&[4, 6]), 9, &mut rng);
        let expected = try_gram_fingerprint(&w.gram()).unwrap();
        assert!(w.try_fingerprint().unwrap().1.is_some());
        let (again, none) = w.try_fingerprint().unwrap();
        assert_eq!(again, expected);
        assert!(none.is_none(), "a repeated call builds no gram");
        let normalized = w.into_normalized();
        let (key, gram) = normalized.try_fingerprint().unwrap();
        assert!(gram.is_some(), "normalising resets the memo");
        assert_eq!(key, try_gram_fingerprint(&normalized.gram()).unwrap());
        assert_ne!(key, expected);
        // A permuted workload memoises its own key, the permuted gram's.
        let inner = AllRangeWorkload::new(Domain::one_dim(24));
        let inner_key = inner.try_fingerprint().unwrap().0;
        let w = PermutedWorkload::new(inner, seeded_permutation(24, 3));
        let expected = try_gram_fingerprint(&w.gram()).unwrap();
        assert_ne!(expected, inner_key);
        let (first, gram) = w.try_fingerprint().unwrap();
        assert_eq!(first, expected);
        assert_eq!(
            try_gram_fingerprint(&gram.expect("built")).unwrap(),
            expected
        );
        let (again, none) = w.try_fingerprint().unwrap();
        assert_eq!(again, expected);
        assert!(none.is_none(), "a repeated call builds no gram");
    }

    #[test]
    fn range_box_volume() {
        let d = Domain::new(&[4, 4]);
        let b = RangeBox::new(&d, vec![1, 0], vec![2, 3]);
        assert_eq!(b.volume(), 8);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn bad_range_box_panics() {
        let d = Domain::new(&[4]);
        RangeBox::new(&d, vec![3], vec![1]);
    }

    #[test]
    fn sampling_respects_domain_bounds() {
        let domain = Domain::new(&[7, 2, 5]);
        let mut rng = StdRng::seed_from_u64(99);
        let w = RandomRangeWorkload::sample(domain.clone(), 200, &mut rng);
        for b in w.boxes() {
            for a in 0..3 {
                assert!(b.lows[a] <= b.highs[a]);
                assert!(b.highs[a] < domain.size(a));
            }
        }
    }
}
