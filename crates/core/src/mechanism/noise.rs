//! Noise sampling primitives, private to the mechanism module: the two
//! [`NoiseBackend`](super::NoiseBackend) implementations are their only callers.

use rand::Rng;

/// Samples `len` independent Gaussian values with mean 0 and standard
/// deviation `sigma`, using the Box–Muller transform (so only `rand`'s uniform
/// sampling is required).
pub fn gaussian_noise<R: Rng + ?Sized>(rng: &mut R, sigma: f64, len: usize) -> Vec<f64> {
    // mm-lint: allow(assert-on-input): sampling primitive — the scale is computed by PrivacyParams (validated at try_new) or a NoiseBackend, never taken from a caller directly; a bad sigma here is a library bug
    assert!(
        sigma >= 0.0 && sigma.is_finite(),
        "sigma must be nonnegative"
    );
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        out.push(sigma * r * theta.cos());
        if out.len() < len {
            out.push(sigma * r * theta.sin());
        }
    }
    out
}

/// Samples `len` independent Laplace values with mean 0 and scale `b`
/// (variance `2b²`) by inverse-CDF sampling.
pub fn laplace_noise<R: Rng + ?Sized>(rng: &mut R, b: f64, len: usize) -> Vec<f64> {
    // mm-lint: allow(assert-on-input): sampling primitive — the scale is computed by PrivacyParams (validated at try_new) or a NoiseBackend, never taken from a caller directly; a bad scale here is a library bug
    assert!(b >= 0.0 && b.is_finite(), "scale must be nonnegative");
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen_range(-0.5..0.5);
            -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let sigma = 3.0;
        let xs = gaussian_noise(&mut rng, sigma, n);
        assert_eq!(xs.len(), n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var - sigma * sigma).abs() / (sigma * sigma) < 0.03,
            "variance {var}"
        );
    }

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let b = 2.0;
        let xs = laplace_noise(&mut rng, b, n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var - 2.0 * b * b).abs() / (2.0 * b * b) < 0.05,
            "variance {var}"
        );
    }

    #[test]
    fn zero_scale_produces_zeros() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(gaussian_noise(&mut rng, 0.0, 5).iter().all(|&x| x == 0.0));
        assert!(laplace_noise(&mut rng, 0.0, 5).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn odd_lengths_handled() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(gaussian_noise(&mut rng, 1.0, 7).len(), 7);
        assert_eq!(laplace_noise(&mut rng, 1.0, 0).len(), 0);
    }
}
