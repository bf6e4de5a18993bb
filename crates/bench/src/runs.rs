//! Shared experiment plumbing for the reproduction binaries.

use mm_core::bounds::{rms_error_bound, workload_eigenvalues};
use mm_core::engine::FixedStrategySelector;
use mm_core::error::rms_workload_error;
use mm_core::{eigen_design, EigenDesignOptions, Engine, GaussianBackend, PrivacyParams};
use mm_linalg::Matrix;
use mm_strategies::Strategy;
use mm_workload::{Domain, Workload};
use std::time::Instant;

/// The Fig. 3 family of domains for a target cell count `n` (a power of two):
/// one-dimensional, two-, three-, four-dimensional and all-binary splits.
///
/// For `n = 2048` this reproduces the paper's `[2048]`, `[64·32]`,
/// `[16·16·8]`, `[8·8·8·4]` and `[2¹¹]`.
pub fn figure3_domains(n: usize) -> Vec<Domain> {
    let bits = (n.max(2) as f64).log2().floor() as usize;
    let n = 1usize << bits;
    let split = |parts: usize| -> Domain {
        let base = bits / parts;
        let extra = bits % parts;
        let sizes: Vec<usize> = (0..parts)
            .map(|i| 1usize << (base + usize::from(i < extra)))
            .collect();
        Domain::new(&sizes)
    };
    let mut out = vec![Domain::one_dim(n)];
    if bits >= 2 {
        out.push(split(2));
    }
    if bits >= 3 {
        out.push(split(3));
    }
    if bits >= 4 {
        out.push(split(4));
    }
    if bits >= 5 {
        out.push(Domain::new(&vec![2usize; bits]));
    }
    out
}

/// Times a closure, returning its output and the elapsed seconds.
pub fn timed<T, F: FnOnce() -> T>(f: F) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A named strategy (or a reason it is not applicable) for comparison rows.
pub struct Method {
    /// Display name ("Wavelet", "Eigen Design", …).
    pub name: String,
    /// The strategy, when applicable to the workload.
    pub strategy: Option<Strategy>,
}

impl Method {
    /// A method with a strategy.
    pub fn new(name: impl Into<String>, strategy: Strategy) -> Self {
        Method {
            name: name.into(),
            strategy: Some(strategy),
        }
    }

    /// A method that is not applicable for this workload.
    pub fn not_applicable(name: impl Into<String>) -> Self {
        Method {
            name: name.into(),
            strategy: None,
        }
    }
}

/// Per-workload comparison: RMS workload errors of all methods plus the
/// singular value lower bound.
pub struct Comparison {
    /// `(method name, rms error)` for each applicable method.
    pub errors: Vec<(String, f64)>,
    /// The Thm. 2 lower bound on the RMS error.
    pub lower_bound: f64,
}

impl Comparison {
    /// Evaluates all methods on a workload gram matrix.
    pub fn evaluate(
        gram: &Matrix,
        query_count: usize,
        privacy: &PrivacyParams,
        methods: &[Method],
    ) -> Self {
        let eigenvalues = workload_eigenvalues(gram).expect("valid gram matrix");
        let lower_bound = rms_error_bound(&eigenvalues, query_count, privacy);
        let errors = methods
            .iter()
            .filter_map(|m| {
                m.strategy.as_ref().map(|s| {
                    let e =
                        rms_workload_error(gram, query_count, s, privacy).unwrap_or(f64::INFINITY);
                    (m.name.clone(), e)
                })
            })
            .collect();
        Comparison {
            errors,
            lower_bound,
        }
    }

    /// The error of the named method.
    pub fn error_of(&self, name: &str) -> Option<f64> {
        self.errors.iter().find(|(n, _)| n == name).map(|(_, e)| *e)
    }

    /// Best and worst error among methods other than `reference`.
    pub fn best_and_worst_excluding(&self, reference: &str) -> Option<(f64, f64)> {
        let others: Vec<f64> = self
            .errors
            .iter()
            .filter(|(n, _)| n != reference)
            .map(|(_, e)| *e)
            .collect();
        if others.is_empty() {
            return None;
        }
        let best = others.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = others.iter().cloned().fold(0.0_f64, f64::max);
        Some((best, worst))
    }
}

/// Runs the Eigen-Design algorithm on a workload and returns its strategy,
/// using the full-accuracy solver for small problems and the faster settings
/// for large ones.
pub fn eigen_strategy_for<W: Workload + ?Sized>(workload: &W) -> Strategy {
    let opts = if workload.dim() > 1024 {
        EigenDesignOptions::fast()
    } else {
        EigenDesignOptions::default()
    };
    eigen_design(&workload.gram(), &opts)
        .expect("eigen design succeeds on non-degenerate workloads")
        .strategy
}

/// An engine that answers every workload with `strategy`, through the
/// Gaussian backend (the paper's (ε, δ) instantiation) and the engine's one
/// release step.  The relative-error sweeps pass it to
/// [`mm_data::relative_error::average_relative_error`] with per-call
/// privacy, so one selection, factor and trace term per workload serve the
/// whole ε sweep.
pub fn fixed_strategy_engine(strategy: Strategy) -> Engine {
    Engine::builder()
        .selector(FixedStrategySelector::new(strategy))
        .backend(GaussianBackend)
        .build()
        .expect("the default privacy parameters suit the Gaussian backend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_strategies::identity::identity_strategy;
    use mm_strategies::wavelet::wavelet_1d;
    use mm_workload::range::AllRangeWorkload;

    #[test]
    fn figure3_domains_paper_scale() {
        let domains = figure3_domains(2048);
        let rendered: Vec<String> = domains.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "[2048]",
                "[64·32]",
                "[16·16·8]",
                "[8·8·8·4]",
                "[2·2·2·2·2·2·2·2·2·2·2]"
            ]
        );
        for d in &domains {
            assert_eq!(d.n_cells(), 2048);
        }
    }

    #[test]
    fn figure3_domains_quick_scale() {
        let domains = figure3_domains(256);
        assert!(domains.iter().all(|d| d.n_cells() == 256));
        assert_eq!(domains[1].sizes(), &[16, 16]);
        assert_eq!(domains[2].sizes(), &[8, 8, 4]);
        assert_eq!(domains[3].sizes(), &[4, 4, 4, 4]);
    }

    #[test]
    fn comparison_evaluates_methods() {
        let w = AllRangeWorkload::new(Domain::new(&[16]));
        let g = w.gram();
        let cmp = Comparison::evaluate(
            &g,
            w.query_count(),
            &PrivacyParams::paper_default(),
            &[
                Method::new("Identity", identity_strategy(16)),
                Method::new("Wavelet", wavelet_1d(16)),
                Method::not_applicable("Fourier"),
            ],
        );
        assert_eq!(cmp.errors.len(), 2);
        assert!(cmp.error_of("Wavelet").unwrap() < cmp.error_of("Identity").unwrap());
        assert!(cmp.lower_bound <= cmp.error_of("Wavelet").unwrap());
        let (best, worst) = cmp.best_and_worst_excluding("Eigen Design").unwrap();
        assert!(best <= worst);
    }

    #[test]
    fn timed_returns_output() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
