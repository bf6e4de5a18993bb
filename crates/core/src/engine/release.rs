//! The answer pipeline: one admission gate, two fronts, one release step.
//!
//! Every plan kind answers through the same release of the matrix mechanism
//! (Props. 2–3): noisy answers `Y = A·X + N` to a strategy, then workload
//! answers from the least-squares estimate.  The kinds differ only in how
//! they observe the data and how they invert the observation, so each
//! kind is a *front* around the one [`Engine::release`] step:
//!
//! * the **dense front** ([`Engine::answer_dense`]) serves dense and
//!   low-rank plans: observe `A·(L̃·X)` (no `L̃` on a dense plan), invert by
//!   two triangular solves through the cached Cholesky factor, answer
//!   `W·X̂`;
//! * the **structured front** ([`Engine::answer_matrix_free`]) serves
//!   matrix-free plans: observe `A·x` through the operator's `apply`, invert
//!   by the strategy's exact O(n) least squares, answer the workload's
//!   interval sums.
//!
//! Before either front derives a cache key or selects, [`Engine::admit`]
//! rejects malformed input and probes the ledger in O(1); the release step
//! then re-checks the ledger with the release's actual event before any
//! data is touched and charges it once after inference succeeds.  It is
//! the engine's only caller of
//! [`NoiseBackend::sample`](crate::mechanism::NoiseBackend::sample).

use super::plan::SelectionPlan;
use super::session::BudgetLedger;
use super::{workload_key, CachedSelection, Engine, EngineAnswer, StructuredAnswer};
use crate::accounting::Accountant;
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use mm_linalg::{LinearOperator, Matrix};
use mm_workload::{StructuredWorkload, Workload};
use rand::Rng;

impl Engine {
    /// The admission gate every answer path passes before it derives a
    /// cache key or selects a strategy — O(1) per data vector, no data
    /// values read:
    ///
    /// * every data vector covers the workload's cells, and the workload
    ///   has at least one query;
    /// * `privacy` is usable with the engine's backend;
    /// * when an `accountant` is given, `xs.len()` charges of the backend's
    ///   event at **unit sensitivity** fit its composed spend.  The RDP
    ///   curves are functions of the ratio σ/Δ only (and the other
    ///   accountants of the requested (ε, δ) only), so for the built-in
    ///   backends this is exactly the decision the release step's
    ///   authoritative check will make — an exhausted ledger rejects
    ///   before paying an O(n³) selection or churning the shared cache.
    ///
    /// The serve tier runs the same gate at submit time, before it queues
    /// any selection work.
    pub fn admit<W: Workload + ?Sized, X: AsRef<[f64]>>(
        &self,
        workload: &W,
        xs: &[X],
        privacy: &PrivacyParams,
        accountant: Option<&dyn Accountant>,
    ) -> crate::Result<()> {
        let dim = workload.dim();
        if let Some(x) = xs.iter().find(|x| x.as_ref().len() != dim) {
            return Err(MechanismError::InvalidArgument(format!(
                "data vector has {} cells but the workload covers {dim}",
                x.as_ref().len()
            )));
        }
        if workload.query_count() == 0 {
            return Err(MechanismError::InvalidArgument(
                "workload has no queries".into(),
            ));
        }
        self.backend.validate(privacy)?;
        if let Some(accountant) = accountant {
            let probe = self.backend.mechanism_event(privacy, 1.0);
            accountant.check_many(&probe, xs.len())?;
        }
        Ok(())
    }

    /// One release of the mechanism on `k` data vectors at the given
    /// privacy parameters and strategy sensitivity.
    ///
    /// In order: validate `privacy`; check `k` charges of the release's
    /// event (actual noise scale and sensitivity) against `ledger`, before
    /// any data is touched — a rejected release spends nothing; `observe`
    /// the exact p×k strategy answers; add one independent length-p noise
    /// draw per column, column by column, so a batch consumes the rng
    /// exactly like `k` sequential releases; run the plan's inference
    /// (`infer`); and only then charge the ledger, once for all `k`.
    ///
    /// A session-private accountant cannot fail the charge after the check
    /// passed, but a *shared* one ([`crate::accounting::UserLedger`]) can be
    /// charged concurrently in between — the inferred estimates are then
    /// dropped unreleased and the budget error propagates, failing closed.
    #[allow(clippy::too_many_arguments)]
    fn release<T, R: Rng>(
        &self,
        privacy: &PrivacyParams,
        sensitivity: f64,
        k: usize,
        mut ledger: Option<&mut BudgetLedger>,
        rng: &mut R,
        observe: impl FnOnce() -> crate::Result<Matrix>,
        infer: impl FnOnce(Matrix) -> crate::Result<T>,
    ) -> crate::Result<T> {
        self.backend.validate(privacy)?;
        let event = self.backend.mechanism_event(privacy, sensitivity);
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.check_event_many(&event, k)?;
        }
        let mut y = observe()?;
        debug_assert_eq!(y.cols(), k);
        let p = y.rows();
        let scale = self.backend.noise_scale(privacy, sensitivity);
        let y_data = y.as_mut_slice();
        for c in 0..k {
            let noise = self.backend.sample(rng, scale, p);
            for (i, ni) in noise.into_iter().enumerate() {
                y_data[i * k + c] += ni;
            }
        }
        let released = infer(y)?;
        if let Some(ledger) = ledger {
            ledger.charge_event_many(&event, k)?;
        }
        Ok(released)
    }

    /// The dense front, serving dense and low-rank plans, vectorised over
    /// data vectors.
    ///
    /// Per batch: one admission, one cache lookup, and the cached factor,
    /// trace term and noise calibration.  (A caller's own strategy reaches
    /// this front through a
    /// [`FixedStrategySelector`](super::FixedStrategySelector) engine, so it
    /// is cached like any selection.)  The K data vectors become the
    /// columns of one matrix `X`, and the whole batch runs as a single blocked
    /// `L⁻ᵀ(L⁻¹(Aᵀ(A·X + N)))` pass — mat-mat products and multi-RHS
    /// triangular solves — followed by one `W·X̂` evaluation.  A low-rank
    /// plan runs the identical pass inside its subspace: it observes
    /// `A_sub·(L̃·X)` and recombines the estimate as `X̂ = L̃ᵀ·Ẑ`.
    ///
    /// Every kernel in the pass is column-wise bit-identical across widths,
    /// so a single answer is exactly the K = 1 batch, and a batch equals K
    /// sequential answers on the same rng, byte for byte.
    pub(crate) fn answer_dense<W: Workload + ?Sized, R: Rng>(
        &self,
        workload: &W,
        privacy: PrivacyParams,
        xs: &[&[f64]],
        rng: &mut R,
        ledger: Option<&mut BudgetLedger>,
    ) -> crate::Result<Vec<EngineAnswer>> {
        let accountant = ledger.as_deref().map(BudgetLedger::accountant);
        self.admit(workload, xs, &privacy, accountant)?;
        // `gram` holds the workload gram only once something has built it:
        // a memoised key on a repeated instance does not.
        let (base, gram) = workload_key(workload)?;
        let fingerprint = self.plan_fingerprint(base, workload.dim());
        let (plan, cache_hit) = self.select_plan(workload, &gram, fingerprint)?;
        // A low-rank plan's trace term is taken against the projected gram
        // `L̃GL̃ᵀ`; its strategy's sensitivities are those of the end-to-end
        // map `A_sub·L̃`, so the calibration below covers the whole release.
        let (entry, basis, trace_gram): (&CachedSelection, Option<&Matrix>, Option<&Matrix>) =
            match &*plan {
                SelectionPlan::Dense(entry) => (entry.as_ref(), None, None),
                SelectionPlan::LowRank(lr) => {
                    (lr.selection(), Some(lr.basis()), Some(lr.subspace_gram()))
                }
                SelectionPlan::Structured(_) => {
                    return Err(MechanismError::InvalidArgument(
                        "a structured plan cannot be answered through the dense path; \
                         use the structured answer paths"
                            .into(),
                    ))
                }
            };
        let strategy = entry.strategy().clone();
        let dim = plan.dim();
        if workload.dim() != dim {
            return Err(MechanismError::InvalidArgument(format!(
                "workload covers {} cells but the strategy covers {dim}",
                workload.dim()
            )));
        }
        let a = strategy
            .matrix()
            .ok_or_else(|| MechanismError::StrategyNotMaterialized(strategy.name().to_string()))?;
        // An empty batch is valid and does no per-vector work (the cached
        // factor and trace term are not even materialised).
        let k = xs.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        // Predicted error through the cached factor and trace term
        // (Prop. 4 / Sec. 3.5) — both are data- and privacy-independent.  A
        // dense term still unset takes the workload gram, built only then.
        let factor = entry.factor()?;
        let sens = self.backend.sensitivity(&strategy);
        let trace = entry.trace_term_with(|| {
            trace_gram.unwrap_or_else(|| gram.get_or_init(|| workload.gram()))
        })?;
        let tse = self.backend.error_constant(&privacy)? * sens * sens * trace;
        let m = workload.query_count();
        let expected_rms_error = (tse / m as f64).sqrt();
        let estimates = self.release(
            &privacy,
            sens,
            k,
            ledger,
            rng,
            || {
                let x = Matrix::from_fn(dim, k, |i, c| xs[c][i]);
                Ok(match basis {
                    Some(b) => a.matmul(&b.matmul(&x)?)?,
                    None => a.matmul(&x)?,
                })
            },
            |y| {
                let aty = a.matmul_transpose_left(&y)?;
                let solved = factor.solve_upper_multi(&factor.solve_lower_multi(&aty)?)?;
                Ok(match basis {
                    Some(b) => b.matmul_transpose_left(&solved)?,
                    None => solved,
                })
            },
        )?;
        // `W·X̂` in one pass (explicit workloads route it through the
        // blocked matmul kernel), column-wise bit-identical to per-vector
        // evaluation.
        let evaluated = workload.evaluate_matrix(&estimates);
        debug_assert_eq!(evaluated.shape(), (m, k));
        let answer = |answers, estimate| EngineAnswer {
            answers,
            estimate,
            strategy: strategy.clone(),
            expected_rms_error,
            fingerprint,
            cache_hit,
        };
        Ok(if k == 1 {
            // One column moves out whole: no m-length copy.
            vec![answer(evaluated.into_vec(), estimates.into_vec())]
        } else {
            (0..k)
                .map(|c| answer(evaluated.col(c), estimates.col(c)))
                .collect()
        })
    }

    /// The structured front, serving matrix-free plans: one operator
    /// `apply` observes the data,
    /// [`StructuredStrategy::least_squares`](mm_strategies::StructuredStrategy::least_squares)
    /// recovers the exact least-squares estimate in O(n), and the workload
    /// evaluates it.  Peak memory is O(n + m); no n×n object is ever
    /// formed.
    pub(crate) fn answer_matrix_free<W: StructuredWorkload + ?Sized, R: Rng>(
        &self,
        workload: &W,
        privacy: PrivacyParams,
        x: &[f64],
        rng: &mut R,
        ledger: Option<&mut BudgetLedger>,
    ) -> crate::Result<StructuredAnswer> {
        let accountant = ledger.as_deref().map(BudgetLedger::accountant);
        self.admit(workload, &[x], &privacy, accountant)?;
        let n = workload.dim();
        let descriptor = workload.descriptor();
        let (plan, fingerprint, cache_hit) = self.structured_plan(&descriptor)?;
        let strategy = plan.strategy().clone();
        if strategy.dim() != n {
            return Err(MechanismError::InvalidArgument(format!(
                "workload covers {n} cells but the structured strategy covers {}",
                strategy.dim()
            )));
        }
        let sens = self
            .backend
            .sensitivity_from_norms(strategy.l2_sensitivity(), strategy.l1_sensitivity());
        let expected_rms_error =
            self.structured_expected_rms_error(&descriptor, &plan, &privacy, sens)?;
        let estimate = self.release(
            &privacy,
            sens,
            1,
            ledger,
            rng,
            || {
                let y = strategy.operator().apply(x);
                Ok(Matrix::from_vec(y.len(), 1, y)?)
            },
            |y| Ok(strategy.least_squares(y.as_slice())),
        )?;
        let answers = workload.evaluate(&estimate);
        Ok(StructuredAnswer {
            answers,
            estimate,
            strategy,
            expected_rms_error,
            fingerprint,
            cache_hit,
        })
    }
}
