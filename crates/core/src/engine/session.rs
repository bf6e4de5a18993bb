//! Sessions and privacy-budget accounting.
//!
//! A [`Session`] wraps an [`Engine`] with a [`BudgetLedger`] — a total
//! privacy budget plus a pluggable [`Accountant`] deciding how the charges
//! *compose*.  The default accountant implements basic sequential
//! composition (a sequence of (ε₁,δ₁)-, (ε₂,δ₂)-, … DP mechanisms on the
//! same database satisfies (Σεᵢ, Σδᵢ)-DP); the
//! [`accounting`](crate::accounting) module provides advanced-composition
//! and Rényi (RDP) accountants that admit substantially more answers at the
//! same total budget.  Every successful answer charges its full
//! [`MechanismEvent`] (backend kind, noise scale, sensitivity, requested
//! (ε, δ)) to the ledger; a call whose charge does not fit in the remaining
//! budget fails with [`MechanismError::BudgetExhausted`] *before* any noise
//! is drawn or data touched, so a failed call spends nothing.

use super::{single, Engine, EngineAnswer, StructuredAnswer};
use crate::accounting::{Accountant, MechanismEvent, SequentialAccountant};
use crate::privacy::PrivacyParams;
use crate::MechanismError;
use mm_workload::{StructuredWorkload, Workload};
use rand::Rng;
use std::borrow::Borrow;
use std::sync::Arc;

/// A total privacy budget (ε, δ) available to a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyBudget {
    /// Total ε available.
    pub epsilon: f64,
    /// Total δ available.
    pub delta: f64,
}

impl PrivacyBudget {
    /// Creates a budget, rejecting negative or non-finite values with a
    /// typed error — the form to use on budgets that arrive from a caller
    /// (a config file, an RPC) rather than from a literal in the source.
    pub fn try_new(epsilon: f64, delta: f64) -> Result<Self, MechanismError> {
        if !(epsilon >= 0.0 && epsilon.is_finite()) {
            return Err(MechanismError::InvalidArgument(format!(
                "epsilon budget must be finite and >= 0, got {epsilon}"
            )));
        }
        if !(0.0..1.0).contains(&delta) {
            return Err(MechanismError::InvalidArgument(format!(
                "delta budget must lie in [0, 1), got {delta}"
            )));
        }
        Ok(PrivacyBudget { epsilon, delta })
    }

    /// Creates a budget; panics on negative or non-finite values.  See
    /// [`PrivacyBudget::try_new`] for the non-panicking form.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        match PrivacyBudget::try_new(epsilon, delta) {
            Ok(budget) => budget,
            Err(e) => panic!("{e}"),
        }
    }

    /// A pure-DP budget (δ = 0).
    pub fn pure(epsilon: f64) -> Self {
        PrivacyBudget::new(epsilon, 0.0)
    }
}

/// A privacy-budget ledger: a total budget, a pluggable [`Accountant`]
/// deciding how charges compose, and the history of accepted charges.
///
/// [`BudgetLedger::new`] uses the [`SequentialAccountant`], a drop-in
/// replacement for the original sequential-composition ledger (same API and
/// admission semantics, with compensated summation and headroom reporting as
/// the intentional fixes); [`BudgetLedger::with_accountant`] plugs in any
/// other composition rule (advanced composition, RDP — see
/// [`crate::accounting`]).
///
/// # Slack semantics
///
/// Affordability tolerates an absolute overshoot of
/// `BUDGET_SLACK · max(total, 1)` per component (resp.
/// `max(total, f64::MIN_POSITIVE)` for δ), absorbing floating-point drift so
/// that e.g. ten charges of ε/10 exactly exhaust an ε budget.  For the
/// sequential accountant the admission boundary is the *headroom*
/// `max(0, total + slack − spent)`: a request is accepted iff it fits the
/// headroom componentwise, and a rejected request's
/// [`MechanismError::BudgetExhausted`] reports that same headroom as the
/// remaining budget — so the accept/reject boundary is exactly explainable
/// from the error.  [`BudgetLedger::remaining`] stays the conservative
/// clamped view `max(0, total − spent)` (never including the slack), which
/// may under-report the admissible headroom by at most the slack.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    accountant: Box<dyn Accountant>,
}

impl BudgetLedger {
    /// A fresh ledger over the given total budget, accounting sequential
    /// composition.
    pub fn new(total: PrivacyBudget) -> Self {
        BudgetLedger::with_accountant(Box::new(SequentialAccountant::new(total)))
    }

    /// A fresh ledger charging through the given accountant.
    pub fn with_accountant(accountant: Box<dyn Accountant>) -> Self {
        BudgetLedger { accountant }
    }

    /// The accountant this ledger charges through.
    pub fn accountant(&self) -> &dyn Accountant {
        self.accountant.as_ref()
    }

    /// The total budget the ledger was created with.
    pub fn total(&self) -> PrivacyBudget {
        self.accountant.total()
    }

    /// Budget spent so far under the accountant's composition (for the
    /// sequential accountant: the sums of the charged ε's and δ's; for
    /// advanced/RDP accountants: the composed spend at the budget's δ,
    /// typically far below the sums).
    pub fn spent(&self) -> PrivacyBudget {
        self.accountant.spent()
    }

    /// Budget still available (clamped at zero).
    pub fn remaining(&self) -> PrivacyBudget {
        self.accountant.remaining()
    }

    /// Every charge accepted so far, in order: the requested (ε, δ) of each
    /// recorded event.  Derived from [`BudgetLedger::events`] (the single
    /// source of truth), which carries the full mechanism events.
    pub fn charges(&self) -> Vec<PrivacyParams> {
        self.events()
            .iter()
            .map(MechanismEvent::requested)
            .collect()
    }

    /// Every mechanism event accepted so far, in order (an owned snapshot;
    /// see [`Accountant::events`]).
    pub fn events(&self) -> Vec<MechanismEvent> {
        self.accountant.events()
    }

    /// Whether a charge of `params` would fit in the remaining budget.
    pub fn can_afford(&self, params: &PrivacyParams) -> bool {
        self.check_many(params, 1).is_ok()
    }

    /// Checks that a charge of `params` fits, failing with
    /// [`MechanismError::BudgetExhausted`] (and changing no state) otherwise.
    pub fn check(&self, params: &PrivacyParams) -> crate::Result<()> {
        self.check_many(params, 1)
    }

    /// Checks that `count` repeated charges of `params` would all fit under
    /// the accountant's *composed* post-charge spend (for sequential
    /// composition this is one linear arithmetic check; for advanced/RDP
    /// accountants the k-fold composed bound is evaluated), failing with
    /// [`MechanismError::BudgetExhausted`] — reporting the total requested
    /// (ε, δ) and the accountant's view of spend — and changing no state
    /// otherwise.
    ///
    /// A bare (ε, δ) pair carries no mechanism information, so it is checked
    /// as a [*declared*](MechanismEvent::declared) event; mechanism-aware
    /// paths use [`BudgetLedger::check_event_many`].
    pub fn check_many(&self, params: &PrivacyParams, count: usize) -> crate::Result<()> {
        self.check_event_many(&MechanismEvent::declared(*params), count)
    }

    /// Checks that `count` repeated charges of the full mechanism `event`
    /// would fit the composed post-charge spend, changing no state.
    pub fn check_event_many(&self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.accountant.check_many(event, count)
    }

    /// Charges `params` to the ledger, or fails with
    /// [`MechanismError::BudgetExhausted`] without changing any state.
    /// The charge is recorded as a [*declared*](MechanismEvent::declared)
    /// event (composed sequentially by every accountant); mechanism-aware
    /// paths use [`BudgetLedger::charge_event_many`].
    pub fn try_charge(&mut self, params: &PrivacyParams) -> crate::Result<()> {
        self.charge_event_many(&MechanismEvent::declared(*params), 1)
    }

    /// Charges `count` copies of the full mechanism `event` (all-or-nothing:
    /// the composed post-charge spend must fit or nothing is charged).
    pub fn charge_event_many(&mut self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.accountant.charge_many(event, count)
    }
}

/// A serving session: an engine plus a privacy-budget ledger.
///
/// `E` is how the session holds its engine: `Session<&Engine>` borrows it
/// ([`Engine::session`], [`Engine::session_with_accountant`]), while
/// [`OwnedSession`] (`Session<Arc<Engine>>`, from [`Engine::owned_session`]
/// or [`Engine::user_session`]) owns a handle, so it is `Send + 'static` and
/// can move across threads or async tasks — the shape a concurrent server
/// hands to each connection.  Either way the (shared, data-independent)
/// strategy cache keeps working across sessions; only the budget is
/// per-session state.  Sessions account through the engine's configured
/// [`AccountantFactory`](crate::accounting::AccountantFactory) (sequential
/// composition by default) unless opened with an explicit accountant.
///
/// # Accounting contract
///
/// *Every* answering method on a session charges its privacy cost to the
/// ledger as a full [`MechanismEvent`] (backend kind, noise scale,
/// sensitivity, requested (ε, δ)): [`Session::answer`] and
/// [`Session::answer_structured`] charge the engine's per-answer (ε, δ)
/// (a caller's own strategy is served through an engine built with a
/// [`FixedStrategySelector`](super::FixedStrategySelector), and charges
/// the same way), [`Session::answer_with_privacy`]
/// charges its explicit parameters, and [`Session::answer_batch`] charges
/// once per data vector, with affordability decided by the accountant's
/// *composed* post-charge spend (all-or-nothing for the batch).  A call
/// whose charge does not fit fails with [`MechanismError::BudgetExhausted`]
/// before any strategy selection, noise draw or data access (see
/// [`Engine::admit`]), and spends nothing; a call that fails for any other
/// reason (after the affordability check) also spends nothing.  Answering
/// through `session.engine()` directly bypasses the ledger and is *not*
/// covered by the session's budget guarantee — the engine has no ledger of
/// its own.
#[derive(Debug)]
pub struct Session<E: Borrow<Engine>> {
    engine: E,
    ledger: BudgetLedger,
}

/// A [`Session`] that owns its engine handle: `Send + 'static`, so it can
/// move across threads or async tasks.
pub type OwnedSession = Session<Arc<Engine>>;

impl<E: Borrow<Engine>> Session<E> {
    /// Opens a session over `engine`, accounting through the engine's
    /// configured accountant factory.
    pub fn new(engine: E, budget: PrivacyBudget) -> Self {
        let accountant = Borrow::<Engine>::borrow(&engine)
            .accountant_factory()
            .accountant(budget);
        Session::with_accountant(engine, accountant)
    }

    /// Opens a session charging through an explicit accountant.
    pub fn with_accountant(engine: E, accountant: Box<dyn Accountant>) -> Self {
        Session {
            engine,
            ledger: BudgetLedger::with_accountant(accountant),
        }
    }

    /// The engine this session serves through.
    pub fn engine(&self) -> &Engine {
        self.engine.borrow()
    }

    /// The session's ledger (totals, composed spend, charge history).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Budget still available under the session's accountant.
    pub fn remaining(&self) -> PrivacyBudget {
        self.ledger.remaining()
    }

    /// Answers a workload at the engine's per-answer privacy parameters,
    /// charging them to the ledger.  Fails with
    /// [`MechanismError::BudgetExhausted`] — before touching the data — when
    /// the charge does not fit.
    pub fn answer<W: Workload + ?Sized, R: Rng>(
        &mut self,
        workload: &W,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<EngineAnswer> {
        let privacy = *self.engine().privacy();
        self.answer_with_privacy(workload, privacy, x, rng)
    }

    /// Answers a workload at explicit per-call privacy parameters (spending
    /// less of the budget on less important queries, say), charging them to
    /// the ledger.
    pub fn answer_with_privacy<W: Workload + ?Sized, R: Rng>(
        &mut self,
        workload: &W,
        privacy: PrivacyParams,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<EngineAnswer> {
        let engine: &Engine = self.engine.borrow();
        engine
            .answer_dense(workload, privacy, &[x], rng, Some(&mut self.ledger))
            .map(single)
    }

    /// Answers a structured workload through the engine's matrix-free path
    /// ([`Engine::answer_structured`]), charging the engine's per-answer
    /// (ε, δ) to the ledger exactly like [`Session::answer`] — the
    /// structured path spends privacy identically to the dense one.
    pub fn answer_structured<W: StructuredWorkload + ?Sized, R: Rng>(
        &mut self,
        workload: &W,
        x: &[f64],
        rng: &mut R,
    ) -> crate::Result<StructuredAnswer> {
        let engine: &Engine = self.engine.borrow();
        let privacy = *engine.privacy();
        engine.answer_matrix_free(workload, privacy, x, rng, Some(&mut self.ledger))
    }

    /// Answers many data vectors under one workload
    /// ([`Engine::answer_batch`]), charging the engine's per-answer (ε, δ)
    /// once *per vector*.  The whole batch must fit the accountant's
    /// composed post-charge spend or the call fails closed without
    /// answering anything.
    pub fn answer_batch<W: Workload + ?Sized, X: AsRef<[f64]>, R: Rng>(
        &mut self,
        workload: &W,
        xs: &[X],
        rng: &mut R,
    ) -> crate::Result<Vec<EngineAnswer>> {
        let xs: Vec<&[f64]> = xs.iter().map(AsRef::as_ref).collect();
        let engine: &Engine = self.engine.borrow();
        let privacy = *engine.privacy();
        engine.answer_dense(workload, privacy, &xs, rng, Some(&mut self.ledger))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_linalg::approx_eq;

    #[test]
    fn ledger_arithmetic() {
        let mut ledger = BudgetLedger::new(PrivacyBudget::new(1.0, 1e-3));
        let step = PrivacyParams::new(0.25, 1e-4);
        for i in 1..=4 {
            ledger.try_charge(&step).unwrap();
            assert!(approx_eq(ledger.spent().epsilon, 0.25 * i as f64, 1e-12));
        }
        assert!(approx_eq(ledger.remaining().epsilon, 0.0, 1e-9));
        assert!(approx_eq(ledger.remaining().delta, 1e-3 - 4e-4, 1e-12));
        assert_eq!(ledger.charges().len(), 4);
        let err = ledger.try_charge(&step).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        // The failed charge spent nothing.
        assert_eq!(ledger.charges().len(), 4);
        assert!(approx_eq(ledger.spent().epsilon, 1.0, 1e-12));
    }

    #[test]
    fn repeated_fractional_charges_exactly_exhaust() {
        // 10 × ε/10 must fit despite floating-point accumulation.
        let mut ledger = BudgetLedger::new(PrivacyBudget::pure(1.0));
        let step = PrivacyParams::pure(0.1);
        for _ in 0..10 {
            ledger.try_charge(&step).unwrap();
        }
        assert!(ledger.try_charge(&step).is_err());
    }

    #[test]
    fn delta_budget_is_enforced_independently() {
        let mut ledger = BudgetLedger::new(PrivacyBudget::new(10.0, 1e-4));
        // Plenty of epsilon, but the second charge overruns delta.
        ledger.try_charge(&PrivacyParams::new(1.0, 9e-5)).unwrap();
        let err = ledger
            .try_charge(&PrivacyParams::new(1.0, 9e-5))
            .unwrap_err();
        match err {
            MechanismError::BudgetExhausted {
                remaining_delta, ..
            } => assert!(remaining_delta < 2e-5),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "epsilon budget")]
    fn negative_budget_rejected() {
        PrivacyBudget::new(-1.0, 0.0);
    }

    #[test]
    fn can_afford_matches_the_reported_boundary() {
        // Regression for the slack-vs-clamped-remaining inconsistency: the
        // ledger's accept/reject boundary is the headroom the error reports,
        // and `can_afford` agrees with `try_charge` at that boundary.
        let mut ledger = BudgetLedger::new(PrivacyBudget::pure(1.0));
        ledger.try_charge(&PrivacyParams::pure(1.0)).unwrap();
        assert_eq!(ledger.remaining().epsilon, 0.0);
        let err = ledger.try_charge(&PrivacyParams::pure(0.5)).unwrap_err();
        match err {
            MechanismError::BudgetExhausted {
                requested_epsilon,
                remaining_epsilon,
                spent_epsilon,
                accountant,
                ..
            } => {
                // The reported remainder is the admission boundary (the
                // slack-aware headroom): any request at or below it is
                // affordable, anything above it is not.
                assert!(requested_epsilon > remaining_epsilon);
                assert!(remaining_epsilon > 0.0 && remaining_epsilon < 1e-8);
                assert!(ledger.can_afford(&PrivacyParams::pure(remaining_epsilon)));
                assert!(!ledger.can_afford(&PrivacyParams::pure(remaining_epsilon * 2.0)));
                assert!(approx_eq(spent_epsilon, 1.0, 1e-12));
                assert_eq!(accountant, "sequential");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ledger_records_full_mechanism_events() {
        use crate::accounting::MechanismKind;
        let mut ledger = BudgetLedger::new(PrivacyBudget::new(2.0, 1e-3));
        let p = PrivacyParams::paper_default();
        let event = MechanismEvent::gaussian(p, p.gaussian_unit_sigma() * 2.0, 2.0);
        ledger.charge_event_many(&event, 2).unwrap();
        assert_eq!(ledger.events().len(), 2);
        assert_eq!(ledger.charges().len(), 2);
        assert_eq!(ledger.events()[0].kind(), MechanismKind::Gaussian);
        assert_eq!(ledger.events()[0].sensitivity(), 2.0);
        assert_eq!(ledger.charges()[0], p);
    }

    #[test]
    fn fixed_strategy_answers_charge_the_ledger() {
        // A caller's own strategy is served by a `FixedStrategySelector`
        // engine, and `Session::answer` charges the engine's per-answer
        // (ε, δ) for it exactly as for a selected strategy.
        use crate::engine::FixedStrategySelector;
        use mm_strategies::identity::identity_strategy;
        use mm_workload::IdentityWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = PrivacyParams::new(0.5, 1e-4);
        let engine = Engine::builder()
            .privacy(p)
            .selector(FixedStrategySelector::new(identity_strategy(8)))
            .build()
            .unwrap();
        let w = IdentityWorkload::new(8);
        let x = vec![3.0; 8];
        let mut rng = StdRng::seed_from_u64(21);

        let mut session = engine.session(PrivacyBudget::new(1.0, 1e-3));
        let first = session.answer(&w, &x, &mut rng).unwrap();
        assert_eq!(first.strategy.name(), identity_strategy(8).name());
        assert!(approx_eq(session.ledger().spent().epsilon, 0.5, 1e-12));
        assert!(approx_eq(session.ledger().spent().delta, 1e-4, 1e-15));
        session.answer(&w, &x, &mut rng).unwrap();
        // Third answer does not fit (ε budget 1.0, spend 1.0) and fails
        // closed before answering.
        let err = session.answer(&w, &x, &mut rng).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        assert_eq!(session.ledger().charges().len(), 2);
    }

    #[test]
    fn answer_batch_charges_per_vector_and_fails_closed() {
        use mm_workload::IdentityWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = PrivacyParams::new(0.25, 1e-5);
        let engine = Engine::builder().privacy(p).build().unwrap();
        let w = IdentityWorkload::new(4);
        let xs: Vec<Vec<f64>> = (0..3).map(|k| vec![k as f64; 4]).collect();
        let mut rng = StdRng::seed_from_u64(22);

        // Budget for exactly three vectors.
        let mut session = engine.session(PrivacyBudget::new(0.75, 1e-3));
        let answers = session.answer_batch(&w, &xs, &mut rng).unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(session.ledger().charges().len(), 3, "one charge per vector");
        assert!(approx_eq(session.ledger().spent().epsilon, 0.75, 1e-12));

        // A batch that does not fit spends *nothing* (all-or-nothing).
        let err = session.answer_batch(&w, &xs, &mut rng).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        assert_eq!(session.ledger().charges().len(), 3);

        // A two-vector batch would not fit a 1.5-vector leftover either.
        let mut tight = engine.session(PrivacyBudget::new(0.3, 1e-3));
        assert!(tight.answer_batch(&w, &xs[..2], &mut rng).is_err());
        assert_eq!(tight.ledger().charges().len(), 0);
        assert!(tight.answer_batch(&w, &xs[..1], &mut rng).is_ok());
    }

    #[test]
    fn answer_batch_edge_sizes_charge_exactly_k_times() {
        // Edge cases of the all-or-nothing batch charging: an empty batch
        // succeeds and charges nothing, a K = 1 batch charges exactly once —
        // for both the borrowed and the owned session.
        use mm_workload::IdentityWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = PrivacyParams::new(0.25, 1e-5);
        let engine = Arc::new(Engine::builder().privacy(p).build().unwrap());
        let w = IdentityWorkload::new(4);
        let mut rng = StdRng::seed_from_u64(30);

        let mut session = engine.session(PrivacyBudget::new(1.0, 1e-3));
        let empty: &[Vec<f64>] = &[];
        let answers = session.answer_batch(&w, empty, &mut rng).unwrap();
        assert!(answers.is_empty());
        assert_eq!(session.ledger().charges().len(), 0, "empty batch is free");
        assert!(approx_eq(session.ledger().spent().epsilon, 0.0, 1e-15));

        let one = vec![vec![2.0; 4]];
        let answers = session.answer_batch(&w, &one, &mut rng).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(session.ledger().charges().len(), 1, "K = 1 charges once");
        assert!(approx_eq(session.ledger().spent().epsilon, 0.25, 1e-12));

        let mut owned = engine.owned_session(PrivacyBudget::new(1.0, 1e-3));
        assert!(owned.answer_batch(&w, empty, &mut rng).unwrap().is_empty());
        assert_eq!(owned.ledger().charges().len(), 0);
        assert_eq!(owned.answer_batch(&w, &one, &mut rng).unwrap().len(), 1);
        assert_eq!(owned.ledger().charges().len(), 1);

        // An exhausted session still accepts the (free) empty batch.
        let mut broke = engine.session(PrivacyBudget::new(0.0, 0.0));
        assert!(broke.answer_batch(&w, empty, &mut rng).unwrap().is_empty());
        assert!(broke.answer_batch(&w, &one, &mut rng).is_err());
        assert_eq!(broke.ledger().charges().len(), 0);
    }

    #[test]
    fn owned_session_moves_across_threads() {
        use mm_workload::IdentityWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let engine = Arc::new(
            Engine::builder()
                .privacy(PrivacyParams::new(0.5, 1e-4))
                .build()
                .unwrap(),
        );
        let w = IdentityWorkload::new(8);
        let mut session = engine.owned_session(PrivacyBudget::new(1.0, 1e-3));
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(23);
            let x = vec![5.0; 8];
            session.answer(&w, &x, &mut rng).unwrap();
            session.answer(&w, &x, &mut rng).unwrap();
            assert!(session.answer(&w, &x, &mut rng).is_err(), "ε exhausted");
            session
        });
        let session = handle.join().unwrap();
        assert_eq!(session.ledger().charges().len(), 2);
        // The owned session shared the engine's cache: one selection total.
        assert_eq!(engine.stats().selections, 1);
    }

    #[test]
    fn session_events_record_the_backend_mechanism() {
        use crate::accounting::MechanismKind;
        use mm_workload::IdentityWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = PrivacyParams::new(0.5, 1e-4);
        let engine = Engine::builder().privacy(p).build().unwrap();
        let w = IdentityWorkload::new(8);
        let x = vec![3.0; 8];
        let mut rng = StdRng::seed_from_u64(40);
        let mut session = engine.session(PrivacyBudget::new(2.0, 1e-3));
        session.answer(&w, &x, &mut rng).unwrap();
        let events = session.ledger().events();
        assert_eq!(events.len(), 1);
        // The Gaussian backend records the actual σ and Δ₂ of the release
        // (identity strategy: Δ₂ = 1, σ = √(2 ln(2/δ))/ε).
        assert_eq!(events[0].kind(), MechanismKind::Gaussian);
        assert!(approx_eq(events[0].sensitivity(), 1.0, 1e-9));
        assert!(approx_eq(
            events[0].noise_scale(),
            p.gaussian_sigma(1.0),
            1e-9
        ));
        assert_eq!(events[0].requested(), p);
    }
}
