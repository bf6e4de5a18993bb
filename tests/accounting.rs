//! Integration tests for the pluggable privacy-accounting subsystem:
//! accountant properties (monotone dominance, pure-DP rejection, composed
//! batch affordability) and the engine-level budget stretch — an RDP session
//! answers strictly more queries than a sequential one at the same total
//! (ε, δ) budget and per-answer noise scale.

use adaptive_dp::core::accounting::{
    Accountant, AccountantFactory, AdvancedCompositionAccountant, AdvancedCompositionAccounting,
    MechanismEvent, RdpAccountant, RdpAccounting, SequentialAccountant, SequentialAccounting,
};
use adaptive_dp::core::engine::{Engine, PrivacyBudget};
use adaptive_dp::core::{GaussianBackend, LaplaceBackend, MechanismError, PrivacyParams};
use adaptive_dp::linalg::approx_eq;
use adaptive_dp::workload::IdentityWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A mixed stream of mechanism events whose sequential δ-sum stays within
/// every budget used below, so the sequential claim is valid throughout and
/// the accountants are comparable.
fn mixed_event_stream() -> Vec<MechanismEvent> {
    let mut events = Vec::new();
    for i in 0..40 {
        let p = PrivacyParams::new(0.1 + 0.01 * (i % 5) as f64, 1e-6);
        events.push(MechanismEvent::gaussian(
            p,
            p.gaussian_unit_sigma() * 2.0,
            2.0,
        ));
        let q = PrivacyParams::pure(0.05 + 0.005 * (i % 3) as f64);
        events.push(MechanismEvent::laplace(q, q.laplace_unit_scale(), 1.0));
        if i % 7 == 0 {
            events.push(MechanismEvent::declared(PrivacyParams::new(0.02, 1e-7)));
        }
    }
    events
}

/// Monotone dominance: at every prefix of the same event stream, the
/// advanced-composition and RDP accountants never report more ε-spend than
/// the sequential accountant (they may be — and eventually are — strictly
/// tighter).  A sound accountant is never looser than basic composition.
#[test]
fn advanced_and_rdp_never_report_more_spend_than_sequential() {
    let budget = PrivacyBudget::new(1e6, 0.5);
    let mut sequential = SequentialAccountant::new(budget);
    let mut advanced = AdvancedCompositionAccountant::new(budget);
    let mut rdp = RdpAccountant::new(budget);
    let mut tight_somewhere = false;
    for event in mixed_event_stream() {
        sequential.charge_many(&event, 1).unwrap();
        advanced.charge_many(&event, 1).unwrap();
        rdp.charge_many(&event, 1).unwrap();
        let seq = sequential.spent().epsilon;
        let adv = advanced.spent().epsilon;
        let ren = rdp.spent().epsilon;
        assert!(
            adv <= seq + 1e-9,
            "advanced spend {adv} exceeds sequential {seq}"
        );
        assert!(
            ren <= seq + 1e-9,
            "rdp spend {ren} exceeds sequential {seq}"
        );
        if ren < 0.9 * seq {
            tight_somewhere = true;
        }
    }
    assert!(
        tight_somewhere,
        "rdp accounting should become strictly tighter on a long stream"
    );
    // All three accountants saw the same events.
    assert_eq!(sequential.events().len(), advanced.events().len());
    assert_eq!(sequential.events().len(), rdp.events().len());
}

/// δ = 0 (pure-DP) budgets reject any δ > 0 charge under every accountant.
#[test]
fn pure_dp_budgets_reject_positive_delta_under_every_accountant() {
    let pure = PrivacyBudget::pure(100.0);
    let approximate_charge = {
        let p = PrivacyParams::new(0.1, 1e-8);
        MechanismEvent::gaussian(p, p.gaussian_unit_sigma(), 1.0)
    };
    let declared_charge = MechanismEvent::declared(PrivacyParams::new(0.1, 1e-12));
    let pure_charge = {
        let p = PrivacyParams::pure(0.1);
        MechanismEvent::laplace(p, p.laplace_unit_scale(), 1.0)
    };
    let factories: [Box<dyn AccountantFactory>; 3] = [
        Box::new(SequentialAccounting),
        Box::new(AdvancedCompositionAccounting),
        Box::new(RdpAccounting::default()),
    ];
    for factory in factories {
        let mut acct = factory.accountant(pure);
        for rejected in [&approximate_charge, &declared_charge] {
            let err = acct.check_many(rejected, 1).unwrap_err();
            assert!(
                matches!(err, MechanismError::BudgetExhausted { .. }),
                "{}: δ > 0 must be rejected against a pure budget",
                factory.name()
            );
        }
        // A pure charge is fine under every accountant.
        acct.charge_many(&pure_charge, 3).unwrap();
        assert_eq!(acct.spent().delta, 0.0, "{}", factory.name());
        assert!(acct.spent().epsilon > 0.0);
    }
}

/// The default session is byte-compatible with an explicitly sequential one:
/// same answers bit for bit, same ledger arithmetic.
#[test]
fn default_sessions_are_byte_compatible_with_explicit_sequential() {
    let p = PrivacyParams::paper_default();
    let engine = Engine::builder().privacy(p).build().unwrap();
    assert_eq!(engine.accountant_factory().name(), "sequential");
    let w = IdentityWorkload::new(16);
    let x: Vec<f64> = (0..16).map(|i| 20.0 + i as f64).collect();
    let budget = PrivacyBudget::new(2.0, 1e-3);

    let mut default_session = engine.session(budget);
    let mut explicit_session =
        engine.session_with_accountant(Box::new(SequentialAccountant::new(budget)));

    let mut rng_a = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    for _ in 0..4 {
        let a = default_session.answer(&w, &x, &mut rng_a).unwrap();
        let b = explicit_session.answer(&w, &x, &mut rng_b).unwrap();
        for (u, v) in a.answers.iter().zip(b.answers.iter()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert_eq!(
            default_session.ledger().spent().epsilon.to_bits(),
            explicit_session.ledger().spent().epsilon.to_bits()
        );
    }
    assert!(default_session.answer(&w, &x, &mut rng_a).is_err());
    assert!(explicit_session.answer(&w, &x, &mut rng_b).is_err());
}

/// Acceptance criterion: at the same total (ε, δ) budget and the same
/// per-answer Gaussian noise scale, a session accounted with RDP answers
/// strictly more queries than one accounted sequentially.
#[test]
fn rdp_session_answers_strictly_more_queries_at_the_same_budget() {
    let per_answer = PrivacyParams::new(0.5, 1e-4); // the paper's setting
    let budget = PrivacyBudget::new(4.0, 1e-3);
    let engine = Engine::builder()
        .privacy(per_answer)
        .backend(GaussianBackend)
        .build()
        .unwrap();
    let w = IdentityWorkload::new(8);
    let x = vec![10.0; 8];

    let count_answers = |mut session: adaptive_dp::core::Session<&Engine>, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = 0usize;
        while n < 10_000 {
            match session.answer(&w, &x, &mut rng) {
                Ok(ans) => {
                    // Same per-answer noise scale in every session: the
                    // recorded event carries the actual σ of the release.
                    let event = session.ledger().events()[n];
                    assert!(approx_eq(
                        event.noise_scale(),
                        per_answer.gaussian_sigma(1.0),
                        1e-9
                    ));
                    assert_eq!(ans.answers.len(), 8);
                    n += 1;
                }
                Err(MechanismError::BudgetExhausted { .. }) => break,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        n
    };

    let sequential = count_answers(engine.session(budget), 1);
    let rdp = count_answers(
        engine.session_with_accountant(Box::new(RdpAccountant::new(budget))),
        2,
    );
    // Sequential composition affords ⌊4.0 / 0.5⌋ = 8 answers (ε-bound).
    assert_eq!(sequential, 8);
    assert!(
        rdp > sequential,
        "rdp session answered {rdp}, sequential {sequential}"
    );
    // The stretch is substantial at the paper's parameters, not marginal.
    assert!(rdp >= 4 * sequential, "rdp answered only {rdp}");
}

/// Batch affordability is the accountant's *composed* post-charge spend: an
/// all-or-nothing batch that per-charge linearity must reject is admitted
/// under RDP, and an unaffordable batch still spends nothing.
#[test]
fn batch_affordability_is_composed_under_rdp() {
    let per_answer = PrivacyParams::new(0.5, 1e-4);
    let budget = PrivacyBudget::new(4.0, 1e-3);
    let engine = Engine::builder().privacy(per_answer).build().unwrap();
    let w = IdentityWorkload::new(8);
    let xs: Vec<Vec<f64>> = (0..24).map(|k| vec![k as f64; 8]).collect();
    let mut rng = StdRng::seed_from_u64(5);

    // 24 vectors × ε = 0.5 ≫ ε budget 4.0: sequential rejects the batch...
    let mut sequential = engine.session(budget);
    assert!(matches!(
        sequential.answer_batch(&w, &xs, &mut rng).unwrap_err(),
        MechanismError::BudgetExhausted { .. }
    ));
    assert_eq!(sequential.ledger().charges().len(), 0, "spends nothing");

    // ...while the composed 24-fold RDP spend fits, and charges per vector.
    let mut rdp = engine.session_with_accountant(Box::new(RdpAccountant::new(budget)));
    let answers = rdp.answer_batch(&w, &xs, &mut rng).unwrap();
    assert_eq!(answers.len(), 24);
    assert_eq!(rdp.ledger().charges().len(), 24);
    assert!(rdp.ledger().spent().epsilon <= budget.epsilon);

    // An absurdly large batch still fails closed without spending anything
    // beyond the 24 recorded charges.
    let huge: Vec<Vec<f64>> = (0..5_000).map(|k| vec![k as f64; 8]).collect();
    assert!(rdp.answer_batch(&w, &huge, &mut rng).is_err());
    assert_eq!(rdp.ledger().charges().len(), 24);
}

/// The engine-level accountant knob: an engine built with
/// `.accountant(RdpAccounting)` hands every session the RDP policy, and
/// owned sessions carry it across threads.
#[test]
fn engine_accountant_knob_applies_to_all_sessions() {
    let per_answer = PrivacyParams::new(0.5, 1e-4);
    let budget = PrivacyBudget::new(4.0, 1e-3);
    let engine = std::sync::Arc::new(
        Engine::builder()
            .privacy(per_answer)
            .accountant(RdpAccounting::default())
            .build()
            .unwrap(),
    );
    assert_eq!(engine.accountant_factory().name(), "rdp");
    let w = IdentityWorkload::new(8);

    let mut owned = engine.owned_session(budget);
    let handle = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(7);
        let x = vec![3.0; 8];
        // More answers than sequential composition could ever afford.
        for _ in 0..16 {
            owned.answer(&w, &x, &mut rng).unwrap();
        }
        owned
    });
    let owned = handle.join().unwrap();
    assert_eq!(owned.ledger().charges().len(), 16);
    assert_eq!(owned.ledger().accountant().name(), "rdp");
    assert!(owned.ledger().spent().epsilon <= budget.epsilon);
    assert!(
        16.0 * per_answer.epsilon > budget.epsilon,
        "beyond sequential"
    );
}

/// Advanced composition pays off in its own regime — many answers at small
/// per-answer ε — and degrades gracefully (to sequential behavior) at the
/// paper's larger per-answer ε.
#[test]
fn advanced_composition_wins_at_small_epsilon() {
    // 2 000 declared releases at ε = 0.01, δ = 0: sequential needs ε = 20;
    // advanced composition fits them into ε = 4 with room to spare.
    let budget = PrivacyBudget::new(4.0, 1e-3);
    let mut advanced = AdvancedCompositionAccountant::new(budget);
    let event = MechanismEvent::declared(PrivacyParams::new(0.01, 0.0));
    advanced.charge_many(&event, 2_000).unwrap();
    assert!(advanced.spent().epsilon < budget.epsilon);

    let mut sequential = SequentialAccountant::new(budget);
    let err = sequential.charge_many(&event, 2_000).unwrap_err();
    assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
}

/// A pure-DP Laplace engine works under every accountant policy (the RDP
/// accountant degrades to sequential composition when the budget's δ is 0).
#[test]
fn laplace_engine_serves_pure_budgets_under_every_policy() {
    fn serves_two_pure_answers(factory: impl AccountantFactory + 'static) {
        let per_answer = PrivacyParams::pure(0.5);
        let budget = PrivacyBudget::pure(1.0);
        let engine = Engine::builder()
            .privacy(per_answer)
            .backend(LaplaceBackend)
            .accountant(factory)
            .build()
            .unwrap();
        let w = IdentityWorkload::new(8);
        let x = vec![4.0; 8];
        let mut rng = StdRng::seed_from_u64(11);
        let mut session = engine.session(budget);
        session.answer(&w, &x, &mut rng).unwrap();
        session.answer(&w, &x, &mut rng).unwrap();
        assert!(session.answer(&w, &x, &mut rng).is_err(), "ε exhausted");
        assert_eq!(session.ledger().spent().delta, 0.0);
    }
    serves_two_pure_answers(SequentialAccounting);
    serves_two_pure_answers(RdpAccounting::default());
}
