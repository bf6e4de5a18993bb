//! Cross-session accounting: one principal, many sessions, one budget.
//!
//! A per-session accountant cannot see charges made by *other* sessions for
//! the same person, so two concurrent sessions could jointly spend 2× the
//! budget each of them enforces.  A [`UserLedger`] closes that hole: it owns
//! the principal's single composed [`Accountant`] behind a lock, and every
//! session opened for the principal charges through a shared handle
//! ([`UserLedger::accountant_handle`]) into that one accountant.  The total
//! number of answers the principal's (ε, δ) budget admits is therefore the
//! same whether they arrive through one session or twenty — the acceptance
//! criterion of a serving tier fronting one budget with many connections.
//!
//! A [`UserLedgerRegistry`] maps principal names to their ledgers
//! (get-or-create), which is what a server holds: one registry, one ledger
//! per user, any number of sessions per ledger.
//!
//! Concurrency semantics: every check *and* charge takes the ledger's lock,
//! so charges serialize and the budget can never be jointly over-spent.  The
//! engine's release step re-checks affordability at charge time, so a race
//! between two sessions' pre-checks fails closed — the loser's answers are
//! dropped unreleased and it receives
//! [`BudgetExhausted`](crate::MechanismError::BudgetExhausted).

use super::{Accountant, AccountantFactory, MechanismEvent, SequentialAccounting};
use crate::engine::PrivacyBudget;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct LedgerInner {
    principal: String,
    accountant: Mutex<Box<dyn Accountant>>,
}

/// One principal's shared privacy ledger: a single composed [`Accountant`]
/// that any number of concurrent sessions charge through.
///
/// Cloning is shallow — every clone (and every
/// [`accountant_handle`](UserLedger::accountant_handle)) refers to the same
/// underlying accountant, so all observers agree on the spend.
#[derive(Debug, Clone)]
pub struct UserLedger {
    inner: Arc<LedgerInner>,
}

impl UserLedger {
    /// A ledger for `principal` enforcing `total` under sequential
    /// composition (the default policy).
    pub fn new(principal: impl Into<String>, total: PrivacyBudget) -> Self {
        UserLedger::with_factory(principal, total, &SequentialAccounting)
    }

    /// A ledger whose composition policy comes from an accountant factory
    /// (e.g. the engine's: `UserLedger::with_factory(name, total,
    /// engine.accountant_factory().as_ref())`).
    pub fn with_factory(
        principal: impl Into<String>,
        total: PrivacyBudget,
        factory: &dyn AccountantFactory,
    ) -> Self {
        UserLedger::with_accountant(principal, factory.accountant(total))
    }

    /// A ledger over an explicit (possibly pre-charged) accountant.
    pub fn with_accountant(principal: impl Into<String>, accountant: Box<dyn Accountant>) -> Self {
        UserLedger {
            inner: Arc::new(LedgerInner {
                principal: principal.into(),
                accountant: Mutex::new(accountant),
            }),
        }
    }

    /// The principal this ledger accounts for.
    pub fn principal(&self) -> &str {
        &self.inner.principal
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn Accountant>> {
        // A panic while holding the lock can only happen inside an
        // accountant, whose contract is that failed operations change no
        // state — so the state under a poisoned lock is still consistent.
        match self.inner.accountant.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The total budget the ledger enforces.
    pub fn total(&self) -> PrivacyBudget {
        self.lock().total()
    }

    /// The composed spend across *all* sessions of this principal.
    pub fn spent(&self) -> PrivacyBudget {
        self.lock().spent()
    }

    /// Budget still available, clamped at zero.
    pub fn remaining(&self) -> PrivacyBudget {
        self.lock().remaining()
    }

    /// Name of the underlying accountant's composition policy.
    pub fn accountant_name(&self) -> &'static str {
        self.lock().name()
    }

    /// Snapshot of every event charged so far, across all sessions.
    pub fn events(&self) -> Vec<MechanismEvent> {
        self.lock().events()
    }

    /// Checks `count` charges of `event` against the shared budget without
    /// spending (see [`Accountant::check_many`]).
    pub fn check_event_many(&self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.lock().check_many(event, count)
    }

    /// Atomically charges `count` copies of `event`, or fails without
    /// changing state.
    pub fn charge_event_many(&self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.lock().charge_many(event, count)
    }

    /// A `Box<dyn Accountant>` handle that charges **this shared ledger** —
    /// what [`Engine::user_session`](crate::engine::Engine::user_session)
    /// installs into each session.  Cloning the handle (or the session's
    /// ledger) shares, never forks, the spend.
    pub fn accountant_handle(&self) -> Box<dyn Accountant> {
        Box::new(SharedAccountant {
            ledger: self.clone(),
        })
    }
}

/// The [`Accountant`] face of a [`UserLedger`]: delegates every operation
/// under the ledger's lock.  Private — obtained via
/// [`UserLedger::accountant_handle`].
#[derive(Debug, Clone)]
struct SharedAccountant {
    ledger: UserLedger,
}

impl Accountant for SharedAccountant {
    fn name(&self) -> &'static str {
        self.ledger.accountant_name()
    }

    fn total(&self) -> PrivacyBudget {
        self.ledger.total()
    }

    fn spent(&self) -> PrivacyBudget {
        self.ledger.spent()
    }

    fn events(&self) -> Vec<MechanismEvent> {
        self.ledger.events()
    }

    fn check_many(&self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.ledger.check_event_many(event, count)
    }

    fn charge_many(&mut self, event: &MechanismEvent, count: usize) -> crate::Result<()> {
        self.ledger.charge_event_many(event, count)
    }

    fn clone_box(&self) -> Box<dyn Accountant> {
        // Shares the ledger: cloning a handle must not fork the spend.
        Box::new(self.clone())
    }
}

/// A server's map from principal names to their shared ledgers.
///
/// `get_or_create` is the only mutation: the first session for a principal
/// creates the ledger with the supplied budget, every later session joins
/// it (the later budget argument is ignored — one principal, one budget).
#[derive(Debug, Default)]
pub struct UserLedgerRegistry {
    ledgers: Mutex<HashMap<String, UserLedger>>,
}

impl UserLedgerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        UserLedgerRegistry::default()
    }

    /// The principal's ledger, created with `total` under sequential
    /// composition if this is the principal's first appearance.
    pub fn get_or_create(&self, principal: &str, total: PrivacyBudget) -> UserLedger {
        self.get_or_create_with(principal, || UserLedger::new(principal.to_string(), total))
    }

    /// Like [`get_or_create`](UserLedgerRegistry::get_or_create) with an
    /// arbitrary ledger constructor (custom accountant or composition).
    pub fn get_or_create_with(
        &self,
        principal: &str,
        make: impl FnOnce() -> UserLedger,
    ) -> UserLedger {
        let mut ledgers = match self.ledgers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        ledgers
            .entry(principal.to_string())
            .or_insert_with(make)
            .clone()
    }

    /// The principal's ledger, if one exists.
    pub fn get(&self, principal: &str) -> Option<UserLedger> {
        match self.ledgers.lock() {
            Ok(guard) => guard.get(principal).cloned(),
            Err(poisoned) => poisoned.into_inner().get(principal).cloned(),
        }
    }

    /// Number of principals with a ledger.
    pub fn len(&self) -> usize {
        match self.ledgers.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RdpAccounting;
    use crate::privacy::PrivacyParams;

    fn event(eps: f64, delta: f64) -> MechanismEvent {
        MechanismEvent::declared(PrivacyParams::new(eps, delta))
    }

    #[test]
    fn handles_share_one_spend() {
        let ledger = UserLedger::new("alice", PrivacyBudget::new(1.0, 1e-4));
        assert_eq!(ledger.principal(), "alice");
        let mut h1 = ledger.accountant_handle();
        let mut h2 = h1.clone_box(); // clone shares, never forks
        h1.charge_many(&event(0.4, 1e-5), 1).unwrap();
        h2.charge_many(&event(0.4, 1e-5), 1).unwrap();
        assert_eq!(ledger.events().len(), 2);
        assert!((ledger.spent().epsilon - 0.8).abs() < 1e-12);
        // A third charge that fits only a fresh budget is rejected by both.
        assert!(h1.check_many(&event(0.4, 1e-5), 1).is_err());
        assert!(h2.charge_many(&event(0.4, 1e-5), 1).is_err());
        assert_eq!(ledger.events().len(), 2, "failed charge spends nothing");
        assert_eq!(h1.name(), "sequential");
        assert_eq!(h1.total(), ledger.total());
        assert!(ledger.remaining().epsilon < 0.3);
    }

    #[test]
    fn concurrent_sessions_cannot_overspend() {
        // 8 threads race 4 charges each against a budget that admits exactly
        // 16: whatever the interleaving, exactly 16 succeed.
        let ledger = UserLedger::new("bob", PrivacyBudget::new(1.6, 1e-2));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let ledger = ledger.clone();
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for _ in 0..4 {
                        if ledger.charge_event_many(&event(0.1, 1e-4), 1).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let granted: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(granted, 16, "budget admits exactly 16 charges in total");
        assert_eq!(ledger.events().len(), 16);
    }

    #[test]
    fn registry_returns_one_ledger_per_principal() {
        let registry = UserLedgerRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.get("carol").is_none());
        let a = registry.get_or_create("carol", PrivacyBudget::new(1.0, 1e-4));
        // The second budget argument is ignored: one principal, one budget.
        let b = registry.get_or_create("carol", PrivacyBudget::new(99.0, 1e-2));
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(b.total(), PrivacyBudget::new(1.0, 1e-4));
        a.charge_event_many(&event(0.5, 1e-5), 1).unwrap();
        assert_eq!(registry.get("carol").unwrap().events().len(), 1);
        assert_eq!(registry.len(), 1);
        registry.get_or_create("dave", PrivacyBudget::new(1.0, 1e-4));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn ledger_composition_policy_is_pluggable() {
        let ledger = UserLedger::with_factory(
            "erin",
            PrivacyBudget::new(1.0, 1e-4),
            &RdpAccounting::default(),
        );
        assert_eq!(ledger.accountant_name(), "rdp");
        ledger.charge_event_many(&event(0.1, 1e-6), 2).unwrap();
        assert_eq!(ledger.events().len(), 2);
    }
}
