//! Deterministic fault injection for the serving stack.
//!
//! Production robustness claims are only worth what their tests can
//! reproduce.  This module provides the one seam every fault-tolerance test
//! in the workspace drives: a [`FaultInjector`] threaded (via
//! [`EngineBuilder::fault_injector`](crate::engine::EngineBuilder::fault_injector))
//! through the persistent strategy store's reads and writes, the selector
//! path, and the serve tier's worker pool.  The default injector,
//! [`NoFaults`], is a zero-cost no-op, so production engines pay nothing.
//!
//! Two deterministic injectors are provided:
//!
//! * [`FaultSchedule`] — an explicit script: "fail the 3rd store write",
//!   "panic every selector call", "add 50 ms latency to every worker
//!   dequeue".  Each [`FaultSite`] carries its own operation counter, so a
//!   schedule is a pure function of the operation sequence, independent of
//!   wall-clock or thread interleaving of *other* sites.
//! * [`FaultSchedule::seeded`] — a keyed pseudo-random schedule: whether
//!   operation `i` at a site faults is a pure (splitmix64) function of
//!   `(seed, site, i)` and the configured rate.  Re-running with the same
//!   seed replays the exact fault placement; changing the seed explores a
//!   different placement.  This is what the CI chaos matrix sweeps.
//!
//! What each site honours:
//!
//! | site | [`Fail`](Fault::Fail) | [`Torn`](Fault::Torn) | [`LatencyMs`](Fault::LatencyMs) | [`Panic`](Fault::Panic) |
//! |---|---|---|---|---|
//! | [`StoreRead`](FaultSite::StoreRead) | load returns `None` (recompute) | as `Fail` | sleep, then load | ignored |
//! | [`StoreWrite`](FaultSite::StoreWrite) | save fails | half-written entry lands on disk, save fails | sleep, then write | ignored |
//! | [`Selector`](FaultSite::Selector) | ignored | ignored | sleep, then select | selector panics (poisons the flight) |
//! | [`Worker`](FaultSite::Worker) | ignored | ignored | sleep before running the job | ignored |
//!
//! Ignored combinations are deliberate: a fault an operation cannot
//! physically exhibit (a "torn" selector) is skipped rather than reinterpreted,
//! so a schedule's meaning never shifts underneath a test.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where in the serving stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// A [`StrategyStore`](crate::engine::StrategyStore) entry load.
    StoreRead,
    /// A [`StrategyStore`](crate::engine::StrategyStore) entry write.
    StoreWrite,
    /// A strategy selection (of any plan kind) about to run.
    Selector,
    /// A serve-tier worker about to run a dequeued job.
    Worker,
}

impl FaultSite {
    /// All sites, for iteration in tests and reports.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::Selector,
        FaultSite::Worker,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::StoreRead => 0,
            FaultSite::StoreWrite => 1,
            FaultSite::Selector => 2,
            FaultSite::Worker => 3,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::Selector => "selector",
            FaultSite::Worker => "worker",
        };
        f.write_str(name)
    }
}

/// What kind of fault to inject (see the module docs for which sites honour
/// which kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// The operation fails cleanly (an I/O error, in effect).
    Fail,
    /// A torn/short write: a truncated entry lands on disk *and* the write
    /// reports failure — the mid-crash case durability must survive.
    Torn,
    /// The operation succeeds after an artificial delay of this many
    /// milliseconds (slow disk, scheduling stall).
    LatencyMs(u64),
    /// The operation panics (a crashing selector poisons its flight).
    Panic,
}

/// The injection seam: consulted once per operation at each instrumented
/// site; `None` means the operation proceeds normally.
///
/// Implementations must be deterministic given their construction (the
/// whole point is reproducible chaos) and cheap — `inject` sits on hot
/// paths and is called with no locks held.
pub trait FaultInjector: Send + Sync + Debug {
    /// Returns the fault to apply to the current operation at `site`, if
    /// any.  Each call advances that site's operation sequence.
    fn inject(&self, site: FaultSite) -> Option<Fault>;
}

/// The default injector: never faults, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn inject(&self, _site: FaultSite) -> Option<Fault> {
        None
    }
}

/// splitmix64: the avalanche mixer used for keyed fault placement (and
/// already used for the engine's plan-fingerprint mixing).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted rule of a [`FaultSchedule`].
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Fault exactly the `nth` (0-based) operation at the site.
    At {
        site: FaultSite,
        nth: u64,
        fault: Fault,
    },
    /// Fault every `period`-th operation at the site, starting at the first.
    Every {
        site: FaultSite,
        period: u64,
        fault: Fault,
    },
    /// Keyed pseudo-random placement: operation `i` faults when
    /// `splitmix64(seed ⊕ site ⊕ i) mod 1024 < rate`.
    Seeded {
        site: FaultSite,
        rate_per_1024: u64,
        fault: Fault,
    },
}

/// A deterministic, scripted fault injector (see the module docs).
///
/// Rules are evaluated in insertion order; the first match wins.  Each site
/// keeps its own operation counter, so rule positions are stable across
/// interleavings of *other* sites.
#[derive(Debug, Default)]
pub struct FaultSchedule {
    seed: u64,
    rules: Vec<Rule>,
    counters: [AtomicU64; 4],
}

impl FaultSchedule {
    /// An empty schedule (faults nothing until rules are added).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// An empty schedule whose [`FaultSchedule::with_rate`] rules key their
    /// placement off `seed` — same seed, same placement.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::default()
        }
    }

    /// Faults exactly the `nth` (0-based) operation at `site`.
    pub fn inject_at(mut self, site: FaultSite, nth: u64, fault: Fault) -> Self {
        self.rules.push(Rule::At { site, nth, fault });
        self
    }

    /// Faults every `period`-th operation at `site`, starting with the
    /// first (`period = 1` faults every operation; 0 is treated as 1).
    pub fn inject_every(mut self, site: FaultSite, period: u64, fault: Fault) -> Self {
        self.rules.push(Rule::Every {
            site,
            period: period.max(1),
            fault,
        });
        self
    }

    /// Faults operations at `site` pseudo-randomly at roughly
    /// `rate_per_1024 / 1024` (clamped to 1024), placed by this schedule's
    /// seed: deterministic per `(seed, site, operation index)`.
    pub fn with_rate(mut self, site: FaultSite, rate_per_1024: u64, fault: Fault) -> Self {
        self.rules.push(Rule::Seeded {
            site,
            rate_per_1024: rate_per_1024.min(1024),
            fault,
        });
        self
    }

    /// How many operations have been observed at `site` so far.
    pub fn operations(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Relaxed)
    }
}

impl FaultInjector for FaultSchedule {
    fn inject(&self, site: FaultSite) -> Option<Fault> {
        let op = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        for rule in &self.rules {
            match *rule {
                Rule::At {
                    site: s,
                    nth,
                    fault,
                } if s == site && op == nth => return Some(fault),
                Rule::Every {
                    site: s,
                    period,
                    fault,
                } if s == site && op.is_multiple_of(period) => return Some(fault),
                Rule::Seeded {
                    site: s,
                    rate_per_1024,
                    fault,
                } if s == site => {
                    let key = self
                        .seed
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        .wrapping_add((site.index() as u64) << 32)
                        .wrapping_add(op);
                    if splitmix64(key) % 1024 < rate_per_1024 {
                        return Some(fault);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_faults() {
        for site in FaultSite::ALL {
            for _ in 0..8 {
                assert_eq!(NoFaults.inject(site), None);
            }
        }
    }

    #[test]
    fn scripted_schedule_counts_per_site() {
        let s = FaultSchedule::new()
            .inject_at(FaultSite::StoreWrite, 1, Fault::Fail)
            .inject_every(FaultSite::Worker, 2, Fault::LatencyMs(5));
        // StoreRead traffic does not advance StoreWrite's counter.
        assert_eq!(s.inject(FaultSite::StoreRead), None);
        assert_eq!(s.inject(FaultSite::StoreWrite), None); // op 0
        assert_eq!(s.inject(FaultSite::StoreWrite), Some(Fault::Fail)); // op 1
        assert_eq!(s.inject(FaultSite::StoreWrite), None); // op 2
        assert_eq!(s.inject(FaultSite::Worker), Some(Fault::LatencyMs(5))); // op 0
        assert_eq!(s.inject(FaultSite::Worker), None); // op 1
        assert_eq!(s.inject(FaultSite::Worker), Some(Fault::LatencyMs(5))); // op 2
        assert_eq!(s.operations(FaultSite::Worker), 3);
    }

    #[test]
    fn first_matching_rule_wins() {
        let s = FaultSchedule::new()
            .inject_at(FaultSite::Selector, 0, Fault::Panic)
            .inject_every(FaultSite::Selector, 1, Fault::LatencyMs(1));
        assert_eq!(s.inject(FaultSite::Selector), Some(Fault::Panic));
        assert_eq!(s.inject(FaultSite::Selector), Some(Fault::LatencyMs(1)));
    }

    #[test]
    fn seeded_placement_replays_and_varies_by_seed() {
        let trace = |seed: u64| -> Vec<bool> {
            let s = FaultSchedule::seeded(seed).with_rate(FaultSite::StoreRead, 512, Fault::Fail);
            (0..64)
                .map(|_| s.inject(FaultSite::StoreRead).is_some())
                .collect()
        };
        let a = trace(7);
        assert_eq!(a, trace(7), "same seed, same placement");
        assert_ne!(a, trace(8), "different seed, different placement");
        let hits = a.iter().filter(|&&b| b).count();
        assert!((8..=56).contains(&hits), "rate 1/2 lands in a sane band");
    }

    #[test]
    fn rate_extremes_are_never_and_always() {
        let never = FaultSchedule::seeded(3).with_rate(FaultSite::Worker, 0, Fault::Fail);
        let always = FaultSchedule::seeded(3).with_rate(FaultSite::Worker, 1024, Fault::Fail);
        for _ in 0..32 {
            assert_eq!(never.inject(FaultSite::Worker), None);
            assert_eq!(always.inject(FaultSite::Worker), Some(Fault::Fail));
        }
    }

    #[test]
    fn site_display_names_are_stable() {
        let names: Vec<String> = FaultSite::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["store-read", "store-write", "selector", "worker"]);
    }
}
