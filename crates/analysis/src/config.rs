//! Rule catalogue, scan tiers, and the per-rule allowlists.
//!
//! Allowlist entries are the *architectural* exceptions — places where a
//! pattern is the contract's own implementation (the blessed kernels, the
//! accounted answer path, the sampling primitives).  One-off exceptions
//! belong inline at the site, as `mm-lint:`-prefixed `allow(<rule>)`
//! comments with a justification, so the reason lives next to the code.

/// Identity and description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub description: &'static str,
}

/// The launch rule set.  `lint-suppression` is the meta-rule: malformed or
/// unknown-rule suppressions are themselves findings, so a bare `allow`
/// can never silently disable checking.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "charge-before-noise",
        description: "noise may only be drawn on an accounted path: any function reaching a \
                      NoiseBackend sampling call (.sample / gaussian_noise / laplace_noise) \
                      must be in the accounted-path allowlist or carry a justified allow",
    },
    RuleInfo {
        id: "determinism-hygiene",
        description: "no HashMap/HashSet iteration, Instant/SystemTime-derived values, or \
                      unordered read_dir results in numeric kernels, cache keys, or the \
                      .mmplan store (mm-linalg, mm-core::engine, mm-workload)",
    },
    RuleInfo {
        id: "blessed-reduction",
        description: "f64 reductions in mm-linalg/mm-opt must go through the fixed-block \
                      ops primitives, not ad-hoc .sum()/fold accumulation \
                      (order-independent max/min folds are exempt)",
    },
    RuleInfo {
        id: "serve-panic-freedom",
        description: "no unwrap/expect/panic!/unguarded indexing in the serve tier and the \
                      single-flight machinery, where a panic poisons every waiter",
    },
    RuleInfo {
        id: "assert-on-input",
        description: "assert! on user-controllable input in mm-core/mm-serve must be \
                      promoted to a typed MechanismError (debug_assert! internal \
                      invariants are exempt)",
    },
    RuleInfo {
        id: "unsafe-forbidden",
        description: "no unsafe code anywhere; every crate root must declare \
                      #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "lint-suppression",
        description: "every suppression must name a known rule and carry a justification \
                      of at least 10 characters",
    },
];

/// True when `id` names a real (non-meta) rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// How strictly a file's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Findings are errors and gate the build.
    Strict,
    /// Findings are reported as warnings only (examples, tests, benches).
    Warn,
    /// Not scanned (lint fixtures, which contain violations by design).
    Skip,
}

/// Classifies a workspace-relative path.
pub fn tier_for(path: &str) -> Tier {
    let p = path.replace('\\', "/");
    if p.contains("crates/analysis/tests/fixtures/") {
        return Tier::Skip;
    }
    let warn_dirs = ["examples/", "tests/", "benches/"];
    if warn_dirs
        .iter()
        .any(|d| p.starts_with(d) || p.contains(&format!("/{d}")))
    {
        return Tier::Warn;
    }
    Tier::Strict
}

/// One allowlisted exception: `rule` is exempt in the file whose path ends
/// with `path_suffix`, optionally narrowed to a single named function.
#[derive(Debug, Clone, Copy)]
pub struct AllowEntry {
    pub rule: &'static str,
    pub path_suffix: &'static str,
    pub function: Option<&'static str>,
    pub reason: &'static str,
}

/// The architectural allowlist.  Every entry must say *why* the exception is
/// sound; the JSON report carries the reason alongside each match.
pub const ALLOWLIST: &[AllowEntry] = &[
    AllowEntry {
        rule: "charge-before-noise",
        path_suffix: "crates/core/src/engine/release.rs",
        function: Some("release"),
        reason: "the engine's one release step, shared by every plan kind: the ledger \
                 admits the MechanismEvent (check_event_many) before sample() is reached \
                 and charges it (charge_event_many) before answers are released",
    },
    AllowEntry {
        rule: "charge-before-noise",
        path_suffix: "crates/core/src/mechanism/backend.rs",
        function: Some("sample"),
        reason: "NoiseBackend::sample implementations are the sampling primitive itself; \
                 the rule audits their callers",
    },
    AllowEntry {
        rule: "charge-before-noise",
        path_suffix: "crates/core/src/mechanism/noise.rs",
        function: None,
        reason: "definition site of the gaussian_noise/laplace_noise primitives; they \
                 have no accountant to reach",
    },
    AllowEntry {
        rule: "blessed-reduction",
        path_suffix: "crates/linalg/src/ops.rs",
        function: None,
        reason: "the blessed fixed-block reduction kernels themselves — the primitives \
                 the rule routes everyone else through",
    },
    AllowEntry {
        rule: "determinism-hygiene",
        path_suffix: "crates/core/src/engine/store/mod.rs",
        function: Some("fingerprints"),
        reason: "the store's one directory scan: read_dir results are collected into an \
                 ordered set, so directory order never reaches a caller",
    },
];

/// Allowlist entries matching a (rule, file, enclosing-function) triple.
pub fn allow_for(rule: &str, path: &str, function: Option<&str>) -> Option<&'static AllowEntry> {
    ALLOWLIST.iter().find(|e| {
        e.rule == rule
            && path.ends_with(e.path_suffix)
            && match e.function {
                None => true,
                Some(f) => function == Some(f),
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_classify_paths() {
        assert_eq!(tier_for("crates/serve/src/lib.rs"), Tier::Strict);
        assert_eq!(tier_for("src/lib.rs"), Tier::Strict);
        assert_eq!(tier_for("examples/quickstart.rs"), Tier::Warn);
        assert_eq!(tier_for("tests/serving.rs"), Tier::Warn);
        assert_eq!(tier_for("crates/core/tests/x.rs"), Tier::Warn);
        assert_eq!(
            tier_for("crates/analysis/tests/fixtures/bad_unwrap.rs"),
            Tier::Skip
        );
    }

    #[test]
    fn allowlist_narrows_by_function() {
        assert!(allow_for(
            "charge-before-noise",
            "crates/core/src/engine/release.rs",
            Some("release")
        )
        .is_some());
        assert!(allow_for(
            "charge-before-noise",
            "crates/core/src/engine/release.rs",
            Some("answer_dense")
        )
        .is_none());
        assert!(allow_for(
            "charge-before-noise",
            "crates/core/src/engine/mod.rs",
            Some("release")
        )
        .is_none());
        assert!(allow_for(
            "blessed-reduction",
            "crates/linalg/src/ops.rs",
            Some("anything")
        )
        .is_some());
    }

    #[test]
    fn every_allowlist_entry_names_a_known_rule_with_a_reason() {
        for e in ALLOWLIST {
            assert!(known_rule(e.rule), "unknown rule {}", e.rule);
            assert!(e.reason.len() >= 10, "thin reason for {}", e.rule);
        }
    }
}
