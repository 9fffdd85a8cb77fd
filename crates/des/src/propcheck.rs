//! Minimal randomized property-test driver.
//!
//! The repository's property suites (`tests/properties.rs`, the analyzer
//! mutation suite) need "run this closure over N seeded random cases and
//! report the failing case" — a tiny slice of what `proptest` offers, and
//! the only slice we use. Implementing it in-tree keeps the default build
//! free of registry dependencies (the workspace builds offline) while still
//! giving reproducible failures: every case derives its [`SimRng`] stream
//! from the property name and case index alone, so a failure report like
//! `property 'labels_decrease' failed at case 17` replays exactly with no
//! stored seed file.
//!
//! Case counts scale with [`cases`]: callers pass their default, and the
//! `PROPCHECK_SCALE` environment variable multiplies it for exhaustive
//! runs (`scripts/check.sh` runs the suites at 16x).

use crate::SimRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Resolve the number of cases to run for one property.
///
/// Returns `default`, multiplied by the `PROPCHECK_SCALE` environment
/// variable when that is set to a positive integer.
pub fn cases(default: u32) -> u32 {
    if let Ok(v) = std::env::var("PROPCHECK_SCALE") {
        if let Ok(k) = v.trim().parse::<u32>() {
            if k > 0 {
                return default.saturating_mul(k);
            }
        }
    }
    default
}

/// Derive the deterministic RNG for one (property, case) pair.
///
/// Public so a failing case can be re-run in isolation from a debugger or a
/// one-off unit test.
pub fn case_rng(name: &str, case: u32) -> SimRng {
    // FNV-1a over the property name mixes it into the seed space; the case
    // index then selects the stream. SimRng::new SplitMix-expands the result,
    // so adjacent cases are decorrelated.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SimRng::new(h ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run `prop` over `n` seeded random cases.
///
/// The closure receives a fresh deterministic [`SimRng`] per case and
/// asserts its property with ordinary `assert!`/`assert_eq!`. On a failing
/// case the driver reports the property name and case index (enough to
/// replay via [`case_rng`]) and re-raises the original panic so the test
/// harness shows the assertion message.
pub fn forall<F>(name: &str, n: u32, prop: F)
where
    F: Fn(&mut SimRng),
{
    for case in 0..n {
        let mut rng = case_rng(name, case);
        let result = catch_unwind(AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "propcheck: property '{name}' failed at case {case}/{n} \
                 (replay with propcheck::case_rng(\"{name}\", {case}))"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic() {
        let mut a = case_rng("p", 3);
        let mut b = case_rng("p", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn case_rng_varies_with_name_and_index() {
        let mut by_name_a = case_rng("alpha", 0);
        let mut by_name_b = case_rng("beta", 0);
        assert_ne!(by_name_a.next_u64(), by_name_b.next_u64());
        let mut by_case_a = case_rng("alpha", 0);
        let mut by_case_b = case_rng("alpha", 1);
        assert_ne!(by_case_a.next_u64(), by_case_b.next_u64());
    }

    #[test]
    fn forall_runs_every_case() {
        let count = std::cell::Cell::new(0u32);
        forall("counting", 25, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 25);
    }

    #[test]
    fn forall_propagates_failures() {
        let hit = catch_unwind(AssertUnwindSafe(|| {
            forall("failing", 10, |rng| {
                // Fails on some case almost surely.
                assert!(rng.uniform_f64() < 0.5, "triggered");
            });
        }));
        assert!(hit.is_err());
    }

    #[test]
    fn cases_default_passthrough() {
        // Unset in the default test environment.
        if std::env::var("PROPCHECK_SCALE").is_err() {
            assert_eq!(cases(64), 64);
        }
    }
}
