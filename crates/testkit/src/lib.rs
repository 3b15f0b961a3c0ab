//! Seeded property checks for the workspace's test suites, and the
//! brute-force [`Oracle`] every exactness check is diffed against.
//!
//! [`check`] runs a property over a fixed number of generated cases. Each
//! case draws its input from its own [`Xoshiro256`], seeded from the
//! property's name and the case index, so every run generates the same
//! inputs and a failure names the case and seed that reproduce it. The
//! case count can be overridden with `PROPTEST_CASES`. There is no
//! shrinking: a failing case is reported as generated.
//!
//! Inputs come from plain generator functions, `fn(&mut Xoshiro256) -> T`,
//! written next to the properties that use them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod oracle;

pub use oracle::Oracle;

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use scuba_spatial::rng::SplitMix64;
pub use scuba_spatial::rng::Xoshiro256;

/// Runs `property` over `cases` generated cases (or `PROPTEST_CASES`, when
/// set), each with its own seeded generator. A failing case re-raises its
/// panic after printing the property's name, the case and its seed.
///
/// # Panics
///
/// When the property panics on some case, or `PROPTEST_CASES` is not a
/// number.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Xoshiro256)) {
    let cases = match std::env::var("PROPTEST_CASES") {
        Ok(n) => n
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES must be a number, got {n:?}")),
        Err(_) => cases,
    };
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("property `{name}` failed at case {case} of {cases} (seed {seed:#018x})");
            resume_unwind(panic);
        }
    }
}

/// The seed of case `case` of the property `name`: FNV-1a over the name,
/// mixed with the case index.
fn case_seed(name: &str, case: u32) -> u64 {
    let name_hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    SplitMix64::new(name_hash ^ u64::from(case)).next_u64()
}

/// A vector whose length is drawn from `len`, each item from `item`.
pub fn vec<T>(
    rng: &mut Xoshiro256,
    len: Range<usize>,
    mut item: impl FnMut(&mut Xoshiro256) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_name_and_case() {
        assert_eq!(case_seed("a", 0), case_seed("a", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
    }

    #[test]
    fn runs_every_case_with_reproducible_inputs() {
        let mut first = Vec::new();
        check("reproducible", 5, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        check("reproducible", 5, |rng| second.push(rng.next_u64()));
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(first.len(), 5);
        }
        assert_eq!(first, second);
    }

    #[test]
    fn a_failing_case_panics() {
        let result = catch_unwind(|| check("fails", 3, |rng| assert!(rng.next_u64() == 0)));
        assert!(result.is_err());
    }

    #[test]
    fn vec_lengths_stay_in_range() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            let v = vec(&mut rng, 2..5, |r| r.next_u64());
            assert!((2..5).contains(&v.len()));
        }
    }
}
