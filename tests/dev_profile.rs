//! The root manifest builds the dev and test profiles at `opt-level = 1`
//! so the suite runs in seconds. Optimising must not cost a check: the
//! test profile keeps debug assertions and integer overflow checks on.

use std::hint::black_box;
use std::panic;

#[test]
// `cfg!` is a constant of the profile, and that constant is what is tested.
#[allow(clippy::assertions_on_constants)]
fn test_profile_keeps_debug_assertions_and_overflow_checks() {
    assert!(cfg!(debug_assertions), "the test profile must keep debug assertions on");
    let sum = panic::catch_unwind(|| black_box(u8::MAX) + black_box(1u8));
    assert!(sum.is_err(), "u8 overflow must panic in the test profile, not wrap");
}
