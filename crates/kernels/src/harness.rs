//! Shared verification plumbing for tests, examples and the figure
//! benchmarks.

/// The three versions Fig 10 compares for each kernel (§6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig10Variant {
    /// Two-level parallelism, teams SPMD — the baseline ("No SIMD").
    NoSimd,
    /// Three levels, parallel region SPMD ("SPMD SIMD").
    SpmdSimd,
    /// Three levels, parallel region generic ("Generic SIMD").
    GenericSimd,
}

impl Fig10Variant {
    /// All variants, in the figure's order.
    pub const ALL: [Fig10Variant; 3] =
        [Fig10Variant::NoSimd, Fig10Variant::SpmdSimd, Fig10Variant::GenericSimd];

    /// Label as printed in the figure.
    pub fn label(self) -> &'static str {
        match self {
            Fig10Variant::NoSimd => "No SIMD",
            Fig10Variant::SpmdSimd => "SPMD SIMD",
            Fig10Variant::GenericSimd => "Generic SIMD",
        }
    }
}

/// Maximum absolute elementwise difference.
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "result length mismatch");
    got.iter().zip(want).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max)
}

/// Relative speedup of `base` over `new` (>1 means `new` is faster).
pub fn speedup(base_cycles: u64, new_cycles: u64) -> f64 {
    base_cycles as f64 / new_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(Fig10Variant::NoSimd.label(), "No SIMD");
        assert_eq!(Fig10Variant::ALL.len(), 3);
    }

    #[test]
    fn error_metric() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_err(&[], &[]), 0.0);
    }

    #[test]
    fn speedup_direction() {
        assert!(speedup(200, 100) > 1.9);
        assert!(speedup(100, 200) < 0.6);
    }
}
