//! Shared launch-and-verify plumbing for tests, examples and the figure
//! benchmarks.

use gpu_sim::{Device, DeviceArch, LaunchStats};

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

/// One measured kernel execution: simulated cycles plus verification
/// outcome. The benchmarks average [`KernelRun::cycles`] over repetitions
/// (the paper uses "the average of 10 runs", §6.1 — our simulator is
/// deterministic, so repetition verifies determinism rather than averaging
/// noise).
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Human-readable configuration label.
    pub name: String,
    /// Launch statistics of the final run.
    pub stats: LaunchStats,
    /// Maximum absolute error against the host reference.
    pub max_abs_err: f64,
}

impl KernelRun {
    /// Simulated kernel cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Whether the result matched the reference within `tol`.
    pub fn verified(&self, tol: f64) -> bool {
        self.max_abs_err <= tol
    }
}

/// Maximum absolute elementwise difference.
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "result length mismatch");
    got.iter().zip(want).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max)
}

/// Run a measurement `reps` times on fresh devices, asserting determinism,
/// and return the last run. `f` builds + runs on the given device and
/// returns (result, stats); `want` is the host reference.
///
/// Determinism covers the **full** [`LaunchStats`] (cycles, every runtime
/// counter, sanitizer violations, per-resource cycles) *and* the computed
/// result — a rerun that matches on cycles but diverges in violations or
/// fallback counts is still a broken simulation.
pub fn measure(
    name: impl Into<String>,
    arch: &DeviceArch,
    reps: u32,
    want: &[f64],
    mut f: impl FnMut(&mut Device) -> (Vec<f64>, LaunchStats),
) -> KernelRun {
    assert!(reps >= 1);
    let mut last: Option<(Vec<f64>, LaunchStats)> = None;
    for _ in 0..reps {
        let mut dev = Device::new(arch.clone());
        let out = f(&mut dev);
        if let Some((prev_got, prev)) = &last {
            assert_eq!(prev, &out.1, "non-deterministic simulation (stats diverged across reps)");
            assert_eq!(
                prev_got, &out.0,
                "non-deterministic simulation (results diverged across reps)"
            );
        }
        last = Some(out);
    }
    let (got, stats) = last.unwrap();
    KernelRun { name: name.into(), stats, max_abs_err: max_abs_err(&got, want) }
}

/// Relative speedup of `base` over `new` (>1 means `new` is faster).
pub fn speedup(base_cycles: u64, new_cycles: u64) -> f64 {
    base_cycles as f64 / new_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::apply;
    use testkit::CELLS;

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

    #[test]
    fn measure_checks_determinism_and_error() {
        for cell in &CELLS {
            let arch = gpu_sim::DeviceArch::tiny();
            let run = measure("toy", &arch, 3, &[5.0], |dev| {
                apply(cell, dev);
                let p = dev.global.alloc_zeroed::<f64>(1);
                let cfg =
                    gpu_sim::LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
                let stats = dev
                    .launch(&cfg, |team| {
                        team.run_lanes(0, &[0], |lane, _| {
                            lane.write(p, 0, 5.0);
                        });
                    })
                    .unwrap();
                (dev.global.read_slice(p, 1), stats)
            });
            assert!(run.verified(0.0));
            assert!(run.cycles() > 0);
        }
    }
}
