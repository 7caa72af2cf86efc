//! Shared launch-and-verify plumbing for tests, examples and the figure
//! benchmarks.

use gpu_sim::{Device, DeviceArch, LaunchStats};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable 32-bit lane id derived from a name (FNV-1a fold). Reruns of the
/// same program get the same lane for the same name regardless of thread
/// scheduling — the property a plain global counter cannot give.
pub fn lane_of(name: &str) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    (h ^ (h >> 32)) as u32
}

/// A monotonic job-id source partitioned into **lanes**: each id packs
/// `(lane << 32) | seq`, where `seq` counts submissions within the lane in
/// program order. Because the lane is supplied by the caller (a tenant
/// index, or [`lane_of`] a stable name) and the sequence is per-lane,
/// every id is a pure function of *(who submitted, how many they had
/// submitted before)* — bit-identical across reruns and across any thread
/// interleaving of *other* lanes. This is the shared id scheme for
/// [`measure`] reps and the serve crate's per-tenant job ids; nothing in
/// either path derives ordering from a cross-thread global counter.
pub struct JobIdLane {
    lane: u32,
    next: AtomicU64,
}

impl JobIdLane {
    /// A lane with an explicit index (e.g. a tenant's registration order).
    pub fn new(lane: u32) -> JobIdLane {
        JobIdLane { lane, next: AtomicU64::new(0) }
    }

    /// A lane keyed by a stable name (see [`lane_of`]).
    pub fn named(name: &str) -> JobIdLane {
        JobIdLane::new(lane_of(name))
    }

    /// The lane index.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Allocate the next id in this lane: `(lane << 32) | seq`.
    pub fn next(&self) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(seq <= u32::MAX as u64, "job-id lane overflow");
        ((self.lane as u64) << 32) | seq
    }
}

/// Lane component of a packed job id.
pub fn job_lane(id: u64) -> u32 {
    (id >> 32) as u32
}

/// Per-lane sequence component of a packed job id.
pub fn job_seq(id: u64) -> u32 {
    id as u32
}

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
    /// Job id of the final rep: `(lane_of(name) << 32) | (reps − 1)` — a
    /// pure function of the measurement's identity, stable across reruns
    /// (see [`JobIdLane`]).
    pub job_id: u64,
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
    let name = name.into();
    let ids = JobIdLane::named(&name);
    let mut last: Option<(Vec<f64>, LaunchStats, u64)> = None;
    for _ in 0..reps {
        let mut dev = Device::new(arch.clone());
        let out = f(&mut dev);
        let job_id = ids.next();
        if let Some((prev_got, prev, _)) = &last {
            assert_eq!(prev, &out.1, "non-deterministic simulation (stats diverged across reps)");
            assert_eq!(
                prev_got, &out.0,
                "non-deterministic simulation (results diverged across reps)"
            );
        }
        last = Some((out.0, out.1, job_id));
    }
    let (got, stats, job_id) = last.unwrap();
    KernelRun { name, stats, max_abs_err: max_abs_err(&got, want), job_id }
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
    fn job_ids_are_pure_functions_of_lane_and_order() {
        // Same name → same lane, every rerun.
        assert_eq!(lane_of("spmv gs=8"), lane_of("spmv gs=8"));
        assert_ne!(lane_of("spmv gs=8"), lane_of("spmv gs=16"));
        let a = JobIdLane::new(7);
        let b = JobIdLane::new(9);
        let ids = [a.next(), b.next(), a.next(), b.next()];
        // Interleaving across lanes never changes either lane's ids.
        assert_eq!(ids.map(job_lane), [7, 9, 7, 9]);
        assert_eq!(ids.map(job_seq), [0, 0, 1, 1]);
        assert_eq!(ids[0], 7u64 << 32);
        // Fresh source replays identically.
        assert_eq!(JobIdLane::new(7).next(), ids[0]);
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
            assert_eq!(run.job_id, ((lane_of("toy") as u64) << 32) | 2);
        }
    }
}
