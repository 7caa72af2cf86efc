//! Dependency-free test utilities for the `simt-omp` workspace.
//!
//! The build environment has no access to a crates.io mirror, so the
//! property-test harness (`proptest`-style randomized invariant checks) and
//! the deterministic PRNG the workload generators need are vendored here as
//! a few dozen lines instead of external crates.
//!
//! * [`SimRng`] — a splitmix64-seeded xorshift* generator. Deterministic by
//!   construction: the same seed always yields the same stream on every
//!   platform, which the simulator's reproducibility tests rely on.
//! * [`check`] / [`cases`] — a miniature property-test loop: run a closure
//!   over `n` seeded random cases and report the failing case's seed on
//!   panic so a failure can be replayed exactly.
//! * [`Cell`] / [`CELLS`] — the test matrix: the sim thread counts,
//!   backends, sanitizer settings and engines a test runs its launches
//!   under, named by the test instead of read from the environment.

/// Deterministic 64-bit PRNG: splitmix64 seeding + xorshift64* stream.
///
/// Not cryptographic; statistical quality is more than enough for workload
/// generation and property-test case sampling.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a 64-bit seed (splitmix64-scrambled so
    /// nearby seeds give unrelated streams).
    pub fn seed_from_u64(seed: u64) -> SimRng {
        // One splitmix64 step; guarantees a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng { state: z | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniformly pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(0, xs.len())]
    }
}

/// One test configuration. Plain data, applied by the test itself with the
/// simulator's own API: `Device::set_sim_threads(cell.threads)`,
/// `Device::enable_sanitizer()` when `sanitize`, `ArchId::lookup(cell.arch)`
/// for a test whose backend is not fixed, and
/// `CompiledKernel::launch_oracle` instead of `launch` when `oracle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Block-execution threads; `None` is the host's available parallelism.
    pub threads: Option<usize>,
    /// Registry name of the backend (`"a100"` or `"mi100"`).
    pub arch: &'static str,
    /// Launch with simtcheck on.
    pub sanitize: bool,
    /// Launch compiled kernels on both engines and assert they agree. The
    /// oracle returns the bytecode engine's own launch, so an oracle cell
    /// also covers the plain launch.
    pub oracle: bool,
}

/// The test matrix, a covering array over the four axes: threads 1, 4, 8
/// and the host default; the warp-barrier backend and the wave64 one that
/// legalizes generic simd to sequential execution (paper §5.4.1); the
/// sanitizer on and off; the oracle on and off. The sanitized cells run the
/// oracle on both backends, so the two engines' violation lists are
/// compared on each; the plain cells run the bytecode engine alone.
pub const CELLS: [Cell; 4] = [
    Cell { threads: Some(1), arch: "a100", sanitize: true, oracle: true },
    Cell { threads: Some(4), arch: "mi100", sanitize: true, oracle: true },
    Cell { threads: Some(8), arch: "a100", sanitize: false, oracle: false },
    Cell { threads: None, arch: "mi100", sanitize: false, oracle: false },
];

/// Default number of cases per property (mirrors proptest's 256).
pub const DEFAULT_CASES: u64 = 256;

/// Run `prop` over `n` deterministic random cases. Each case gets its own
/// [`SimRng`] derived from `(name, case index)`, so failures print a seed
/// that replays the exact case via [`replay`].
pub fn cases(name: &str, n: u64, mut prop: impl FnMut(&mut SimRng)) {
    for case in 0..n {
        let seed = case_seed(name, case);
        let mut rng = SimRng::seed_from_u64(seed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(e) = r {
            eprintln!(
                "property '{name}' failed at case {case} (replay with \
                 testkit::replay({seed:#x}, ..))"
            );
            std::panic::resume_unwind(e);
        }
    }
}

/// Run `prop` over [`DEFAULT_CASES`] deterministic random cases.
pub fn check(name: &str, prop: impl FnMut(&mut SimRng)) {
    cases(name, DEFAULT_CASES, prop)
}

/// Re-run a single failing case from the seed printed by [`cases`].
pub fn replay(seed: u64, mut prop: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(seed);
    prop(&mut rng);
}

/// Watchdog: run `f` on its own thread and panic with `label` if it has
/// not finished within `timeout`. Concurrency stress tests wrap their
/// scenarios in this so a deadlock fails the test with a clear message
/// instead of hanging the whole suite (CI adds an outer `timeout(1)` as a
/// second line of defense). A panic inside `f` propagates unchanged.
///
/// On timeout the worker thread is leaked (std offers no cancellation) —
/// acceptable for a failing test process that is about to die anyway.
pub fn with_deadline<F>(label: &str, timeout: std::time::Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::Builder::new()
        .name(format!("deadline-{label}"))
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .expect("spawn watchdog worker");
    match rx.recv_timeout(timeout) {
        Ok(()) => {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // Worker panicked before signalling: surface its panic.
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
            unreachable!("worker disconnected without panicking");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: '{label}' exceeded {timeout:?} (possible deadlock)");
        }
    }
}

fn case_seed(name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_axis_value() {
        let has = |f: &dyn Fn(&Cell) -> bool| CELLS.iter().any(f);
        for t in [Some(1), Some(4), Some(8), None] {
            assert!(has(&|c| c.threads == t), "threads {t:?}");
        }
        for arch in ["a100", "mi100"] {
            for sanitize in [false, true] {
                assert!(has(&|c| c.arch == arch && c.sanitize == sanitize), "{arch} {sanitize}");
            }
            assert!(has(&|c| c.arch == arch && c.sanitize && c.oracle), "{arch} oracle");
        }
        assert!(has(&|c| !c.oracle), "oracle off");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_every_value() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cases_run_the_property() {
        let mut count = 0;
        cases("counter", 17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn failing_case_panics_through() {
        let r = std::panic::catch_unwind(|| {
            cases("always-fails", 4, |_| panic!("boom"));
        });
        assert!(r.is_err());
    }

    #[test]
    fn with_deadline_passes_fast_work_through() {
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let d = std::sync::Arc::clone(&done);
        with_deadline("fast", std::time::Duration::from_secs(10), move || {
            d.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(done.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn with_deadline_flags_a_hang() {
        let r = std::panic::catch_unwind(|| {
            with_deadline("hang", std::time::Duration::from_millis(20), || {
                std::thread::sleep(std::time::Duration::from_secs(600));
            });
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("watchdog"), "{msg}");
    }

    #[test]
    fn with_deadline_propagates_worker_panics() {
        let r = std::panic::catch_unwind(|| {
            with_deadline("boom", std::time::Duration::from_secs(10), || panic!("inner failure"));
        });
        let msg = *r.unwrap_err().downcast::<&str>().unwrap();
        assert!(msg.contains("inner failure"));
    }
}
