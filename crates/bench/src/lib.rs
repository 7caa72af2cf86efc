//! # simt-omp-bench — figure and ablation harnesses
//!
//! One module per evaluation artifact of the paper:
//!
//! * [`fig9`] — "Results for various kernels comparing our simd
//!   implementation to the original two levels of parallelism.
//!   Experiments with all possible SIMD group sizes."
//! * [`fig10`] — "Relative speedup of the different SIMD execution modes.
//!   All teams regions are executed in SPMD mode."
//! * [`ablations`] — design-choice experiments DESIGN.md calls out
//!   (sharing-space size, dispatch strategy, extra team-main warp,
//!   trip-count divisibility, reductions vs atomics, AMD fallback).
//! * [`dispatch`] — registry-size sweep of if-cascade vs indirect-call
//!   dispatch (§5.5) on the batched-kernel harness, locating the measured
//!   crossover against the cost model's analytic break-even depth.
//! * [`pipeline`] — double-buffered chunked offload vs the serialized
//!   baseline on the virtual timeline (streams + events + per-device
//!   resource overlap).
//! * [`simspeed`] — what the simulator's own wall-clock pays for the
//!   sanitizer (off / adaptive, 1 host thread) and what the bytecode
//!   engine saves over the tree walker.
//! * [`mem`] — the Fig 9 sweep's memory-traffic counters: DRAM sectors,
//!   burst atoms, L1 hits and MLP stalls, the inputs the memory model's
//!   makespan consumes.
//! * [`serve`] — the multi-tenant launch service: throughput and virtual
//!   latency across tenants × devices × kernel mix, plus the cold-vs-warm
//!   warm-plan-cache ablation.
//! * [`portability`] — the Fig 9 / Fig 10 sweeps per backend (a100 and
//!   the barrier-less wave64 mi100), with per-row sequential-simd
//!   fallback counters (`BENCH_portability.json`).
//! * [`report`] — table printing + JSON persistence so EXPERIMENTS.md
//!   numbers are regenerable.
//!
//! Each figure has one sweep, parameterised by backend:
//! [`fig9::sweep`] and [`fig10::sweep`] return one [`Point`] per launch.
//! `fig9`, `fig10`, `mem` and `portability` only project rows from them.
//!
//! Run them with `cargo bench -p simt-omp-bench` (each bench target is a
//! plain harness that prints the paper-style table and writes JSON under
//! `target/figures/`). Pass `--quick` after `--` for reduced problem sizes.

pub mod ablations;
pub mod dispatch;
pub mod fig10;
pub mod fig9;
pub mod mem;
pub mod pipeline;
pub mod portability;
pub mod report;
pub mod serve;
pub mod simspeed;

/// One launch of a figure sweep: a kernel at one configuration on one
/// backend. `C` is the configuration axis: the simd group size for Fig 9
/// (0 = the 2-level baseline), the execution-mode variant for Fig 10.
#[derive(Clone, Debug)]
pub struct Point<C> {
    /// Kernel name.
    pub kernel: &'static str,
    /// Configuration of this launch.
    pub config: C,
    /// Statistics of the launch.
    pub stats: gpu_sim::LaunchStats,
    /// Max abs error against the host reference.
    pub max_err: f64,
}

/// Pair each point with the cycles of its kernel's baseline, which every
/// sweep emits as the kernel's first point.
pub fn with_base<C>(points: &[Point<C>]) -> impl Iterator<Item = (u64, &Point<C>)> {
    let mut base: (&str, u64) = ("", 0);
    points.iter().map(move |p| {
        if p.kernel != base.0 {
            base = (p.kernel, p.stats.cycles);
        }
        (base.1, p)
    })
}

/// Problem sizes of the Fig 9 and Fig 10 sweeps (quick mode shrinks
/// everything for CI-style runs).
pub(crate) struct Sizes {
    pub spmv_rows: usize,
    pub su3_sites: usize,
    pub ideal_outer: usize,
    /// Grid edge of the Fig 10 kernels.
    pub fig10_n: usize,
    pub teams: u32,
    pub threads: u32,
    pub base_teams_spmv: u32,
}

impl Sizes {
    pub fn of(quick: bool) -> Sizes {
        // Fig 9 iteration counts are kept well above the worker counts of
        // every configuration so all variants saturate the device (as the
        // paper's full-size runs do): smallest group size 2 with 256
        // threads × 108 teams gives 13 824 workers. The Fig 10 grid of 112³
        // keeps its kernels in the issue-bound regime where the generic
        // state machine's overhead is visible (very large grids become
        // purely DRAM-bound and hide it; the paper's kernels show the
        // overhead).
        if quick {
            Sizes {
                spmv_rows: 32_768,
                su3_sites: 27_648,
                ideal_outer: 27_648,
                fig10_n: 64,
                teams: 108,
                threads: 128,
                base_teams_spmv: 1_728,
            }
        } else {
            Sizes {
                spmv_rows: 65_536,
                su3_sites: 55_296,
                ideal_outer: 55_296,
                fig10_n: 112,
                teams: 108,
                threads: 128,
                base_teams_spmv: 3_456,
            }
        }
    }
}

/// Parse the common `--quick` flag from bench argv.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}
