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
//! * [`simspeed`] — throughput of the simulator itself: wall-clock and
//!   simulated-cycles-per-second across block-execution thread counts
//!   (`SIMT_SIM_THREADS`) and sanitizer modes.
//! * [`mem`] — the Fig 9 sweep's memory-traffic counters: DRAM sectors,
//!   burst atoms, L1 hits and MLP stalls, the inputs the memory model's
//!   makespan consumes.
//! * [`serve`] — the multi-tenant launch service: throughput and virtual
//!   latency across tenants × devices × kernel mix, plus the cold-vs-warm
//!   warm-plan-cache ablation.
//! * [`portability`] — the Fig 9 / Fig 10 sweeps re-run per backend
//!   (a100 and the barrier-less wave64 mi100), with per-row
//!   sequential-simd fallback counters (`BENCH_portability.json`).
//! * [`report`] — table printing + JSON persistence so EXPERIMENTS.md
//!   numbers are regenerable.
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

/// Parse the common `--quick` flag from bench argv.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}
