//! # simt-omp-core — the OpenMP GPU device runtime with `simd` support
//!
//! This crate is the reproduction of the paper's primary contribution: an
//! extended LLVM/OpenMP-style GPU runtime with **three distinct levels of
//! parallelism** — teams (thread blocks), parallel (threads, grouped into
//! SIMD groups) and simd (lanes within a group) — supporting both the
//! CPU-centric **generic** execution model and the GPU-centric **SPMD**
//! model at each level.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §5.1 mapping functions (`getSimdGroup`, `simdmask`, …) | [`mapping`] |
//! | §5.2 `__target_init`, mode divergence points | [`exec`] |
//! | §5.3 generic model, state machines (Figs 3, 5, 6) | [`exec`] |
//! | §5.3.1 variable sharing space (1024→2048 B, global fallback) | [`sharing`] |
//! | §5.4 SPMD model, group-size-1 degeneration, AMD fallback | [`exec`], [`config`] |
//! | §5.5 `__simd_loop` (Fig 8), if-cascade dispatch | [`exec`], [`dispatch`] |
//! | §4 loop tasks: outlining, trip-count/body callbacks | [`plan`], [`dispatch`] |
//! | worksharing schedules (`distribute`, `for`, `simd`) | [`workshare`] |
//! | §7 reductions (future work in the paper, implemented here) | [`plan::ThreadOp::SimdReduce`] |

pub mod config;
pub mod dispatch;
pub mod exec;
pub mod mapping;
pub mod plan;
pub mod sharing;
pub mod workshare;

pub use config::{ExecMode, KernelConfig, ParallelDesc};
pub use dispatch::{BodyForm, Footprint, Registry, SimdFn, TripMeta};
pub use exec::{launch_target, run_target_block};
pub use mapping::SimdMapping;
pub use plan::{Schedule, TargetPlan, TeamOp, ThreadOp, Vars, VarsMut, WarpVars};
