//! # gpu-sim — a deterministic SIMT GPU simulator
//!
//! This crate is the hardware substrate for the `simt-omp` reproduction of
//! *"Implementing OpenMP's SIMD Directive in LLVM's GPU Runtime"* (ICPP 2023).
//! The paper evaluates on NVIDIA A100 GPUs; this environment has no GPU, so
//! every architectural ingredient the paper's runtime depends on is simulated
//! here:
//!
//! * **streaming multiprocessors (SMs)**, **thread blocks**, **warps** of 32
//!   (or 64, for AMD-like wavefronts) lanes — see [`arch`];
//! * **lockstep (SIMT) execution** of per-lane programs with max-combining of
//!   lane costs and memory-coalescing analysis — see [`exec`];
//! * **global memory** with typed device buffers and 64-bit pointer encoding
//!   (the runtime's `void**` payloads) — see [`mem`];
//! * **shared memory** per block with a bump allocator — see [`mem::shared`];
//! * **atomics** with intra-warp address-conflict serialization — see
//!   [`exec::Lane::atomic_add_f64`];
//! * **warp-level barriers with lane masks** and **block-level barriers** —
//!   see [`exec::TeamCtx::warp_sync`] / [`exec::TeamCtx::block_barrier`];
//! * an **analytic cycle cost model** (issue / memory-throughput / latency
//!   roofline per block, greedy block→SM makespan with occupancy limits) —
//!   see [`cost`] and [`sched`];
//! * **simtcheck**, a runtime sanitizer validating barrier participation,
//!   shared-memory race freedom, and sharing-space usage — see [`sanitize`]
//!   and [`launch::Device::enable_sanitizer`].
//!
//! Execution is fully deterministic: independent blocks may execute
//! concurrently on host worker threads (`Device::set_sim_threads`, see [`sched`]),
//! but every block's work is self-contained, results merge in block-id
//! order, and all cost accounting is integer cycle arithmetic — so a given
//! kernel + workload always produces the *same* simulated cycle count at
//! any thread count. Wall time is irrelevant; the benchmarks report
//! simulated cycles.
//!
//! The crate is intentionally independent of OpenMP concepts; the OpenMP
//! device runtime lives in `simt-omp-core` on top of these primitives.

pub mod arch;
pub mod cost;
pub mod exec;
pub mod launch;
pub mod mask;
pub mod mem;
pub mod sanitize;
pub mod sched;
pub mod stats;
pub mod trace;

pub use arch::{ArchId, CacheGeom, DeviceArch, Vendor};
pub use exec::{DispatchKind, Lane, ObservedEffects, TeamCtx, Warp, WarpRounds, MAX_LANES};
pub use launch::{Device, LaunchConfig, LaunchError};
pub use mask::LaneMask;
pub use mem::global::{FallbackRange, GlobalMem, GlobalView, MemCheckpoint};
pub use mem::ptr::{DPtr, Slot};
pub use mem::shared::SharedMem;
pub use sanitize::{ForeignTouch, Sanitizer, SharingLayout, Violation};
pub use stats::{BlockProfile, LaunchStats, MemStats, Resource, ResourceCycles};
pub use trace::{Trace, TraceEvent};
