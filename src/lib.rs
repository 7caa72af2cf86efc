//! # simt-omp — OpenMP's `simd` directive in a simulated GPU runtime
//!
//! Facade crate for the reproduction of *"Implementing OpenMP's SIMD
//! Directive in LLVM's GPU Runtime"* (ICPP 2023). It re-exports the public
//! API of the workspace crates:
//!
//! * [`gpu`] — the deterministic SIMT GPU simulator substrate;
//! * [`rt`] — the OpenMP device runtime with three-level parallelism
//!   (teams / parallel / simd) and its generic & SPMD execution modes;
//! * [`codegen`] — the directive-tree builder ("OpenMP IR Builder" analog):
//!   outlining, payload packing, SPMD-ness analysis, lowering;
//! * [`host`] — the host-side offloading runtime (device table, data
//!   mapping, transfers, deferred target tasks);
//! * [`kernels`] — the paper's evaluation kernels and workload generators.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

pub use gpu_sim as gpu;
pub use omp_codegen as codegen;
pub use omp_core as rt;
pub use omp_host as host;
pub use omp_kernels as kernels;

/// Convenience prelude: the types almost every user needs.
pub mod prelude {
    pub use gpu_sim::{DPtr, Device, DeviceArch, LaunchConfig, LaunchStats, Slot};
    pub use omp_codegen::builder::{Schedule, TargetBuilder};
    pub use omp_core::config::{ExecMode, KernelConfig};
}
