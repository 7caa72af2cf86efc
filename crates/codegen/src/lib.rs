//! # simt-omp-codegen — directive-tree builder and compile-time analyses
//!
//! The compiler side of the reproduction (paper §4): a front-end-independent
//! builder that turns nested directive scopes into the execution plans the
//! runtime interprets, performing outlining, payload packing, variable
//! globalization bookkeeping, and SPMD-ness analysis.
//!
//! ```
//! use gpu_sim::{Device, Slot};
//! use omp_codegen::builder::{Schedule, TargetBuilder};
//!
//! // y[i] = 2*x[i] via `teams distribute parallel for` + `simd`.
//! let mut dev = Device::a100();
//! let x = dev.global.alloc_from(&[1.0f64, 2.0, 3.0, 4.0]);
//! let y = dev.global.alloc_zeroed::<f64>(4);
//!
//! let mut b = TargetBuilder::new().num_teams(2).threads(64);
//! let outer = b.trip_const(2); // 2 chunks of 2 elements
//! let inner = b.trip_const(2);
//! let kernel = b.build(|t| {
//!     t.distribute_parallel_for(outer, Schedule::Static, 2, |p, row| {
//!         p.simd(inner, move |lane, iv, v| {
//!             let x = v.args[0].as_ptr::<f64>();
//!             let y = v.args[1].as_ptr::<f64>();
//!             let i = v.regs[row.0].as_u64() * 2 + iv;
//!             let xv = lane.read(x, i);
//!             lane.write(y, i, 2.0 * xv);
//!         });
//!     });
//! });
//! let stats = kernel.run(&mut dev, &[Slot::from_ptr(x), Slot::from_ptr(y)]);
//! assert!(stats.cycles > 0);
//! assert_eq!(dev.global.read_slice(y, 4), vec![2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod analysis;
pub mod builder;
pub mod bytecode;
pub mod dataflow;
pub mod diag;
pub mod lint;

pub use analysis::{
    infer_parallel_mode, infer_teams_mode, Analysis, ParallelInfo, Promotion, StagingReport,
};
pub use builder::{
    CompiledKernel, KernelParams, ParScope, RegH, Schedule, TargetBuilder, TeamsScope, TripH,
};
pub use bytecode::{run_flat_block, FlatProgram};
pub use dataflow::{AbsVal, Interval, Lattice, Proof, Written};
pub use diag::{Diagnostic, LintReport, Severity};
pub use lint::lint_kernel;
