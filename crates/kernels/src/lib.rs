//! # simt-omp-kernels — the paper's evaluation workloads
//!
//! Every kernel from the evaluation section (§6), each with the exact
//! parallelization strategies the paper compares, plus host reference
//! implementations for verification:
//!
//! * [`spmv`] — `sparse_matvec` (Fig 9): 2-level baseline vs 3-level simd,
//!   atomic accumulation (+ reduction-extension variant);
//! * [`su3`] — `SU3_bench` (Fig 9): lattice-QCD SU(3) matrix–matrix
//!   multiply with the 36-iteration inner loop;
//! * [`ideal`] — the paper's synthetic "ideal scenario" kernel (Fig 9);
//! * [`laplace3d`] — 3-D heat diffusion (Fig 10);
//! * [`muram`] — `muram_transpose` and `muram_interpol`, adapted from the
//!   MURaM OpenACC code (Fig 10);
//! * [`matrix`] — seeded CSR workload generators;
//! * [`harness`] — the Fig 10 variants and the error and speedup helpers
//!   shared by tests, examples and the figure benchmarks.
//!
//! Beyond the paper's figures, two workloads act as runtime correctness
//! probes (closing the ROADMAP "broader workloads" item):
//!
//! * [`stencil2d`] — tiled 2-D Jacobi whose halo exchange is staged through
//!   the §5.3.1 variable-sharing space in generic mode;
//! * [`batched`] — a batched-kernel harness registering many outlined
//!   bodies in one registry, stressing the §5.5 dispatch cascade against
//!   the indirect-call fallback.
//!
//! [`corpus`] lists every configuration of these kernels that the
//! repository checks, each with a seeded workload and its host reference:
//! the root suites `tests/archmatrix.rs` and `tests/bytecode.rs`,
//! `simtlint` and the flat-bytecode verifier suite all read it, and keep
//! no list of their own.
pub mod batched;
pub mod corpus;
pub mod harness;
pub mod ideal;
pub mod laplace3d;
pub mod matrix;
pub mod muram;
pub mod plangen;
pub mod spmv;
pub mod stencil2d;
pub mod su3;
