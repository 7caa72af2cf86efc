//! `laplace3d` — "a simple three-dimensional heat diffusion kernel"
//! (paper §6.4, Fig 10).
//!
//! One Jacobi sweep of the 6-point stencil over an `n³` grid:
//! `unew[i,j,k] = (u[i±1,j,k] + u[i,j±1,k] + u[i,j,k±1]) / 6` for interior
//! points. Three parallelizable loops; the innermost (`k`) is contiguous
//! in memory.
//!
//! Fig 10 compares three versions at fixed teams/threads and group size 32:
//!
//! * **No SIMD** — two levels: all three loops collapsed across the teams'
//!   threads (`teams distribute parallel for collapse(3)`), `k` fastest so
//!   accesses stay coalesced;
//! * **SPMD SIMD** — `collapse(2)` over `(i,j)` plus a tightly nested
//!   `simd` over `k` (parallel region SPMD);
//! * **Generic SIMD** — the same, but the nesting is broken by sequential
//!   thread code (a base-offset computation), so the parallel region runs
//!   generic — the paper's ≈15 % penalty case.

use gpu_sim::{DPtr, Device, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;

use crate::harness::Fig10Variant;

const A_U: usize = 0;
const A_UNEW: usize = 1;
const A_N: usize = 2;

/// Host workload: an `n³` grid with a deterministic initial condition.
pub struct Laplace3dWorkload {
    /// Grid edge length.
    pub n: usize,
    /// Initial grid, row-major `[i][j][k]`.
    pub u: Vec<f64>,
}

impl Laplace3dWorkload {
    /// Deterministic initial condition (smooth + boundary heat).
    pub fn generate(n: usize) -> Laplace3dWorkload {
        let mut u = vec![0.0; n * n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let v = if i == 0 || j == 0 || k == 0 {
                        100.0
                    } else {
                        (i * 31 + j * 17 + k * 7) as f64 % 19.0
                    };
                    u[(i * n + j) * n + k] = v;
                }
            }
        }
        Laplace3dWorkload { n, u }
    }

    /// Host reference: one Jacobi sweep (boundary copied unchanged).
    pub fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let u = &self.u;
        let mut out = u.clone();
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    out[idx(i, j, k)] = (u[idx(i - 1, j, k)]
                        + u[idx(i + 1, j, k)]
                        + u[idx(i, j - 1, k)]
                        + u[idx(i, j + 1, k)]
                        + u[idx(i, j, k - 1)]
                        + u[idx(i, j, k + 1)])
                        / 6.0;
                }
            }
        }
        out
    }
}

/// Device-resident grids.
pub struct Laplace3dDev {
    u: DPtr<f64>,
    unew: DPtr<f64>,
    n: usize,
}

impl Laplace3dDev {
    /// Upload the workload; `unew` starts as a copy of `u` so boundaries
    /// carry over.
    pub fn upload(dev: &mut Device, w: &Laplace3dWorkload) -> Laplace3dDev {
        Laplace3dDev { u: dev.global.alloc_from(&w.u), unew: dev.global.alloc_from(&w.u), n: w.n }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 3] {
        [Slot::from_ptr(self.u), Slot::from_ptr(self.unew), Slot::from_u64(self.n as u64)]
    }

    /// Read the result grid back.
    pub fn read_out(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.unew, self.n * self.n * self.n)
    }
}

/// Stencil arithmetic cycles per point (5 adds + 1 divide-by-constant).
const STENCIL_CYCLES: u64 = 10;

#[inline]
fn stencil(
    lane: &mut gpu_sim::Lane<'_, '_>,
    u: DPtr<f64>,
    unew: DPtr<f64>,
    n: u64,
    i: u64,
    j: u64,
    k: u64,
) {
    let idx = |i: u64, j: u64, k: u64| (i * n + j) * n + k;
    let s = lane.read(u, idx(i - 1, j, k))
        + lane.read(u, idx(i + 1, j, k))
        + lane.read(u, idx(i, j - 1, k))
        + lane.read(u, idx(i, j + 1, k))
        + lane.read(u, idx(i, j, k - 1))
        + lane.read(u, idx(i, j, k + 1));
    lane.work(STENCIL_CYCLES);
    lane.write(unew, idx(i, j, k), s / 6.0);
}

/// Build a laplace3d sweep kernel in one of the Fig 10 variants.
pub fn build(num_teams: u32, threads: u32, variant: Fig10Variant) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    match variant {
        Fig10Variant::NoSimd => {
            // collapse(3): every interior point is one `for` iteration.
            let total = b.trip_uniform(|v| {
                let n = v.args[A_N].as_u64() - 2;
                n * n * n
            });
            b.build(|t| {
                t.distribute_parallel_for(total, Schedule::Cyclic(1), 1, |p, iv| {
                    p.seq(move |lane, v| {
                        let u = v.args[A_U].as_ptr::<f64>();
                        let unew = v.args[A_UNEW].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let m = n - 2;
                        let f = v.regs[iv.0].as_u64();
                        let (i, j, k) = (f / (m * m) + 1, (f / m) % m + 1, f % m + 1);
                        lane.work(4); // index decomposition
                        stencil(lane, u, unew, n, i, j, k);
                    });
                });
            })
        }
        Fig10Variant::SpmdSimd => {
            // collapse(2) + tightly nested simd over k.
            let planes = b.trip_uniform(|v| {
                let n = v.args[A_N].as_u64() - 2;
                n * n
            });
            let kline = b.trip_uniform(|v| v.args[A_N].as_u64() - 2);
            b.build(|t| {
                t.distribute_parallel_for(planes, Schedule::Cyclic(1), 32, |p, ij| {
                    p.simd(kline, move |lane, kv, v| {
                        let u = v.args[A_U].as_ptr::<f64>();
                        let unew = v.args[A_UNEW].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let m = n - 2;
                        let f = v.regs[ij.0].as_u64();
                        let (i, j) = (f / m + 1, f % m + 1);
                        lane.work(4);
                        stencil(lane, u, unew, n, i, j, kv + 1);
                    });
                });
            })
        }
        Fig10Variant::GenericSimd => {
            // Same loops, nesting broken by a sequential base computation:
            // the parallel region runs generic.
            let planes = b.trip_uniform(|v| {
                let n = v.args[A_N].as_u64() - 2;
                n * n
            });
            let kline = b.trip_uniform(|v| v.args[A_N].as_u64() - 2);
            b.build(|t| {
                t.distribute_parallel_for(planes, Schedule::Cyclic(1), 32, |p, ij| {
                    let base = p.alloc_reg();
                    p.seq(move |lane, v| {
                        let n = v.args[A_N].as_u64();
                        let m = n - 2;
                        let f = v.regs[ij.0].as_u64();
                        let (i, j) = (f / m + 1, f % m + 1);
                        lane.work(6);
                        v.regs[base.0] = Slot::from_u64((i * n + j) * n);
                    });
                    p.simd(kline, move |lane, kv, v| {
                        let u = v.args[A_U].as_ptr::<f64>();
                        let unew = v.args[A_UNEW].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let base = v.regs[base.0].as_u64();
                        let (i, j) = (base / (n * n), (base / n) % n);
                        lane.work(2);
                        stencil(lane, u, unew, n, i, j, kv + 1);
                    });
                });
            })
        }
    }
}

/// Run a compiled laplace3d kernel.
pub fn run(
    dev: &mut Device,
    kernel: &CompiledKernel,
    ops: &Laplace3dDev,
) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_out(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_core::config::ExecMode;

    #[test]
    fn variant_modes_match_fig10() {
        let no = build(8, 64, Fig10Variant::NoSimd);
        let sp = build(8, 64, Fig10Variant::SpmdSimd);
        let ge = build(8, 64, Fig10Variant::GenericSimd);
        for k in [&no, &sp, &ge] {
            assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
        }
        assert_eq!(no.analysis.parallels[0].desc.simdlen, 1);
        assert_eq!(sp.analysis.parallels[0].desc.mode, ExecMode::Spmd);
        assert_eq!(ge.analysis.parallels[0].desc.mode, ExecMode::Generic);
    }
}
