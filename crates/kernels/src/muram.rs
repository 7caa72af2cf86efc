//! `muram_transpose` and `muram_interpol` — kernels adapted from the
//! MPS/University of Chicago Radiative MHD (MURaM) OpenACC code (paper
//! §6.4, Fig 10, citing Wright et al., PASC'21).
//!
//! Both operate on an `n³` grid with three parallelizable loops and are
//! built in the same three Fig 10 variants as `laplace3d`:
//!
//! * **transpose** — `out[k][j][i] = in[i][j][k]`: reads are contiguous in
//!   `k`, writes stride `n²` — the axis-rotation pattern MURaM uses
//!   between its directional sweeps;
//! * **interpol** — staggered-grid interpolation along `k`:
//!   `out[i][j][k] = c0·u[i][j][k] + c1·u[i][j][k+1]`.

use gpu_sim::{DPtr, Device, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;

use crate::harness::Fig10Variant;

const A_IN: usize = 0;
const A_OUT: usize = 1;
const A_N: usize = 2;

/// Which MURaM kernel to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuramKernel {
    /// 3-D axis rotation.
    Transpose,
    /// Staggered interpolation along the fastest axis.
    Interpol,
}

/// Interpolation coefficients (staggered 2-point).
const C0: f64 = 0.5;
const C1: f64 = 0.5;

/// Host workload: a deterministic `n³` field.
pub struct MuramWorkload {
    /// Grid edge length.
    pub n: usize,
    /// Input field, row-major `[i][j][k]`.
    pub u: Vec<f64>,
}

impl MuramWorkload {
    /// Deterministic field.
    pub fn generate(n: usize) -> MuramWorkload {
        let u = (0..n * n * n).map(|f| ((f * 2654435761) % 4093) as f64 * 0.001 - 2.0).collect();
        MuramWorkload { n, u }
    }

    /// Host reference for a kernel.
    pub fn reference(&self, kernel: MuramKernel) -> Vec<f64> {
        let n = self.n;
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let mut out = vec![0.0; n * n * n];
        match kernel {
            MuramKernel::Transpose => {
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            out[idx(k, j, i)] = self.u[idx(i, j, k)];
                        }
                    }
                }
            }
            MuramKernel::Interpol => {
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n - 1 {
                            out[idx(i, j, k)] =
                                C0 * self.u[idx(i, j, k)] + C1 * self.u[idx(i, j, k + 1)];
                        }
                    }
                }
            }
        }
        out
    }
}

/// Device-resident field and output.
pub struct MuramDev {
    input: DPtr<f64>,
    out: DPtr<f64>,
    n: usize,
}

impl MuramDev {
    /// Upload a workload; output starts zeroed.
    pub fn upload(dev: &mut Device, w: &MuramWorkload) -> MuramDev {
        MuramDev {
            input: dev.global.alloc_from(&w.u),
            out: dev.global.alloc_zeroed::<f64>(w.u.len()),
            n: w.n,
        }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 3] {
        [Slot::from_ptr(self.input), Slot::from_ptr(self.out), Slot::from_u64(self.n as u64)]
    }

    /// Read the output back.
    pub fn read_out(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.out, self.n * self.n * self.n)
    }
}

/// Per-point arithmetic cycles.
const POINT_CYCLES: u64 = 4;

#[inline]
#[allow(clippy::too_many_arguments)]
fn kernel_body(
    lane: &mut gpu_sim::Lane<'_, '_>,
    which: MuramKernel,
    input: DPtr<f64>,
    out: DPtr<f64>,
    n: u64,
    i: u64,
    j: u64,
    k: u64,
) {
    let idx = |i: u64, j: u64, k: u64| (i * n + j) * n + k;
    match which {
        MuramKernel::Transpose => {
            let v = lane.read(input, idx(i, j, k));
            lane.work(POINT_CYCLES);
            lane.write(out, idx(k, j, i), v);
        }
        MuramKernel::Interpol => {
            let a = lane.read(input, idx(i, j, k));
            let b = lane.read(input, idx(i, j, k + 1));
            lane.work(POINT_CYCLES);
            lane.write(out, idx(i, j, k), C0 * a + C1 * b);
        }
    }
}

/// Inner (`k`) trip count for a kernel: transpose covers all `n`,
/// interpolation stops one short.
fn k_trip(which: MuramKernel, n: u64) -> u64 {
    match which {
        MuramKernel::Transpose => n,
        MuramKernel::Interpol => n - 1,
    }
}

/// Build a MURaM kernel in one of the Fig 10 variants.
pub fn build(
    which: MuramKernel,
    num_teams: u32,
    threads: u32,
    variant: Fig10Variant,
) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    match variant {
        Fig10Variant::NoSimd => {
            let total = b.trip_uniform(move |v| {
                let n = v.args[A_N].as_u64();
                n * n * k_trip(which, n)
            });
            b.build(|t| {
                t.distribute_parallel_for(total, Schedule::Cyclic(1), 1, |p, iv| {
                    p.seq(move |lane, v| {
                        let input = v.args[A_IN].as_ptr::<f64>();
                        let out = v.args[A_OUT].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let kt = k_trip(which, n);
                        let f = v.regs[iv.0].as_u64();
                        let (i, j, k) = (f / (n * kt), (f / kt) % n, f % kt);
                        lane.work(4);
                        kernel_body(lane, which, input, out, n, i, j, k);
                    });
                });
            })
        }
        Fig10Variant::SpmdSimd => {
            let planes = b.trip_uniform(|v| {
                let n = v.args[A_N].as_u64();
                n * n
            });
            let kline = b.trip_uniform(move |v| k_trip(which, v.args[A_N].as_u64()));
            b.build(|t| {
                t.distribute_parallel_for(planes, Schedule::Cyclic(1), 32, |p, ij| {
                    p.simd(kline, move |lane, kv, v| {
                        let input = v.args[A_IN].as_ptr::<f64>();
                        let out = v.args[A_OUT].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let f = v.regs[ij.0].as_u64();
                        let (i, j) = (f / n, f % n);
                        lane.work(4);
                        kernel_body(lane, which, input, out, n, i, j, kv);
                    });
                });
            })
        }
        Fig10Variant::GenericSimd => {
            let planes = b.trip_uniform(|v| {
                let n = v.args[A_N].as_u64();
                n * n
            });
            let kline = b.trip_uniform(move |v| k_trip(which, v.args[A_N].as_u64()));
            b.build(|t| {
                t.distribute_parallel_for(planes, Schedule::Cyclic(1), 32, |p, ij| {
                    let iw = p.alloc_reg();
                    let jw = p.alloc_reg();
                    p.seq(move |lane, v| {
                        let n = v.args[A_N].as_u64();
                        let f = v.regs[ij.0].as_u64();
                        lane.work(6);
                        v.regs[iw.0] = Slot::from_u64(f / n);
                        v.regs[jw.0] = Slot::from_u64(f % n);
                    });
                    p.simd(kline, move |lane, kv, v| {
                        let input = v.args[A_IN].as_ptr::<f64>();
                        let out = v.args[A_OUT].as_ptr::<f64>();
                        let n = v.args[A_N].as_u64();
                        let (i, j) = (v.regs[iw.0].as_u64(), v.regs[jw.0].as_u64());
                        lane.work(2);
                        kernel_body(lane, which, input, out, n, i, j, kv);
                    });
                });
            })
        }
    }
}

/// Run a compiled MURaM kernel.
pub fn run(dev: &mut Device, kernel: &CompiledKernel, ops: &MuramDev) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_out(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_core::config::ExecMode;

    #[test]
    fn generic_variant_is_generic() {
        let k = build(MuramKernel::Transpose, 8, 64, Fig10Variant::GenericSimd);
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
        let s = build(MuramKernel::Interpol, 8, 64, Fig10Variant::SpmdSimd);
        assert_eq!(s.analysis.parallels[0].desc.mode, ExecMode::Spmd);
    }
}
