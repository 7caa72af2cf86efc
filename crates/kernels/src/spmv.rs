//! `sparse_matvec` — CSR sparse matrix–vector product (paper §6.3).
//!
//! Adapted from the OpenACC programming-guide kernel the paper cites. Two
//! parallelization strategies, exactly as the paper describes:
//!
//! * **two-level** (the baseline): `teams distribute` over rows (one row
//!   per team iteration; the teams region runs in *generic* mode) and
//!   `parallel for` over the row's non-zeros with 32 threads per team.
//! * **three-level**: combined `teams distribute parallel for` over rows
//!   (teams region *SPMD*) with `simd` over the row's non-zeros (parallel
//!   region *generic*, because the trip count varies per row).
//!
//! Reductions are not available in the paper's prototype, so both versions
//! accumulate with atomic updates ("instead we use a less efficient atomic
//! update for the product"). The [`build_three_level_reduce`] variant uses
//! the §7 reduction extension for the ablation benchmark.

use gpu_sim::{DPtr, Device, LaunchStats, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;

use crate::matrix::CsrMatrix;

/// Argument-slot layout shared by every spmv kernel.
/// `[row_ptr, col_idx, values, x, y, nrows]`.
const A_ROWPTR: usize = 0;
const A_COLIDX: usize = 1;
const A_VALUES: usize = 2;
const A_X: usize = 3;
const A_Y: usize = 4;
const A_NROWS: usize = 5;

/// Device-resident spmv operands.
pub struct SpmvDev {
    row_ptr: DPtr<u64>,
    col_idx: DPtr<u64>,
    values: DPtr<f64>,
    x: DPtr<f64>,
    y: DPtr<f64>,
    nrows: usize,
}

impl SpmvDev {
    /// Upload a matrix and input vector; `y` starts zeroed.
    pub fn upload(dev: &mut Device, mat: &CsrMatrix, x: &[f64]) -> SpmvDev {
        assert_eq!(x.len(), mat.ncols);
        SpmvDev {
            row_ptr: dev.global.alloc_from(&mat.row_ptr),
            col_idx: dev.global.alloc_from(&mat.col_idx),
            values: dev.global.alloc_from(&mat.values),
            x: dev.global.alloc_from(x),
            y: dev.global.alloc_zeroed::<f64>(mat.nrows),
            nrows: mat.nrows,
        }
    }

    /// Argument payload for the kernels.
    pub fn args(&self) -> [Slot; 6] {
        [
            Slot::from_ptr(self.row_ptr),
            Slot::from_ptr(self.col_idx),
            Slot::from_ptr(self.values),
            Slot::from_ptr(self.x),
            Slot::from_ptr(self.y),
            Slot::from_u64(self.nrows as u64),
        ]
    }

    /// Zero the output vector (for back-to-back runs on one device).
    pub fn reset_y(&self, dev: &mut Device) {
        dev.global.write_slice(self.y, &vec![0.0; self.nrows]);
    }

    /// Read the result back.
    pub fn read_y(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.y, self.nrows)
    }
}

/// Cycles charged per fused multiply-add in the inner loop.
const FMA_CYCLES: u64 = 4;

/// The two-level baseline: `teams distribute` (generic teams) +
/// `parallel for` (group size 1). 32 threads per team, as in the paper.
pub fn build_two_level(num_teams: u32) -> CompiledKernel {
    build_two_level_on(num_teams, 32)
}

/// Width-parameterized two-level baseline: wave64 backends need the team
/// to be a whole number of 64-lane wavefronts, so portability runs pass
/// `threads = 64` while the paper-faithful a100 baseline keeps 32.
pub fn build_two_level_on(num_teams: u32, threads: u32) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let rows = b.trip_uniform(|v| v.args[A_NROWS].as_u64());
    // Per-row non-zero count, computed at thread scope from the team's
    // current row (outer register 0).
    let nnz = b.trip_uniform_lane(move |lane, v| {
        let rp = v.args[A_ROWPTR].as_ptr::<u64>();
        let row = v.outer[0].as_u64();
        let lo = lane.read(rp, row);
        let hi = lane.read(rp, row + 1);
        hi - lo
    });
    let one = b.trip_const(1);
    b.build(|t| {
        t.distribute(rows, Schedule::Static, |t, _row| {
            t.parallel(1, |p| {
                // Each thread resolves the row bounds once.
                let lo_reg = p.alloc_reg();
                p.seq(move |lane, v| {
                    let rp = v.args[A_ROWPTR].as_ptr::<u64>();
                    let row = v.outer[0].as_u64();
                    let lo = lane.read(rp, row);
                    v.regs[lo_reg.0] = Slot::from_u64(lo);
                });
                p.for_loop(nnz, Schedule::Cyclic(1), |p, j| {
                    p.simd(one, move |lane, _iv, v| {
                        let ci = v.args[A_COLIDX].as_ptr::<u64>();
                        let vals = v.args[A_VALUES].as_ptr::<f64>();
                        let x = v.args[A_X].as_ptr::<f64>();
                        let y = v.args[A_Y].as_ptr::<f64>();
                        let row = v.outer[0].as_u64();
                        let lo = v.regs[lo_reg.0].as_u64();
                        let k = lo + v.regs[j.0].as_u64();
                        let col = lane.read(ci, k);
                        let a = lane.read(vals, k);
                        let xv = lane.read(x, col);
                        lane.work(FMA_CYCLES);
                        lane.atomic_add_f64(y, row, a * xv);
                    });
                });
            });
        });
    })
}

/// The three-level version: combined `teams distribute parallel for` over
/// rows (SPMD teams) + `simd` over non-zeros (generic parallel — the trip
/// count varies per row). Atomic accumulation as in the paper.
pub fn build_three_level(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let rows = b.trip_uniform(|v| v.args[A_NROWS].as_u64());
    let nnz = b.trip_varying(move |lane, v| {
        let rp = v.args[A_ROWPTR].as_ptr::<u64>();
        let row = v.regs[0].as_u64();
        let hi = lane.read(rp, row + 1);
        let lo = v.regs[1].as_u64();
        hi - lo
    });
    b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Cyclic(1), simdlen, |p, row| {
            // The SIMD main resolves the row start once; it is staged to
            // the workers through the sharing space in generic mode.
            let lo_reg = p.alloc_reg();
            p.seq(move |lane, v| {
                let rp = v.args[A_ROWPTR].as_ptr::<u64>();
                let r = v.regs[row.0].as_u64();
                let lo = lane.read(rp, r);
                v.regs[lo_reg.0] = Slot::from_u64(lo);
            });
            p.simd(nnz, move |lane, iv, v| {
                let ci = v.args[A_COLIDX].as_ptr::<u64>();
                let vals = v.args[A_VALUES].as_ptr::<f64>();
                let x = v.args[A_X].as_ptr::<f64>();
                let y = v.args[A_Y].as_ptr::<f64>();
                let r = v.regs[row.0].as_u64();
                let k = v.regs[lo_reg.0].as_u64() + iv;
                let col = lane.read(ci, k);
                let a = lane.read(vals, k);
                let xv = lane.read(x, col);
                lane.work(FMA_CYCLES);
                lane.atomic_add_f64(y, r, a * xv);
            });
        });
    })
}

/// Three-level spmv using the `simd reduction(+)` extension (§7) instead of
/// per-iteration atomics — the `ablation_reduction` benchmark.
pub fn build_three_level_reduce(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let rows = b.trip_uniform(|v| v.args[A_NROWS].as_u64());
    let nnz = b.trip_varying(move |lane, v| {
        let rp = v.args[A_ROWPTR].as_ptr::<u64>();
        let row = v.regs[0].as_u64();
        let hi = lane.read(rp, row + 1);
        let lo = v.regs[1].as_u64();
        hi - lo
    });
    b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Cyclic(1), simdlen, |p, row| {
            let lo_reg = p.alloc_reg();
            p.seq(move |lane, v| {
                let rp = v.args[A_ROWPTR].as_ptr::<u64>();
                let r = v.regs[row.0].as_u64();
                let lo = lane.read(rp, r);
                v.regs[lo_reg.0] = Slot::from_u64(lo);
            });
            let sum = p.simd_reduce(nnz, move |lane, iv, v| {
                let ci = v.args[A_COLIDX].as_ptr::<u64>();
                let vals = v.args[A_VALUES].as_ptr::<f64>();
                let x = v.args[A_X].as_ptr::<f64>();
                let k = v.regs[lo_reg.0].as_u64() + iv;
                let col = lane.read(ci, k);
                let a = lane.read(vals, k);
                let xv = lane.read(x, col);
                lane.work(FMA_CYCLES);
                a * xv
            });
            p.seq(move |lane, v| {
                let y = v.args[A_Y].as_ptr::<f64>();
                let r = v.regs[row.0].as_u64();
                lane.write(y, r, v.regs[sum.0].as_f64());
            });
        });
    })
}

/// Run a compiled spmv kernel on uploaded operands and return the result
/// vector and launch statistics.
pub fn run(
    dev: &mut Device,
    kernel: &CompiledKernel,
    operands: &SpmvDev,
) -> (Vec<f64>, LaunchStats) {
    operands.reset_y(dev);
    let stats = kernel.run(dev, &operands.args());
    (operands.read_y(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RowProfile;
    use omp_core::config::ExecMode;

    #[test]
    fn two_level_teams_are_generic() {
        assert_eq!(build_two_level(32).analysis.teams_mode, ExecMode::Generic);
    }

    #[test]
    fn three_level_parallel_is_generic_at_every_group_size() {
        for gs in [2u32, 4, 8, 16, 32] {
            let k = build_three_level(16, 128, gs);
            assert_eq!(k.analysis.teams_mode, ExecMode::Spmd, "gs={gs}");
            assert_eq!(
                k.analysis.parallels[0].desc.mode,
                ExecMode::Generic,
                "varying trip must force generic (gs={gs})"
            );
        }
    }

    #[test]
    fn repeated_runs_reset_output() {
        let mat = CsrMatrix::generate(200, 400, RowProfile::Banded { min: 4, max: 40 }, 11);
        let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
        let mut dev = Device::a100();
        let ops = SpmvDev::upload(&mut dev, &mat, &x);
        let k = build_three_level(16, 128, 8);
        let (y1, s1) = run(&mut dev, &k, &ops);
        let (y2, s2) = run(&mut dev, &k, &ops);
        assert_eq!(y1, y2, "reset_y must make runs idempotent");
        assert_eq!(s1.cycles, s2.cycles, "simulation must be deterministic");
    }
}
