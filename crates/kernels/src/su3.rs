//! `SU3_bench` — lattice QCD SU(3) complex matrix–matrix multiply
//! (paper §6.3, citing Doerfler et al.'s microbenchmark).
//!
//! Per lattice site there are 4 link matrices; each link multiplies two
//! 3×3 complex matrices: `c[l][i][j] = Σ_k a[l][i][k] · b[l][k][j]`. That
//! is the paper's "small inner-loop with 36 total iterations" (4 links ×
//! 9 output elements), "originally executed serially by each thread".
//!
//! * **baseline**: combined `teams distribute parallel for` over sites,
//!   the 36-iteration loop serial in each thread (SIMD group size 1);
//! * **simd**: the same outer construct with `simd` over the 36
//!   iterations. Both `teams` and `parallel` regions are SPMD (§6.3).
//!
//! Complex values are stored interleaved (re, im), matrices row-major,
//! links consecutive per site — so one site's operand block is 72 `f64`s.

use gpu_sim::{DPtr, Device, LaunchStats, Slot, MAX_LANES};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_codegen::CompiledKernel;
use testkit::SimRng;

const A_A: usize = 0;
const A_B: usize = 1;
const A_C: usize = 2;
const A_SITES: usize = 3;

/// Doubles per site per operand: 4 links × 9 elements × (re, im).
pub const SITE_DOUBLES: usize = 4 * 9 * 2;
/// Inner-loop trip count: 4 links × 9 output elements.
pub const INNER_TRIP: u64 = 36;

/// Host-side SU3 workload: operand arrays for `sites` lattice sites.
pub struct Su3Workload {
    /// Number of lattice sites.
    pub sites: usize,
    /// Left operand, `sites × 4` 3×3 complex matrices, interleaved re/im.
    pub a: Vec<f64>,
    /// Right operand, same layout.
    pub b: Vec<f64>,
}

impl Su3Workload {
    /// Generate deterministic operands.
    pub fn generate(sites: usize, seed: u64) -> Su3Workload {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = sites * SITE_DOUBLES;
        Su3Workload {
            sites,
            a: (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect(),
            b: (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect(),
        }
    }

    /// Host reference: the full product array.
    pub fn reference(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.sites * SITE_DOUBLES];
        for s in 0..self.sites {
            for l in 0..4 {
                for i in 0..3 {
                    for j in 0..3 {
                        let (mut re, mut im) = (0.0, 0.0);
                        for k in 0..3 {
                            let ai = elem(s, l, i, k);
                            let bi = elem(s, l, k, j);
                            let (ar, aim) = (self.a[ai], self.a[ai + 1]);
                            let (br, bim) = (self.b[bi], self.b[bi + 1]);
                            re += ar * br - aim * bim;
                            im += ar * bim + aim * br;
                        }
                        let ci = elem(s, l, i, j);
                        c[ci] = re;
                        c[ci + 1] = im;
                    }
                }
            }
        }
        c
    }
}

/// Flat f64 index of the real part of element (i, j) of link `l` at `site`.
#[inline]
fn elem(site: usize, l: usize, i: usize, j: usize) -> usize {
    (((site * 4 + l) * 9) + i * 3 + j) * 2
}

/// Device-resident operands.
pub struct Su3Dev {
    a: DPtr<f64>,
    b: DPtr<f64>,
    c: DPtr<f64>,
    sites: usize,
}

impl Su3Dev {
    /// Upload operands; `c` starts zeroed.
    pub fn upload(dev: &mut Device, w: &Su3Workload) -> Su3Dev {
        Su3Dev {
            a: dev.global.alloc_from(&w.a),
            b: dev.global.alloc_from(&w.b),
            c: dev.global.alloc_zeroed::<f64>(w.sites * SITE_DOUBLES),
            sites: w.sites,
        }
    }

    /// Argument payload.
    pub fn args(&self) -> [Slot; 4] {
        [
            Slot::from_ptr(self.a),
            Slot::from_ptr(self.b),
            Slot::from_ptr(self.c),
            Slot::from_u64(self.sites as u64),
        ]
    }

    /// Read the product back.
    pub fn read_c(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.c, self.sites * SITE_DOUBLES)
    }
}

/// Cycles per complex fused multiply-add (4 mul + 4 add, dual-issue-ish).
const CFMA_CYCLES: u64 = 6;

/// Build the SU3 kernel. `simdlen == 1` is the paper's serial-inner-loop
/// baseline; larger group sizes vectorize the 36-iteration loop. The simd
/// body is warp-form: each operand load and product store is one warp
/// instruction over the round's active lanes.
pub fn build(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    build_in(num_teams, threads, simdlen, true)
}

/// [`build`] with the same body written per lane: the reference twin,
/// which gives bit-identical statistics and results.
pub fn build_per_lane(num_teams: u32, threads: u32, simdlen: u32) -> CompiledKernel {
    build_in(num_teams, threads, simdlen, false)
}

fn build_in(num_teams: u32, threads: u32, simdlen: u32, warp_form: bool) -> CompiledKernel {
    let mut b = TargetBuilder::new().num_teams(num_teams).threads(threads);
    let sites = b.trip_uniform(|v| v.args[A_SITES].as_u64());
    let inner = b.trip_const(INNER_TRIP);
    b.build(|t| {
        t.distribute_parallel_for(sites, Schedule::Cyclic(1), simdlen, |p, site| {
            if warp_form {
                p.simd_warp(inner, move |w, ivs, v| {
                    let a = v.args[A_A].as_ptr::<f64>();
                    let bm = v.args[A_B].as_ptr::<f64>();
                    let c = v.args[A_C].as_ptr::<f64>();
                    let n = ivs.len();
                    // Per lane: the row of `a` and column of `b` it
                    // multiplies, and its product element.
                    let (mut row, mut col, mut out) =
                        ([0u64; MAX_LANES], [0; MAX_LANES], [0; MAX_LANES]);
                    for l in 0..n {
                        let s = v.regs(l)[site.0].as_u64() as usize;
                        let (link, o) = ((ivs[l] / 9) as usize, (ivs[l] % 9) as usize);
                        let (i, j) = (o / 3, o % 3);
                        row[l] = elem(s, link, i, 0) as u64;
                        col[l] = elem(s, link, 0, j) as u64;
                        out[l] = elem(s, link, i, j) as u64;
                    }
                    let (mut re, mut im) = ([0.0f64; MAX_LANES], [0.0f64; MAX_LANES]);
                    for k in 0..3u64 {
                        // elem(s, l, i, k) and elem(s, l, k, j).
                        let ar = w.read(a, |l| row[l] + 2 * k);
                        let aim = w.read(a, |l| row[l] + 2 * k + 1);
                        let br = w.read(bm, |l| col[l] + 6 * k);
                        let bim = w.read(bm, |l| col[l] + 6 * k + 1);
                        w.work(CFMA_CYCLES);
                        for l in 0..n {
                            re[l] += ar[l] * br[l] - aim[l] * bim[l];
                            im[l] += ar[l] * bim[l] + aim[l] * br[l];
                        }
                    }
                    w.write(c, |l| out[l], |l| re[l]);
                    w.write(c, |l| out[l] + 1, |l| im[l]);
                });
                return;
            }
            p.simd(inner, move |lane, iv, v| {
                let a = v.args[A_A].as_ptr::<f64>();
                let bm = v.args[A_B].as_ptr::<f64>();
                let c = v.args[A_C].as_ptr::<f64>();
                let s = v.regs[site.0].as_u64() as usize;
                let l = (iv / 9) as usize;
                let o = (iv % 9) as usize;
                let (i, j) = (o / 3, o % 3);
                let (mut re, mut im) = (0.0, 0.0);
                for k in 0..3 {
                    let ai = elem(s, l, i, k) as u64;
                    let bi = elem(s, l, k, j) as u64;
                    let ar = lane.read(a, ai);
                    let aim = lane.read(a, ai + 1);
                    let br = lane.read(bm, bi);
                    let bim = lane.read(bm, bi + 1);
                    lane.work(CFMA_CYCLES);
                    re += ar * br - aim * bim;
                    im += ar * bim + aim * br;
                }
                let ci = elem(s, l, i, j) as u64;
                lane.write(c, ci, re);
                lane.write(c, ci + 1, im);
            });
        });
    })
}

/// Run a compiled SU3 kernel.
pub fn run(dev: &mut Device, kernel: &CompiledKernel, ops: &Su3Dev) -> (Vec<f64>, LaunchStats) {
    let stats = kernel.run(dev, &ops.args());
    (ops.read_c(dev), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_core::config::ExecMode;

    #[test]
    fn elem_layout_is_contiguous_per_site() {
        assert_eq!(elem(0, 0, 0, 0), 0);
        assert_eq!(elem(0, 0, 0, 1), 2);
        assert_eq!(elem(0, 0, 1, 0), 6);
        assert_eq!(elem(0, 1, 0, 0), 18);
        assert_eq!(elem(1, 0, 0, 0), SITE_DOUBLES);
    }

    #[test]
    fn every_group_size_runs_spmd() {
        for gs in [1u32, 2, 4, 8, 16, 32] {
            let k = build(8, 64, gs);
            // §6.3: "In this code both teams and parallel regions are SPMD".
            assert_eq!(k.analysis.teams_mode, ExecMode::Spmd, "gs={gs}");
            assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Spmd, "gs={gs}");
        }
    }

    #[test]
    fn workload_is_seed_deterministic() {
        let a = Su3Workload::generate(16, 9);
        let b = Su3Workload::generate(16, 9);
        assert_eq!(a.a, b.a);
        assert_eq!(a.b, b.b);
    }
}
