//! `fig-sweep`: the paper's Fig 9 and Fig 10 sweeps on a100 and mi100.
//!
//! Every configuration gets a fresh device, one simulator thread and one
//! `CompiledKernel::run`, exactly as the figure harnesses do. Per-block
//! bytecode execution dominates, so this is where execution-engine and
//! memory-model speed shows; per-launch overhead, the parallel block
//! engine, the sanitizer and the service are not exercised.

use gpu_sim::{ArchId, Device, Slot};
use omp_codegen::CompiledKernel;
use omp_kernels::harness::Fig10Variant;
use omp_kernels::laplace3d::{self, Laplace3dWorkload};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::muram::{self, MuramKernel, MuramWorkload};
use omp_kernels::{ideal, spmv, su3};

use crate::pins;
use crate::work::{close, Ctx, Workload};

/// Backends swept.
const ARCHS: [ArchId; 2] = [ArchId::A100, ArchId::Mi100];
/// SIMD group sizes of the 3-level versions.
const GROUP_SIZES: [u32; 5] = [2, 4, 8, 16, 32];
/// The bars the paper quotes, compared on the a100 rows: spmv at gs 8,
/// su3 at gs 4, ideal at gs 32, and Fig 10's Generic SIMD relative to No
/// SIMD for each of its three kernels.
const PAPER_BARS: [f64; 6] = [3.5, 1.3, 2.15, 0.85, 0.85, 0.85];

/// Problem sizes.
pub struct Sizes {
    spmv_rows: usize,
    su3_sites: usize,
    ideal_outer: usize,
    fig10_n: usize,
    teams: u32,
    threads: u32,
    base_teams_spmv: u32,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                spmv_rows: 512,
                su3_sites: 216,
                ideal_outer: 216,
                fig10_n: 8,
                teams: 4,
                threads: 128,
                base_teams_spmv: 64,
            }
        } else {
            Sizes {
                spmv_rows: 8_192,
                su3_sites: 13_824,
                ideal_outer: 6_912,
                fig10_n: 40,
                teams: 108,
                threads: 128,
                base_teams_spmv: 432,
            }
        }
    }
}

/// Host references, computed once per run outside every timed phase.
struct Refs {
    spmv: Vec<f64>,
    su3: Vec<f64>,
    ideal: Vec<f64>,
    laplace: Vec<f64>,
    transpose: Vec<f64>,
    interpol: Vec<f64>,
}

/// The fig-sweep workload.
pub struct FigSweep {
    seed: u64,
    smoke: bool,
    sz: Sizes,
    x: Vec<f64>,
    want: Refs,
}

impl FigSweep {
    /// Inputs from `seed`: the spmv matrix, su3 links and ideal data.
    pub fn new(seed: u64, smoke: bool) -> FigSweep {
        let sz = Sizes::new(smoke);
        let mat = matrix(&sz, seed);
        let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
        let lap = Laplace3dWorkload::generate(sz.fig10_n);
        let mur = MuramWorkload::generate(sz.fig10_n);
        let want = Refs {
            spmv: mat.spmv_ref(&x),
            su3: su3::Su3Workload::generate(sz.su3_sites, seed).reference(),
            ideal: ideal::IdealWorkload::generate(sz.ideal_outer, seed).reference(),
            laplace: lap.reference(),
            transpose: mur.reference(MuramKernel::Transpose),
            interpol: mur.reference(MuramKernel::Interpol),
        };
        FigSweep { seed, smoke, sz, x, want }
    }
}

fn matrix(sz: &Sizes, seed: u64) -> CsrMatrix {
    CsrMatrix::generate(sz.spmv_rows, sz.spmv_rows, RowProfile::Banded { min: 4, max: 44 }, seed)
}

/// Device operands the sweep launches on.
trait Operands {
    fn slots(&self) -> Vec<Slot>;
    fn output(&self, dev: &Device) -> Vec<f64>;
}

impl Operands for spmv::SpmvDev {
    fn slots(&self) -> Vec<Slot> {
        self.args().to_vec()
    }
    fn output(&self, dev: &Device) -> Vec<f64> {
        self.read_y(dev)
    }
}

impl Operands for su3::Su3Dev {
    fn slots(&self) -> Vec<Slot> {
        self.args().to_vec()
    }
    fn output(&self, dev: &Device) -> Vec<f64> {
        self.read_c(dev)
    }
}

impl Operands for ideal::IdealDev {
    fn slots(&self) -> Vec<Slot> {
        self.args().to_vec()
    }
    fn output(&self, dev: &Device) -> Vec<f64> {
        self.read_out(dev)
    }
}

impl Operands for laplace3d::Laplace3dDev {
    fn slots(&self) -> Vec<Slot> {
        self.args().to_vec()
    }
    fn output(&self, dev: &Device) -> Vec<f64> {
        self.read_out(dev)
    }
}

impl Operands for muram::MuramDev {
    fn slots(&self) -> Vec<Slot> {
        self.args().to_vec()
    }
    fn output(&self, dev: &Device) -> Vec<f64> {
        self.read_out(dev)
    }
}

/// One configuration: build, fresh device, upload (all set-up), one
/// launch (timed), then the output check. Returns simulated cycles.
fn config<D: Operands>(
    ctx: &mut Ctx<'_>,
    arch: ArchId,
    label: &str,
    build: impl FnOnce() -> CompiledKernel,
    upload: impl FnOnce(&mut Device) -> D,
    want: &[f64],
) -> u64 {
    let kern = ctx.build(build);
    let mut dev = ctx.setup(|| {
        let mut d = Device::new(arch.arch());
        d.set_sim_threads(Some(1));
        d
    });
    let ops = ctx.gen(|| upload(&mut dev));
    let stats = ctx.launch(&kern, &mut dev, &ops.slots());
    let ok = close(&ops.output(&dev), want);
    ctx.check(ok, 1, || format!("fig-sweep {label} on {arch}: output differs from the reference"));
    stats.cycles
}

/// Mean |ln(sim / paper)| over the quoted bars.
pub fn paper_err(sim: &[f64; 6]) -> f64 {
    sim.iter().zip(PAPER_BARS).map(|(s, p)| (s / p).ln().abs()).sum::<f64>() / 6.0
}

impl Workload for FigSweep {
    fn name(&self) -> &'static str {
        "fig-sweep"
    }

    fn nominal_round_s(&self) -> f64 {
        4.5
    }

    fn header(&self) -> Vec<(String, f64)> {
        let sz = &self.sz;
        vec![
            ("spmv_rows".into(), sz.spmv_rows as f64),
            ("su3_sites".into(), sz.su3_sites as f64),
            ("ideal_outer".into(), sz.ideal_outer as f64),
            ("fig10_n".into(), sz.fig10_n as f64),
            ("teams".into(), sz.teams as f64),
        ]
    }

    fn round(&self, ctx: &mut Ctx<'_>) {
        let (sz, seed) = (&self.sz, self.seed);
        let mat = ctx.gen(|| matrix(sz, seed));
        let su3_w = ctx.gen(|| su3::Su3Workload::generate(sz.su3_sites, seed));
        let ideal_w = ctx.gen(|| ideal::IdealWorkload::generate(sz.ideal_outer, seed));
        let lap_w = ctx.gen(|| Laplace3dWorkload::generate(sz.fig10_n));
        let mur_w = ctx.gen(|| MuramWorkload::generate(sz.fig10_n));
        let (x, want) = (&self.x, &self.want);
        let mut bars = [0.0; 6];
        for arch in ARCHS {
            let ws = arch.arch().warp_size;
            // Fig 9: each backend's 2-level spmv baseline uses one whole
            // warp per team (32 threads on a100, as in the paper).
            let base = config(
                ctx,
                arch,
                "spmv base",
                || spmv::build_two_level_on(sz.base_teams_spmv, ws),
                |d| spmv::SpmvDev::upload(d, &mat, x),
                &want.spmv,
            );
            for gs in GROUP_SIZES {
                let c = config(
                    ctx,
                    arch,
                    "spmv",
                    || spmv::build_three_level(sz.teams, sz.threads, gs),
                    |d| spmv::SpmvDev::upload(d, &mat, x),
                    &want.spmv,
                );
                if arch == ArchId::A100 && gs == 8 {
                    bars[0] = base as f64 / c as f64;
                }
            }
            let mut base = 0;
            for gs in [1].into_iter().chain(GROUP_SIZES) {
                let c = config(
                    ctx,
                    arch,
                    "su3",
                    || su3::build(sz.teams, sz.threads, gs),
                    |d| su3::Su3Dev::upload(d, &su3_w),
                    &want.su3,
                );
                base = if gs == 1 { c } else { base };
                if arch == ArchId::A100 && gs == 4 {
                    bars[1] = base as f64 / c as f64;
                }
            }
            for gs in [1].into_iter().chain(GROUP_SIZES) {
                let c = config(
                    ctx,
                    arch,
                    "ideal",
                    || ideal::build(sz.teams, sz.threads, gs),
                    |d| ideal::IdealDev::upload(d, &ideal_w),
                    &want.ideal,
                );
                base = if gs == 1 { c } else { base };
                if arch == ArchId::A100 && gs == 32 {
                    bars[2] = base as f64 / c as f64;
                }
            }
            // Fig 10: No SIMD is each kernel's baseline.
            for variant in Fig10Variant::ALL {
                let c = config(
                    ctx,
                    arch,
                    "laplace3d",
                    || laplace3d::build(sz.teams, sz.threads, variant),
                    |d| laplace3d::Laplace3dDev::upload(d, &lap_w),
                    &want.laplace,
                );
                base = if variant == Fig10Variant::NoSimd { c } else { base };
                if arch == ArchId::A100 && variant == Fig10Variant::GenericSimd {
                    bars[3] = base as f64 / c as f64;
                }
            }
            for (slot, which, want) in [
                (4, MuramKernel::Transpose, &want.transpose),
                (5, MuramKernel::Interpol, &want.interpol),
            ] {
                for variant in Fig10Variant::ALL {
                    let c = config(
                        ctx,
                        arch,
                        "muram",
                        || muram::build(which, sz.teams, sz.threads, variant),
                        |d| muram::MuramDev::upload(d, &mur_w),
                        want,
                    );
                    base = if variant == Fig10Variant::NoSimd { c } else { base };
                    if arch == ArchId::A100 && variant == Fig10Variant::GenericSimd {
                        bars[slot] = base as f64 / c as f64;
                    }
                }
            }
        }
        ctx.extra("paper_err", paper_err(&bars));
    }

    fn pinned_digest(&self) -> Option<u64> {
        pins::digest(self.name(), self.seed, self.smoke)
    }

    fn sim_threads(&self, _budget: usize) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_err_is_zero_on_the_paper_bars_and_symmetric() {
        assert_eq!(paper_err(&PAPER_BARS), 0.0);
        let mut twice = PAPER_BARS;
        twice[0] *= 2.0;
        let mut half = PAPER_BARS;
        half[0] /= 2.0;
        assert!((paper_err(&twice) - 2f64.ln() / 6.0).abs() < 1e-12);
        assert!((paper_err(&twice) - paper_err(&half)).abs() < 1e-12);
    }
}
