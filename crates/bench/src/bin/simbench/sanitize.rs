//! `sanitize`: simtcheck in adaptive mode on one simulator thread.
//!
//! Sanitized launches take the tree walker (`omp_core::exec`), which no
//! other workload runs, so this is where a change to the instrumented
//! lane path shows. Every launch must be violation-free, except the seeded
//! negative `stencil2d::demo_halo_staging(sync = false)`, which must
//! report exactly its pinned violation set.

use gpu_sim::{Device, Slot};
use omp_kernels::harness::Fig10Variant;
use omp_kernels::laplace3d::{self, Laplace3dWorkload};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::muram::{self, MuramKernel, MuramWorkload};
use omp_kernels::stencil2d::{self, Stencil2dVariant, Stencil2dWorkload};
use omp_kernels::{ideal, spmv};

use crate::pins;
use crate::trace::Layer;
use crate::work::{close, laplace_sweeps, stencil_sweeps, Ctx, Kern, Workload};

/// Problem sizes and launch counts of one round.
pub struct Sizes {
    fig10_n: usize,
    halo: (usize, usize),
    halo_sweeps: usize,
    ideal_outer: usize,
    spmv_rows: usize,
    repeats: usize,
    strong_launches: usize,
    teams: u32,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                fig10_n: 8,
                halo: (34, 10),
                halo_sweeps: 2,
                ideal_outer: 64,
                spmv_rows: 128,
                repeats: 2,
                strong_launches: 2,
                teams: 4,
            }
        } else {
            Sizes {
                fig10_n: 48,
                halo: (258, 130),
                halo_sweeps: 25,
                ideal_outer: 13_824,
                spmv_rows: 16_384,
                repeats: 4,
                strong_launches: 500,
                teams: 108,
            }
        }
    }
}

const THREADS: u32 = 128;
const SIMDLEN: u32 = 8;
const STRONG_N: usize = 6;
const STRONG_GRID: (usize, usize) = (26, 14);

/// Host references, computed once per run.
struct Refs {
    laplace: Vec<f64>,
    transpose: Vec<f64>,
    interpol: Vec<f64>,
    halo: Vec<f64>,
    ideal: Vec<f64>,
    spmv: Vec<f64>,
    strong_laplace: Vec<f64>,
    strong_stencil: Vec<f64>,
    demo_row: Vec<f64>,
    demo_blend: Vec<f64>,
}

/// The sanitize workload.
pub struct Sanitize {
    seed: u64,
    smoke: bool,
    sz: Sizes,
    mat: CsrMatrix,
    x: Vec<f64>,
    want: Refs,
}

impl Sanitize {
    /// Inputs from `seed`: the spmv matrix and ideal data.
    pub fn new(seed: u64, smoke: bool) -> Sanitize {
        let sz = Sizes::new(smoke);
        let mat = CsrMatrix::generate(
            sz.spmv_rows,
            sz.spmv_rows,
            RowProfile::Banded { min: 4, max: 44 },
            seed,
        );
        let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
        let mur = MuramWorkload::generate(sz.fig10_n);
        let demo_row: Vec<f64> = (0..64).map(|x| (x * 3 % 23) as f64).collect();
        let want = Refs {
            laplace: Laplace3dWorkload::generate(sz.fig10_n).reference(),
            transpose: mur.reference(MuramKernel::Transpose),
            interpol: mur.reference(MuramKernel::Interpol),
            halo: stencil_sweeps(sz.halo, sz.halo_sweeps),
            ideal: ideal::IdealWorkload::generate(sz.ideal_outer, seed).reference(),
            spmv: mat.spmv_ref(&x),
            strong_laplace: laplace_sweeps(STRONG_N, sz.strong_launches),
            strong_stencil: stencil_sweeps(STRONG_GRID, sz.strong_launches),
            demo_blend: (1..=32).map(|j| (demo_row[j - 1] + demo_row[j + 1]) / 2.0).collect(),
            demo_row,
        };
        Sanitize { seed, smoke, sz, mat, x, want }
    }
}

/// A fresh sanitized a100 device on one simulator thread.
fn sanitized(ctx: &mut Ctx<'_>) -> Device {
    ctx.setup(|| {
        let mut d = Device::a100();
        d.set_sim_threads(Some(1));
        d.enable_sanitizer();
        d
    })
}

/// Launch `launches` times, running `before` ahead of each launch. With
/// `ping_pong`, slots 0 and 1 swap after every launch so each launch reads
/// the previous one's output; slot 0 then holds the last output.
fn repeat(
    ctx: &mut Ctx<'_>,
    kern: &Kern,
    dev: &mut Device,
    mut args: Vec<Slot>,
    launches: usize,
    ping_pong: bool,
    mut before: impl FnMut(&mut Device),
) -> Vec<Slot> {
    for _ in 0..launches {
        ctx.timed(|| before(dev));
        ctx.launch(kern, dev, &args);
        if ping_pong {
            args.swap(0, 1);
        }
    }
    args
}

/// Ping-pong `launches` sweeps over slots 0 and 1, then check the last
/// output against `want`; a mismatch fails every launch of the leg.
fn ping_pong(
    ctx: &mut Ctx<'_>,
    name: &str,
    kern: &Kern,
    dev: &mut Device,
    args: Vec<Slot>,
    launches: usize,
    want: &[f64],
) {
    let out = repeat(ctx, kern, dev, args, launches, true, |_| ());
    let got = dev.global.read_slice(out[0].as_ptr::<f64>(), want.len());
    ctx.check(close(&got, want), launches as u64, || {
        format!("sanitize {name}: output differs from the host reference")
    });
}

impl Workload for Sanitize {
    fn name(&self) -> &'static str {
        "sanitize"
    }

    fn nominal_round_s(&self) -> f64 {
        1.5
    }

    fn header(&self) -> Vec<(String, f64)> {
        let sz = &self.sz;
        vec![
            ("fig10_n".into(), sz.fig10_n as f64),
            ("halo_sweeps".into(), sz.halo_sweeps as f64),
            ("ideal_outer".into(), sz.ideal_outer as f64),
            ("spmv_rows".into(), sz.spmv_rows as f64),
            ("repeats".into(), sz.repeats as f64),
            ("strong_launches".into(), sz.strong_launches as f64),
        ]
    }

    fn round(&self, ctx: &mut Ctx<'_>) {
        let (sz, want) = (&self.sz, &self.want);
        let teams = sz.teams;

        // The Fig 10 kernels, every variant, one launch each.
        let lap_w = ctx.gen(|| Laplace3dWorkload::generate(sz.fig10_n));
        let mur_w = ctx.gen(|| MuramWorkload::generate(sz.fig10_n));
        for variant in Fig10Variant::ALL {
            let kern = ctx.build(|| laplace3d::build(teams, THREADS, variant));
            let mut dev = sanitized(ctx);
            let ops = ctx.gen(|| laplace3d::Laplace3dDev::upload(&mut dev, &lap_w));
            ctx.launch(&kern, &mut dev, &ops.args());
            let ok = close(&ops.read_out(&dev), &want.laplace);
            ctx.check(ok, 1, || format!("sanitize laplace3d {variant:?}: output differs"));
            for (which, want) in
                [(MuramKernel::Transpose, &want.transpose), (MuramKernel::Interpol, &want.interpol)]
            {
                let kern = ctx.build(|| muram::build(which, teams, THREADS, variant));
                let mut dev = sanitized(ctx);
                let ops = ctx.gen(|| muram::MuramDev::upload(&mut dev, &mur_w));
                ctx.launch(&kern, &mut dev, &ops.args());
                let ok = close(&ops.read_out(&dev), want);
                ctx.check(ok, 1, || format!("sanitize muram {which:?}: output differs"));
            }
        }

        // Halo staging through the sharing space, ping-pong sweeps.
        let w = ctx.gen(|| Stencil2dWorkload::generate(sz.halo.0, sz.halo.1));
        let kern = ctx.build(|| {
            stencil2d::build(teams, THREADS, SIMDLEN, 2048, Stencil2dVariant::HaloShared)
        });
        let mut dev = sanitized(ctx);
        let ops = ctx.gen(|| stencil2d::Stencil2dDev::upload(&mut dev, &w, SIMDLEN as u64));
        ping_pong(ctx, "halo", &kern, &mut dev, ops.args().to_vec(), sz.halo_sweeps, &want.halo);

        // ideal at gs 8, repeated launches on one device.
        let w = ctx.gen(|| ideal::IdealWorkload::generate(sz.ideal_outer, self.seed));
        let kern = ctx.build(|| ideal::build(teams, THREADS, SIMDLEN));
        let mut dev = sanitized(ctx);
        let ops = ctx.gen(|| ideal::IdealDev::upload(&mut dev, &w));
        repeat(ctx, &kern, &mut dev, ops.args().to_vec(), sz.repeats, false, |_| ());
        let ok = close(&ops.read_out(&dev), &want.ideal);
        ctx.check(ok, sz.repeats as u64, || "sanitize ideal: output differs".into());

        // spmv at gs 8; the output is zeroed before each launch.
        let kern = ctx.build(|| spmv::build_three_level(teams, THREADS, SIMDLEN));
        let mut dev = sanitized(ctx);
        let ops = ctx.gen(|| spmv::SpmvDev::upload(&mut dev, &self.mat, &self.x));
        repeat(ctx, &kern, &mut dev, ops.args().to_vec(), sz.repeats, false, |d| ops.reset_y(d));
        let ok = close(&ops.read_y(&dev), &want.spmv);
        ctx.check(ok, sz.repeats as u64, || "sanitize spmv: output differs".into());

        // The strong-scaling legs: tiny grids on the full team grid.
        let w = ctx.gen(|| Laplace3dWorkload::generate(STRONG_N));
        let kern = ctx.build(|| laplace3d::build(teams, THREADS, Fig10Variant::SpmdSimd));
        let mut dev = sanitized(ctx);
        let args = ctx.gen(|| laplace3d::Laplace3dDev::upload(&mut dev, &w)).args().to_vec();
        let launches = sz.strong_launches;
        ping_pong(ctx, "strong laplace3d", &kern, &mut dev, args, launches, &want.strong_laplace);

        let w = ctx.gen(|| Stencil2dWorkload::generate(STRONG_GRID.0, STRONG_GRID.1));
        let kern =
            ctx.build(|| stencil2d::build(teams, THREADS, SIMDLEN, 0, Stencil2dVariant::SpmdRef));
        let mut dev = sanitized(ctx);
        let ops = ctx.gen(|| stencil2d::Stencil2dDev::upload(&mut dev, &w, SIMDLEN as u64));
        let args = ops.args().to_vec();
        ping_pong(ctx, "strong stencil2d", &kern, &mut dev, args, launches, &want.strong_stencil);

        // The seeded negative: a forgotten warp sync between the halo post
        // and the lanes' reads must report exactly the pinned races.
        let mut dev = sanitized(ctx);
        let tr = ctx.tr;
        let op = tr.next_op();
        let stats = ctx.timed(|| {
            tr.span(Layer::SimLaunch, op, || stencil2d::demo_halo_staging(&mut dev, false))
        });
        ctx.record_expecting(&stats, pins::HALO_DEMO_RACES);

        // The synced plan-built demo must be lint-clean and sanitizer-clean.
        let kern = ctx.build(|| stencil2d::build_halo_demo(true));
        let mut dev = sanitized(ctx);
        if kern.k.lint(&dev.arch, 2).has_errors() {
            ctx.attempt(1);
            ctx.fail("sanitize halo demo (sync): simtlint reports errors", 1);
            return;
        }
        let (row, out) =
            ctx.gen(|| (dev.global.alloc_from(&want.demo_row), dev.global.alloc_zeroed::<f64>(32)));
        ctx.launch(&kern, &mut dev, &[Slot::from_ptr(row), Slot::from_ptr(out)]);
        let ok = dev.global.read_slice(out, 32) == want.demo_blend;
        ctx.check(ok, 1, || "sanitize halo demo (sync): wrong blend".into());
    }

    fn pinned_digest(&self) -> Option<u64> {
        pins::digest(self.name(), self.seed, self.smoke)
    }

    fn sim_threads(&self, _budget: usize) -> usize {
        1
    }
}
