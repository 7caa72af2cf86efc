//! `timestep`: the repeated-launch pattern of a real application.
//!
//! Each leg keeps one long-lived device, driven the way
//! `examples/heat3d.rs` drives it: `ManagedDevice::map_to` once, many
//! ping-pong launches, `map_from` at the end, on `min(2, nproc)` simulator
//! threads. This exercises per-launch fixed cost, the block merge and
//! makespan, the parallel block engine, and sharing-space fallback arenas
//! on a device that outlives one launch — none of which `fig-sweep` sees.

use std::time::Instant;

use gpu_sim::{Device, Slot};
use omp_codegen::CompiledKernel;
use omp_host::ManagedDevice;
use omp_kernels::harness::Fig10Variant;
use omp_kernels::laplace3d::{self, Laplace3dWorkload};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::spmv;
use omp_kernels::stencil2d::{self, Stencil2dVariant, Stencil2dWorkload};

use crate::pins;
use crate::work::{close, laplace_sweeps, stencil_sweeps, Ctx, Workload};

/// Problem sizes and launch counts of one round.
pub struct Sizes {
    heat_n: usize,
    heat_sweeps: usize,
    halo: (usize, usize),
    halo_sweeps: usize,
    fallback: (usize, usize),
    fallback_sweeps: usize,
    strong_launches: usize,
    cg_rows: usize,
    cg_steps: usize,
    teams: u32,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                heat_n: 8,
                heat_sweeps: 3,
                halo: (34, 10),
                halo_sweeps: 2,
                fallback: (34, 10),
                fallback_sweeps: 2,
                strong_launches: 3,
                cg_rows: 256,
                cg_steps: 3,
                teams: 4,
            }
        } else {
            Sizes {
                heat_n: 48,
                heat_sweeps: 30,
                halo: (258, 130),
                halo_sweeps: 40,
                fallback: (130, 66),
                fallback_sweeps: 6,
                strong_launches: 1_000,
                cg_rows: 8_192,
                cg_steps: 10,
                teams: 108,
            }
        }
    }
}

/// Threads per team of every leg.
const THREADS: u32 = 128;
/// SIMD group size and tile width of the stencil legs.
const SIMDLEN: u32 = 8;
/// Sharing space of the `halo` leg (the paper's default) and of the
/// `halo-fallback` leg, where every tile's staging takes the global-memory
/// fallback.
const HALO_BYTES: u32 = 2048;
const FALLBACK_BYTES: u32 = 256;
/// Edge of the strong-scaling laplace3d grid and the strong stencil grid.
const STRONG_N: usize = 6;
const STRONG_GRID: (usize, usize) = (26, 14);

/// Iterated host references, computed once per run.
struct Refs {
    heat: Vec<f64>,
    halo: Vec<f64>,
    fallback: Vec<f64>,
    strong_laplace: Vec<f64>,
    strong_stencil: Vec<f64>,
    cg: Vec<f64>,
}

/// The timestep workload.
pub struct Timestep {
    seed: u64,
    smoke: bool,
    sz: Sizes,
    cg_mat: CsrMatrix,
    cg_x: Vec<f64>,
    want: Refs,
}

impl Timestep {
    /// Inputs from `seed`: the matrix of the `cg` leg.
    pub fn new(seed: u64, smoke: bool) -> Timestep {
        let sz = Sizes::new(smoke);
        let cg_mat = CsrMatrix::generate(
            sz.cg_rows,
            sz.cg_rows,
            RowProfile::Banded { min: 4, max: 44 },
            seed,
        );
        let cg_x: Vec<f64> = (0..sz.cg_rows).map(|i| ((i * 7) % 17) as f64 * 0.125 - 1.0).collect();
        let mut cg = cg_x.clone();
        for _ in 0..sz.cg_steps {
            cg = cg_mat.spmv_ref(&cg);
        }
        let want = Refs {
            heat: laplace_sweeps(sz.heat_n, sz.heat_sweeps),
            halo: stencil_sweeps(sz.halo, sz.halo_sweeps),
            fallback: stencil_sweeps(sz.fallback, sz.fallback_sweeps),
            strong_laplace: laplace_sweeps(STRONG_N, sz.strong_launches),
            strong_stencil: stencil_sweeps(STRONG_GRID, sz.strong_launches),
            cg,
        };
        Timestep { seed, smoke, sz, cg_mat, cg_x, want }
    }
}

/// One leg's device-side shape: the pointer slots before the ping-pong
/// pair, the scalar slots after it, and whether the destination must be
/// zeroed before each launch (atomic accumulation).
struct Shape {
    pre: Vec<Slot>,
    post: Vec<Slot>,
    zero_dst: bool,
}

/// Run one leg: build the kernel and map both ping-pong buffers (set-up),
/// launch `launches` times swapping source and destination (timed), map
/// the buffers back, and check the last destination against `want`.
/// Returns the wall of each launch.
#[allow(clippy::too_many_arguments)]
fn leg(
    ctx: &mut Ctx<'_>,
    name: &str,
    build: impl FnOnce() -> CompiledKernel,
    init: (&[f64], &[f64]),
    shape: impl FnOnce(&mut ManagedDevice) -> Shape,
    launches: usize,
    want: &[f64],
) -> Vec<f64> {
    let kern = ctx.build(build);
    let threads = ctx.sim_threads;
    let mut md = ctx.setup(|| {
        let mut dev = Device::a100();
        dev.set_sim_threads(Some(threads));
        ManagedDevice::new(dev)
    });
    let (mut a, mut b) = (init.0.to_vec(), init.1.to_vec());
    let (pa, pb) = ctx.map(|| (md.map_to(&a), md.map_to(&b)));
    let shape = ctx.map(|| shape(&mut md));
    let zeros = vec![0.0; if shape.zero_dst { b.len() } else { 0 }];
    let mut walls = Vec::with_capacity(launches);
    for s in 0..launches {
        let (src, dst) = if s % 2 == 0 { (pa, pb) } else { (pb, pa) };
        let args: Vec<Slot> = shape
            .pre
            .iter()
            .copied()
            .chain([Slot::from_ptr(src), Slot::from_ptr(dst)])
            .chain(shape.post.iter().copied())
            .collect();
        let t = Instant::now();
        if shape.zero_dst {
            ctx.timed(|| md.dev.global.write_slice(dst, &zeros));
        }
        ctx.launch(&kern, &mut md.dev, &args);
        walls.push(t.elapsed().as_secs_f64());
    }
    ctx.map(|| {
        md.map_from(&mut a);
        md.map_from(&mut b);
    });
    let got = if launches % 2 == 1 { &b } else { &a };
    ctx.check(close(got, want), launches as u64, || {
        format!("timestep {name}: grid after {launches} launches differs from the host reference")
    });
    walls
}

/// Scalar slots of a stencil2d launch.
fn stencil_post((nx, ny): (usize, usize)) -> Vec<Slot> {
    vec![Slot::from_u64(nx as u64), Slot::from_u64(ny as u64), Slot::from_u64(SIMDLEN as u64)]
}

impl Workload for Timestep {
    fn name(&self) -> &'static str {
        "timestep"
    }

    fn nominal_round_s(&self) -> f64 {
        2.0
    }

    fn header(&self) -> Vec<(String, f64)> {
        let sz = &self.sz;
        vec![
            ("heat_n".into(), sz.heat_n as f64),
            ("heat_sweeps".into(), sz.heat_sweeps as f64),
            ("halo_sweeps".into(), sz.halo_sweeps as f64),
            ("fallback_sweeps".into(), sz.fallback_sweeps as f64),
            ("strong_launches".into(), sz.strong_launches as f64),
            ("cg_rows".into(), sz.cg_rows as f64),
            ("cg_steps".into(), sz.cg_steps as f64),
        ]
    }

    fn round(&self, ctx: &mut Ctx<'_>) {
        let (sz, want) = (&self.sz, &self.want);
        let teams = sz.teams;
        let laplace = |n: usize| {
            move |_: &mut ManagedDevice| Shape {
                pre: vec![],
                post: vec![Slot::from_u64(n as u64)],
                zero_dst: false,
            }
        };
        let stencil = |grid| {
            move |_: &mut ManagedDevice| Shape {
                pre: vec![],
                post: stencil_post(grid),
                zero_dst: false,
            }
        };

        let u = ctx.gen(|| Laplace3dWorkload::generate(sz.heat_n).u);
        leg(
            ctx,
            "heat",
            || laplace3d::build(teams, THREADS, Fig10Variant::SpmdSimd),
            (&u, &u),
            laplace(sz.heat_n),
            sz.heat_sweeps,
            &want.heat,
        );

        let u = ctx.gen(|| Stencil2dWorkload::generate(sz.halo.0, sz.halo.1).u);
        leg(
            ctx,
            "halo",
            || stencil2d::build(teams, THREADS, SIMDLEN, HALO_BYTES, Stencil2dVariant::HaloShared),
            (&u, &u),
            stencil(sz.halo),
            sz.halo_sweeps,
            &want.halo,
        );

        let u = ctx.gen(|| Stencil2dWorkload::generate(sz.fallback.0, sz.fallback.1).u);
        let walls = leg(
            ctx,
            "halo-fallback",
            || {
                let variant = Stencil2dVariant::HaloShared;
                stencil2d::build(teams, THREADS, SIMDLEN, FALLBACK_BYTES, variant)
            },
            (&u, &u),
            stencil(sz.fallback),
            sz.fallback_sweeps,
            &want.fallback,
        );
        if let (Some(first), Some(last)) = (walls.first(), walls.last()) {
            ctx.extra("fallback_growth", last / first);
        }

        let u = ctx.gen(|| Laplace3dWorkload::generate(STRONG_N).u);
        leg(
            ctx,
            "strong laplace3d",
            || laplace3d::build(teams, THREADS, Fig10Variant::SpmdSimd),
            (&u, &u),
            laplace(STRONG_N),
            sz.strong_launches,
            &want.strong_laplace,
        );

        let u = ctx.gen(|| Stencil2dWorkload::generate(STRONG_GRID.0, STRONG_GRID.1).u);
        leg(
            ctx,
            "strong stencil2d",
            || stencil2d::build(teams, THREADS, SIMDLEN, 0, Stencil2dVariant::SpmdRef),
            (&u, &u),
            stencil(STRONG_GRID),
            sz.strong_launches,
            &want.strong_stencil,
        );

        let mat = &self.cg_mat;
        let zeros = vec![0.0; mat.nrows];
        leg(
            ctx,
            "cg",
            || spmv::build_three_level(teams, THREADS, SIMDLEN),
            (&self.cg_x, &zeros),
            |md: &mut ManagedDevice| Shape {
                pre: vec![
                    Slot::from_ptr(md.map_to(&mat.row_ptr)),
                    Slot::from_ptr(md.map_to(&mat.col_idx)),
                    Slot::from_ptr(md.map_to(&mat.values)),
                ],
                post: vec![Slot::from_u64(mat.nrows as u64)],
                zero_dst: true,
            },
            sz.cg_steps,
            &want.cg,
        );
    }

    fn pinned_digest(&self) -> Option<u64> {
        pins::digest(self.name(), self.seed, self.smoke)
    }
}
