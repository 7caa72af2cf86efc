//! The in-tree kernel corpus: every kernel configuration the repository
//! makes claims about, in one table.
//!
//! Each [`Entry`] is one compiled plan with a seeded workload. The root
//! suite `tests/archmatrix.rs` launches every entry in every
//! `testkit::CELLS` cell, one test per kernel, and checks the host
//! reference, the tree-vs-bytecode oracle, the sanitizer, thread
//! invariance of the stats, a100 == mi100 output bits and the pinned
//! `tests/golden/launch_stats.txt`; `tests/bytecode.rs` runs every entry
//! through the oracle in every cell. `simtlint` lints every entry on both
//! backends, and `crates/codegen/tests/verify.rs` runs the flat-bytecode
//! verifier and its seeded mutants over it. A new builder in this crate is
//! added here; `tests/corpus.rs` fails on one that is not.
//!
//! Every entry lints without errors and launches on both registered
//! backends, so team sizes are whole 64-lane wavefronts. The team geometry
//! is the caller's: simtlint lints at benchmark size, the suite launches
//! at small sizes. The workloads are fixed and small.

use std::rc::Rc;

use gpu_sim::{Device, Slot};
use omp_codegen::CompiledKernel;
use omp_core::config::KernelConfig;

use crate::harness::Fig10Variant;
use crate::matrix::{CsrMatrix, RowProfile};
use crate::muram::MuramKernel;
use crate::stencil2d::Stencil2dVariant;
use crate::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};

/// One workload uploaded onto a device.
pub struct Workload {
    /// The launch's argument payload.
    pub args: Vec<Slot>,
    /// The host reference the output must match.
    pub want: Vec<f64>,
    /// The argument slot holding the output buffer.
    out: usize,
}

impl Workload {
    /// Read the host-visible output back after the launch.
    pub fn read(&self, dev: &Device) -> Vec<f64> {
        dev.global.read_slice(self.args[self.out].as_ptr::<f64>(), self.want.len())
    }
}

type Upload = Box<dyn Fn(&mut Device) -> Workload>;

/// One in-tree kernel configuration.
pub struct Entry {
    /// `"<kernel> <configuration>"`, unique in the corpus.
    pub name: String,
    /// The compiled plan.
    pub kernel: CompiledKernel,
    /// Argument slots a launch passes.
    pub nargs: usize,
    /// Largest absolute difference from the host reference the output may
    /// show: 0 where the kernel adds in the reference's order, more where
    /// atomics or a reduction tree reorder the sums.
    pub tol: f64,
    /// simtlint may warn on this plan: its staging does not fit the
    /// sharing space, in every geometry (a tight space) or in some (small
    /// groups on wide teams), and draws `W-FALLBACK`. A warning on any
    /// other entry fails `simtlint --deny-warnings` and the suite.
    pub warns: bool,
    upload: Upload,
}

impl Entry {
    /// The kernel this entry configures: the first word of its name.
    pub fn kernel(&self) -> &str {
        self.name.split(' ').next().unwrap_or_default()
    }

    /// Upload this entry's workload onto `dev`.
    pub fn upload(&self, dev: &mut Device) -> Workload {
        (self.upload)(dev)
    }
}

/// The `(simdlen, tile width, sharing bytes, variant, warns)` of each
/// stencil2d entry. 64 and 256 bytes leave the groups no staging slots,
/// so those two take the global-memory fallback and draw `W-FALLBACK`.
const STENCIL2D: [(u32, u64, u32, Stencil2dVariant, bool); 8] = [
    (8, 8, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared, false),
    (8, 5, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared, false),
    (32, 32, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared, false),
    (4, 3, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::HaloShared, false),
    (8, 8, 4096, Stencil2dVariant::HaloShared, false),
    (8, 6, 256, Stencil2dVariant::HaloShared, true),
    (8, 8, 64, Stencil2dVariant::HaloShared, true),
    (8, 7, KernelConfig::SHARING_SPACE_DEFAULT, Stencil2dVariant::SpmdRef, false),
];

/// Every in-tree kernel configuration at `teams` × `threads`, in a fixed
/// order. `threads` must be a multiple of 64.
pub fn entries(teams: u32, threads: u32) -> Vec<Entry> {
    let mut c = Corpus(Vec::new());
    let group_sizes = [1u32, 2, 4, 8, 16, 32];

    let w = Rc::new(ideal::IdealWorkload::generate(24, 7));
    for gs in group_sizes {
        c.add(format!("ideal gs={gs}"), ideal::build(teams, threads, gs), 4, 0.0, &w, upload_ideal);
    }
    let k = ideal::build_forced_generic(teams, threads, 8);
    c.add("ideal forced-generic gs=8".into(), k, 4, 0.0, &w, upload_ideal);

    let w = Rc::new(su3::Su3Workload::generate(24, 5));
    for gs in group_sizes {
        c.add(format!("su3 gs={gs}"), su3::build(teams, threads, gs), 4, 0.0, &w, upload_su3);
    }
    let k = su3::build_per_lane(teams, threads, 8);
    c.add("su3 per-lane gs=8".into(), k, 4, 0.0, &w, upload_su3);

    let mat = CsrMatrix::generate(64, 96, RowProfile::Banded { min: 4, max: 20 }, 11);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
    let w = Rc::new((mat, x));
    let k = spmv::build_two_level_on(teams, threads);
    c.add("spmv two-level".into(), k, 6, 1e-9, &w, upload_spmv);
    // At 128 threads, 64 groups of 2 leave each group too few staging
    // slots: simtlint warns there, not at 64 threads.
    for gs in group_sizes {
        let k = spmv::build_three_level(teams, threads, gs);
        c.add(format!("spmv three-level gs={gs}"), k, 6, 1e-9, &w, upload_spmv).warns = gs == 2;
    }
    for gs in [2u32, 8, 32] {
        let k = spmv::build_three_level_reduce(teams, threads, gs);
        let name = format!("spmv three-level-reduce gs={gs}");
        c.add(name, k, 6, 1e-9, &w, upload_spmv).warns = gs == 2;
    }

    let w = Rc::new(laplace3d::Laplace3dWorkload::generate(10));
    for v in Fig10Variant::ALL {
        let k = laplace3d::build(teams, threads, v);
        c.add(format!("laplace3d {}", v.label()), k, 3, 0.0, &w, upload_laplace3d);
    }

    for which in [MuramKernel::Transpose, MuramKernel::Interpol] {
        let w = Rc::new((muram::MuramWorkload::generate(10), which));
        for v in Fig10Variant::ALL {
            let k = muram::build(which, teams, threads, v);
            c.add(format!("muram {which:?} {}", v.label()), k, 3, 0.0, &w, upload_muram);
        }
    }

    let w = Rc::new(batched::BatchedWorkload::generate(8, 8, 8));
    for mode in [
        batched::DispatchMode::Cascade,
        batched::DispatchMode::Extern,
        batched::DispatchMode::Mixed,
    ] {
        let k = batched::build(teams, threads, 8, w.n_bodies, mode);
        c.add(format!("batched {mode:?} n=8"), k, 4, 0.0, &w, upload_batched);
    }

    let grid = Rc::new(stencil2d::Stencil2dWorkload::generate(34, 18));
    for (gs, tw, bytes, variant, warns) in STENCIL2D {
        let k = stencil2d::build(teams, threads, gs, bytes, variant);
        let name = format!("stencil2d {variant:?} gs={gs} tw={tw} sharing={bytes}");
        let w = Rc::new((Rc::clone(&grid), tw));
        c.add(name, k, 5, 0.0, &w, upload_stencil2d).warns = warns;
    }
    c.0
}

struct Corpus(Vec<Entry>);

impl Corpus {
    fn add<W: 'static>(
        &mut self,
        name: String,
        kernel: CompiledKernel,
        nargs: usize,
        tol: f64,
        w: &Rc<W>,
        upload: fn(&mut Device, &W) -> Workload,
    ) -> &mut Entry {
        let w = Rc::clone(w);
        let upload = Box::new(move |dev: &mut Device| upload(dev, &w));
        self.0.push(Entry { name, kernel, nargs, tol, warns: false, upload });
        self.0.last_mut().unwrap()
    }
}

fn upload_ideal(dev: &mut Device, w: &ideal::IdealWorkload) -> Workload {
    let args = ideal::IdealDev::upload(dev, w).args().to_vec();
    Workload { args, want: w.reference(), out: 1 }
}

fn upload_su3(dev: &mut Device, w: &su3::Su3Workload) -> Workload {
    let args = su3::Su3Dev::upload(dev, w).args().to_vec();
    Workload { args, want: w.reference(), out: 2 }
}

fn upload_spmv(dev: &mut Device, (mat, x): &(CsrMatrix, Vec<f64>)) -> Workload {
    let args = spmv::SpmvDev::upload(dev, mat, x).args().to_vec();
    Workload { args, want: mat.spmv_ref(x), out: 4 }
}

fn upload_laplace3d(dev: &mut Device, w: &laplace3d::Laplace3dWorkload) -> Workload {
    let args = laplace3d::Laplace3dDev::upload(dev, w).args().to_vec();
    Workload { args, want: w.reference(), out: 1 }
}

fn upload_muram(dev: &mut Device, (w, which): &(muram::MuramWorkload, MuramKernel)) -> Workload {
    let args = muram::MuramDev::upload(dev, w).args().to_vec();
    Workload { args, want: w.reference(*which), out: 1 }
}

fn upload_batched(dev: &mut Device, w: &batched::BatchedWorkload) -> Workload {
    let args = batched::BatchedDev::upload(dev, w).args().to_vec();
    Workload { args, want: w.reference(), out: 1 }
}

fn upload_stencil2d(
    dev: &mut Device,
    (w, tw): &(Rc<stencil2d::Stencil2dWorkload>, u64),
) -> Workload {
    let args = stencil2d::Stencil2dDev::upload(dev, w, *tw).args().to_vec();
    Workload { args, want: w.reference(), out: 1 }
}
