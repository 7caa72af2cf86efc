//! Differential property suite: the flat-bytecode engine against the
//! tree-walk oracle.
//!
//! Every case goes through [`CompiledKernel::launch_oracle`], which runs
//! the tree walker, snapshots the memory image, rewinds, runs the bytecode
//! engine, and asserts bit-identical [`LaunchStats`] (cycles, every runtime
//! counter) and host-visible memory. The matrix covers every in-tree kernel
//! and a seeded stream of random plans, each × block-execution thread
//! counts {1, 4} × sanitizer {off, on}. In the sanitized cells both legs
//! run sanitized and the oracle compares their violation lists too; a
//! kernel simtlint accepts must also come out violation-free.

use simt_omp::codegen::CompiledKernel;
use simt_omp::gpu::{Device, DeviceArch, Slot};
use simt_omp::kernels::harness::Fig10Variant;
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::plangen::{self, random_kernel};
use simt_omp::kernels::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};
use testkit::{cases, CELLS};

/// Run one kernel through the oracle in every `testkit::CELLS` thread count
/// and sanitizer setting. `setup` uploads the workload and returns the argument payload.
/// Lint-clean kernels must run violation-free; the rest (e.g. a zero-byte
/// sharing space, whose team posts leak their fallbacks) must only agree.
fn oracle_matrix(
    label: &str,
    k: &CompiledKernel,
    arch: &DeviceArch,
    mut setup: impl FnMut(&mut Device) -> Vec<Slot>,
) {
    for cell in &CELLS {
        let mut dev = Device::new(arch.clone());
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
        let args = setup(&mut dev);
        let stats = k
            .launch_oracle(&mut dev, &args)
            .unwrap_or_else(|e| panic!("{label} ({cell:?}): {e:?}"));
        if !k.lint(arch, args.len()).has_errors() {
            assert!(stats.violations.is_empty(), "{label}: {:#?}", stats.violations);
        }
    }
}

#[test]
fn ideal_kernel_engines_agree() {
    let w = ideal::IdealWorkload::generate(48, 7);
    for gs in [1u32, 8, 32] {
        let k = ideal::build(4, 64, gs);
        oracle_matrix(&format!("ideal gs={gs}"), &k, &DeviceArch::a100(), |dev| {
            ideal::IdealDev::upload(dev, &w).args().to_vec()
        });
    }
    // Forced-generic variant: state-machine posting + staged dispatch.
    let k = ideal::build_forced_generic(2, 64, 8);
    oracle_matrix("ideal forced-generic", &k, &DeviceArch::a100(), |dev| {
        ideal::IdealDev::upload(dev, &w).args().to_vec()
    });
}

#[test]
fn su3_kernel_engines_agree() {
    let w = su3::Su3Workload::generate(32, 5);
    let k = su3::build(4, 64, 8);
    oracle_matrix("su3", &k, &DeviceArch::a100(), |dev| {
        su3::Su3Dev::upload(dev, &w).args().to_vec()
    });
}

#[test]
fn stencil2d_kernel_engines_agree() {
    let w = stencil2d::Stencil2dWorkload::generate(34, 18);
    // Tight sharing budgets force the zero-slot / overflow global-fallback
    // staging paths through both engines.
    for sharing in [0u32, 64, 4096] {
        let k = stencil2d::build(2, 64, 8, sharing, stencil2d::Stencil2dVariant::HaloShared);
        oracle_matrix(&format!("stencil2d sharing={sharing}"), &k, &DeviceArch::a100(), |dev| {
            stencil2d::Stencil2dDev::upload(dev, &w, 8).args().to_vec()
        });
    }
    let k = stencil2d::build_default(2, 64, 8);
    oracle_matrix("stencil2d default", &k, &DeviceArch::a100(), |dev| {
        stencil2d::Stencil2dDev::upload(dev, &w, 8).args().to_vec()
    });
}

#[test]
fn muram_kernels_engines_agree() {
    let w = muram::MuramWorkload::generate(12);
    for which in [muram::MuramKernel::Transpose, muram::MuramKernel::Interpol] {
        for variant in Fig10Variant::ALL {
            let k = muram::build(which, 2, 64, variant);
            oracle_matrix(
                &format!("muram {which:?} {}", variant.label()),
                &k,
                &DeviceArch::a100(),
                |dev| muram::MuramDev::upload(dev, &w).args().to_vec(),
            );
        }
    }
}

#[test]
fn laplace3d_kernel_engines_agree() {
    let w = laplace3d::Laplace3dWorkload::generate(14);
    for variant in Fig10Variant::ALL {
        let k = laplace3d::build(2, 64, variant);
        oracle_matrix(&format!("laplace3d {}", variant.label()), &k, &DeviceArch::a100(), |dev| {
            laplace3d::Laplace3dDev::upload(dev, &w).args().to_vec()
        });
    }
}

#[test]
fn batched_kernel_engines_agree() {
    let w = batched::BatchedWorkload::generate(4, 8, 8);
    for mode in [
        batched::DispatchMode::Cascade,
        batched::DispatchMode::Extern,
        batched::DispatchMode::Mixed,
    ] {
        let k = batched::build(2, 64, 8, w.n_bodies, mode);
        oracle_matrix(&format!("batched {mode:?}"), &k, &DeviceArch::a100(), |dev| {
            batched::BatchedDev::upload(dev, &w).args().to_vec()
        });
    }
}

#[test]
fn spmv_kernels_engines_agree() {
    let mat = CsrMatrix::generate(96, 128, RowProfile::Banded { min: 4, max: 24 }, 11);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
    let kernels = [
        ("two-level", spmv::build_two_level(8)),
        ("three-level", spmv::build_three_level(8, 64, 8)),
        ("three-level-reduce", spmv::build_three_level_reduce(8, 64, 8)),
    ];
    for (name, k) in &kernels {
        oracle_matrix(&format!("spmv {name}"), k, &DeviceArch::a100(), |dev| {
            spmv::SpmvDev::upload(dev, &mat, &x).args().to_vec()
        });
    }
}

#[test]
fn amd_sequential_fallback_engines_agree() {
    // mi100 has no independent warp scheduling: generic-mode simd loops
    // take the sequential fallback (§5.4.1) — replicated by the bytecode
    // engine counter for counter.
    let w = ideal::IdealWorkload::generate(24, 3);
    let k = ideal::build_forced_generic(2, 64, 8);
    oracle_matrix("ideal on mi100", &k, &DeviceArch::mi100(), |dev| {
        ideal::IdealDev::upload(dev, &w).args().to_vec()
    });
}

#[test]
fn random_plans_engines_agree() {
    // Plans come from the shared seeded generator
    // (`omp_kernels::plangen`), whose kernels are deterministic under
    // parallel block execution — the property the oracle needs.
    let mut cells = CELLS.iter().cycle();
    cases("random_plans_engines_agree", 40, |rng| {
        let cell = cells.next().unwrap();
        let (k, arch) = random_kernel(rng);
        // The thread-count and sanitizer draws the cells replaced.
        let _ = (rng.flip(), rng.range_u32(0, 4));
        let mut dev = Device::new(arch);
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
        let out = dev.global.alloc_zeroed::<f64>(plangen::OUT_SLOTS);
        let tbl = dev.global.alloc_from(&[rng.range_u64(0, 7), rng.range_u64(1, 9)]);
        let n = rng.range_u64(1, 7);
        let args = [Slot::from_ptr(out), Slot::from_ptr(tbl), Slot::from_u64(n)];
        k.launch_oracle(&mut dev, &args).unwrap();
    });
}
