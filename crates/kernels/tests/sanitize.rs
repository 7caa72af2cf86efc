//! The paper's benchmark kernels run simtcheck-clean: every launch of the
//! §6 workloads reports zero protocol violations with the sanitizer on.
//!
//! Every test runs in each of `testkit::CELLS` (64-thread teams
//! throughout), so the mi100 cells re-prove cleanliness where generic-simd
//! regions run through sequential-simd legalization, and the oracle cells
//! compare both engines' violation lists.

use gpu_sim::{ArchId, Device, Slot, Violation};
use omp_codegen::CompiledKernel;
use omp_kernels::harness::{max_abs_err, Fig10Variant};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};
use testkit::{Cell, CELLS};

/// A sanitized device on `cell`'s backend and thread count.
fn sanitized(cell: &Cell) -> Device {
    let mut d = Device::new(ArchId::lookup(cell.arch).unwrap().arch());
    d.set_sim_threads(cell.threads);
    d.enable_sanitizer();
    d
}

/// In an oracle cell, launch `k` on both engines (asserting equal stats,
/// violation lists included) before the kernel's own `run`.
fn oracle(cell: &Cell, dev: &mut Device, k: &CompiledKernel, args: &[Slot]) {
    if cell.oracle {
        k.launch_oracle(dev, args).unwrap();
    }
}

#[test]
fn spmv_runs_sanitizer_clean() {
    let mat = CsrMatrix::generate(96, 96, RowProfile::Banded { min: 2, max: 24 }, 7);
    let x: Vec<f64> = (0..96).map(|i| (i % 5) as f64).collect();
    for cell in &CELLS {
        for gs in [1, 8, 32] {
            let mut dev = sanitized(cell);
            let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
            let k = spmv::build_three_level(4, 64, gs);
            oracle(cell, &mut dev, &k, &ops.args());
            let (_, stats) = spmv::run(&mut dev, &k, &ops);
            assert!(stats.violations.is_empty(), "{cell:?} gs {gs}: {:#?}", stats.violations);
            let k = spmv::build_three_level_reduce(4, 64, gs.max(2));
            oracle(cell, &mut dev, &k, &ops.args());
            let (_, stats) = spmv::run(&mut dev, &k, &ops);
            assert!(
                stats.violations.is_empty(),
                "{cell:?} reduce gs {gs}: {:#?}",
                stats.violations
            );
        }
    }
}

#[test]
fn su3_and_ideal_run_sanitizer_clean() {
    for cell in &CELLS {
        let w = su3::Su3Workload::generate(48, 3);
        let mut dev = sanitized(cell);
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        let k = su3::build(4, 64, 8);
        oracle(cell, &mut dev, &k, &ops.args());
        let (_, stats) = su3::run(&mut dev, &k, &ops);
        assert!(stats.violations.is_empty(), "{cell:?}: {:#?}", stats.violations);

        let w = ideal::IdealWorkload::generate(64, 5);
        let mut dev = sanitized(cell);
        let ops = ideal::IdealDev::upload(&mut dev, &w);
        let k = ideal::build(4, 64, 8);
        oracle(cell, &mut dev, &k, &ops.args());
        let (_, stats) = ideal::run(&mut dev, &k, &ops);
        assert!(stats.violations.is_empty(), "{cell:?}: {:#?}", stats.violations);
    }
}

#[test]
fn stencil2d_runs_sanitizer_clean() {
    // Halo staging through the sharing space — including the zero-slot
    // global-fallback configuration — must be race-free under simtcheck.
    let w = stencil2d::Stencil2dWorkload::generate(34, 12);
    let want = w.reference();
    for cell in &CELLS {
        for (variant, bytes) in [
            (stencil2d::Stencil2dVariant::HaloShared, 2048u32),
            (stencil2d::Stencil2dVariant::HaloShared, 256),
            (stencil2d::Stencil2dVariant::SpmdRef, 2048),
        ] {
            let mut dev = sanitized(cell);
            let ops = stencil2d::Stencil2dDev::upload(&mut dev, &w, 7);
            let k = stencil2d::build(4, 64, 8, bytes, variant);
            oracle(cell, &mut dev, &k, &ops.args());
            let (out, stats) = stencil2d::run(&mut dev, &k, &ops);
            let case = format!("{cell:?} {variant:?}/{bytes}B");
            assert_eq!(max_abs_err(&out, &want), 0.0, "{case}");
            assert!(stats.violations.is_empty(), "{case}: {:#?}", stats.violations);
        }
    }
}

#[test]
fn stencil2d_missing_halo_sync_reports_shared_race() {
    // The seeded negative: the same staging protocol without the masked
    // warp sync between the halo post and the lanes' reads races on the
    // halo slots, and simtcheck must say so. (A hand-written launch: the
    // oracle axis does not apply.)
    for cell in &CELLS {
        let mut dev = sanitized(cell);
        let stats = stencil2d::demo_halo_staging(&mut dev, false);
        assert!(
            stats.violations.iter().any(|v| matches!(v, Violation::SharedMemRace { .. })),
            "{cell:?}: missing halo sync must report SharedMemRace: {:#?}",
            stats.violations
        );
        // With the sync restored the identical traffic is clean.
        let mut dev = sanitized(cell);
        let stats = stencil2d::demo_halo_staging(&mut dev, true);
        assert!(stats.violations.is_empty(), "{cell:?}: {:#?}", stats.violations);
    }
}

#[test]
fn batched_dispatch_runs_sanitizer_clean() {
    let w = batched::BatchedWorkload::generate(5, 10, 12);
    for cell in &CELLS {
        for mode in [
            batched::DispatchMode::Cascade,
            batched::DispatchMode::Extern,
            batched::DispatchMode::Mixed,
        ] {
            let mut dev = sanitized(cell);
            let ops = batched::BatchedDev::upload(&mut dev, &w);
            let k = batched::build(2, 64, 8, 5, mode);
            oracle(cell, &mut dev, &k, &ops.args());
            let (out, stats) = batched::run(&mut dev, &k, &ops);
            assert_eq!(max_abs_err(&out, &w.reference()), 0.0, "{cell:?} {mode:?}");
            assert!(stats.violations.is_empty(), "{cell:?} {mode:?}: {:#?}", stats.violations);
        }
    }
}

#[test]
fn fig10_grid_kernels_run_sanitizer_clean() {
    for cell in &CELLS {
        for variant in Fig10Variant::ALL {
            let lw = laplace3d::Laplace3dWorkload::generate(10);
            let mut dev = sanitized(cell);
            let ops = laplace3d::Laplace3dDev::upload(&mut dev, &lw);
            let k = laplace3d::build(4, 64, variant);
            oracle(cell, &mut dev, &k, &ops.args());
            let (_, stats) = laplace3d::run(&mut dev, &k, &ops);
            assert!(stats.violations.is_empty(), "{cell:?} {variant:?}: {:#?}", stats.violations);

            let mw = muram::MuramWorkload::generate(10);
            for which in [muram::MuramKernel::Transpose, muram::MuramKernel::Interpol] {
                let mut dev = sanitized(cell);
                let ops = muram::MuramDev::upload(&mut dev, &mw);
                let k = muram::build(which, 4, 64, variant);
                oracle(cell, &mut dev, &k, &ops.args());
                let (_, stats) = muram::run(&mut dev, &k, &ops);
                let case = format!("{cell:?} {which:?}/{variant:?}");
                assert!(stats.violations.is_empty(), "{case}: {:#?}", stats.violations);
            }
        }
    }
}
