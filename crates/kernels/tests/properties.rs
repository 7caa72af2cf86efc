//! Property-based tests: kernels agree with host references for arbitrary
//! workloads, geometries and group sizes. Driven by the in-tree `testkit`
//! harness; case counts are low because each case launches full kernels.
//!
//! Successive cases take successive `testkit::CELLS`, so every property
//! runs on both backends, at every thread count, sanitized and not, and
//! through the engine oracle: every team here is 64 threads and every
//! group size divides 64, so the same geometry launches on either warp
//! width.

use gpu_sim::{ArchId, Device, Slot};
use omp_codegen::CompiledKernel;
use omp_core::config::ExecMode;
use omp_core::sharing::SlotLayout;
use omp_kernels::harness::{max_abs_err, Fig10Variant};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::{ideal, laplace3d, muram, spmv, stencil2d, su3};
use testkit::{cases, Cell, SimRng, CELLS};

/// A device on `cell`'s backend and thread count, sanitized if it says so.
fn device(cell: &Cell) -> Device {
    let mut d = Device::new(ArchId::lookup(cell.arch).unwrap().arch());
    d.set_sim_threads(cell.threads);
    if cell.sanitize {
        d.enable_sanitizer();
    }
    d
}

/// In an oracle cell, launch `k` on both engines (asserting equal stats
/// and memory) before the kernel's own `run`.
fn oracle(cell: &Cell, dev: &mut Device, k: &CompiledKernel, args: &[Slot]) {
    if cell.oracle {
        k.launch_oracle(dev, args).unwrap();
    }
}

fn any_profile(rng: &mut SimRng) -> RowProfile {
    match rng.range_u32(0, 3) {
        0 => RowProfile::Uniform(rng.range_usize(1, 24)),
        1 => RowProfile::Banded { min: rng.range_usize(1, 8), max: rng.range_usize(9, 48) },
        _ => RowProfile::PowerLaw { min: rng.range_usize(1, 4), cap: rng.range_usize(20, 150) },
    }
}

/// Generated CSR matrices always satisfy structural invariants.
#[test]
fn csr_generator_structurally_valid() {
    cases("csr_generator_structurally_valid", 24, |rng| {
        let nrows = rng.range_usize(1, 400);
        let ncols = rng.range_usize(8, 800);
        let profile = any_profile(rng);
        let seed = rng.next_u64();
        CsrMatrix::generate(nrows, ncols, profile, seed).validate();
    });
}

/// Three-level spmv matches the host reference for arbitrary matrices and
/// group sizes — including rows shorter than the group.
#[test]
fn spmv_matches_reference() {
    let mut cells = CELLS.iter().cycle();
    cases("spmv_matches_reference", 24, |rng| {
        let cell = cells.next().unwrap();
        let nrows = rng.range_usize(16, 300);
        let profile = any_profile(rng);
        let seed = rng.next_u64();
        let gs = 1u32 << rng.range_u32(1, 6);
        let teams = rng.range_u32(1, 8);
        let mat = CsrMatrix::generate(nrows, nrows, profile, seed);
        let x: Vec<f64> = (0..nrows).map(|i| ((i * 3) % 7) as f64 * 0.5).collect();
        let want = mat.spmv_ref(&x);
        let mut dev = device(cell);
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let k = spmv::build_three_level(teams, 64, gs);
        oracle(cell, &mut dev, &k, &ops.args());
        let (y, _) = spmv::run(&mut dev, &k, &ops);
        assert!(max_abs_err(&y, &want) < 1e-9);
    });
}

/// SU3 matches the host reference for arbitrary site counts.
#[test]
fn su3_matches_reference() {
    let mut cells = CELLS.iter().cycle();
    cases("su3_matches_reference", 24, |rng| {
        let cell = cells.next().unwrap();
        let sites = rng.range_usize(1, 128);
        let seed = rng.next_u64();
        let gs = 1u32 << rng.range_u32(0, 6);
        let w = su3::Su3Workload::generate(sites, seed);
        let want = w.reference();
        let mut dev = device(cell);
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        let k = su3::build(4, 64, gs);
        oracle(cell, &mut dev, &k, &ops.args());
        let (c, _) = su3::run(&mut dev, &k, &ops);
        assert!(max_abs_err(&c, &want) < 1e-12);
    });
}

/// The ideal kernel's permuted offsets never alias, for any outer size.
#[test]
fn ideal_matches_reference() {
    let mut cells = CELLS.iter().cycle();
    cases("ideal_matches_reference", 24, |rng| {
        let cell = cells.next().unwrap();
        let outer = rng.range_usize(1, 200);
        let seed = rng.next_u64();
        let gs = 1u32 << rng.range_u32(0, 6);
        let w = ideal::IdealWorkload::generate(outer, seed);
        let want = w.reference();
        let mut dev = device(cell);
        let ops = ideal::IdealDev::upload(&mut dev, &w);
        let k = ideal::build(4, 64, gs);
        oracle(cell, &mut dev, &k, &ops.args());
        let (out, _) = ideal::run(&mut dev, &k, &ops);
        assert_eq!(out, want);
    });
}

/// Fig 10 kernels agree with their references for arbitrary grids and all
/// variants.
#[test]
fn grid_kernels_match_reference() {
    let mut cells = CELLS.iter().cycle();
    cases("grid_kernels_match_reference", 12, |rng| {
        let cell = cells.next().unwrap();
        let n = rng.range_usize(5, 28);
        let variant = *rng.pick(&Fig10Variant::ALL);
        let lw = laplace3d::Laplace3dWorkload::generate(n);
        let want = lw.reference();
        let mut dev = device(cell);
        let ops = laplace3d::Laplace3dDev::upload(&mut dev, &lw);
        let k = laplace3d::build(4, 64, variant);
        oracle(cell, &mut dev, &k, &ops.args());
        let (out, _) = laplace3d::run(&mut dev, &k, &ops);
        assert!(max_abs_err(&out, &want) < 1e-12);

        let mw = muram::MuramWorkload::generate(n);
        for which in [muram::MuramKernel::Transpose, muram::MuramKernel::Interpol] {
            let want = mw.reference(which);
            let mut dev = device(cell);
            let ops = muram::MuramDev::upload(&mut dev, &mw);
            let k = muram::build(which, 4, 64, variant);
            oracle(cell, &mut dev, &k, &ops.args());
            let (out, _) = muram::run(&mut dev, &k, &ops);
            assert_eq!(&out, &want);
        }
    });
}

/// Halo staging through the sharing space is value-preserving: for random
/// grid / tile / group-size / sharing-space combinations the generic-mode
/// `HaloShared` kernel matches both the no-sharing SPMD reference kernel
/// and the host reference **bit-exactly** — staged halo cells round-trip
/// through 8-byte slots unchanged. Small sharing spaces (down to 256 B =
/// exactly the team slice, i.e. `group_slots == 0`) must take the
/// global-memory fallback path, and the fallback counters must agree with
/// the static staging report.
#[test]
fn stencil_halo_staging_matches_spmd_reference() {
    let mut cells = CELLS.iter().cycle();
    cases("stencil_halo_staging_matches_spmd_reference", 16, |rng| {
        let cell = cells.next().unwrap();
        let nx = rng.range_usize(3, 48);
        let ny = rng.range_usize(3, 16);
        let tw = rng.range_u64(1, 13);
        let simdlen = 1u32 << rng.range_u32(0, 6); // group sizes 1..32
        let teams = rng.range_u32(1, 7);
        let threads = 64u32;
        let sharing = *rng.pick(&[256u32, 512, 1024, 2048]);
        let w = stencil2d::Stencil2dWorkload::generate(nx, ny);
        let want = w.reference();

        let mut dev = device(cell);
        let ops = stencil2d::Stencil2dDev::upload(&mut dev, &w, tw);
        let halo = stencil2d::build(
            teams,
            threads,
            simdlen,
            sharing,
            stencil2d::Stencil2dVariant::HaloShared,
        );
        oracle(cell, &mut dev, &halo, &ops.args());
        let (got, stats) = stencil2d::run(&mut dev, &halo, &ops);
        assert_eq!(
            max_abs_err(&got, &want),
            0.0,
            "nx={nx} ny={ny} tw={tw} gs={simdlen} sh={sharing}"
        );

        let mut dev = device(cell);
        let ops = stencil2d::Stencil2dDev::upload(&mut dev, &w, tw);
        let spmd = stencil2d::build(
            teams,
            threads,
            simdlen,
            sharing,
            stencil2d::Stencil2dVariant::SpmdRef,
        );
        oracle(cell, &mut dev, &spmd, &ops.args());
        let (ref_got, _) = stencil2d::run(&mut dev, &spmd, &ops);
        assert_eq!(got, ref_got, "halo-shared and SPMD kernels must agree bit-exactly");

        // The runtime's fallback behaviour must match the static report and
        // the pure slot arithmetic. On a backend without warp sync the
        // generic simd region legalizes (§5.4.1) and never stages at all,
        // so the fallback counter stays zero regardless of the report.
        let arch = dev.arch.clone();
        let report = halo.analysis.staging_report(&halo.config, arch.warp_size, 0);
        let layout = SlotLayout::for_bytes(sharing, threads / simdlen);
        let desc = &halo.analysis.parallels[0].desc;
        let generic = desc.mode == ExecMode::Generic;
        if layout.group_slots == 0 && generic {
            assert!(report.falls_back, "zero-slot slices cannot stage");
        }
        if desc.sequential_simd(&arch) {
            assert_eq!(
                stats.counters.sharing_global_fallbacks, 0,
                "legalized regions never stage (gs={simdlen} sh={sharing})"
            );
        } else if report.falls_back {
            assert!(
                stats.counters.sharing_global_fallbacks > 0,
                "predicted fallback must show in counters (gs={simdlen} sh={sharing})"
            );
        } else {
            assert_eq!(stats.counters.sharing_global_fallbacks, 0, "gs={simdlen} sh={sharing}");
        }
    });
}

/// Atomic and reduction spmv agree with each other within floating-point
/// association-order tolerance.
#[test]
fn spmv_reduce_agrees_with_atomic() {
    let mut cells = CELLS.iter().cycle();
    cases("spmv_reduce_agrees_with_atomic", 24, |rng| {
        let cell = cells.next().unwrap();
        let seed = rng.next_u64();
        let gs = 1u32 << rng.range_u32(1, 6);
        let mat = CsrMatrix::generate(128, 128, RowProfile::Banded { min: 2, max: 24 }, seed);
        let x: Vec<f64> = (0..128).map(|i| (i % 5) as f64).collect();
        let mut dev = device(cell);
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let atomic = spmv::build_three_level(4, 64, gs);
        let reduce = spmv::build_three_level_reduce(4, 64, gs);
        oracle(cell, &mut dev, &atomic, &ops.args());
        let (ya, _) = spmv::run(&mut dev, &atomic, &ops);
        oracle(cell, &mut dev, &reduce, &ops.args());
        let (yr, _) = spmv::run(&mut dev, &reduce, &ops);
        assert!(max_abs_err(&ya, &yr) < 1e-9);
    });
}
