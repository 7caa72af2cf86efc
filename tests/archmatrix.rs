//! Cross-backend differential matrix: every in-tree kernel, plus a seeded
//! stream of random portable plans, run on both registered GPU backends.
//!
//! For each kernel × architecture the suite goes through
//! [`CompiledKernel::launch_oracle`] (tree walker vs flat bytecode,
//! bit-identical stats and memory required), across block-execution thread
//! counts and with the sanitizer armed — then asserts the **host-visible
//! results are bit-equal between a100 and mi100**. The wave64 backend has
//! no wavefront-level barrier, so every generic-mode simd region reaches
//! the output through sequential-simd legalization (§5.4.1); equality here
//! is the proof that legalization is a pure scheduling rewrite, not a
//! numerics change.

use simt_omp::codegen::CompiledKernel;
use simt_omp::gpu::{Device, DeviceArch, Slot};
use simt_omp::kernels::harness::Fig10Variant;
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::plangen::{self, random_portable_kernel};
use simt_omp::kernels::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};
use testkit::{cases, CELLS};

/// Uploads a workload onto a fresh device; returns the argument payload
/// and a reader for the host-visible output.
type Setup<'a> = &'a mut dyn FnMut(&mut Device) -> (Vec<Slot>, Box<dyn Fn(&Device) -> Vec<f64>>);

/// Run `k` on one architecture: lint gate (errors forbidden, remarks
/// fine), differential oracle in every `testkit::CELLS` thread count and
/// sanitizer setting, stats pinned across the unsanitized cells and the
/// sanitized ones violation-free. Returns the output bits.
fn run_on(label: &str, k: &CompiledKernel, arch: &DeviceArch, setup: Setup<'_>) -> Vec<u64> {
    let mut bits: Option<Vec<u64>> = None;
    let mut stats0 = None;
    for cell in &CELLS {
        let (threads, sanitize) = (cell.threads, cell.sanitize);
        let mut dev = Device::new(arch.clone());
        dev.set_sim_threads(threads);
        if sanitize {
            dev.enable_sanitizer();
        }
        let (args, read) = setup(&mut dev);
        let report = k.lint(arch, args.len());
        assert!(
            !report.has_errors(),
            "{label} on {}: simtlint rejected a portable kernel:\n{}",
            arch.name,
            report.render(label)
        );
        let stats = k
            .launch_oracle(&mut dev, &args)
            .unwrap_or_else(|e| panic!("{label} on {} ({cell:?}): {e:?}", arch.name));
        assert!(
            stats.violations.is_empty(),
            "{label} on {}: sanitizer violations {:#?}",
            arch.name,
            stats.violations
        );
        let out: Vec<u64> = read(&dev).iter().map(|x| x.to_bits()).collect();
        match &bits {
            None => bits = Some(out),
            Some(prev) => assert_eq!(
                prev, &out,
                "{label} on {}: results vary with the simulation config",
                arch.name
            ),
        }
        if !sanitize {
            match &stats0 {
                None => stats0 = Some(stats),
                Some(s0) => assert_eq!(
                    s0, &stats,
                    "{label} on {}: stats vary with the sim thread count",
                    arch.name
                ),
            }
        }
    }
    bits.expect("at least one configuration ran")
}

/// The cross-backend assertion: same plan, both registered backends,
/// bit-equal host-visible results.
fn cross_arch(label: &str, k: &CompiledKernel, setup: Setup<'_>) {
    let nv = run_on(label, k, &DeviceArch::a100(), setup);
    let amd = run_on(label, k, &DeviceArch::mi100(), setup);
    assert_eq!(nv, amd, "{label}: a100 and mi100 host-visible results differ");
}

#[test]
fn ideal_matches_across_backends() {
    let w = ideal::IdealWorkload::generate(24, 7);
    for gs in [1u32, 8, 32] {
        let k = ideal::build(4, 64, gs);
        cross_arch(&format!("ideal gs={gs}"), &k, &mut |dev| {
            let d = ideal::IdealDev::upload(dev, &w);
            (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
        });
    }
    // Forced-generic: the state machine on a100, legalized on mi100.
    let k = ideal::build_forced_generic(2, 64, 8);
    cross_arch("ideal forced-generic", &k, &mut |dev| {
        let d = ideal::IdealDev::upload(dev, &w);
        (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
    });
}

#[test]
fn su3_matches_across_backends() {
    let w = su3::Su3Workload::generate(24, 5);
    let k = su3::build(4, 64, 8);
    cross_arch("su3", &k, &mut |dev| {
        let d = su3::Su3Dev::upload(dev, &w);
        (d.args().to_vec(), Box::new(move |dev: &Device| d.read_c(dev)))
    });
}

#[test]
fn stencil2d_matches_across_backends() {
    let w = stencil2d::Stencil2dWorkload::generate(34, 18);
    // sharing = 64 forces the per-group staging fallback (lint-clean, a
    // warning); 0 would be an E-TEAM-POST lint error, so it stays in the
    // unlinted engine-agreement suite only.
    for sharing in [64u32, 4096] {
        let k = stencil2d::build(2, 64, 8, sharing, stencil2d::Stencil2dVariant::HaloShared);
        cross_arch(&format!("stencil2d sharing={sharing}"), &k, &mut |dev| {
            let d = stencil2d::Stencil2dDev::upload(dev, &w, 8);
            (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
        });
    }
    let k = stencil2d::build_default(2, 64, 8);
    cross_arch("stencil2d default", &k, &mut |dev| {
        let d = stencil2d::Stencil2dDev::upload(dev, &w, 8);
        (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
    });
}

#[test]
fn muram_matches_across_backends() {
    let w = muram::MuramWorkload::generate(10);
    for which in [muram::MuramKernel::Transpose, muram::MuramKernel::Interpol] {
        for variant in Fig10Variant::ALL {
            let k = muram::build(which, 2, 64, variant);
            cross_arch(&format!("muram {which:?} {}", variant.label()), &k, &mut |dev| {
                let d = muram::MuramDev::upload(dev, &w);
                (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
            });
        }
    }
}

#[test]
fn laplace3d_matches_across_backends() {
    let w = laplace3d::Laplace3dWorkload::generate(12);
    for variant in Fig10Variant::ALL {
        let k = laplace3d::build(2, 64, variant);
        cross_arch(&format!("laplace3d {}", variant.label()), &k, &mut |dev| {
            let d = laplace3d::Laplace3dDev::upload(dev, &w);
            (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
        });
    }
}

#[test]
fn batched_matches_across_backends() {
    let w = batched::BatchedWorkload::generate(4, 8, 8);
    for mode in [
        batched::DispatchMode::Cascade,
        batched::DispatchMode::Extern,
        batched::DispatchMode::Mixed,
    ] {
        let k = batched::build(2, 64, 8, w.n_bodies, mode);
        cross_arch(&format!("batched {mode:?}"), &k, &mut |dev| {
            let d = batched::BatchedDev::upload(dev, &w);
            (d.args().to_vec(), Box::new(move |dev: &Device| d.read_out(dev)))
        });
    }
}

#[test]
fn spmv_matches_across_backends() {
    let mat = CsrMatrix::generate(64, 96, RowProfile::Banded { min: 4, max: 20 }, 11);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 7) % 13) as f64 * 0.25).collect();
    let kernels = [
        // 64-thread two-level: one whole wavefront per team on mi100.
        ("two-level", spmv::build_two_level_on(8, 64)),
        ("three-level", spmv::build_three_level(8, 64, 8)),
        ("three-level-reduce", spmv::build_three_level_reduce(8, 64, 8)),
    ];
    for (name, k) in &kernels {
        cross_arch(&format!("spmv {name}"), k, &mut |dev| {
            let d = spmv::SpmvDev::upload(dev, &mat, &x);
            (d.args().to_vec(), Box::new(move |dev: &Device| d.read_y(dev)))
        });
    }
}

#[test]
fn random_portable_plans_match_across_backends() {
    // 40 seeded random plans at portable geometry: one compiled plan,
    // both backends, bit-equal output. Workload parameters are drawn
    // before the arch loop so both backends see identical inputs.
    let mut cells = CELLS.iter().cycle();
    cases("random_portable_plans_match_across_backends", 40, |rng| {
        let cell = cells.next().unwrap();
        let k = random_portable_kernel(rng);
        let tbl = [rng.range_u64(0, 7), rng.range_u64(1, 9)];
        let n = rng.range_u64(1, 7);
        let _ = rng.flip(); // the thread-count draw the cells replaced
                            // The fuzz surface includes deliberately degenerate plans (e.g.
                            // sharing_space = 0 → E-TEAM-POST), so the lint contract here is
                            // not "clean": it is that the wave64 backend reports exactly the
                            // same errors as a100 — legalization demotes E-ARCH to a remark,
                            // so going wave64 never *adds* an error.
        let baseline: Vec<&str> = {
            let r = k.lint(&DeviceArch::a100(), 3);
            r.diags
                .iter()
                .filter(|d| d.severity == simt_omp::codegen::diag::Severity::Error)
                .map(|d| d.code)
                .collect()
        };
        let mut first: Option<Vec<u64>> = None;
        for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
            let report = k.lint(&arch, 3);
            let errors: Vec<&str> = report
                .diags
                .iter()
                .filter(|d| d.severity == simt_omp::codegen::diag::Severity::Error)
                .map(|d| d.code)
                .collect();
            assert_eq!(
                errors,
                baseline,
                "random plan on {}: backend changed the error set:\n{}",
                arch.name,
                report.render("plangen")
            );
            assert!(
                report.with_code("E-ARCH").next().is_none(),
                "random plan on {}: E-ARCH must demote for barrier-free simd bodies:\n{}",
                arch.name,
                report.render("plangen")
            );
            let name = arch.name;
            let mut dev = Device::new(arch);
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            let out = dev.global.alloc_zeroed::<f64>(plangen::OUT_SLOTS);
            let dtbl = dev.global.alloc_from(&tbl);
            let args = [Slot::from_ptr(out), Slot::from_ptr(dtbl), Slot::from_u64(n)];
            k.launch_oracle(&mut dev, &args)
                .unwrap_or_else(|e| panic!("random plan on {name}: {e:?}"));
            let bits: Vec<u64> = dev
                .global
                .read_slice(out, plangen::OUT_SLOTS)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            match &first {
                None => first = Some(bits),
                Some(nv) => {
                    assert_eq!(nv, &bits, "random plan: backend results differ")
                }
            }
        }
    });
}

#[test]
fn legalization_is_never_faster_at_equal_geometry() {
    // Monotonicity of the §5.4.1 fallback, isolated from every other
    // backend difference: two archs identical except for the warp-sync
    // capability bit. The legalized run serializes each group's simd work
    // onto its leader, so at equal geometry it can never undercut the
    // warp-synchronous state machine.
    let with_sync = DeviceArch::a100();
    let mut no_sync = DeviceArch::a100();
    no_sync.name = "sim-A100-no-warp-sync";
    no_sync.warp_sync_supported = false;

    let w = ideal::IdealWorkload::generate(24, 5);
    let k = ideal::build_forced_generic(2, 64, 8);
    for cell in &CELLS {
        let run = |arch: &DeviceArch| {
            let mut dev = Device::new(arch.clone());
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            let d = ideal::IdealDev::upload(&mut dev, &w);
            let stats = k.launch_oracle(&mut dev, &d.args()).expect("launch failed");
            let bits: Vec<u64> = d.read_out(&dev).iter().map(|x| x.to_bits()).collect();
            (stats, bits)
        };
        let (sm, sm_bits) = run(&with_sync);
        let (seq, seq_bits) = run(&no_sync);
        assert_eq!(sm.counters.sequential_simd_fallbacks, 0);
        assert!(seq.counters.sequential_simd_fallbacks > 0, "no-warp-sync arch must legalize");
        assert_eq!(sm_bits, seq_bits, "{cell:?}: legalization changed the results");
        assert!(
            seq.cycles >= sm.cycles,
            "{cell:?}: sequential-simd legalization beat the state machine: {} < {}",
            seq.cycles,
            sm.cycles
        );
    }
}
