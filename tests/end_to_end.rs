//! Cross-crate integration tests: host runtime + compiler layer + device
//! runtime + kernels working together through the public facade.
//!
//! Each test's launches take successive `testkit::CELLS` (sim threads,
//! sanitizer, engine oracle); a test's backend is its own.

use simt_omp::codegen::builder::{Schedule, TargetBuilder};
use simt_omp::codegen::CompiledKernel;
use simt_omp::gpu::{Device, DeviceArch, Slot};
use simt_omp::host::HostRuntime;
use simt_omp::kernels::harness::{max_abs_err, Fig10Variant};
use simt_omp::kernels::matrix::{CsrMatrix, RowProfile};
use simt_omp::kernels::{laplace3d, muram, spmv, su3};
use simt_omp::rt::config::ExecMode;
use testkit::{Cell, CELLS};

/// Set `dev`'s thread count and sanitizer as `cell` says.
fn apply(cell: &Cell, dev: &mut Device) {
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    } else {
        dev.disable_sanitizer();
    }
}

/// A device on `arch` set up as `cell` says.
fn device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    apply(cell, &mut dev);
    dev
}

/// In an oracle cell, launch `k` on both engines (asserting equal stats
/// and memory) before the test's own `run`.
fn oracle(cell: &Cell, dev: &mut Device, k: &CompiledKernel, args: &[Slot]) {
    if cell.oracle {
        k.launch_oracle(dev, args).unwrap();
    }
}

#[test]
fn offload_roundtrip_through_host_runtime() {
    // map(to:) → kernel → map(from:) with reference-counted entries.
    let rt = HostRuntime::new();
    let dev = rt.device(0);
    let host_in: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    let mut host_out = vec![0.0f64; 4096];

    let mut b = TargetBuilder::new().num_teams(16).threads(128);
    let rows = b.trip_const(128);
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Cyclic(1), 8, |p, row| {
            p.simd(inner, move |lane, iv, v| {
                let src = v.args[0].as_ptr::<f64>();
                let dst = v.args[1].as_ptr::<f64>();
                let i = v.regs[row.0].as_u64() * 32 + iv;
                let x = lane.read(src, i);
                lane.write(dst, i, x + 1.0);
            });
        });
    });

    for (n, cell) in CELLS.iter().enumerate() {
        host_out.fill(0.0);
        let mut md = dev.lock();
        apply(cell, &mut md.dev);
        let src = md.map_to(&host_in);
        let dst = md.map_alloc(&host_out);
        let args = [Slot::from_ptr(src), Slot::from_ptr(dst)];
        oracle(cell, &mut md.dev, &k, &args);
        k.run(&mut md.dev, &args);
        md.map_release(&host_in);
        md.map_from(&mut host_out);
        assert_eq!(md.mapped_entries(), 0);
        assert_eq!(md.xfer.h2d_count, n as u64 + 1);
        assert_eq!(md.xfer.d2h_count, n as u64 + 1);
        drop(md);
        for i in 0..4096 {
            assert_eq!(host_out[i], host_in[i] + 1.0, "{cell:?}");
        }
    }
}

#[test]
fn deferred_target_tasks_on_streams() {
    // Four `target nowait` kernels on one device, one stream each.
    let rt = HostRuntime::new();
    let dev = rt.device(0);
    let mut ptrs = Vec::new();
    {
        let md = dev.lock();
        for _ in 0..4 {
            ptrs.push(md.dev.global.alloc_zeroed::<f64>(1024));
        }
    }
    let mut b = TargetBuilder::new().num_teams(4).threads(64);
    let n = b.trip_const(32);
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.distribute_parallel_for(n, Schedule::Cyclic(1), 4, |pp, row| {
            pp.simd(inner, move |lane, iv, v| {
                let d = v.args[0].as_ptr::<f64>();
                let i = v.regs[row.0].as_u64() * 32 + iv;
                lane.write(d, i, v.args[1].as_f64());
            });
        });
    });
    let streams: Vec<_> = (0..4).map(|_| rt.stream(0)).collect();
    for (((t, p), cell), s) in ptrs.iter().copied().enumerate().zip(CELLS).zip(&streams) {
        s.enqueue_launch(|md| {
            apply(&cell, &mut md.dev);
            let args = [Slot::from_ptr(p), Slot::from_f64(t as f64 + 1.0)];
            oracle(&cell, &mut md.dev, &k, &args);
            k.run(&mut md.dev, &args)
        });
    }
    let st = rt.timeline_stats();
    assert_eq!(st.ops, 4);
    assert!(st.per_device[0].busy.compute > 0);
    let md = dev.lock();
    for (t, p) in ptrs.iter().copied().enumerate() {
        let got = md.dev.global.read_slice(p, 1024);
        assert!(got.iter().all(|&v| v == t as f64 + 1.0), "task {t} output wrong");
    }
}

#[test]
fn three_level_spmv_beats_two_level_baseline() {
    // The Fig 9 headline claim at reduced size: the simd version wins, and
    // group size 32 is worse than mid sizes for varying-sparsity rows.
    let mat = CsrMatrix::generate(8192, 8192, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..8192).map(|i| (i % 17) as f64).collect();
    let want = mat.spmv_ref(&x);
    let mut cells = CELLS.iter().cycle();
    let mut run = |k: CompiledKernel| {
        let cell = cells.next().unwrap();
        let mut dev = device(cell, DeviceArch::a100());
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        oracle(cell, &mut dev, &k, &ops.args());
        let (y, s) = spmv::run(&mut dev, &k, &ops);
        assert!(max_abs_err(&y, &want) < 1e-9, "{cell:?}");
        s.cycles
    };
    let base = run(spmv::build_two_level(864));
    let gs8 = run(spmv::build_three_level(108, 128, 8));
    let gs32 = run(spmv::build_three_level(108, 128, 32));
    let gs4 = run(spmv::build_three_level(108, 128, 4));
    assert!(gs8 * 2 < base, "3-level gs8 should be >2x faster: {gs8} vs {base}");
    assert!(gs8 < gs32 && gs4 < gs32, "mid group sizes beat 32 on varying sparsity");
}

#[test]
fn fig10_mode_ordering_holds() {
    // SPMD-SIMD within ±15% of No-SIMD; generic strictly slower than SPMD.
    let mut cells = CELLS.iter().cycle();
    for which in [muram::MuramKernel::Transpose, muram::MuramKernel::Interpol] {
        let w = muram::MuramWorkload::generate(48);
        let mut cycles = |v: Fig10Variant| {
            let cell = cells.next().unwrap();
            let mut dev = device(cell, DeviceArch::a100());
            let ops = muram::MuramDev::upload(&mut dev, &w);
            let k = muram::build(which, 108, 128, v);
            oracle(cell, &mut dev, &k, &ops.args());
            let (out, s) = muram::run(&mut dev, &k, &ops);
            assert_eq!(out, w.reference(which), "{which:?} {v:?}");
            s.cycles as f64
        };
        let no = cycles(Fig10Variant::NoSimd);
        let spmd = cycles(Fig10Variant::SpmdSimd);
        let generic = cycles(Fig10Variant::GenericSimd);
        assert!(
            (no / spmd - 1.0).abs() < 0.15,
            "{which:?}: SPMD ({spmd}) should track No-SIMD ({no})"
        );
        assert!(generic > spmd, "{which:?}: generic must pay the state machine");
    }
}

#[test]
fn laplace_all_variants_verified_on_both_vendors() {
    let w = laplace3d::Laplace3dWorkload::generate(20);
    let want = w.reference();
    let mut cells = CELLS.iter().cycle();
    for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
        for v in Fig10Variant::ALL {
            let cell = cells.next().unwrap();
            let mut dev = device(cell, arch.clone());
            let ops = laplace3d::Laplace3dDev::upload(&mut dev, &w);
            let k = laplace3d::build(8, 64, v);
            oracle(cell, &mut dev, &k, &ops.args());
            let (out, _) = laplace3d::run(&mut dev, &k, &ops);
            assert!(max_abs_err(&out, &want) < 1e-12, "{} {v:?}", arch.name);
        }
    }
}

#[test]
fn su3_results_identical_across_group_sizes_and_modes() {
    let w = su3::Su3Workload::generate(256, 3);
    let want = w.reference();
    let mut cycle_set = Vec::new();
    for (gs, cell) in [1u32, 4, 8, 32].into_iter().zip(&CELLS) {
        let mut dev = device(cell, DeviceArch::a100());
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        let k = su3::build(16, 64, gs);
        oracle(cell, &mut dev, &k, &ops.args());
        let (c, s) = su3::run(&mut dev, &k, &ops);
        assert!(max_abs_err(&c, &want) < 1e-12, "gs={gs}");
        cycle_set.push(s.cycles);
    }
    // Different group sizes genuinely execute differently.
    assert!(cycle_set.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn reduction_extension_agrees_with_atomics() {
    let mat = CsrMatrix::generate(2048, 2048, RowProfile::PowerLaw { min: 2, cap: 120 }, 9);
    let x: Vec<f64> = (0..2048).map(|i| ((i * 7) % 23) as f64 * 0.125).collect();
    let want = mat.spmv_ref(&x);
    let atomic_k = spmv::build_three_level(32, 128, 8);
    let reduce_k = spmv::build_three_level_reduce(32, 128, 8);
    for (atomic, reduce) in [(&CELLS[0], &CELLS[1]), (&CELLS[2], &CELLS[3])] {
        let mut dev = device(atomic, DeviceArch::a100());
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        oracle(atomic, &mut dev, &atomic_k, &ops.args());
        let (ya, sa) = spmv::run(&mut dev, &atomic_k, &ops);
        apply(reduce, &mut dev);
        oracle(reduce, &mut dev, &reduce_k, &ops.args());
        let (yr, sr) = spmv::run(&mut dev, &reduce_k, &ops);
        assert!(max_abs_err(&ya, &want) < 1e-9);
        assert!(max_abs_err(&yr, &want) < 1e-9);
        assert!(
            sr.cycles < sa.cycles,
            "tree reduction ({}) should beat per-lane atomics ({})",
            sr.cycles,
            sa.cycles
        );
    }
}

#[test]
fn mode_inference_matches_paper_assignments() {
    // §6.3's mode table, checked through the public API.
    let two = spmv::build_two_level(64);
    assert_eq!(two.analysis.teams_mode, ExecMode::Generic);
    let three = spmv::build_three_level(64, 128, 8);
    assert_eq!(three.analysis.teams_mode, ExecMode::Spmd);
    assert_eq!(three.analysis.parallels[0].desc.mode, ExecMode::Generic);
    let s = su3::build(64, 128, 4);
    assert_eq!(s.analysis.teams_mode, ExecMode::Spmd);
    assert_eq!(s.analysis.parallels[0].desc.mode, ExecMode::Spmd);
}

#[test]
fn whole_stack_is_deterministic() {
    let run = |cell: &Cell| {
        let mat = CsrMatrix::generate(1024, 1024, RowProfile::Banded { min: 2, max: 30 }, 5);
        let x: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let mut dev = device(cell, DeviceArch::a100());
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let k = spmv::build_three_level(16, 128, 4);
        oracle(cell, &mut dev, &k, &ops.args());
        spmv::run(&mut dev, &k, &ops).1
    };
    let first = run(&CELLS[0]);
    for cell in &CELLS {
        assert_eq!(run(cell).cycles, first.cycles, "{cell:?}");
    }
}
