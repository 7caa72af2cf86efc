//! Tests of the SPMD-ness analysis: the builder must infer the execution
//! modes the paper assigns to each kernel shape (§6.3, §6.4).

use gpu_sim::{Device, DeviceArch, Slot};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_core::config::ExecMode;
use testkit::{Cell, CELLS};

/// A device on `arch` with `cell`'s sim threads and sanitizer.
fn cell_device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

#[test]
fn tightly_nested_is_fully_spmd() {
    // `teams distribute parallel for simd` with uniform trips — the
    // SU3_bench shape: "both teams and parallel regions are SPMD mode".
    let mut b = TargetBuilder::new();
    let outer = b.trip_const(64);
    let inner = b.trip_const(36);
    let k = b.build(|t| {
        t.distribute_parallel_for(outer, Schedule::Static, 4, |p, _row| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
    assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Spmd);
    assert!(!k.analysis.parallels[0].forced);
}

#[test]
fn varying_trip_makes_parallel_generic() {
    // The sparse_matvec shape: combined outer construct (teams SPMD) with a
    // per-row inner trip count (parallel generic) — §6.3.
    let mut b = TargetBuilder::new();
    let rows = b.trip_const(100);
    let nnz = b.trip_varying(|_, v| v.regs[0].as_u64() % 17);
    let k = b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Static, 8, |p, _row| {
            p.simd(nnz, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
    assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
    assert_eq!(k.analysis.parallels[0].inferred, ExecMode::Generic);
}

#[test]
fn thread_seq_makes_parallel_generic() {
    // The "ideal kernel" shape: non-collapsible sequential thread code
    // between `for` and `simd` — teams SPMD, parallel generic (§6.3).
    let mut b = TargetBuilder::new();
    let outer = b.trip_const(64);
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.distribute_parallel_for(outer, Schedule::Static, 32, |p, _row| {
            p.seq(|lane, _| lane.work(4));
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
    assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
}

#[test]
fn distribute_plus_parallel_makes_teams_generic() {
    // The 2-level sparse_matvec baseline: `teams distribute` outer,
    // `parallel for` inner — "the teams region will run in generic mode".
    let mut b = TargetBuilder::new();
    let rows = b.trip_const(100);
    let nnz = b.trip_const(32);
    let one = b.trip_const(1);
    let k = b.build(|t| {
        t.distribute(rows, Schedule::Static, |t, _row| {
            t.parallel(1, |p| {
                p.for_loop(nnz, Schedule::Static, |p, _j| {
                    p.simd(one, |lane, _, _| lane.work(1));
                });
            });
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Generic);
}

#[test]
fn team_seq_makes_teams_generic() {
    let mut b = TargetBuilder::new();
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.seq(|lane, _| lane.work(10));
        t.parallel(8, |p| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Generic);
}

#[test]
fn overrides_win_over_inference() {
    let mut b = TargetBuilder::new().force_teams_mode(ExecMode::Generic);
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.parallel_with_mode(8, ExecMode::Generic, |p| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Generic);
    assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
    assert_eq!(k.analysis.parallels[0].inferred, ExecMode::Spmd);
    assert!(k.analysis.parallels[0].forced);
}

#[test]
fn forced_generic_parallel_is_never_promoted() {
    // A forced mode is an experiment control: even a body the SPMD-ization
    // pass could prove safe stays generic when the author pinned it.
    let mut b = TargetBuilder::new();
    let inner = b.trip_const(32);
    let k = b.build(|t| {
        t.parallel_with_mode(8, ExecMode::Generic, |p| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
    assert!(k.analysis.parallels[0].forced);
    assert!(!k.analysis.parallels[0].promoted);
    assert!(k.analysis.promotions.is_empty());
}

#[test]
fn forced_generic_teams_is_never_promoted() {
    use omp_core::dispatch::Footprint;
    let mut b = TargetBuilder::new().force_teams_mode(ExecMode::Generic);
    let inner = b.trip_const(16);
    let k = b.build(|t| {
        let r = t.alloc_reg();
        // Declared pure — promotable on the merits, but the forced mode wins.
        t.seq_footprint(Footprint::new().writes_regs(&[r.0]), move |lane, v| {
            lane.work(1);
            v.regs[r.0] = gpu_sim::Slot::from_u64(7);
        });
        t.parallel(8, |p| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    assert_eq!(k.analysis.teams_mode, ExecMode::Generic);
    assert!(k.analysis.teams_forced);
    assert!(k.analysis.promotions.is_empty());
}

#[test]
fn compiled_kernel_runs_end_to_end() {
    for cell in &CELLS {
        // Dot product with the simd_reduce extension, written entirely through
        // the builder, verified against a host computation.
        let n_rows = 8u64;
        let inner = 16u64;
        let mut dev = cell_device(cell, DeviceArch::a100());
        let xs: Vec<f64> = (0..n_rows * inner).map(|i| (i as f64).sin()).collect();
        let x = dev.global.alloc_from(&xs);
        let out = dev.global.alloc_zeroed::<f64>(n_rows as usize);

        let mut b = TargetBuilder::new().num_teams(2).threads(64);
        let rows = b.trip_const(n_rows);
        let nnz = b.trip_const(inner);
        let k = b.build(|t| {
            t.distribute_parallel_for(rows, Schedule::Static, 8, |p, row| {
                let sum = p.simd_reduce(nnz, move |lane, iv, v| {
                    let x = v.args[0].as_ptr::<f64>();
                    let r = v.regs[row.0].as_u64();
                    lane.work(1);
                    lane.read(x, r * 16 + iv)
                });
                p.seq(move |lane, v| {
                    let out = v.args[1].as_ptr::<f64>();
                    let r = v.regs[row.0].as_u64();
                    let s = v.regs[sum.0].as_f64();
                    lane.write(out, r, s);
                });
            });
        });
        // The trailing seq makes the region generic.
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
        k.run(&mut dev, &[Slot::from_ptr(x), Slot::from_ptr(out)]);

        let got = dev.global.read_slice(out, n_rows as usize);
        for r in 0..n_rows as usize {
            let want: f64 = xs[r * 16..(r + 1) * 16].iter().sum();
            assert!((got[r] - want).abs() < 1e-12, "row {r}: {} vs {want}", got[r]);
        }
    }
}

#[test]
fn staging_report_reflects_group_count() {
    let mut b = TargetBuilder::new().threads(128).sharing_space(2048);
    let inner = b.trip_varying(|_, v| v.regs[0].as_u64());
    let rows = b.trip_const(100);
    let k = b.build(|t| {
        t.distribute_parallel_for(rows, Schedule::Static, 2, |p, _row| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    let rep = k.analysis.staging_report(&k.config, 32, 0);
    assert_eq!(rep.num_groups, 64);
    assert_eq!(rep.stage_slots, 3); // fn + trip + 1 register (the row iv)
    assert!(!rep.falls_back);
}

#[test]
fn staging_report_predicts_runtime_fallbacks() {
    for cell in &CELLS {
        // The compile-time staging report and the runtime's actual fallback
        // counter must agree, across group sizes and sharing-space sizes.
        use omp_kernels::matrix::{CsrMatrix, RowProfile};
        use omp_kernels::spmv;

        let mat = CsrMatrix::generate(512, 512, RowProfile::Banded { min: 2, max: 20 }, 3);
        let x: Vec<f64> = (0..512).map(|i| i as f64 * 0.25).collect();
        for gs in [2u32, 4, 8, 16, 32] {
            for bytes in [1024u32, 2048] {
                let mut dev = cell_device(cell, DeviceArch::a100());
                let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
                let mut k = spmv::build_three_level(8, 128, gs);
                k.config.sharing_space_bytes = bytes;
                let report = k.analysis.staging_report(&k.config, 32, 0);
                let (_, stats) = spmv::run(&mut dev, &k, &ops);
                let fell_back = stats.counters.sharing_global_fallbacks > 0;
                assert_eq!(
                    report.falls_back, fell_back,
                    "gs={gs} bytes={bytes}: report {report:?} vs counters {}",
                    stats.counters.sharing_global_fallbacks
                );
            }
        }
    }
}
