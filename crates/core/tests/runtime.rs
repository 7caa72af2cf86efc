//! Functional tests of the runtime interpreter: correctness of results and
//! of the runtime's observable behavior (counters, mode semantics) across
//! execution modes and SIMD group sizes.

use gpu_sim::{Device, DeviceArch, Slot};
use omp_core::config::{ExecMode, KernelConfig, ParallelDesc};
use omp_core::dispatch::Registry;
use omp_core::exec::launch_target;
use omp_core::plan::{ParallelOp, Schedule, TargetPlan, TeamOp, ThreadOp};
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

/// Build a `teams distribute parallel for simd` SAXPY-like kernel:
/// outer loop over `rows` chunks, inner simd loop over `inner` elements:
/// `y[row*inner + iv] += a * x[row*inner + iv]`.
///
/// Arg layout: args[0] = x ptr, args[1] = y ptr, args[2] = a (f64),
/// args[3] = rows, args[4] = inner. Thread reg 0 = row index.
fn saxpy_plan(
    reg: &mut Registry,
    teams_mode: ExecMode,
    par: ParallelDesc,
) -> (TargetPlan, ExecMode) {
    let for_trip = reg.trip(|_, v| v.args[3].as_u64());
    let simd_trip = reg.trip(|_, v| v.args[4].as_u64());
    let body = reg.body(|lane, iv, v| {
        let x = v.args[0].as_ptr::<f64>();
        let y = v.args[1].as_ptr::<f64>();
        let a = v.args[2].as_f64();
        let inner = v.args[4].as_u64();
        let row = v.regs[0].as_u64();
        let i = row * inner + iv;
        let xv = lane.read(x, i);
        let yv = lane.read(y, i);
        lane.work(2); // fma
        lane.write(y, i, yv + a * xv);
    });
    let plan = TargetPlan {
        ops: vec![TeamOp::Parallel(ParallelOp {
            desc: par,
            known: true,
            nregs: 1,
            stage_regs: 1,
            ops: vec![ThreadOp::For {
                trip: for_trip,
                sched: Schedule::Static,
                iv_reg: 0,
                across_teams: true,
                ops: vec![ThreadOp::Simd { trip: simd_trip, body, known: true }],
            }],
        })],
        team_regs: 0,
    };
    (plan, teams_mode)
}

/// Run the SAXPY kernel in every cell of the test matrix (sim threads,
/// sanitizer); the cells must agree on results and stats.
fn run_saxpy(
    arch: DeviceArch,
    teams_mode: ExecMode,
    par: ParallelDesc,
    rows: u64,
    inner: u64,
) -> (Vec<f64>, gpu_sim::LaunchStats) {
    let runs = CELLS.map(|cell| {
        let mut dev = cell_device(&cell, arch.clone());
        let n = (rows * inner) as usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = vec![1.0; n];
        let x = dev.global.alloc_from(&xs);
        let y = dev.global.alloc_from(&ys);

        let mut reg = Registry::new();
        let (plan, tm) = saxpy_plan(&mut reg, teams_mode, par);
        let cfg = KernelConfig {
            teams_mode: tm,
            num_teams: 4,
            threads_per_team: 64,
            ..Default::default()
        };
        let args = [
            Slot::from_ptr(x),
            Slot::from_ptr(y),
            Slot::from_f64(2.0),
            Slot::from_u64(rows),
            Slot::from_u64(inner),
        ];
        let stats = launch_target(&mut dev, &cfg, &plan, &reg, &args).unwrap();
        (dev.global.read_slice(y, n), stats)
    });
    for (cell, run) in CELLS.iter().zip(&runs) {
        assert_eq!(run, &runs[0], "{cell:?}");
    }
    runs[0].clone()
}

fn expected(rows: u64, inner: u64) -> Vec<f64> {
    (0..(rows * inner) as usize).map(|i| 1.0 + 2.0 * i as f64).collect()
}

#[test]
fn saxpy_all_modes_and_group_sizes_agree() {
    let (rows, inner) = (37, 23); // deliberately awkward sizes
    let want = expected(rows, inner);
    for teams_mode in [ExecMode::Spmd, ExecMode::Generic] {
        for par_mode in [ExecMode::Spmd, ExecMode::Generic] {
            for gs in [1u32, 2, 4, 8, 16, 32] {
                let par = ParallelDesc { mode: par_mode, simdlen: gs };
                let (got, _) = run_saxpy(DeviceArch::a100(), teams_mode, par, rows, inner);
                assert_eq!(got, want, "teams={teams_mode:?} par={par_mode:?} gs={gs}");
            }
        }
    }
}

#[test]
fn generic_parallel_posts_to_state_machine() {
    let par = ParallelDesc::generic(8);
    let (_, stats) = run_saxpy(DeviceArch::a100(), ExecMode::Spmd, par, 32, 16);
    // 64 threads / group 8 = 8 groups per team × 4 teams = 32 workers for
    // the combined `teams distribute parallel for` over 32 rows: one round
    // each, so every group posts exactly one simd loop to its workers.
    assert_eq!(stats.counters.state_machine_posts, 32);
    assert_eq!(stats.counters.simd_loops, 32);
    assert!(stats.counters.warp_syncs > 0);
    assert_eq!(stats.counters.sequential_simd_fallbacks, 0);
}

#[test]
fn spmd_parallel_posts_nothing() {
    let par = ParallelDesc::spmd(8);
    let (_, stats) = run_saxpy(DeviceArch::a100(), ExecMode::Spmd, par, 32, 16);
    assert_eq!(stats.counters.state_machine_posts, 0);
    assert_eq!(stats.counters.simd_loops, 32);
    // One warp sync per simd round per warp: 2 warps × 1 round × 4 teams.
    assert_eq!(stats.counters.warp_syncs, 8);
}

#[test]
fn generic_teams_post_parallel_regions() {
    let par = ParallelDesc::spmd(8);
    let (_, stats) = run_saxpy(DeviceArch::a100(), ExecMode::Generic, par, 8, 8);
    // One parallel region per team.
    assert_eq!(stats.counters.parallel_regions, 4);
    assert_eq!(stats.counters.state_machine_posts, 4);
    // Release + join barriers per parallel + final termination barrier.
    assert_eq!(stats.counters.block_barriers, 4 * 2 + 4);
}

#[test]
fn generic_modes_cost_more_than_spmd() {
    let spmd =
        run_saxpy(DeviceArch::a100(), ExecMode::Spmd, ParallelDesc::spmd(8), 64, 32).1.cycles;
    let gen_par =
        run_saxpy(DeviceArch::a100(), ExecMode::Spmd, ParallelDesc::generic(8), 64, 32).1.cycles;
    let gen_teams =
        run_saxpy(DeviceArch::a100(), ExecMode::Generic, ParallelDesc::generic(8), 64, 32).1.cycles;
    assert!(gen_par > spmd, "generic parallel ({gen_par}) must cost more than SPMD ({spmd})");
    assert!(
        gen_teams > gen_par,
        "generic teams ({gen_teams}) must cost more than SPMD teams ({gen_par})"
    );
}

#[test]
fn amd_generic_simd_falls_back_to_sequential() {
    let par = ParallelDesc::generic(8);
    let (got, stats) = run_saxpy(DeviceArch::mi100(), ExecMode::Spmd, par, 16, 8);
    assert_eq!(got, expected(16, 8), "fallback must still be correct");
    assert!(stats.counters.sequential_simd_fallbacks > 0);
    // No SIMD state machine posts happen on the fallback path.
    assert_eq!(stats.counters.state_machine_posts, 0);
}

#[test]
fn amd_spmd_simd_works_normally() {
    let par = ParallelDesc::spmd(8);
    let (got, stats) = run_saxpy(DeviceArch::mi100(), ExecMode::Spmd, par, 16, 8);
    assert_eq!(got, expected(16, 8));
    assert_eq!(stats.counters.sequential_simd_fallbacks, 0);
}

#[test]
fn group_size_one_behaves_like_two_level() {
    // §5.4: group size 1 = SPMD with no SIMD machinery = the pre-existing
    // two-level runtime.
    let par = ParallelDesc { mode: ExecMode::Generic, simdlen: 1 };
    let (got, stats) = run_saxpy(DeviceArch::a100(), ExecMode::Spmd, par, 16, 8);
    assert_eq!(got, expected(16, 8));
    // normalized() forces SPMD: no posts.
    assert_eq!(stats.counters.state_machine_posts, 0);
}

#[test]
fn distribute_splits_rows_across_teams() {
    for cell in &CELLS {
        // teams distribute { parallel for } — the 2-level spmv shape.
        let mut dev = cell_device(cell, DeviceArch::tiny());
        let n = 64u64;
        let y = dev.global.alloc_zeroed::<f64>(n as usize);

        let mut reg = Registry::new();
        let dist_trip = reg.trip(move |_, _| 8); // 8 outer chunks
        let for_trip = reg.trip_const(8); // 8 elements each
                                          // Inner "simd" loop is trivial (trip 1); the element index is the
                                          // `for` iteration (regs[0]) under the `distribute` chunk (outer[0]).
        let body = reg.body(move |lane, _iv, v| {
            let y = v.args[0].as_ptr::<f64>();
            let chunk = v.outer[0].as_u64();
            let j = v.regs[0].as_u64();
            let i = chunk * 8 + j;
            lane.work(1);
            lane.write(y, i, (i + 1) as f64);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Distribute {
                trip: dist_trip,
                sched: Schedule::Static,
                iv_reg: 0,
                ops: vec![TeamOp::Parallel(ParallelOp {
                    desc: ParallelDesc::spmd(1),
                    known: true,
                    nregs: 1,
                    stage_regs: 1,
                    ops: vec![ThreadOp::For {
                        trip: for_trip,
                        sched: Schedule::Static,
                        iv_reg: 0,
                        across_teams: false,
                        ops: vec![ThreadOp::Simd { trip: reg.trip_const(1), body, known: true }],
                    }],
                })],
            }],
            team_regs: 1,
        };

        let cfg = KernelConfig {
            teams_mode: ExecMode::Generic,
            num_teams: 2,
            threads_per_team: 32,
            ..Default::default()
        };
        let args = [Slot::from_ptr(y)];
        launch_target(&mut dev, &cfg, &plan, &reg, &args).unwrap();
        let got = dev.global.read_slice(y, n as usize);
        let want: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn simd_reduce_computes_group_sums() {
    for cell in &CELLS {
        // parallel for { r = simd-reduce(+) ; y[row] = r } — a dot-product-like
        // pattern (the paper's §7 reduction extension).
        let mut dev = cell_device(cell, DeviceArch::a100());
        let rows = 16u64;
        let inner = 24u64;
        let xs: Vec<f64> = (0..rows * inner).map(|i| (i % 7) as f64).collect();
        let x = dev.global.alloc_from(&xs);
        let y = dev.global.alloc_zeroed::<f64>(rows as usize);

        let mut reg = Registry::new();
        let for_trip = reg.trip_const(rows);
        let simd_trip = reg.trip_const(inner);
        let red = reg.red(move |lane, iv, v| {
            let x = v.args[0].as_ptr::<f64>();
            let row = v.regs[0].as_u64();
            lane.work(1);
            lane.read(x, row * inner + iv)
        });
        let store = reg.seq(move |lane, v| {
            let y = v.args[1].as_ptr::<f64>();
            let row = v.regs[0].as_u64();
            let r = v.regs[1].as_f64();
            lane.write(y, row, r);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::generic(8),
                known: true,
                nregs: 2,
                stage_regs: 2,
                ops: vec![ThreadOp::For {
                    trip: for_trip,
                    sched: Schedule::Static,
                    iv_reg: 0,
                    across_teams: true,
                    ops: vec![
                        ThreadOp::SimdReduce {
                            trip: simd_trip,
                            body: red,
                            known: true,
                            dst_reg: 1,
                        },
                        ThreadOp::Seq(store),
                    ],
                }],
            })],
            team_regs: 0,
        };
        let cfg = KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 1,
            threads_per_team: 64,
            ..Default::default()
        };
        let args = [Slot::from_ptr(x), Slot::from_ptr(y)];
        launch_target(&mut dev, &cfg, &plan, &reg, &args).unwrap();
        let got = dev.global.read_slice(y, rows as usize);
        for row in 0..rows {
            let want: f64 = (0..inner).map(|iv| ((row * inner + iv) % 7) as f64).sum();
            assert_eq!(got[row as usize], want, "row {row}");
        }
    }
}

#[test]
fn sharing_space_overflow_uses_global_fallback() {
    for cell in &CELLS {
        // Many groups + small sharing space ⇒ zero-slot slices ⇒ global
        // fallback allocations (§5.3.1), and the kernel still computes
        // correctly.
        let rows = 16u64;
        let inner = 8u64;
        let mut dev = cell_device(cell, DeviceArch::a100());
        let n = (rows * inner) as usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys = vec![1.0f64; n];
        let x = dev.global.alloc_from(&xs);
        let y = dev.global.alloc_from(&ys);

        let mut reg = Registry::new();
        let (plan, _) = saxpy_plan(
            &mut reg,
            ExecMode::Spmd,
            ParallelDesc::generic(2), // 128 threads / 2 = 64 groups
        );
        let cfg = KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 2,
            threads_per_team: 128,
            sharing_space_bytes: 1024, // legacy size: 128 slots, 96 for groups
        };
        let args = [
            Slot::from_ptr(x),
            Slot::from_ptr(y),
            Slot::from_f64(2.0),
            Slot::from_u64(rows),
            Slot::from_u64(inner),
        ];
        let stats = launch_target(&mut dev, &cfg, &plan, &reg, &args).unwrap();
        assert!(
            stats.counters.sharing_global_fallbacks > 0,
            "64 groups × 1 slot cannot fit 3 staged slots"
        );
        let got = dev.global.read_slice(y, n);
        let want: Vec<f64> = (0..n).map(|i| 1.0 + 2.0 * i as f64).collect();
        assert_eq!(got, want);
        // Fallback segments were freed at end of the parallel region.
        assert_eq!(dev.global.live_bytes(), (n * 8 * 2) as u64);
    }
}

#[test]
fn bigger_sharing_space_avoids_fallback() {
    for cell in &CELLS {
        let rows = 16u64;
        let inner = 8u64;
        let mut dev = cell_device(cell, DeviceArch::a100());
        let n = (rows * inner) as usize;
        let x = dev.global.alloc_zeroed::<f64>(n);
        let y = dev.global.alloc_zeroed::<f64>(n);
        let mut reg = Registry::new();
        let (plan, _) = saxpy_plan(&mut reg, ExecMode::Spmd, ParallelDesc::generic(8));
        let cfg = KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 2,
            threads_per_team: 128,
            sharing_space_bytes: 2048, // paper default: 16 groups, 14 slots each
        };
        let args = [
            Slot::from_ptr(x),
            Slot::from_ptr(y),
            Slot::from_f64(2.0),
            Slot::from_u64(rows),
            Slot::from_u64(inner),
        ];
        let stats = launch_target(&mut dev, &cfg, &plan, &reg, &args).unwrap();
        assert_eq!(stats.counters.sharing_global_fallbacks, 0);
    }
}

#[test]
fn unknown_bodies_pay_indirect_calls() {
    for cell in &CELLS {
        let mut dev = cell_device(cell, DeviceArch::a100());
        let y = dev.global.alloc_zeroed::<f64>(64);
        let mut reg = Registry::new();
        let body = reg.body_extern(move |lane, iv, v| {
            let y = v.args[0].as_ptr::<f64>();
            lane.write(y, iv, iv as f64);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(32),
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops: vec![ThreadOp::Simd { trip: reg.trip_const(64), body, known: false }],
            })],
            team_regs: 0,
        };
        let cfg = KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 1,
            threads_per_team: 32,
            ..Default::default()
        };
        let stats = launch_target(&mut dev, &cfg, &plan, &reg, &[Slot::from_ptr(y)]).unwrap();
        assert!(stats.counters.indirect_calls > 0);
        // The parallel region itself is cascade-known; only the extern simd
        // body pays the indirect call.
        assert_eq!(stats.counters.cascade_dispatches, 1);
    }
}

#[test]
fn determinism_across_runs() {
    let run = || {
        run_saxpy(DeviceArch::a100(), ExecMode::Generic, ParallelDesc::generic(4), 64, 48).1.cycles
    };
    assert_eq!(run(), run());
}
