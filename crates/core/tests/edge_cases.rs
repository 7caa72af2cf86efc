//! Edge-case tests for the runtime interpreter: degenerate trip counts,
//! uneven schedules, multiple parallel regions with different group sizes,
//! dynamic scheduling, and nested loops.

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

fn cfg(teams: u32, threads: u32) -> KernelConfig {
    KernelConfig {
        teams_mode: ExecMode::Spmd,
        num_teams: teams,
        threads_per_team: threads,
        ..Default::default()
    }
}

#[test]
fn zero_trip_loops_do_nothing() {
    for cell in &CELLS {
        for mode in [ExecMode::Spmd, ExecMode::Generic] {
            let mut dev = cell_device(cell, DeviceArch::a100());
            let sentinel = dev.global.alloc_from(&[42.0f64]);
            let mut reg = Registry::new();
            let zero = reg.trip_const(0);
            let body = reg.body(|lane, _, v| {
                let p = v.args[0].as_ptr::<f64>();
                lane.write(p, 0, -1.0); // must never run
            });
            let plan = TargetPlan {
                ops: vec![TeamOp::Parallel(ParallelOp {
                    desc: ParallelDesc { mode, simdlen: 8 },
                    known: true,
                    nregs: 0,
                    stage_regs: 0,
                    ops: vec![
                        ThreadOp::Simd { trip: zero, body, known: true },
                        ThreadOp::For {
                            trip: zero,
                            sched: Schedule::Static,
                            iv_reg: 0,
                            across_teams: false,
                            ops: vec![ThreadOp::Simd { trip: zero, body, known: true }],
                        },
                    ],
                })],
                team_regs: 0,
            };
            let stats = launch_target(
                &mut dev,
                &cfg(2, 64),
                &plan_with_regs(plan, 1),
                &reg,
                &[Slot::from_ptr(sentinel)],
            )
            .unwrap();
            assert_eq!(dev.global.read(sentinel, 0), 42.0, "{mode:?}");
            assert!(stats.cycles > 0);
        }
    }
}

fn plan_with_regs(mut plan: TargetPlan, nregs: usize) -> TargetPlan {
    if let TeamOp::Parallel(p) = &mut plan.ops[0] {
        p.nregs = p.nregs.max(nregs);
    }
    plan
}

#[test]
fn trip_smaller_than_one_group() {
    for cell in &CELLS {
        // 3 iterations, group size 32: only 3 lanes do work, the rest idle —
        // but the result must still be exact.
        let mut dev = cell_device(cell, DeviceArch::a100());
        let out = dev.global.alloc_zeroed::<f64>(3);
        let mut reg = Registry::new();
        let trip = reg.trip_const(3);
        let body = reg.body(|lane, iv, v| {
            let p = v.args[0].as_ptr::<f64>();
            lane.write(p, iv, iv as f64 + 1.0);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::generic(32),
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops: vec![ThreadOp::Simd { trip, body, known: true }],
            })],
            team_regs: 0,
        };
        launch_target(&mut dev, &cfg(1, 32), &plan, &reg, &[Slot::from_ptr(out)]).unwrap();
        assert_eq!(dev.global.read_slice(out, 3), vec![1.0, 2.0, 3.0]);
    }
}

#[test]
fn dynamic_schedule_covers_and_charges_atomics() {
    for cell in &CELLS {
        let mut dev = cell_device(cell, DeviceArch::a100());
        let out = dev.global.alloc_zeroed::<u64>(100);
        let mut reg = Registry::new();
        let trip = reg.trip_const(100);
        let one = reg.trip_const(1);
        let body = reg.body(|lane, _, v| {
            let p = v.args[0].as_ptr::<u64>();
            let i = v.regs[0].as_u64();
            lane.atomic_add_u64(p, i, 1);
        });
        let mk = |sched| TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(4),
                known: true,
                nregs: 1,
                stage_regs: 1,
                ops: vec![ThreadOp::For {
                    trip,
                    sched,
                    iv_reg: 0,
                    across_teams: true,
                    ops: vec![ThreadOp::Simd { trip: one, body, known: true }],
                }],
            })],
            team_regs: 0,
        };
        let dyn_stats = launch_target(
            &mut dev,
            &cfg(2, 64),
            &mk(Schedule::Dynamic(2)),
            &reg,
            &[Slot::from_ptr(out)],
        )
        .unwrap();
        assert!(dev.global.read_slice(out, 100).iter().all(|&c| c == 1));
        // Dynamic grabs cost extra issue relative to the cyclic equivalent.
        let mut dev2 = cell_device(cell, DeviceArch::a100());
        let out2 = dev2.global.alloc_zeroed::<u64>(100);
        let cyc_stats = launch_target(
            &mut dev2,
            &cfg(2, 64),
            &mk(Schedule::Cyclic(2)),
            &reg,
            &[Slot::from_ptr(out2)],
        )
        .unwrap();
        assert!(dyn_stats.total_issue > cyc_stats.total_issue);
    }
}

#[test]
fn two_parallel_regions_with_different_group_sizes() {
    for cell in &CELLS {
        // §5.3.1: "the size of a SIMD group can differ among different parallel
        // regions" — the sharing space is re-partitioned per region.
        let mut dev = cell_device(cell, DeviceArch::a100());
        let a = dev.global.alloc_zeroed::<f64>(64);
        let b = dev.global.alloc_zeroed::<f64>(64);
        let mut reg = Registry::new();
        let trip = reg.trip_const(64);
        let body_a = reg.body(|lane, iv, v| {
            let p = v.args[0].as_ptr::<f64>();
            lane.write(p, iv, 1.0);
        });
        let body_b = reg.body(|lane, iv, v| {
            let p = v.args[1].as_ptr::<f64>();
            lane.write(p, iv, 2.0);
        });
        let plan = TargetPlan {
            ops: vec![
                TeamOp::Parallel(ParallelOp {
                    desc: ParallelDesc::generic(4),
                    known: true,
                    nregs: 0,
                    stage_regs: 0,
                    ops: vec![ThreadOp::Simd { trip, body: body_a, known: true }],
                }),
                TeamOp::Parallel(ParallelOp {
                    desc: ParallelDesc::generic(32),
                    known: true,
                    nregs: 0,
                    stage_regs: 0,
                    ops: vec![ThreadOp::Simd { trip, body: body_b, known: true }],
                }),
            ],
            team_regs: 0,
        };
        let stats = launch_target(
            &mut dev,
            &cfg(1, 64),
            &plan,
            &reg,
            &[Slot::from_ptr(a), Slot::from_ptr(b)],
        )
        .unwrap();
        assert_eq!(stats.counters.parallel_regions, 2);
        assert!(dev.global.read_slice(a, 64).iter().all(|&v| v == 1.0));
        assert!(dev.global.read_slice(b, 64).iter().all(|&v| v == 2.0));
    }
}

#[test]
fn nested_for_loops_expose_nonconforming_semantics() {
    for cell in &CELLS {
        // OpenMP forbids nesting a worksharing loop inside another without an
        // intervening `parallel` — this test locks in *why*: the inner `for`
        // divides its iterations over the team's threads, but each thread is
        // at a different outer iteration, so only the "diagonal" (i == j)
        // pairs execute. The runtime reproduces that non-conforming behavior
        // faithfully instead of silently fixing it.
        let mut dev = cell_device(cell, DeviceArch::a100());
        let out = dev.global.alloc_zeroed::<u64>(30);
        let mut reg = Registry::new();
        let outer = reg.trip_const(6);
        let inner = reg.trip_const(5);
        let one = reg.trip_const(1);
        let body = reg.body(|lane, _, v| {
            let p = v.args[0].as_ptr::<u64>();
            let (i, j) = (v.regs[0].as_u64(), v.regs[1].as_u64());
            lane.atomic_add_u64(p, i * 5 + j, 1);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(1),
                known: true,
                nregs: 2,
                stage_regs: 2,
                ops: vec![ThreadOp::For {
                    trip: outer,
                    sched: Schedule::Static,
                    iv_reg: 0,
                    across_teams: false,
                    ops: vec![ThreadOp::For {
                        trip: inner,
                        sched: Schedule::Cyclic(1),
                        iv_reg: 1,
                        across_teams: false,
                        ops: vec![ThreadOp::Simd { trip: one, body, known: true }],
                    }],
                }],
            })],
            team_regs: 0,
        };
        launch_target(&mut dev, &cfg(1, 32), &plan, &reg, &[Slot::from_ptr(out)]).unwrap();
        let got = dev.global.read_slice(out, 30);
        for i in 0..6u64 {
            for j in 0..5u64 {
                let want = u64::from(i == j); // only the diagonal runs
                assert_eq!(got[(i * 5 + j) as usize], want, "({i},{j})");
            }
        }
    }
}

#[test]
fn wave64_group_sizes_up_to_64() {
    for cell in &CELLS {
        // AMD-like warp width allows 64-lane SIMD groups (SPMD mode).
        let mut dev = cell_device(cell, DeviceArch::mi100());
        let out = dev.global.alloc_zeroed::<f64>(256);
        let mut reg = Registry::new();
        let trip = reg.trip_const(256);
        let body = reg.body(|lane, iv, v| {
            let p = v.args[0].as_ptr::<f64>();
            lane.write(p, iv, iv as f64);
        });
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(64),
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops: vec![ThreadOp::Simd { trip, body, known: true }],
            })],
            team_regs: 0,
        };
        launch_target(&mut dev, &cfg(1, 128), &plan, &reg, &[Slot::from_ptr(out)]).unwrap();
        let got = dev.global.read_slice(out, 256);
        assert!((0..256).all(|i| got[i] == i as f64));
    }
}

#[test]
fn launch_geometry_mismatch_is_rejected() {
    for cell in &CELLS {
        // threads_per_team not a multiple of the warp size panics loudly
        // rather than silently mis-mapping groups.
        let mut dev = cell_device(cell, DeviceArch::a100());
        let mut reg = Registry::new();
        let trip = reg.trip_const(1);
        let body = reg.body(|_, _, _| {});
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(1),
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops: vec![ThreadOp::Simd { trip, body, known: true }],
            })],
            team_regs: 0,
        };
        let bad = KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 1,
            threads_per_team: 48,
            ..Default::default()
        };
        let err = launch_target(&mut dev, &bad, &plan, &reg, &[]);
        assert!(err.is_err(), "unaligned block size must be rejected");
    }
}
