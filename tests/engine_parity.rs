//! Engine parity under instrumentation: simtcheck and the event trace see
//! the same launch whichever engine runs it.
//!
//! Both engines make the same sanitizer calls (footprint brackets, the
//! sharing-space layout, the sequential-simd divergence report) and record
//! the same event trace, so the bytecode engine that serves every default
//! launch is the one the sanitizer checks. The suite pins that three ways:
//!
//! * one deliberately broken plan per runtime-reported violation kind must
//!   yield the same non-empty violation list (and equal [`LaunchStats`])
//!   under [`Engine::Tree`] and [`Engine::Bytecode`];
//! * the Fig 4 / Fig 3/5 protocol plans and a seeded stream of random
//!   plans record identical `TraceEvent` sequences on both engines,
//!   `SuperStep.lanes` included (the bytecode engine's idle-lane skip must
//!   not show in a trace).
//!
//! A seeded stream of random plans must also agree launch for launch in
//! every `testkit::CELLS` cell. That every in-tree kernel runs
//! violation-free and with equal stats on both engines under the sanitizer
//! is checked by `tests/archmatrix.rs` and `tests/bytecode.rs`.

use simt_omp::codegen::builder::{Schedule, TargetBuilder};
use simt_omp::codegen::{launch_flat, CompiledKernel, Engine, FlatProgram};
use simt_omp::gpu::mem::shared::SmOff;
use simt_omp::gpu::{Device, DeviceArch, LaunchError, LaunchStats, Slot, Violation};
use simt_omp::kernels::plangen::{self, random_kernel};
use simt_omp::kernels::stencil2d;
use simt_omp::rt::config::{ExecMode, KernelConfig, ParallelDesc};
use simt_omp::rt::dispatch::{Footprint, Registry};
use simt_omp::rt::exec::launch_target;
use simt_omp::rt::plan::{ParallelOp, TargetPlan, TeamOp, ThreadOp};
use testkit::{cases, CELLS};

/// Allocates a plan's arguments on a fresh device and returns the payload.
type Setup = Box<dyn Fn(&mut Device) -> Vec<Slot>>;

/// Run `k` once per engine on fresh sanitized devices at `threads` sim
/// threads; assert equal stats and return them.
fn sanitized_pair(
    label: &str,
    k: &CompiledKernel,
    arch: &DeviceArch,
    threads: usize,
    setup: &Setup,
) -> LaunchStats {
    let run = |engine| {
        let mut dev = Device::new(arch.clone());
        dev.set_sim_threads(Some(threads));
        dev.enable_sanitizer();
        let args = setup(&mut dev);
        k.launch_with_engine(&mut dev, &args, engine)
            .unwrap_or_else(|e| panic!("{label} ({engine:?}, threads={threads}): {e:?}"))
    };
    let tree = run(Engine::Tree);
    let flat = run(Engine::Bytecode);
    assert_eq!(tree, flat, "{label} (threads={threads}): engines disagree under the sanitizer");
    flat
}

fn no_args() -> Setup {
    Box::new(|_| Vec::new())
}

fn out_arg(n: usize) -> Setup {
    Box::new(move |dev| vec![Slot::from_ptr(dev.global.alloc_zeroed::<f64>(n))])
}

/// One broken plan: label, kernel, arch, argument set-up, and the
/// violation kind it must report.
struct Broken {
    label: &'static str,
    k: CompiledKernel,
    arch: DeviceArch,
    setup: Setup,
    expect: fn(&Violation) -> bool,
}

fn broken_plans() -> Vec<Broken> {
    let mut out = Vec::new();

    // Team-sequential chunk writing a register its footprint omits.
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let inner = b.trip_const(8);
    let k = b.build(|t| {
        let r = t.alloc_reg();
        t.seq_footprint(Footprint::new(), move |lane, v| {
            lane.work(1);
            v.regs[r.0] = Slot::from_u64(7);
        });
        t.parallel(8, |p| p.simd(inner, |lane, _, _| lane.work(1)));
    });
    out.push(Broken {
        label: "footprint register write (team seq)",
        k,
        arch: DeviceArch::a100(),
        setup: no_args(),
        expect: |v| matches!(v, Violation::FootprintViolation { func, .. } if func == "team seq #0"),
    });

    // Thread-sequential chunk writing a register its footprint omits.
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let inner = b.trip_const(8);
    let k = b.build(|t| {
        t.parallel(8, |p| {
            let r = p.alloc_reg();
            p.seq_footprint(Footprint::new(), move |lane, v| {
                lane.work(1);
                v.regs[r.0] = Slot::from_u64(3);
            });
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    out.push(Broken {
        label: "footprint register write (thread seq)",
        k,
        arch: DeviceArch::a100(),
        setup: no_args(),
        expect: |v| matches!(v, Violation::FootprintViolation { func, .. } if func == "seq #0"),
    });

    // simd body storing to global memory while declaring no written args.
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let inner = b.trip_const(16);
    let k = b.build(|t| {
        t.parallel(8, |p| {
            p.simd_footprint(inner, Footprint::new().reads_args(&[0]), |lane, iv, v| {
                lane.write(v.args[0].as_ptr::<f64>(), iv, 1.0);
            });
        });
    });
    out.push(Broken {
        label: "undeclared global write",
        k,
        arch: DeviceArch::a100(),
        setup: out_arg(16),
        expect: |v| {
            matches!(v, Violation::FootprintViolation { func, detail, .. }
                if func == "simd body #0" && detail.contains("args_written"))
        },
    });

    // Reducing body performing an atomic it does not declare.
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let inner = b.trip_const(16);
    let k = b.build(|t| {
        t.parallel(8, |p| {
            p.simd_reduce_footprint(inner, Footprint::new().writes_args(&[0]), |lane, _, v| {
                lane.atomic_add_f64(v.args[0].as_ptr::<f64>(), 0, 1.0);
                1.0
            });
        });
    });
    out.push(Broken {
        label: "undeclared atomic",
        k,
        arch: DeviceArch::a100(),
        setup: out_arg(1),
        expect: |v| {
            matches!(v, Violation::FootprintViolation { func, detail, .. }
                if func == "reduce body #0" && detail.contains("atomic"))
        },
    });

    // Generic simd body declaring a barrier on a backend without warp
    // barriers: the sequential-simd legalization runs SIMD mains only.
    let mut b = TargetBuilder::new().num_teams(1).threads(64);
    let rows = b.trip_const(2);
    let inner = b.trip_const(8);
    let k = b.build(|t| {
        t.distribute_parallel_for_with_mode(
            rows,
            Schedule::Static,
            8,
            ExecMode::Generic,
            |p, _| {
                p.simd_footprint(inner, Footprint::new().uses_barriers(), |lane, _, _| {
                    lane.work(1)
                });
            },
        );
    });
    out.push(Broken {
        label: "sequential-simd barrier divergence (mi100)",
        k,
        arch: DeviceArch::mi100(),
        setup: no_args(),
        expect: |v| matches!(v, Violation::BarrierDivergence { .. }),
    });

    // SIMD mains of a generic region all staging into one group's slice.
    let mut b = TargetBuilder::new().num_teams(1).threads(32);
    let inner = b.trip_const(4);
    let k = b.build(|t| {
        t.parallel(8, |p| {
            p.seq(|lane, _| lane.smem_write_slot(SmOff(0), 34, Slot::from_u64(1)));
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    out.push(Broken {
        label: "group-slice overflow",
        k,
        arch: DeviceArch::a100(),
        setup: no_args(),
        expect: |v| matches!(v, Violation::SharingOverflow { slot: 34, .. }),
    });

    // simd body reading a sharing slot the staging protocol never writes.
    let mut b = TargetBuilder::new().num_teams(1).threads(32);
    let outer = b.trip_const(1);
    let inner = b.trip_const(4);
    let k = b.build(|t| {
        t.distribute_parallel_for(outer, Schedule::Static, 32, |p, _| {
            p.seq(|lane, _| lane.work(1));
            p.simd(inner, |lane, _, _| {
                lane.smem_read_slot(SmOff(0), 37);
            });
        });
    });
    out.push(Broken {
        label: "unwritten sharing read",
        k,
        arch: DeviceArch::a100(),
        setup: no_args(),
        expect: |v| matches!(v, Violation::UnwrittenRead { slot: 37, .. }),
    });

    // Generic team post overflowing the team slice on every region: the
    // global allocations are never freed.
    let mut b = TargetBuilder::new().num_teams(1).threads(64);
    let inner = b.trip_const(4);
    let k = b.build(|t| {
        t.seq(|lane, _| lane.work(1));
        for _ in 0..40 {
            t.alloc_reg();
        }
        t.parallel(1, |p| p.simd(inner, |lane, _, _| lane.work(1)));
    });
    out.push(Broken {
        label: "leaked fallback",
        k,
        arch: DeviceArch::a100(),
        setup: out_arg(1),
        expect: |v| matches!(v, Violation::LeakedFallback { .. }),
    });

    // stencil2d with a 0 B sharing space: its generic team posts have no
    // team slice to stage through (an E-TEAM-POST lint error).
    let k = stencil2d::build(2, 64, 8, 0, stencil2d::Stencil2dVariant::HaloShared);
    out.push(Broken {
        label: "stencil2d with a 0 B sharing space",
        k,
        arch: DeviceArch::a100(),
        setup: Box::new(|dev| {
            let w = stencil2d::Stencil2dWorkload::generate(34, 18);
            stencil2d::Stencil2dDev::upload(dev, &w, 8).args().to_vec()
        }),
        expect: |v| matches!(v, Violation::LeakedFallback { .. }),
    });

    out
}

#[test]
fn broken_plans_report_identical_violations_on_both_engines() {
    for p in broken_plans() {
        for threads in [1usize, 4] {
            let stats = sanitized_pair(p.label, &p.k, &p.arch, threads, &p.setup);
            assert!(
                stats.violations.iter().any(p.expect),
                "{} (threads={threads}): expected violation missing: {:#?}",
                p.label,
                stats.violations
            );
        }
    }
}

#[test]
fn both_engines_reject_an_l1_set_count_that_is_not_a_power_of_two() {
    // A 12-line L1 is three 4-way sets: both engines and the oracle must
    // return the typed error before any block runs, not panic.
    let mut b = TargetBuilder::new().num_teams(2).threads(64);
    let inner = b.trip_const(8);
    let k = b.build(|t| t.parallel(8, |p| p.simd(inner, |lane, _, _| lane.work(1))));
    let err = LaunchError::BadGeometry { l1_lines: 12, smem_banks: 32 };
    for cell in &testkit::CELLS {
        let mut dev = Device::a100();
        dev.cost.l1_lines = 12;
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
        assert_eq!(k.launch(&mut dev, &[]), Err(err), "launch {cell:?}");
        assert_eq!(k.launch_oracle(&mut dev, &[]), Err(err), "launch_oracle {cell:?}");
    }
}

// ---------------------------------------------------------------------------
// Event-trace parity
// ---------------------------------------------------------------------------

/// Trace one raw plan launch on each engine, sanitizer off and on; assert
/// identical events.
fn assert_trace_parity(
    label: &str,
    arch: &DeviceArch,
    cfg: &KernelConfig,
    plan: &TargetPlan,
    reg: &Registry,
) {
    for sanitize in [false, true] {
        let traced = || {
            let mut dev = Device::new(arch.clone());
            dev.set_sim_threads(Some(1));
            dev.enable_trace(100_000);
            if sanitize {
                dev.enable_sanitizer();
            }
            dev
        };
        let label = format!("{label} (sanitize {sanitize})");
        let mut dev = traced();
        let tree = launch_target(&mut dev, cfg, plan, reg, &[]).unwrap();
        let tree_trace = std::mem::take(&mut dev.trace);
        let prog = FlatProgram::lower(plan, reg, cfg, arch, 0);
        let mut dev = traced();
        let flat = launch_flat(&mut dev, cfg, &prog, reg, &[]).unwrap();
        assert_eq!(tree, flat, "{label}: engines disagree on LaunchStats");
        assert_eq!(tree_trace.dropped(), 0, "{label}: trace cap too small");
        assert!(!tree_trace.events().is_empty(), "{label}: nothing traced");
        let flat_events = dev.trace.events();
        assert_eq!(tree_trace.events(), flat_events, "{label}: engines disagree on the trace");
    }
}

/// The `trace_sequences` protocol plan: one `simd` loop of `trip`
/// iterations (a constant trip, which the bytecode engine evaluates off
/// the lane path) inside one parallel region.
fn one_simd_plan(reg: &mut Registry, mode: ExecMode, gs: u32, trip: u64) -> TargetPlan {
    let trip = reg.trip_const(trip);
    let body = reg.body(|lane, _, _| lane.work(1));
    TargetPlan {
        ops: vec![TeamOp::Parallel(ParallelOp {
            desc: ParallelDesc { mode, simdlen: gs },
            known: true,
            nregs: 0,
            stage_regs: 0,
            ops: vec![ThreadOp::Simd { trip, body, known: true }],
        })],
        team_regs: 0,
    }
}

#[test]
fn fig4_and_fig35_protocol_traces_match_across_engines() {
    use ExecMode::{Generic, Spmd};
    for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
        for (teams_mode, par_mode) in
            [(Spmd, Generic), (Spmd, Spmd), (Generic, Spmd), (Generic, Generic)]
        {
            // A trip below the group size leaves lanes idle: the skip the
            // bytecode engine takes untraced must not show here.
            for (gs, trip) in [(8, 64), (8, 5), (1, 3), (32, 40)] {
                let mut reg = Registry::new();
                let plan = one_simd_plan(&mut reg, par_mode, gs, trip);
                let cfg = KernelConfig {
                    teams_mode,
                    num_teams: 2,
                    threads_per_team: 64,
                    ..Default::default()
                };
                let label =
                    format!("{} {teams_mode:?}/{par_mode:?} gs={gs} trip={trip}", arch.name);
                assert_trace_parity(&label, &arch, &cfg, &plan, &reg);
            }
        }
    }
}

#[test]
fn team_distribute_traces_match_across_engines() {
    // Fig 3/5 team flow around worksharing loops whose trips are constant
    // or pure at team and thread scope: the bytecode engine evaluates those off the
    // lane path, so under a trace it must replay the tree walker's
    // chargeless trip super-steps.
    for teams_mode in [ExecMode::Generic, ExecMode::Spmd] {
        let mut reg = Registry::new();
        let seq = reg.seq(|lane, _| lane.work(2));
        let rows = reg.trip_const(3);
        let bands = reg.trip_pure(|v| 1 + v.regs[0].as_u64(), true);
        let cols = reg.trip_pure(|v| 2 + v.outer[0].as_u64(), true);
        let inner = reg.trip_pure(|v| 3 + v.regs[0].as_u64(), false);
        let body = reg.body(|lane, _, _| lane.work(1));
        let region = |reg: &mut Registry| {
            TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc { mode: ExecMode::Spmd, simdlen: 8 },
                known: true,
                nregs: 1,
                stage_regs: 1,
                ops: vec![
                    ThreadOp::Seq(reg.seq(|lane, _| lane.work(1))),
                    ThreadOp::For {
                        trip: cols,
                        sched: Schedule::Cyclic(1),
                        iv_reg: 0,
                        across_teams: false,
                        ops: vec![ThreadOp::Simd { trip: inner, body, known: true }],
                    },
                ],
            })
        };
        let plan = TargetPlan {
            ops: vec![
                TeamOp::Seq(seq),
                TeamOp::Distribute {
                    trip: rows,
                    sched: Schedule::Static,
                    iv_reg: 0,
                    ops: vec![region(&mut reg)],
                },
                TeamOp::Distribute {
                    trip: bands,
                    sched: Schedule::Dynamic(1),
                    iv_reg: 0,
                    ops: vec![region(&mut reg)],
                },
            ],
            team_regs: 1,
        };
        let cfg =
            KernelConfig { teams_mode, num_teams: 2, threads_per_team: 64, ..Default::default() };
        assert_trace_parity(
            &format!("distribute {teams_mode:?}"),
            &DeviceArch::a100(),
            &cfg,
            &plan,
            &reg,
        );
    }
}

#[test]
fn sharing_overflow_trace_matches_across_engines() {
    let mut reg = Registry::new();
    let trip = reg.trip_const(16);
    let body = reg.body(|lane, _, _| lane.work(1));
    let plan = TargetPlan {
        ops: vec![TeamOp::Parallel(ParallelOp {
            desc: ParallelDesc::generic(2),
            known: true,
            nregs: 4,
            stage_regs: 4,
            ops: vec![ThreadOp::Simd { trip, body, known: true }],
        })],
        team_regs: 0,
    };
    let cfg = KernelConfig {
        teams_mode: ExecMode::Spmd,
        num_teams: 1,
        threads_per_team: 128,
        sharing_space_bytes: 512,
    };
    assert_trace_parity("sharing overflow", &DeviceArch::a100(), &cfg, &plan, &reg);
}

#[test]
fn random_plan_traces_match_across_engines() {
    // `launch_oracle` asserts identical stats, memory and, on a traced
    // device, identical event traces.
    cases("random_plan_traces_match_across_engines", 24, |rng| {
        let (k, arch) = random_kernel(rng);
        let mut dev = Device::new(arch);
        dev.set_sim_threads(Some(if rng.flip() { 1 } else { 4 }));
        dev.enable_trace(1 << 16);
        if rng.flip() {
            dev.enable_sanitizer();
        }
        let out = dev.global.alloc_zeroed::<f64>(plangen::OUT_SLOTS);
        let tbl = dev.global.alloc_from(&[rng.range_u64(0, 7), rng.range_u64(1, 9)]);
        let n = rng.range_u64(1, 7);
        let args = [Slot::from_ptr(out), Slot::from_ptr(tbl), Slot::from_u64(n)];
        k.launch_oracle(&mut dev, &args).unwrap();
        assert!(!dev.trace.events().is_empty());
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
