//! simtlint acceptance tests.
//!
//! The static verifier and the simtcheck sanitizer look at the same plans
//! from opposite sides: each seeded-illegal kernel here is flagged by
//! `CompiledKernel::lint` *before* launch and — when run anyway through the
//! ungated `launch` escape hatch — caught by the sanitizer *during* it.
//! A property test then checks that the verdicts of the two agree on random
//! legal plans: the W-FALLBACK prediction matches the runtime fallback
//! counter, and SPMD-ized kernels run sanitizer-clean.

use gpu_sim::mem::shared::SmOff;
use gpu_sim::{Device, DeviceArch, Slot, Violation};
use omp_codegen::builder::{Schedule, TargetBuilder};
use omp_core::config::ExecMode;
use omp_core::dispatch::Footprint;
use omp_kernels::stencil2d;
use testkit::{cases, Cell, SimRng, CELLS};

/// A sanitized a100 device with `cell`'s sim threads.
fn sanitized(cell: &Cell) -> Device {
    let mut d = Device::a100();
    d.set_sim_threads(cell.threads);
    d.enable_sanitizer();
    d
}

// ---------------------------------------------------------------------------
// Seeded-illegal plans: static error ↔ runtime violation
// ---------------------------------------------------------------------------

/// A team-sequential chunk that honestly declares side effects inside a
/// forced-SPMD teams region: simtlint rejects the plan (E-SPMD-EFFECT);
/// running it anyway makes every thread apply the effect redundantly, which
/// simtcheck sees as unsynchronized same-slot shared-memory writes.
#[test]
fn spmd_effect_error_pairs_with_runtime_race() {
    for cell in &CELLS {
        let mut b = TargetBuilder::new().num_teams(1).threads(64).force_teams_mode(ExecMode::Spmd);
        let inner = b.trip_const(8);
        let k = b.build(|t| {
            t.seq_footprint(Footprint::new().writes_args(&[0]), |lane, _| {
                lane.smem_write_slot(SmOff(0), 0, Slot::from_u64(1));
            });
            t.parallel(8, |p| {
                p.simd(inner, |lane, _, _| lane.work(1));
            });
        });
        let report = k.lint(&DeviceArch::a100(), 1);
        assert_eq!(report.with_code("E-SPMD-EFFECT").count(), 1, "{}", report.render("kernel"));
        assert!(report.has_errors());

        let mut dev = sanitized(cell);
        let out = dev.global.alloc_zeroed::<f64>(1);
        let stats = k.launch(&mut dev, &[Slot::from_ptr(out)]).unwrap();
        assert!(
            stats.violations.iter().any(|v| matches!(v, Violation::SharedMemRace { slot: 0, .. })),
            "expected a shared-memory race on slot 0: {:#?}",
            stats.violations
        );
    }
}

/// A `distribute parallel for` nested inside a `distribute` loop: team
/// iterations would be distributed twice (static-only — at runtime this
/// silently computes a subset of iterations per team, which no sanitizer
/// can distinguish from intent).
#[test]
fn nested_worksharing_is_rejected() {
    let mut b = TargetBuilder::new();
    let rows = b.trip_const(4);
    let cols = b.trip_const(4);
    let inner = b.trip_const(2);
    let k = b.build(|t| {
        t.distribute(rows, Schedule::Static, |t, _r| {
            t.distribute_parallel_for(cols, Schedule::Static, 4, |p, _c| {
                p.simd(inner, |lane, _, _| lane.work(1));
            });
        });
    });
    let report = k.lint(&DeviceArch::a100(), 0);
    assert_eq!(report.with_code("E-NEST").count(), 1, "{}", report.render("kernel"));
}

/// A generic teams region whose per-parallel-region post (fn + args + team
/// registers) overflows the 32-slot team slice: simtlint proves every post
/// spills to a global allocation (E-TEAM-POST); at runtime the allocations
/// are never freed and simtcheck reports the leak at `__target_deinit`.
#[test]
fn team_post_overflow_error_pairs_with_runtime_leak() {
    for cell in &CELLS {
        let mut b = TargetBuilder::new().num_teams(1).threads(64);
        let inner = b.trip_const(4);
        let k = b.build(|t| {
            t.seq(|lane, _| lane.work(1));
            // 40 team registers: 1 + 1 arg + 40 = 42 slots > the 32-slot slice.
            for _ in 0..40 {
                t.alloc_reg();
            }
            t.parallel(1, |p| {
                p.simd(inner, |lane, _, _| lane.work(1));
            });
        });
        assert_eq!(k.analysis.teams_mode, ExecMode::Generic);
        let report = k.lint(&DeviceArch::a100(), 1);
        assert_eq!(report.with_code("E-TEAM-POST").count(), 1, "{}", report.render("kernel"));

        let mut dev = sanitized(cell);
        let out = dev.global.alloc_zeroed::<f64>(1);
        let stats = k.launch(&mut dev, &[Slot::from_ptr(out)]).unwrap();
        assert!(
            stats.violations.iter().any(|v| matches!(v, Violation::LeakedFallback { .. })),
            "expected a leaked-fallback report: {:#?}",
            stats.violations
        );
    }
}

/// A simd body declaring a register the generic-mode protocol never stages:
/// simtlint flags the declaration against the staged range (E-REG); the
/// body's matching raw read of the never-written slice slot is an
/// unwritten-read violation at runtime.
#[test]
fn never_staged_read_error_pairs_with_runtime_unwritten_read() {
    for cell in &CELLS {
        let mut b = TargetBuilder::new().num_teams(1).threads(32);
        let outer = b.trip_const(1);
        let inner = b.trip_const(4);
        let k = b.build(|t| {
            t.distribute_parallel_for(outer, Schedule::Static, 32, |p, _i| {
                p.seq(|lane, _| lane.work(1)); // opaque: keeps the region generic
                p.simd_footprint(inner, Footprint::new().reads_regs(&[3]), |lane, _, _| {
                    // The staged payload occupies group-slice slots 0..3 (fn,
                    // trip, register 0); "register 3" would sit at slice slot 5
                    // — absolute slot 32 + 5 — which nothing ever writes.
                    lane.smem_read_slot(SmOff(0), 37);
                });
            });
        });
        assert_eq!(k.analysis.parallels[0].desc.mode, ExecMode::Generic);
        let report = k.lint(&DeviceArch::a100(), 0);
        assert_eq!(report.with_code("E-REG").count(), 1, "{}", report.render("kernel"));
        let diag = report.with_code("E-REG").next().unwrap();
        assert!(diag.message.contains("staged"), "{}", diag.message);

        let mut dev = sanitized(cell);
        let stats = k.launch(&mut dev, &[]).unwrap();
        assert!(
            stats.violations.iter().any(|v| matches!(v, Violation::UnwrittenRead { slot: 37, .. })),
            "expected an unwritten read of slot 37: {:#?}",
            stats.violations
        );
    }
}

/// Barrier-bearing code and cross-team reductions under a worksharing loop
/// with a per-worker trip count statically diverge: workers that finish
/// early never reach the rendezvous.
#[test]
fn divergent_barrier_under_varying_trip_is_rejected() {
    let mut b = TargetBuilder::new();
    let varying = b.trip_varying(|_, _| 3);
    let inner = b.trip_const(2);
    let k = b.build(|t| {
        t.parallel(4, |p| {
            p.for_loop(varying, Schedule::Static, |p, _| {
                let s = p.simd_reduce(inner, |lane, iv, _| {
                    lane.work(1);
                    iv as f64
                });
                p.reduce_across(s, 0, 0);
            });
        });
    });
    let report = k.lint(&DeviceArch::a100(), 1);
    assert_eq!(report.with_code("E-DIVERGE").count(), 1, "{}", report.render("kernel"));
}

/// Degenerate schedules are legal but warned about.
#[test]
fn degenerate_schedules_warn() {
    let mut b = TargetBuilder::new();
    let zero = b.trip_const(0);
    let inner = b.trip_const(4);
    let k = b.build(|t| {
        t.distribute_parallel_for(zero, Schedule::Cyclic(0), 4, |p, _| {
            p.simd(inner, |lane, _, _| lane.work(1));
        });
    });
    let report = k.lint(&DeviceArch::a100(), 0);
    assert_eq!(report.with_code("W-ZERO-TRIP").count(), 1, "{}", report.render("kernel"));
    assert_eq!(report.with_code("W-CHUNK").count(), 1, "{}", report.render("kernel"));
    assert!(!report.has_errors());
}

/// The forgotten-`synchronizeWarp` halo bug, plan-built
/// ([`stencil2d::build_halo_demo`]): SPMD halo staging through raw
/// sharing-space slots with nothing ordering the redundant writes against
/// the lanes' reads. The static race detector proves one E-RACE per
/// declared halo slot; launching anyway makes simtcheck report the
/// predicted `SharedMemRace` on each of them.
#[test]
fn static_race_errors_pair_with_runtime_shared_mem_races() {
    for cell in &CELLS {
        let k = stencil2d::build_halo_demo(false);
        let report = k.lint(&DeviceArch::a100(), 2);
        assert_eq!(report.with_code("E-RACE").count(), 8, "{}", report.render("kernel"));
        for diag in report.with_code("E-RACE") {
            assert!(diag.message.contains("SharedMemRace"), "{}", diag.message);
        }

        let mut dev = sanitized(cell);
        let row: Vec<f64> = (0..64).map(|x| (x * 3 % 23) as f64).collect();
        let u = dev.global.alloc_from(&row);
        let out = dev.global.alloc_zeroed::<f64>(32);
        let stats = k.launch(&mut dev, &[Slot::from_ptr(u), Slot::from_ptr(out)]).unwrap();
        for slot in 0..8u32 {
            assert!(
                stats
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::SharedMemRace { slot: s, .. } if *s == slot)),
                "statically proven race on slot {slot} never fired: {:#?}",
                stats.violations
            );
        }
        // And nothing raced outside the statically predicted slots.
        for v in &stats.violations {
            if let Violation::SharedMemRace { slot, .. } = v {
                assert!(*slot < 8, "unpredicted race: {v}");
            }
        }
    }
}

/// The same halo blend with the staging protocol doing the ordering
/// (generic mode, halo in staged scope registers): simtlint-clean and
/// sanitizer-clean.
#[test]
fn protocol_ordered_halo_staging_is_race_free() {
    for cell in &CELLS {
        let k = stencil2d::build_halo_demo(true);
        let report = k.lint(&DeviceArch::a100(), 2);
        assert!(!report.has_errors() && !report.has_warnings(), "{}", report.render("kernel"));

        let mut dev = sanitized(cell);
        let row: Vec<f64> = (0..64).map(|x| (x * 3 % 23) as f64).collect();
        let u = dev.global.alloc_from(&row);
        let out = dev.global.alloc_zeroed::<f64>(32);
        let stats = k.run(&mut dev, &[Slot::from_ptr(u), Slot::from_ptr(out)]);
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);
    }
}

/// A generic-mode simd body declaring its own warp-level barrier: legal on
/// a100 (warp syncs exist), impossible on mi100 (§5.4.1 sequential
/// fallback runs SIMD mains only). simtlint proves the mismatch per
/// target (E-ARCH); running on the barrier-less target anyway makes
/// simtcheck report the predicted BarrierDivergence.
#[test]
fn arch_barrier_error_pairs_with_runtime_divergence() {
    for cell in &CELLS {
        let mut b = TargetBuilder::new().num_teams(1).threads(64);
        let rows = b.trip_const(2);
        let inner = b.trip_const(8);
        let k = b.build(|t| {
            t.distribute_parallel_for_with_mode(
                rows,
                Schedule::Static,
                8,
                ExecMode::Generic,
                |p, _row| {
                    p.simd_footprint(inner, Footprint::new().uses_barriers(), |lane, _, _| {
                        lane.work(1);
                    });
                },
            );
        });

        // Clean case: the same plan on an arch with warp-level barriers.
        let report = k.lint(&DeviceArch::a100(), 0);
        assert_eq!(report.with_code("E-ARCH").count(), 0, "{}", report.render("kernel"));
        assert!(!report.has_errors(), "{}", report.render("kernel"));
        let mut dev = sanitized(cell);
        let stats = k.run(&mut dev, &[]);
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);

        // mi100: statically rejected, dynamically divergent.
        let report = k.lint(&DeviceArch::mi100(), 0);
        assert_eq!(report.with_code("E-ARCH").count(), 1, "{}", report.render("kernel"));
        let mut dev = Device::new(DeviceArch::mi100());
        dev.set_sim_threads(cell.threads);
        dev.enable_sanitizer();
        let stats = k.launch(&mut dev, &[]).unwrap();
        assert!(
            stats.violations.iter().any(|v| matches!(v, Violation::BarrierDivergence { .. })),
            "expected the predicted barrier divergence: {:#?}",
            stats.violations
        );
    }
}

/// The same generic-mode simd shape *without* a declared barrier is
/// legalizable: simtlint demotes the would-be E-ARCH to an R-SEQ-SIMD
/// remark on mi100 and the runtime executes it end-to-end through the
/// sequential-fallback path (counted, sanitizer-clean).
#[test]
fn barrier_free_generic_simd_legalizes_with_remark() {
    for cell in &CELLS {
        let mut b = TargetBuilder::new().num_teams(1).threads(64);
        let rows = b.trip_const(2);
        let inner = b.trip_const(8);
        let k = b.build(|t| {
            t.distribute_parallel_for_with_mode(
                rows,
                Schedule::Static,
                8,
                ExecMode::Generic,
                |p, _row| {
                    p.simd_footprint(inner, Footprint::new(), |lane, _, _| {
                        lane.work(1);
                    });
                },
            );
        });

        // a100: the state machine runs; no remark, no error.
        let report = k.lint(&DeviceArch::a100(), 0);
        assert_eq!(report.with_code("R-SEQ-SIMD").count(), 0, "{}", report.render("kernel"));
        assert!(!report.has_errors(), "{}", report.render("kernel"));

        // mi100: legalized, remarked, not rejected.
        let report = k.lint(&DeviceArch::mi100(), 0);
        assert_eq!(report.with_code("E-ARCH").count(), 0, "{}", report.render("kernel"));
        assert_eq!(report.with_code("R-SEQ-SIMD").count(), 1, "{}", report.render("kernel"));
        assert!(!report.has_errors(), "{}", report.render("kernel"));

        let mut dev = Device::new(DeviceArch::mi100());
        dev.set_sim_threads(cell.threads);
        dev.enable_sanitizer();
        let stats = k.run(&mut dev, &[]);
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);
        assert!(
            stats.counters.sequential_simd_fallbacks > 0,
            "legalized launch must count its sequential-simd rewrites"
        );
    }
}

/// W-DEAD-STAGE verdicts, the builder's dead-stage shrink pass, and the
/// runtime staging counters must agree on seeded random plans: the staged
/// prefix is `max(declared read) + 1`, the warning fires exactly when that
/// prefix has interior holes, and a launch stages exactly
/// `rows × stage_slots(stage_regs)` slots (the satellite agreement check
/// that lint, the staging report, and the runtime all use the same
/// `omp_core::sharing` arithmetic).
#[test]
fn dead_stage_verdicts_match_runtime_staging_counters() {
    let mut cells = CELLS.iter().cycle();
    cases("dead_stage_vs_staging_counters", 24, |rng: &mut SimRng| {
        let cell = cells.next().unwrap();
        let rows = rng.range_u64(1, 9);
        let gs = *rng.pick(&[2u32, 4, 8]);
        let extra = rng.range_usize(1, 6);
        let nregs = 1 + extra; // iv + the extras
        let reads: Vec<usize> = (0..nregs).filter(|_| rng.flip()).collect();

        let mut b = TargetBuilder::new().num_teams(1).threads(32);
        let rows_t = b.trip_const(rows);
        let inner = b.trip_const(4);
        let reads_cl = reads.clone();
        let k = b.build(|t| {
            t.distribute_parallel_for_with_mode(
                rows_t,
                Schedule::Static,
                gs,
                ExecMode::Generic,
                |p, row| {
                    let regs: Vec<usize> = (0..extra).map(|_| p.alloc_reg().0).collect();
                    let wr = regs.clone();
                    p.seq_footprint(
                        Footprint::new().reads_regs(&[row.0]).writes_regs(&regs),
                        move |lane, v| {
                            lane.work(1);
                            let r = v.regs[row.0].as_u64();
                            for &reg in &wr {
                                v.regs[reg] = Slot::from_u64(r * 7 + reg as u64);
                            }
                        },
                    );
                    let rd = reads_cl.clone();
                    p.simd_footprint(
                        inner,
                        Footprint::new().writes_args(&[0]).reads_regs(&reads_cl),
                        move |lane, iv, v| {
                            let out = v.args[0].as_ptr::<f64>();
                            let acc: u64 = rd.iter().map(|&reg| v.regs[reg].as_u64()).sum();
                            lane.write(out, (acc + iv) % 64, acc as f64);
                        },
                    );
                },
            );
        });

        let expected_stage = reads.iter().max().map_or(0, |&m| m + 1);
        assert_eq!(k.analysis.parallels[0].stage_regs, expected_stage, "reads={reads:?}");
        let report = k.lint(&DeviceArch::a100(), 1);
        assert!(!report.has_errors(), "{}", report.render("kernel"));
        // Register 0 is the worksharing iv — pinned to its slot by the
        // loop machinery, so the lint exempts it from the dead set.
        let holes = (1..expected_stage).any(|r| !reads.contains(&r));
        assert_eq!(
            report.with_code("W-DEAD-STAGE").count(),
            usize::from(holes),
            "reads={reads:?} stage={expected_stage}: {}",
            report.render("kernel")
        );

        // The staging report and the runtime counter both reduce to the
        // same omp_core::sharing::stage_slots arithmetic.
        let sr = k.analysis.staging_report(&k.config, 32, 0);
        assert_eq!(sr.stage_slots, omp_core::sharing::stage_slots(expected_stage));
        assert!(!sr.falls_back, "default space must fit {} slots", sr.stage_slots);

        let mut dev = sanitized(cell);
        let out = dev.global.alloc_zeroed::<f64>(64);
        let stats = k.run(&mut dev, &[Slot::from_ptr(out)]);
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);
        assert_eq!(
            stats.counters.staged_slots,
            rows * u64::from(omp_core::sharing::stage_slots(expected_stage)),
            "rows={rows} gs={gs} reads={reads:?} stage={expected_stage}"
        );
    });
}

// ---------------------------------------------------------------------------
// The launch gate
// ---------------------------------------------------------------------------

/// `CompiledKernel::run` refuses to launch a plan with Error-severity
/// diagnostics.
#[test]
#[should_panic(expected = "simtlint rejected the launch")]
fn run_gates_on_error_diagnostics() {
    let mut b = TargetBuilder::new().num_teams(1).threads(32);
    let outer = b.trip_const(1);
    let inner = b.trip_const(4);
    let k = b.build(|t| {
        t.distribute_parallel_for(outer, Schedule::Static, 32, |p, _i| {
            p.seq(|lane, _| lane.work(1));
            p.simd_footprint(inner, Footprint::new().reads_regs(&[3]), |lane, _, _| {
                lane.work(1);
            });
        });
    });
    let mut dev = Device::a100();
    k.run(&mut dev, &[]);
}

// ---------------------------------------------------------------------------
// Teams-level SPMD-ization
// ---------------------------------------------------------------------------

/// A teams region that infers generic only because of a declared-pure
/// team-sequential chunk is promoted to SPMD (dropping the extra
/// main-thread warp), the promotion surfaces as an R-TEAMS-SPMDIZE remark,
/// and the promoted kernel runs sanitizer-clean with correct output.
#[test]
fn pure_team_seq_promotes_teams_and_runs_clean() {
    for cell in &CELLS {
        let n = 32u64;
        let mut b = TargetBuilder::new().num_teams(2).threads(64);
        let inner = b.trip_const(n);
        let k = b.build(|t| {
            let scale = t.alloc_reg();
            t.seq_footprint(
                Footprint::new().reads_args(&[1]).writes_regs(&[scale.0]),
                move |lane, v| {
                    lane.work(1);
                    v.regs[scale.0] = Slot::from_u64(v.args[1].as_u64() * 2);
                },
            );
            t.parallel(8, |p| {
                p.simd(inner, move |lane, iv, v| {
                    let out = v.args[0].as_ptr::<f64>();
                    let s = v.outer[scale.0].as_u64();
                    lane.write(out, iv, (iv * s) as f64);
                });
            });
        });
        assert_eq!(k.analysis.teams_mode, ExecMode::Spmd);
        assert_eq!(k.config.teams_mode, ExecMode::Spmd);
        assert!(k.analysis.promotions.iter().any(|p| p.region == "teams"));
        let report = k.lint(&DeviceArch::a100(), 2);
        assert_eq!(report.with_code("R-TEAMS-SPMDIZE").count(), 1, "{}", report.render("kernel"));
        assert!(!report.has_errors() && !report.has_warnings(), "{}", report.render("kernel"));

        let mut dev = sanitized(cell);
        let out = dev.global.alloc_zeroed::<f64>(n as usize);
        let stats = k.run(&mut dev, &[Slot::from_ptr(out), Slot::from_u64(3)]);
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);
        let got = dev.global.read_slice(out, n as usize);
        for iv in 0..n {
            assert_eq!(got[iv as usize], (iv * 6) as f64);
        }
    }
}

// ---------------------------------------------------------------------------
// Property: static verdicts agree with the runtime
// ---------------------------------------------------------------------------

/// Random legal `distribute parallel for` kernels across four body styles
/// (tight SPMD, declared-pure seq that gets promoted, opaque seq that stays
/// generic, varying inner trip): simtlint's W-FALLBACK verdict must equal
/// the runtime's fallback counter, promotions must happen exactly when the
/// footprints license them, every launch must be sanitizer-clean, and the
/// output must match the host reference.
#[test]
fn lint_verdicts_agree_with_runtime() {
    let mut cells = CELLS.iter().cycle();
    cases("lint_verdicts_agree_with_runtime", 32, |rng: &mut SimRng| {
        let cell = cells.next().unwrap();
        let teams = *rng.pick(&[1u32, 2, 4]);
        let threads = *rng.pick(&[32u32, 64, 128]);
        let gs = *rng.pick(&[1u32, 2, 4, 8, 16, 32]);
        let bytes = *rng.pick(&[288u32, 512, 1024, 2048]);
        let rows = rng.range_u64(1, 20);
        let inner = rng.range_u64(1, 12);
        let style = rng.range_u32(0, 4);
        let extra = rng.range_usize(0, 3);

        let mut b = TargetBuilder::new().num_teams(teams).threads(threads).sharing_space(bytes);
        let rows_t = b.trip_const(rows);
        let inner_t = if style == 3 {
            b.trip_varying(move |_, v| v.regs[0].as_u64() % inner + 1)
        } else {
            b.trip_const(inner)
        };
        let k = b.build(|t| {
            t.distribute_parallel_for(rows_t, Schedule::Static, gs, |p, row| {
                let pads: Vec<usize> = (0..extra).map(|_| p.alloc_reg().0).collect();
                match style {
                    0 | 3 => {}
                    1 => {
                        let wr = pads.clone();
                        let wr2 = pads.clone();
                        p.seq_footprint(
                            Footprint::new().reads_regs(&[row.0]).writes_regs(&wr),
                            move |lane, v| {
                                lane.work(1);
                                let r = v.regs[row.0].as_u64();
                                for &reg in &wr2 {
                                    v.regs[reg] = Slot::from_u64(r * 7 + reg as u64);
                                }
                            },
                        );
                    }
                    _ => p.seq(|lane, _| lane.work(1)),
                }
                p.simd(inner_t, move |lane, iv, v| {
                    let out = v.args[0].as_ptr::<f64>();
                    let r = v.regs[row.0].as_u64();
                    lane.write(out, r * inner + iv, (r * 31 + iv) as f64);
                });
            });
        });

        let report = k.lint(&DeviceArch::a100(), 1);
        assert!(!report.has_errors(), "{}", report.render("kernel"));
        let predicted_fallback = report.with_code("W-FALLBACK").count() > 0;
        let promoted = k.analysis.parallels[0].promoted;
        assert_eq!(
            promoted,
            style == 1 && gs > 1,
            "style={style} gs={gs}: promotion verdict {:#?}",
            k.analysis.promotions
        );

        let mut dev = sanitized(cell);
        let out = dev.global.alloc_zeroed::<f64>((rows * inner) as usize);
        let stats = k.run(&mut dev, &[Slot::from_ptr(out)]);
        let fell_back = stats.counters.sharing_global_fallbacks > 0;
        assert_eq!(
            predicted_fallback, fell_back,
            "teams={teams} threads={threads} gs={gs} bytes={bytes} style={style} \
             extra={extra}: lint predicted {predicted_fallback}, runtime counted {}",
            stats.counters.sharing_global_fallbacks
        );
        assert!(stats.violations.is_empty(), "style={style}: {:#?}", stats.violations);

        let got = dev.global.read_slice(out, (rows * inner) as usize);
        for r in 0..rows {
            let trips = if style == 3 { r % inner + 1 } else { inner };
            for iv in 0..inner {
                let want = if iv < trips { (r * 31 + iv) as f64 } else { 0.0 };
                assert_eq!(got[(r * inner + iv) as usize], want, "r={r} iv={iv}");
            }
        }
    });
}

/// Regression: the R-SEQ-SIMD remark must not depend on a *declared*
/// footprint. Plain-closure `simd` / `simd_reduce` bodies (the common
/// case — no `simd_footprint`) legalize on mi100 exactly like declared
/// ones, so they must carry the remark too; only the barrier *error*
/// needs a footprint (barriers can only be declared through one).
#[test]
fn footprint_less_simd_bodies_still_get_legalization_remark() {
    let mut b = TargetBuilder::new().num_teams(1).threads(64);
    let rows = b.trip_const(2);
    let inner = b.trip_const(8);
    let k = b.build(|t| {
        t.distribute_parallel_for_with_mode(
            rows,
            Schedule::Static,
            8,
            ExecMode::Generic,
            |p, _row| {
                p.simd(inner, |lane, _, _| lane.work(1));
                let x = p.simd_reduce(inner, |_, iv, _| iv as f64);
                let _ = x;
            },
        );
    });

    let report = k.lint(&DeviceArch::a100(), 0);
    assert_eq!(report.with_code("R-SEQ-SIMD").count(), 0, "{}", report.render("kernel"));

    let report = k.lint(&DeviceArch::mi100(), 0);
    assert_eq!(
        report.with_code("R-SEQ-SIMD").count(),
        2,
        "one remark per legalized region: {}",
        report.render("kernel")
    );
    assert_eq!(report.with_code("E-ARCH").count(), 0, "{}", report.render("kernel"));
    assert!(!report.has_errors(), "{}", report.render("kernel"));
}
