//! Property-based tests of the runtime's scheduling and mapping invariants,
//! driven by the in-tree `testkit` harness.

use gpu_sim::{Device, DeviceArch, Slot};
use omp_core::config::{ExecMode, KernelConfig, ParallelDesc};
use omp_core::dispatch::Registry;
use omp_core::exec::launch_target;
use omp_core::mapping::SimdMapping;
use omp_core::plan::{ParallelOp, Schedule, TargetPlan, TeamOp, ThreadOp};
use omp_core::workshare::{assign, rounds_for};
use testkit::{cases, check, Cell, SimRng, CELLS};

/// A device on `arch` with `cell`'s sim threads and sanitizer.
fn cell_device(cell: &Cell, arch: DeviceArch) -> Device {
    let mut dev = Device::new(arch);
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

fn any_schedule(rng: &mut SimRng) -> Schedule {
    match rng.range_u32(0, 5) {
        0 => Schedule::Static,
        // Chunk 0 is legal input: the runtime clamps it to 1.
        1 => Schedule::Cyclic(rng.range_u32(0, 8)),
        2 => Schedule::Dynamic(rng.range_u32(0, 8)),
        3 => Schedule::Cyclic(1),
        _ => Schedule::Dynamic(1),
    }
}

/// Every worksharing schedule covers each iteration exactly once — including
/// more workers than iterations, zero trips, and chunk sizes 0 and 1.
#[test]
fn schedules_cover_exactly_once() {
    check("schedules_cover_exactly_once", |rng| {
        let sched = any_schedule(rng);
        let trip = rng.range_u64(0, 500);
        // Deliberately include n_who > trip.
        let n_who = rng.range_u64(1, 64);
        let mut seen = vec![0u32; trip as usize];
        for who in 0..n_who {
            let rounds = rounds_for(sched, trip, who, n_who);
            for r in 0..rounds {
                let iv = assign(sched, trip, who, n_who, r).unwrap();
                assert!(iv < trip);
                seen[iv as usize] += 1;
            }
            // After the rounds end, assignment stays None.
            assert!(assign(sched, trip, who, n_who, rounds).is_none());
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage {seen:?}");
    });
}

/// SIMD-group mapping invariants for every legal geometry (§5.1): simdmask
/// partitions each warp exactly, group ids tile the thread range.
#[test]
fn simd_mapping_invariants() {
    check("simd_mapping_invariants", |rng| {
        let warp = 32u32 << rng.range_u32(0, 2); // 32 (NVIDIA) or 64 (AMD)
        let warps = rng.range_u32(1, 8);
        let threads = warps * warp;
        let gs = 1u32 << rng.range_u32(0, warp.trailing_zeros() + 1); // 1..=warp
        let m = SimdMapping::new(threads, gs, warp);
        assert_eq!(m.num_groups() * gs, threads);
        let mut leaders = 0;
        // Verify that, warp by warp, the simdmasks of its resident groups
        // partition the warp exactly (disjoint cover).
        let mut warp_cover = vec![gpu_sim::LaneMask::EMPTY; warps as usize];
        for tid in 0..threads {
            let g = m.simd_group(tid);
            assert!(g < m.num_groups());
            assert_eq!(g * gs + m.simd_group_id(tid), tid);
            if m.is_simd_group_leader(tid) {
                leaders += 1;
                assert_eq!(m.leader_tid(g), tid);
                let w = (tid / warp) as usize;
                let mask = m.simdmask(tid);
                assert!(warp_cover[w].and(mask).is_empty(), "masks overlap in warp {w}");
                warp_cover[w] = warp_cover[w].or(mask);
            }
            // simdmask covers exactly the group's lanes of this warp.
            let mask = m.simdmask(tid);
            assert_eq!(mask.count(), gs);
            assert!(mask.contains(m.lane_of(tid)));
            // All members agree on the mask.
            assert_eq!(m.simdmask(m.leader_tid(g)), mask);
        }
        assert_eq!(leaders, m.num_groups());
        for (w, cover) in warp_cover.iter().enumerate() {
            assert_eq!(*cover, gpu_sim::LaneMask::full(warp), "warp {w} not covered");
        }
    });
}

/// A simd loop computes the same result as a sequential loop for every
/// mode/group-size combination: each iteration executed exactly once per
/// OpenMP thread (SIMD group).
#[test]
fn simd_loop_executes_each_iteration_once() {
    let mut cells = CELLS.iter().cycle();
    cases("simd_loop_executes_each_iteration_once", 64, |rng| {
        let cell = cells.next().unwrap();
        let trip = rng.range_u64(0, 200);
        let gs = 1u32 << rng.range_u32(0, 6);
        let amd = rng.flip();
        let arch = if amd { DeviceArch::mi100() } else { DeviceArch::a100() };
        if !arch.warp_size.is_multiple_of(gs) {
            return;
        }
        let mut dev = cell_device(cell, arch);
        let out = dev.global.alloc_zeroed::<u64>(trip.max(1) as usize);

        let mut reg = Registry::new();
        let trip_id = reg.trip(move |_, _| trip);
        let body = reg.body(move |lane, iv, v| {
            let out = v.args[0].as_ptr::<u64>();
            lane.atomic_add_u64(out, iv, 1);
        });
        let par_generic = rng.flip();
        let teams_generic = rng.flip();
        let plan = TargetPlan {
            ops: vec![TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc {
                    mode: if par_generic { ExecMode::Generic } else { ExecMode::Spmd },
                    simdlen: gs,
                },
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops: vec![ThreadOp::Simd { trip: trip_id, body, known: true }],
            })],
            team_regs: 0,
        };
        let cfg = KernelConfig {
            teams_mode: if teams_generic { ExecMode::Generic } else { ExecMode::Spmd },
            num_teams: 1,
            threads_per_team: 64,
            ..Default::default()
        };
        launch_target(&mut dev, &cfg, &plan, &reg, &[Slot::from_ptr(out)]).unwrap();
        // Every OpenMP thread (SIMD group) executes the full simd loop, so
        // each iteration is incremented once per group.
        let groups = 64 / gs as u64;
        let got = dev.global.read_slice(out, trip.max(1) as usize);
        for (i, &v) in got.iter().enumerate().take(trip as usize) {
            assert_eq!(v, groups, "iteration {i}");
        }
    });
}

/// Generic mode never changes results relative to SPMD, only costs — and
/// generic is never cheaper.
#[test]
fn generic_mode_costs_at_least_spmd() {
    let mut cells = CELLS.iter().cycle();
    cases("generic_mode_costs_at_least_spmd", 48, |rng| {
        let cell = cells.next().unwrap();
        let trip = rng.range_u64(1, 100);
        let rows = rng.range_u64(1, 64);
        let gs = 1u32 << rng.range_u32(1, 6);
        let run = |mode: ExecMode| {
            let mut dev = cell_device(cell, DeviceArch::a100());
            let out = dev.global.alloc_zeroed::<f64>((rows * trip) as usize);
            let mut reg = Registry::new();
            let rows_id = reg.trip(move |_, _| rows);
            let trip_id = reg.trip(move |_, _| trip);
            let body = reg.body(move |lane, iv, v| {
                let out = v.args[0].as_ptr::<f64>();
                let r = v.regs[0].as_u64();
                lane.work(3);
                lane.write(out, r * trip + iv, (r + iv) as f64);
            });
            let plan = TargetPlan {
                ops: vec![TeamOp::Parallel(ParallelOp {
                    desc: ParallelDesc { mode, simdlen: gs },
                    known: true,
                    nregs: 1,
                    stage_regs: 1,
                    ops: vec![ThreadOp::For {
                        trip: rows_id,
                        sched: Schedule::Cyclic(1),
                        iv_reg: 0,
                        across_teams: true,
                        ops: vec![ThreadOp::Simd { trip: trip_id, body, known: true }],
                    }],
                })],
                team_regs: 0,
            };
            let cfg = KernelConfig {
                teams_mode: ExecMode::Spmd,
                num_teams: 2,
                threads_per_team: 64,
                ..Default::default()
            };
            let stats = launch_target(&mut dev, &cfg, &plan, &reg, &[Slot::from_ptr(out)]).unwrap();
            (dev.global.read_slice(out, (rows * trip) as usize), stats.cycles)
        };
        let (y_spmd, c_spmd) = run(ExecMode::Spmd);
        let (y_gen, c_gen) = run(ExecMode::Generic);
        assert_eq!(y_spmd, y_gen);
        assert!(c_gen >= c_spmd, "generic {c_gen} < spmd {c_spmd}");
    });
}

/// The sharing space never hands out overlapping slices.
#[test]
fn sharing_slices_never_overlap() {
    check("sharing_slices_never_overlap", |rng| {
        let bytes = rng.range_u32(64, 8192);
        let groups = rng.range_u32(1, 128);
        let mut smem = gpu_sim::SharedMem::new(bytes + 64);
        let mut space = omp_core::sharing::SharingSpace::reserve(&mut smem, bytes);
        space.configure_groups(groups);
        let mut prev_end = None::<u32>;
        for g in 0..groups {
            let (off, n) = space.group_slice(g);
            if let Some(e) = prev_end {
                assert!(off.0 >= e);
            }
            assert!((off.0 + n) * 8 <= bytes + space.team_slice().0 .0 * 8 + bytes);
            prev_end = Some(off.0 + n);
        }
    });
}
