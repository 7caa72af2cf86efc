//! simtcheck positive tests: the runtime interpreter's protocols — generic
//! and SPMD modes, the sharing-space fast path and the global fallback, the
//! AMD sequential path — must all run sanitizer-clean, and the fallback
//! bookkeeping must balance even when every post overflows.

use gpu_sim::{Device, DeviceArch, Slot};
use omp_core::config::{ExecMode, KernelConfig, ParallelDesc};
use omp_core::dispatch::Registry;
use omp_core::exec::launch_target;
use omp_core::plan::{ParallelOp, Schedule, TargetPlan, TeamOp, ThreadOp};
use testkit::{Cell, CELLS};

/// A sanitized device on `arch` with `cell`'s sim threads.
fn sanitized(cell: &Cell, arch: DeviceArch) -> Device {
    let mut d = Device::new(arch);
    d.set_sim_threads(cell.threads);
    d.enable_sanitizer();
    d
}

/// A representative two-level plan: distribute-parallel-for over rows with a
/// simd loop per row, plus a simd reduction into a team total.
fn row_plan(mode: ExecMode, simdlen: u32, rows: u64, trip: u64, reg: &mut Registry) -> TargetPlan {
    let rows_id = reg.trip(move |_, _| rows);
    let trip_id = reg.trip(move |_, _| trip);
    let body = reg.body(move |lane, iv, v| {
        let out = v.args[0].as_ptr::<f64>();
        let r = v.regs[0].as_u64();
        lane.work(2);
        lane.write(out, r * trip + iv, (r + iv) as f64);
    });
    let red = reg.red(move |lane, iv, _| {
        lane.work(1);
        iv as f64
    });
    TargetPlan {
        ops: vec![TeamOp::Parallel(ParallelOp {
            desc: ParallelDesc { mode, simdlen },
            known: true,
            nregs: 2,
            stage_regs: 2,
            ops: vec![ThreadOp::For {
                trip: rows_id,
                sched: Schedule::Dynamic(1),
                iv_reg: 0,
                across_teams: true,
                ops: vec![
                    ThreadOp::Simd { trip: trip_id, body, known: true },
                    ThreadOp::SimdReduce { trip: trip_id, body: red, known: true, dst_reg: 1 },
                    ThreadOp::ReduceAcross { src_reg: 1, dst_arg: 1, dst_idx: 0 },
                ],
            }],
        })],
        team_regs: 0,
    }
}

/// Run the row kernel sanitized at every `testkit::CELLS` thread count: no
/// violations, right results.
fn run_clean(teams_mode: ExecMode, par_mode: ExecMode, arch: DeviceArch, sharing: u32) {
    for cell in &CELLS {
        let rows = 13u64;
        let trip = 29u64;
        let mut dev = sanitized(cell, arch.clone());
        let out = dev.global.alloc_zeroed::<f64>((rows * trip) as usize);
        let total = dev.global.alloc_zeroed::<f64>(1);
        let mut reg = Registry::new();
        let plan = row_plan(par_mode, 8, rows, trip, &mut reg);
        let cfg = KernelConfig {
            teams_mode,
            num_teams: 2,
            threads_per_team: 64,
            sharing_space_bytes: sharing,
        };
        let stats = launch_target(
            &mut dev,
            &cfg,
            &plan,
            &reg,
            &[Slot::from_ptr(out), Slot::from_ptr(total)],
        )
        .unwrap();
        assert!(
            stats.violations.is_empty(),
            "{cell:?}: teams {teams_mode:?} / parallel {par_mode:?} (sharing {sharing}B): {:#?}",
            stats.violations
        );
        // The kernel also computed the right thing.
        let got = dev.global.read_slice(out, (rows * trip) as usize);
        for r in 0..rows {
            for iv in 0..trip {
                assert_eq!(got[(r * trip + iv) as usize], (r + iv) as f64);
            }
        }
    }
}

#[test]
fn all_mode_combinations_run_sanitizer_clean() {
    for teams in [ExecMode::Spmd, ExecMode::Generic] {
        for par in [ExecMode::Spmd, ExecMode::Generic] {
            run_clean(teams, par, DeviceArch::a100(), KernelConfig::SHARING_SPACE_DEFAULT);
        }
    }
}

#[test]
fn amd_sequential_fallback_runs_sanitizer_clean() {
    run_clean(
        ExecMode::Generic,
        ExecMode::Generic,
        DeviceArch::mi100(),
        KernelConfig::SHARING_SPACE_DEFAULT,
    );
}

/// Regression: a sharing space so small that `group_slots() == 0` forces the
/// global fallback on every generic-mode post. The launch must not panic,
/// must produce correct results, must actually take fallbacks — and the
/// sanitizer must see every fallback freed at the end of the region.
#[test]
fn zero_slot_group_slices_force_clean_global_fallback() {
    for cell in &CELLS {
        let rows = 5u64;
        let trip = 17u64;
        let mut dev = sanitized(cell, DeviceArch::a100());
        let out = dev.global.alloc_zeroed::<f64>((rows * trip) as usize);
        let total = dev.global.alloc_zeroed::<f64>(1);
        let mut reg = Registry::new();
        let plan = row_plan(ExecMode::Generic, 8, rows, trip, &mut reg);
        let cfg = KernelConfig {
            teams_mode: ExecMode::Generic,
            num_teams: 1,
            threads_per_team: 64,
            // 33 slots: the 32-slot team slice eats all of it, leaving every
            // SIMD group a zero-slot slice.
            sharing_space_bytes: 33 * 8,
        };
        let stats = launch_target(
            &mut dev,
            &cfg,
            &plan,
            &reg,
            &[Slot::from_ptr(out), Slot::from_ptr(total)],
        )
        .unwrap();
        assert!(stats.counters.sharing_global_fallbacks > 0, "fallback path not exercised");
        assert!(stats.violations.is_empty(), "{:#?}", stats.violations);
        let got = dev.global.read_slice(out, (rows * trip) as usize);
        for r in 0..rows {
            for iv in 0..trip {
                assert_eq!(got[(r * trip + iv) as usize], (r + iv) as f64);
            }
        }
    }
}

/// The sanitizer catches a seeded runtime bug: a masked sync whose arrival
/// set is a strict subset of the simdmask participants (the §5.1 deadlock).
#[test]
fn seeded_partial_simdmask_arrival_is_caught() {
    for cell in &CELLS {
        let mut dev = sanitized(cell, DeviceArch::a100());
        let lcfg = gpu_sim::LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
        let stats = dev
            .launch(&lcfg, |team| {
                let required = gpu_sim::LaneMask::groups_of(32, 8)[0]
                    .or(gpu_sim::LaneMask::groups_of(32, 8)[1]);
                // Half of group 1's lanes exited the loop early and never
                // reached the barrier.
                let arrived = required.minus(gpu_sim::LaneMask::contiguous(12, 4));
                team.warp_sync_masked(0, required, arrived);
            })
            .unwrap();
        assert_eq!(stats.violations.len(), 1);
        assert!(matches!(
            &stats.violations[0],
            gpu_sim::Violation::BarrierDivergence { missing, .. } if missing == &vec![12, 13, 14, 15]
        ));
    }
}
