//! Event-sequence tests: the runtime must emit the paper's protocol in
//! order — Fig 4's generic `__simd` handshake and Fig 3/5's generic team
//! flow — verified through the simulator's trace facility.

use gpu_sim::{Device, Slot, TraceEvent};
use omp_core::config::{ExecMode, KernelConfig, ParallelDesc};
use omp_core::dispatch::Registry;
use omp_core::exec::launch_target;
use omp_core::plan::{ParallelOp, TargetPlan, TeamOp, ThreadOp};
use testkit::{Cell, CELLS};

fn one_simd_plan(reg: &mut Registry, mode: ExecMode, gs: u32) -> TargetPlan {
    let trip = reg.trip_const(64);
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

/// A traced a100 device with `cell`'s sim threads and sanitizer.
fn traced(cell: &Cell) -> Device {
    let mut dev = Device::a100();
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev.enable_trace(10_000);
    dev
}

/// The traced one-simd-loop launch in every `testkit::CELLS` cell; the
/// cells must record the same events. Returns the first cell's device.
fn traced_run(teams_mode: ExecMode, par_mode: ExecMode, gs: u32) -> Device {
    let [first, rest @ ..] = CELLS.map(|cell| {
        let mut dev = traced(&cell);
        let mut reg = Registry::new();
        let plan = one_simd_plan(&mut reg, par_mode, gs);
        let cfg =
            KernelConfig { teams_mode, num_teams: 1, threads_per_team: 64, ..Default::default() };
        launch_target(&mut dev, &cfg, &plan, &reg, &[Slot(0)]).unwrap();
        dev
    });
    for (cell, dev) in CELLS[1..].iter().zip(&rest) {
        assert_eq!(dev.trace.events(), first.trace.events(), "{cell:?}");
    }
    first
}

#[test]
fn generic_simd_emits_fig4_handshake_order() {
    let dev = traced_run(ExecMode::Spmd, ExecMode::Generic, 8);
    // Per warp: setSimdFn/arg staging (a super-step by the leaders) →
    // warp sync → dispatch → loop execution (super-step with 32 lanes) →
    // warp sync.
    let is = |f: fn(&TraceEvent) -> bool| f;
    let staging = is(|e| matches!(e, TraceEvent::SuperStep { warp: 0, lanes, .. } if *lanes < 32));
    let sync = is(|e| matches!(e, TraceEvent::WarpSync { warp: 0, .. }));
    let dispatch = is(|e| matches!(e, TraceEvent::Dispatch { warp: 0, cascade: true, .. }));
    let loop_step = is(|e| matches!(e, TraceEvent::SuperStep { warp: 0, lanes: 32, .. }));
    assert!(
        dev.trace.contains_subsequence(&[&staging, &sync, &dispatch, &loop_step, &sync]),
        "missing Fig 4 handshake; trace head: {:?}",
        &dev.trace.events()[..dev.trace.events().len().min(12)]
    );
}

#[test]
fn spmd_simd_skips_the_state_machine() {
    let dev = traced_run(ExecMode::Spmd, ExecMode::Spmd, 8);
    // SPMD: dispatch happens but no leader-only staging step before it.
    let events = dev.trace.events();
    let first_super = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::SuperStep { lanes, .. } => Some(*lanes),
            _ => None,
        })
        .unwrap();
    assert_eq!(first_super, 32, "SPMD runs all lanes immediately, no staging step");
    // Exactly one warp sync per simd loop per warp (Fig 4 SPMD branch).
    let syncs = events.iter().filter(|e| matches!(e, TraceEvent::WarpSync { warp: 0, .. })).count();
    assert_eq!(syncs, 1);
}

#[test]
fn generic_teams_emit_block_barriers_around_the_region() {
    let dev = traced_run(ExecMode::Generic, ExecMode::Spmd, 8);
    let barriers =
        dev.trace.events().iter().filter(|e| matches!(e, TraceEvent::BlockBarrier { .. })).count();
    // Release + join for the parallel region, plus the termination barrier
    // at __target_deinit (Fig 5).
    assert_eq!(barriers, 3);
}

#[test]
fn sharing_overflow_emits_global_alloc_events() {
    for cell in &CELLS {
        let mut dev = traced(cell);
        let mut reg = Registry::new();
        let trip = reg.trip_const(16);
        let body = reg.body(|lane, _, _| lane.work(1));
        // 64 groups × zero-capacity slices (tiny space) → fallback per group.
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
        launch_target(&mut dev, &cfg, &plan, &reg, &[]).unwrap();
        let allocs = dev
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::GlobalAlloc { .. }))
            .count();
        assert_eq!(allocs, 64, "one fallback allocation per SIMD group");
    }
}
