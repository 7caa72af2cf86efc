//! simtcheck negative tests: every violation class the sanitizer knows is
//! seeded deliberately through raw [`TeamCtx`] protocol use, and each must
//! be caught; a protocol-clean kernel must report nothing. Every test runs
//! at each `testkit::CELLS` thread count.

use gpu_sim::sanitize::{AccessLabel, BarrierKind};
use gpu_sim::{Device, DeviceArch, LaneMask, LaunchConfig, SharingLayout, Slot, Violation};
use testkit::{Cell, CELLS};

/// A sanitized tiny device with `cell`'s sim threads.
fn sanitized_device(cell: &Cell) -> Device {
    let mut d = Device::new(DeviceArch::tiny());
    d.set_sim_threads(cell.threads);
    d.enable_sanitizer();
    d
}

fn cfg(threads: u32, smem: u32) -> LaunchConfig {
    LaunchConfig { num_blocks: 1, threads_per_block: threads, smem_bytes: smem }
}

#[test]
fn divergent_masked_warp_sync_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 0), |team| {
                // The sync claims lanes 0..8 must participate but only 0..4 do
                // (a SIMD group torn apart by divergent control flow).
                team.warp_sync_masked(0, LaneMask::contiguous(0, 8), LaneMask::contiguous(0, 4));
            })
            .unwrap();
        assert_eq!(
            stats.violations,
            vec![Violation::BarrierDivergence {
                block: 0,
                kind: BarrierKind::WarpSync { warp: 0 },
                missing: vec![4, 5, 6, 7],
            }]
        );
    }
}

#[test]
fn divergent_block_barrier_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(64, 0), |team| {
                // Only warp 0 announces arrival (e.g. generic-mode workers hit
                // the barrier but the team-main warp took an early return).
                team.barrier_arrive(0);
                team.block_barrier();
            })
            .unwrap();
        assert_eq!(
            stats.violations,
            vec![Violation::BarrierDivergence {
                block: 0,
                kind: BarrierKind::Block,
                missing: vec![1]
            }]
        );
    }
}

#[test]
fn unannotated_block_barriers_are_not_checked() {
    for cell in &CELLS {
        // Raw barrier users that never call barrier_arrive are left alone: the
        // check is assertion-style.
        let mut d = sanitized_device(cell);
        let stats = d.launch(&cfg(64, 0), |team| team.block_barrier()).unwrap();
        assert!(stats.violations.is_empty());
    }
}

#[test]
fn same_epoch_write_write_race_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 256), |team| {
                let off = team.smem.alloc(64).unwrap();
                // Two lanes of one super-step store to the same slot with no
                // synchronization: classic intra-warp smem race.
                team.run_lanes(0, &[0, 1], |lane, l| {
                    lane.smem_write_slot(off, 0, Slot::from_u64(l as u64));
                });
            })
            .unwrap();
        assert_eq!(stats.violations.len(), 1);
        match &stats.violations[0] {
            Violation::SharedMemRace { block: 0, first, second, .. } => {
                assert_eq!(first, &AccessLabel { thread: 0, write: true, epoch: 0 });
                assert_eq!(second, &AccessLabel { thread: 1, write: true, epoch: 0 });
            }
            v => panic!("wrong violation: {v:?}"),
        }
    }
}

#[test]
fn unsynchronized_read_after_write_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 256), |team| {
                let off = team.smem.alloc(64).unwrap();
                team.run_lanes(0, &[0], |lane, _| {
                    lane.smem_write_slot(off, 3, Slot::from_u64(7));
                });
                // Lane 5 reads the slot without an intervening sync.
                team.run_lanes(0, &[5], |lane, _| {
                    lane.smem_read_slot(off, 3);
                });
            })
            .unwrap();
        assert_eq!(stats.violations.len(), 1);
        assert!(
            matches!(
                stats.violations[0],
                Violation::SharedMemRace {
                    first: AccessLabel { thread: 0, write: true, .. },
                    second: AccessLabel { thread: 5, write: false, .. },
                    ..
                }
            ),
            "{:?}",
            stats.violations
        );
    }
}

#[test]
fn warp_sync_clears_the_race() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 256), |team| {
                let off = team.smem.alloc(64).unwrap();
                team.run_lanes(0, &[0], |lane, _| {
                    lane.smem_write_slot(off, 3, Slot::from_u64(7));
                });
                team.warp_sync(0);
                team.run_lanes(0, &[5], |lane, _| {
                    lane.smem_read_slot(off, 3);
                });
            })
            .unwrap();
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }
}

#[test]
fn cross_warp_race_needs_block_barrier() {
    for cell in &CELLS {
        let body = |sync: bool| {
            let mut d = sanitized_device(cell);
            let stats = d
                .launch(&cfg(64, 256), |team| {
                    let off = team.smem.alloc(64).unwrap();
                    team.run_lanes(0, &[0], |lane, _| {
                        lane.smem_write_slot(off, 0, Slot::from_u64(1));
                    });
                    if sync {
                        // A warp-local sync of warp 1 does NOT order it against
                        // warp 0's store; only the block barrier does.
                        team.block_barrier();
                    } else {
                        team.warp_sync(1);
                    }
                    team.run_lanes(1, &[0], |lane, _| {
                        lane.smem_read_slot(off, 0);
                    });
                })
                .unwrap();
            stats.violations
        };
        assert!(body(true).is_empty());
        assert_eq!(body(false).len(), 1);
    }
}

#[test]
fn unwritten_sharing_space_read_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 2048), |team| {
                let base = team.smem.alloc(2048).unwrap();
                team.declare_sharing(SharingLayout {
                    base: base.0,
                    total_slots: 256,
                    team_slots: 32,
                    group_slots: 28,
                    num_groups: 8,
                    simdlen: 4,
                });
                // Worker fetches staged state its leader never posted.
                team.run_lanes(0, &[1], |lane, _| {
                    lane.smem_read_slot(base, 40);
                });
            })
            .unwrap();
        assert_eq!(stats.violations.len(), 1);
        assert!(
            matches!(stats.violations[0], Violation::UnwrittenRead { slot: 40, thread: 1, .. }),
            "{:?}",
            stats.violations
        );
    }
}

#[test]
fn group_slice_overflow_write_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 2048), |team| {
                let base = team.smem.alloc(2048).unwrap();
                team.declare_sharing(SharingLayout {
                    base: base.0,
                    total_slots: 256,
                    team_slots: 32,
                    group_slots: 2,
                    num_groups: 8,
                    simdlen: 4,
                });
                // Thread 0 (group 0) owns slots 32..34; it stages a third slot
                // instead of taking the global fallback.
                team.run_lanes(0, &[0], |lane, _| {
                    lane.smem_write_slot(base, 32, Slot::from_u64(1));
                    lane.smem_write_slot(base, 33, Slot::from_u64(2));
                    lane.smem_write_slot(base, 34, Slot::from_u64(3));
                });
            })
            .unwrap();
        assert_eq!(stats.violations.len(), 1);
        assert!(
            matches!(
                stats.violations[0],
                Violation::SharingOverflow { slot: 34, thread: 0, group: 0, group_slots: 2, .. }
            ),
            "{:?}",
            stats.violations
        );
    }
}

#[test]
fn leaked_global_fallback_is_caught() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 0), |team| {
                // A fallback allocation charged but never freed before the
                // block finishes (__target_deinit).
                team.charge_global_alloc(0);
            })
            .unwrap();
        assert_eq!(stats.violations, vec![Violation::LeakedFallback { block: 0, outstanding: 1 }]);
    }
}

#[test]
fn freed_fallback_is_clean() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(32, 0), |team| {
                team.charge_global_alloc(0);
                let seg = team.global().alloc_zeroed::<u64>(4);
                team.free_shared_fallback(seg);
            })
            .unwrap();
        assert!(stats.violations.is_empty());
    }
}

#[test]
fn clean_kernel_reports_nothing() {
    for cell in &CELLS {
        // A well-synchronized producer/consumer pattern across warps.
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&cfg(64, 512), |team| {
                let off = team.smem.alloc(256).unwrap();
                let lanes: Vec<u32> = (0..8).collect();
                team.run_lanes(0, &lanes, |lane, l| {
                    lane.smem_write_slot(off, l, Slot::from_u64(l as u64 * 3));
                });
                team.barrier_arrive(0);
                team.barrier_arrive(1);
                team.block_barrier();
                team.run_lanes(1, &lanes, |lane, l| {
                    lane.smem_read_slot(off, l);
                });
            })
            .unwrap();
        assert!(stats.violations.is_empty(), "{:?}", stats.violations);
    }
}

#[test]
fn sanitizer_off_reports_nothing() {
    for cell in &CELLS {
        let mut d = Device::new(DeviceArch::tiny());
        d.set_sim_threads(cell.threads);
        let stats = d
            .launch(&cfg(32, 256), |team| {
                let off = team.smem.alloc(64).unwrap();
                team.run_lanes(0, &[0, 1], |lane, l| {
                    lane.smem_write_slot(off, 0, Slot::from_u64(l as u64));
                });
            })
            .unwrap();
        assert!(stats.violations.is_empty());
    }
}

#[test]
fn violations_accumulate_across_blocks() {
    for cell in &CELLS {
        let mut d = sanitized_device(cell);
        let stats = d
            .launch(&LaunchConfig { num_blocks: 3, threads_per_block: 32, smem_bytes: 0 }, |team| {
                team.charge_global_alloc(0)
            })
            .unwrap();
        let blocks: Vec<u32> = stats
            .violations
            .iter()
            .map(|v| match v {
                Violation::LeakedFallback { block, .. } => *block,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(blocks, vec![0, 1, 2]);
    }
}
