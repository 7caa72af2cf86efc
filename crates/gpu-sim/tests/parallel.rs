//! Determinism of the parallel block execution engine.
//!
//! Blocks are independent, so the simulator executes them on a worker pool
//! (`Device::set_sim_threads`), and the whole design stands on one promise: the
//! merged [`LaunchStats`] — cycles, every counter, the violation multiset,
//! the event trace — is **bit-identical** to the serial run at any thread
//! count. This suite checks the promise on seeded random kernels, hammers
//! shared global memory from concurrent blocks under a watchdog, and
//! exercises the cross-team fallback-race detector that only the parallel
//! merge step can see.

mod common;

use common::panics_alike_sanitized_or_not;
use gpu_sim::mem::shared::SmOff;
use gpu_sim::{
    DPtr, Device, DeviceArch, LaneMask, LaunchConfig, LaunchStats, Slot, TraceEvent, Violation,
};
use testkit::{SimRng, CELLS};

/// Shape of one randomly generated kernel.
#[derive(Clone, Copy, Debug)]
struct KernelShape {
    num_blocks: u32,
    nwarps: u32,
    /// Super-steps each warp runs.
    steps: u32,
    /// Derives all per-lane behavior (deterministic per block/warp/step).
    seed: u64,
}

impl KernelShape {
    fn random(rng: &mut SimRng) -> KernelShape {
        KernelShape {
            num_blocks: rng.range_u32(1, 24),
            nwarps: rng.range_u32(1, 4),
            steps: rng.range_u32(1, 6),
            seed: rng.next_u64(),
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Run `shape` on a fresh device with `threads` block-execution threads.
/// The kernel mixes every cost-bearing primitive: strided global
/// reads/writes (disjoint per block), a shared atomic counter, shared
/// memory reads and writes on a few slots, ALU work, full and masked warp
/// syncs, and block barriers — all derived from the seed, never from
/// execution order.
fn run_shape(shape: KernelShape, threads: usize, sanitize: bool) -> (LaunchStats, u64) {
    let mut dev = Device::new(DeviceArch::tiny());
    dev.set_sim_threads(Some(threads));
    if sanitize {
        dev.enable_sanitizer();
    }
    run_shape_on(&mut dev, shape)
}

/// [`run_shape`] on `dev` as it is configured; the kernel's buffers are
/// allocated for the launch and freed after it.
fn run_shape_on(dev: &mut Device, shape: KernelShape) -> (LaunchStats, u64) {
    let per_block = 64u64;
    let data = dev.global.alloc_zeroed::<u64>(shape.num_blocks as usize * per_block as usize);
    let hits = dev.global.alloc_zeroed::<u64>(1);
    let cfg = LaunchConfig {
        num_blocks: shape.num_blocks,
        threads_per_block: shape.nwarps * 32,
        smem_bytes: 512,
    };
    let seed = shape.seed;
    let steps = shape.steps;
    let stats = dev
        .launch(&cfg, move |team| {
            let bid = team.block_id as u64;
            for step in 0..steps {
                for w in 0..team.nwarps() {
                    let h = splitmix(seed ^ (bid << 32) ^ ((w as u64) << 16) ^ step as u64);
                    let nlanes = 1 + (h % 32) as u32;
                    let lanes: Vec<u32> = (0..nlanes).collect();
                    // Shared slots derived from `h`: every lane reads one of
                    // two, some lanes write a third, so sanitized runs
                    // consult the sync table (and find races).
                    let (rd, wr) = ((h >> 8) as u32 % 8, (h >> 12) as u32 % 8);
                    team.run_lanes(w, &lanes, move |lane, id| {
                        let i = bid * per_block + (h.wrapping_add(id as u64 * 7)) % per_block;
                        let v = lane.read(data, i);
                        let s = lane.smem_read_slot(SmOff(0), rd + id % 2).as_u64();
                        lane.work(1 + h % 13);
                        lane.write(data, i, v.wrapping_add(h | 1).wrapping_add(s));
                        if (h >> (id % 64)) & 1 == 1 {
                            lane.smem_write_slot(SmOff(0), wr, Slot::from_u64(v ^ h));
                        }
                        if h.is_multiple_of(3) {
                            lane.atomic_add_u64(hits, 0, 1);
                        }
                    });
                    match h % 4 {
                        0 => team.warp_sync(w),
                        1 => {
                            let m = LaneMask::contiguous(0, nlanes);
                            team.warp_sync_masked(w, m, m);
                        }
                        _ => team.charge_alu(w, h % 50),
                    }
                }
                team.block_barrier();
            }
        })
        .unwrap();
    let sum = dev
        .global
        .read_slice(data, shape.num_blocks as usize * per_block as usize)
        .iter()
        .fold(0u64, |a, &v| a.wrapping_add(v));
    let sum = sum.wrapping_add(dev.global.read(hits, 0));
    dev.global.free(data);
    dev.global.free(hits);
    (stats, sum)
}

#[test]
fn launch_stats_bit_identical_across_thread_counts() {
    testkit::cases("parallel-determinism", 12, |rng| {
        let shape = KernelShape::random(rng);
        let sanitize = rng.flip();
        let (base, base_mem) = run_shape(shape, 1, sanitize);
        for threads in [2, 4, 8] {
            let (got, got_mem) = run_shape(shape, threads, sanitize);
            assert_eq!(
                got, base,
                "LaunchStats diverged at {threads} threads (sanitize={sanitize:?}, {shape:?})"
            );
            assert_eq!(got_mem, base_mem, "memory contents diverged at {threads} threads");
        }
    });
}

#[test]
fn traces_identical_across_thread_counts() {
    let shape = KernelShape { num_blocks: 12, nwarps: 2, steps: 3, seed: 0xC0FFEE };
    let trace_of = |threads: usize, sanitize: bool| {
        let mut dev = Device::new(DeviceArch::tiny());
        dev.set_sim_threads(Some(threads));
        dev.enable_trace(4096);
        if sanitize {
            dev.enable_sanitizer();
        }
        let cfg = LaunchConfig {
            num_blocks: shape.num_blocks,
            threads_per_block: shape.nwarps * 32,
            smem_bytes: 0,
        };
        dev.launch(&cfg, |team| {
            for w in 0..team.nwarps() {
                team.run_lanes(w, &[0, 1, 2], |lane, _| lane.work(3));
                team.warp_sync(w);
            }
            team.block_barrier();
        })
        .unwrap();
        dev.trace.events().to_vec()
    };
    for sanitize in [false, true] {
        let serial = trace_of(1, sanitize);
        assert!(serial.iter().any(|e| matches!(e, TraceEvent::BlockBarrier { .. })));
        for threads in [2, 4, 8] {
            let trace = trace_of(threads, sanitize);
            assert_eq!(trace, serial, "trace diverged at {threads} threads (sanitize {sanitize})");
        }
    }
}

/// Concurrent blocks hammering one shared atomic cell and allocating /
/// freeing global segments, under the testkit watchdog: the striped
/// global-memory layer must neither deadlock nor lose updates.
#[test]
fn stress_concurrent_blocks_on_shared_global_memory() {
    testkit::with_deadline("parallel-globalmem-stress", std::time::Duration::from_secs(60), || {
        let mut dev = Device::new(DeviceArch::tiny());
        dev.set_sim_threads(Some(8));
        let cell = dev.global.alloc_zeroed::<u64>(1);
        let cfg = LaunchConfig { num_blocks: 64, threads_per_block: 64, smem_bytes: 0 };
        for round in 0..4u64 {
            // Odd rounds run sanitized.
            if round % 2 == 1 {
                dev.enable_sanitizer();
            } else {
                dev.disable_sanitizer();
            }
            let stats = dev
                .launch(&cfg, move |team| {
                    for w in 0..team.nwarps() {
                        let lanes: Vec<u32> = (0..32).collect();
                        team.run_lanes(w, &lanes, move |lane, _| {
                            lane.atomic_add_u64(cell, 0, round + 1);
                        });
                    }
                    // Per-block scratch exercises concurrent alloc/free.
                    let scratch = team.global().alloc_zeroed::<u64>(16);
                    team.global().free(scratch);
                })
                .unwrap();
            assert_eq!(stats.blocks, 64);
        }
        // 4 rounds × 64 blocks × 64 lanes × (1+2+3+4)/4 avg.
        let expect: u64 = (1..=4u64).map(|r| r * 64 * 64).sum();
        assert_eq!(dev.global.read(cell, 0), expect);
    });
}

/// A block that writes into another block's *leaked* fallback allocation is
/// a cross-team race; the launch merge step must flag it.
#[test]
fn cross_team_write_to_leaked_fallback_is_flagged() {
    let mut dev = Device::new(DeviceArch::tiny());
    dev.set_sim_threads(Some(1));
    dev.enable_sanitizer();
    // Mailbox through which block 0 publishes its fallback pointer.
    let mailbox = dev.global.alloc_zeroed::<u64>(1);
    let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 32, smem_bytes: 256 };
    let stats = dev
        .launch(&cfg, move |team| {
            if team.block_id == 0 {
                // Allocate a fallback and leak it (no free before finish).
                let p: DPtr<u64> = team.alloc_shared_fallback(0, 4);
                team.run_lanes(0, &[0], move |lane, _| {
                    lane.write(mailbox, 0, p.to_bits());
                });
            } else {
                // Block 1 spins on nothing (blocks are unordered — the test
                // relies on serial block order for the publish) and writes
                // into block 0's arena.
                team.run_lanes(0, &[0], move |lane, _| {
                    let bits = lane.read(mailbox, 0);
                    if bits != 0 {
                        let p = DPtr::<u64>::from_bits(bits);
                        lane.write(p, 1, 42);
                    }
                });
            }
        })
        .unwrap();
    let cross: Vec<_> = stats
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::CrossTeamFallbackRace { owner: 0, accessor: 1, .. }))
        .collect();
    assert_eq!(cross.len(), 1, "expected exactly one cross-team race: {:?}", stats.violations);
    // The leak itself is still reported by block 0's own sanitizer.
    assert!(stats
        .violations
        .iter()
        .any(|v| matches!(v, Violation::LeakedFallback { block: 0, .. })));
}

/// Reads of a foreign leaked fallback and writes to one's *own* fallback
/// are not cross-team races.
#[test]
fn cross_team_detector_has_no_false_positives() {
    let mut dev = Device::new(DeviceArch::tiny());
    dev.set_sim_threads(Some(1));
    dev.enable_sanitizer();
    let mailbox = dev.global.alloc_zeroed::<u64>(1);
    let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 32, smem_bytes: 256 };
    let stats = dev
        .launch(&cfg, move |team| {
            if team.block_id == 0 {
                let p: DPtr<u64> = team.alloc_shared_fallback(0, 4);
                team.run_lanes(0, &[0], move |lane, _| {
                    lane.write(p, 0, 7); // own fallback: fine
                    lane.write(mailbox, 0, p.to_bits());
                });
            } else {
                team.run_lanes(0, &[0], move |lane, _| {
                    let bits = lane.read(mailbox, 0);
                    if bits != 0 {
                        // Read-only foreign access: recorded, not a race.
                        let _ = lane.read(DPtr::<u64>::from_bits(bits), 0);
                    }
                });
            }
        })
        .unwrap();
    assert!(
        !stats.violations.iter().any(|v| matches!(v, Violation::CrossTeamFallbackRace { .. })),
        "{:?}",
        stats.violations
    );
}

/// A freed (balanced) fallback is not "leaked": freeing removes the range
/// from the cross-team join, and a late foreign access panics in the memory
/// layer instead (next two tests).
#[test]
fn cross_team_join_ignores_freed_fallbacks() {
    let mut dev = Device::new(DeviceArch::tiny());
    dev.set_sim_threads(Some(1));
    dev.enable_sanitizer();
    let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 32, smem_bytes: 256 };
    let stats = dev
        .launch(&cfg, move |team| {
            let p: DPtr<u64> = team.alloc_shared_fallback(0, 4);
            team.run_lanes(0, &[0], move |lane, _| {
                lane.write(p, 0, 1);
            });
            team.free_shared_fallback(p);
        })
        .unwrap();
    assert!(stats.violations.is_empty(), "{:?}", stats.violations);
}

/// A block that reads a fallback its owner already freed panics with "use
/// after free" (serial block order makes block 0 publish and free first).
#[test]
#[should_panic(expected = "use after free")]
fn foreign_read_of_a_freed_fallback_panics() {
    panics_alike_sanitized_or_not(DeviceArch::tiny(), |dev| {
        let mailbox = dev.global.alloc_zeroed::<u64>(1);
        let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 32, smem_bytes: 256 };
        let _ = dev.launch(&cfg, move |team| {
            if team.block_id == 0 {
                let p: DPtr<u64> = team.alloc_shared_fallback(0, 4);
                team.run_lanes(0, &[0], move |lane, _| {
                    lane.write(p, 0, 7);
                    lane.write(mailbox, 0, p.to_bits());
                });
                team.free_shared_fallback(p);
            } else {
                team.run_lanes(0, &[0], move |lane, _| {
                    let p = DPtr::<u64>::from_bits(lane.read(mailbox, 0));
                    let _ = lane.read(p, 0);
                });
            }
        });
    });
}

/// A block's view caches a host segment on first access; a free straight
/// through `GlobalMem` afterwards must still fail the view's next access.
#[test]
#[should_panic(expected = "use after free")]
fn stale_view_of_a_freed_host_segment_panics() {
    panics_alike_sanitized_or_not(DeviceArch::tiny(), |dev| {
        let data = dev.global.alloc_from(&[1u64, 2]);
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
        let _ = dev.launch(&cfg, move |team| {
            team.run_lanes(0, &[0], move |lane, _| assert_eq!(lane.read(data, 1), 2));
            team.global_ref().free(data);
            team.run_lanes(0, &[0], move |lane, _| {
                let _ = lane.read(data, 1);
            });
        });
    });
}

/// Per-thread block state (shared memory, L1 windows, visit logs, the
/// sanitizer's tables, the segment cache, the merge batches) is reused
/// from block to block and launch to launch. A launch whose block panics
/// must leave none of it behind: the next launch on the device matches
/// the same launch on a fresh device, stats and memory.
#[test]
fn a_panicking_launch_leaves_no_state_behind() {
    /// A kernel on a device that first ran (and survived) a 2-thread
    /// launch whose block 5 reads out of bounds, or with `panic_first`
    /// false, only allocated and freed that launch's buffer.
    fn after_panic(panic_first: bool, sanitize: bool) -> (LaunchStats, u64) {
        let shape = KernelShape { num_blocks: 16, nwarps: 3, steps: 4, seed: 0xBAD5EED };
        let mut dev = Device::new(DeviceArch::tiny());
        dev.set_sim_threads(Some(2));
        if sanitize {
            dev.enable_sanitizer();
        }
        let small = dev.global.alloc_zeroed::<u64>(4);
        if panic_first {
            let cfg = LaunchConfig { num_blocks: 12, threads_per_block: 96, smem_bytes: 512 };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.launch(&cfg, |team| {
                    // Dirty every per-block structure before the panic.
                    let b = team.block_id;
                    for w in 0..team.nwarps() {
                        team.run_lanes(w, &[0, 1, 2, 3], move |lane, id| {
                            lane.smem_write_slot(SmOff(0), w * 4 + id, Slot::from_u64(7));
                            lane.write(small, id as u64, b as u64);
                        });
                        team.warp_sync_masked(w, LaneMask::full(32), LaneMask::contiguous(0, 8));
                    }
                    if b == 5 {
                        team.run_lanes(0, &[0], move |lane, _| {
                            lane.read(small, 99);
                        });
                    }
                })
            }));
            assert!(r.is_err(), "block 5 must panic");
        }
        dev.global.free(small);
        run_shape_on(&mut dev, shape)
    }
    for sanitize in [false, true] {
        assert_eq!(
            after_panic(true, sanitize),
            after_panic(false, sanitize),
            "sanitize={sanitize}"
        );
    }
}

/// Segment ids restart at 0 on every device, so a cached segment must never
/// outlive its launch: two devices whose segment 0 differs in type and
/// length, launched alternately from one thread, each give the stats and
/// memory they give alone.
#[test]
fn alternating_devices_never_share_cached_segments() {
    let shapes = [
        KernelShape { num_blocks: 9, nwarps: 2, steps: 3, seed: 11 },
        KernelShape { num_blocks: 14, nwarps: 1, steps: 5, seed: 22 },
    ];
    for cell in &CELLS {
        let device = |i: usize| {
            let mut dev = Device::new(DeviceArch::tiny());
            dev.set_sim_threads(cell.threads);
            if cell.sanitize {
                dev.enable_sanitizer();
            }
            // Device 1's layout starts with an f64 segment of another
            // length, so a stale segment 0 would be caught as type
            // confusion or read the wrong words.
            if i == 1 {
                dev.global.alloc_from(&[1.5f64; 3]);
            }
            dev
        };
        let alone: Vec<Vec<(LaunchStats, u64)>> = (0..2)
            .map(|i| {
                let mut dev = device(i);
                (0..3).map(|_| run_shape_on(&mut dev, shapes[i])).collect()
            })
            .collect();
        let mut devs = [device(0), device(1)];
        let mut alternated = vec![Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (i, dev) in devs.iter_mut().enumerate() {
                alternated[i].push(run_shape_on(dev, shapes[i]));
            }
        }
        assert_eq!(alternated, alone, "{cell:?}");
    }
}

/// More findings than a block keeps: each block reports its first 64 and
/// then one `FindingsDropped` with the rest, at every thread count.
#[test]
fn findings_past_the_cap_are_counted() {
    let run = |threads: usize| {
        let mut dev = Device::new(DeviceArch::tiny());
        dev.set_sim_threads(Some(threads));
        dev.enable_sanitizer();
        let cfg = LaunchConfig { num_blocks: 3, threads_per_block: 64, smem_bytes: 1024 };
        let lanes: Vec<u32> = (0..32).collect();
        dev.launch(&cfg, |team| {
            // Warps 0 and 1 write the same 128 slots with no barrier
            // between them: 128 write-write races per block.
            for w in 0..2 {
                team.run_lanes(w, &lanes, |lane, id| {
                    for k in 0..4 {
                        lane.smem_write_slot(SmOff(0), k * 32 + id, Slot::from_u64(w as u64));
                    }
                });
            }
        })
        .unwrap()
    };
    let serial = run(1);
    for block in 0..3 {
        let mine: Vec<&Violation> = serial
            .violations
            .iter()
            .filter(|v| match v {
                Violation::SharedMemRace { block: b, .. } => *b == block,
                Violation::FindingsDropped { block: b, .. } => *b == block,
                _ => false,
            })
            .collect();
        assert_eq!(mine.len(), 65, "block {block}");
        assert!(mine[..64].iter().all(|v| matches!(v, Violation::SharedMemRace { .. })));
        assert_eq!(*mine[64], Violation::FindingsDropped { block, dropped: 64 });
    }
    assert_eq!(serial.violations.len(), 3 * 65);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
    }
}
