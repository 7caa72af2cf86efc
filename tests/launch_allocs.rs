//! A launch's heap allocations do not grow with its block count.
//!
//! Block set-up, hand-off and teardown reuse each sim thread's block state
//! and each participant's batch, so once a device has run the larger grid
//! once, a 108-block and a 432-block launch of the same kernel make the
//! same number of heap allocations: only O(1) per launch (its
//! `LaunchStats`), none per block. A counting global allocator observes
//! every thread of the process, block workers included; this file holds a
//! single test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simt_omp::gpu::mem::shared::SmOff;
use simt_omp::gpu::{DPtr, Device, LaneMask, LaunchConfig, Slot, TeamCtx};
use simt_omp::kernels::harness::Fig10Variant;
use simt_omp::kernels::laplace3d::{self, Laplace3dDev, Laplace3dWorkload};
use simt_omp::kernels::su3::{self, Su3Dev, Su3Workload};

/// Heap allocations (fresh or resized) made so far by the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting every allocation and reallocation.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LANES: [u32; 32] = {
    let mut l = [0; 32];
    let mut i = 0;
    while i < 32 {
        l[i] = i as u32;
        i += 1;
    }
    l
};

/// A kernel body that touches every per-block structure without
/// allocating itself: strided global reads and writes, a global atomic,
/// shared-memory writes and reads, full and masked warp syncs and a block
/// barrier.
fn body(team: &mut TeamCtx<'_>, data: DPtr<f64>, hits: DPtr<u64>) {
    let b = team.block_id as u64;
    for w in 0..team.nwarps() {
        team.run_lanes(w, &LANES, |lane, id| {
            let i = (b * 128 + w as u64 * 32 + id as u64) % 4096;
            let v = lane.read(data, i);
            lane.smem_write_slot(SmOff(0), w * 32 + id, Slot::from_f64(v));
            lane.write(data, (i * 7) % 4096, v + 1.0);
            if id == 0 {
                lane.atomic_add_u64(hits, 0, 1);
            }
        });
        team.warp_sync(w);
        team.warp_sync_masked(w, LaneMask::full(32), LaneMask::full(32));
    }
    team.block_barrier();
    for w in 0..team.nwarps() {
        team.run_lanes(w, &LANES, |lane, id| {
            lane.smem_read_slot(SmOff(0), (w * 32 + id + 1) % 128);
        });
    }
}

/// Heap allocations `launch` makes, the fewest over `rounds` calls: a
/// participant's batch may still grow the first time it holds more blocks
/// than ever before, and the minimum filters that out while a per-block
/// allocation shows in every call.
fn allocs_of(rounds: usize, mut launch: impl FnMut()) -> u64 {
    (0..rounds)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            launch();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one round")
}

#[test]
fn launch_allocations_do_not_grow_with_the_grid() {
    // One laplace3d kernel compiled for each grid size.
    let lap = [108, 432].map(|teams| laplace3d::build(teams, 128, Fig10Variant::SpmdSimd));
    let lap_w = Laplace3dWorkload::generate(8);
    let su3 = [108, 432].map(|teams| su3::build(teams, 128, 8));
    let su3_w = Su3Workload::generate(432, 3);
    let mut counts = Vec::new();
    for threads in [1, 2] {
        for sanitize in [false, true] {
            // Threads and the sanitizer are set explicitly: the
            // environment may pin either for the whole test run.
            let mut dev = Device::a100();
            dev.set_sim_threads(Some(threads));
            if sanitize {
                dev.enable_sanitizer();
            } else {
                dev.disable_sanitizer();
            }
            let data = dev.global.alloc_from(&vec![0.5f64; 4096]);
            let hits = dev.global.alloc_zeroed::<u64>(1);
            let grid = |blocks| LaunchConfig {
                num_blocks: blocks,
                threads_per_block: 128,
                smem_bytes: 1024,
            };
            let run = |dev: &mut Device, blocks| {
                let stats = dev.launch(&grid(blocks), |team| body(team, data, hits)).unwrap();
                assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            };
            run(&mut dev, 432);
            let small = allocs_of(5, || run(&mut dev, 108));
            let large = allocs_of(5, || run(&mut dev, 432));
            counts.push(("raw", threads, sanitize, small, large));

            // The same check through the bytecode engine. Each kernel's
            // first launch lowers its program, so both are warmed up.
            let lap_args = Laplace3dDev::upload(&mut dev, &lap_w).args();
            let run_lap = |dev: &mut Device, k: usize| {
                let stats = lap[k].launch(dev, &lap_args).unwrap();
                assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            };
            run_lap(&mut dev, 1);
            run_lap(&mut dev, 0);
            let small = allocs_of(5, || run_lap(&mut dev, 0));
            let large = allocs_of(5, || run_lap(&mut dev, 1));
            counts.push(("laplace3d", threads, sanitize, small, large));

            // su3's warp-form body: warp instructions unsanitized, the
            // lane-mode adapter sanitized.
            let su3_args = Su3Dev::upload(&mut dev, &su3_w).args();
            let run_su3 = |dev: &mut Device, k: usize| {
                let stats = su3[k].launch(dev, &su3_args).unwrap();
                assert!(stats.violations.is_empty(), "{:?}", stats.violations);
            };
            run_su3(&mut dev, 1);
            run_su3(&mut dev, 0);
            let small = allocs_of(5, || run_su3(&mut dev, 0));
            let large = allocs_of(5, || run_su3(&mut dev, 1));
            counts.push(("su3", threads, sanitize, small, large));
        }
    }
    for (kernel, threads, sanitize, small, large) in &counts {
        println!("{kernel} threads={threads} sanitize={sanitize}: {small} / {large} allocations");
    }
    for (kernel, threads, sanitize, small, large) in counts {
        assert_eq!(
            small, large,
            "{kernel} at {threads} sim threads, sanitizer {sanitize}: 108 blocks made {small} \
             allocations, 432 made {large}"
        );
    }
}
