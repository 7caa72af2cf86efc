//! Long-lived devices: a device that has made many global-memory fallback
//! allocations must behave, and cost, the same per launch as a fresh one.
//!
//! The OpenMP runtime spills a SIMD group's sharing-space slice to global
//! memory when it overflows (§5.3.1), so an application that keeps one
//! device for thousands of time steps allocates and frees fallbacks on
//! every launch. Both tests run under the testkit watchdog; a segment table
//! whose per-operation cost grows with the device's age turns the arena
//! churn quadratic and trips its deadline.
//!
//! A device also keeps its block-execution workers parked between
//! launches. The lifecycle tests check that they are joined when the
//! device drops and that switching the thread count between launches
//! leaves every launch's stats equal to the serial ones.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use simt_omp::gpu::{Device, GlobalMem, LaunchConfig, LaunchStats, Slot};
use simt_omp::host::ManagedDevice;
use simt_omp::kernels::stencil2d::{self, Stencil2dVariant, Stencil2dWorkload};
use testkit::{Cell, CELLS};

/// Ping-pong launches of the halo test.
const LAUNCHES: usize = 200;

/// Serializes this file's tests: the lifecycle test counts the process's
/// block workers, and a sibling test's device would add its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live block-pool workers in this process, from `/proc/self/task` (the
/// pool names its threads `simt-block-<i>`); `None` off Linux. Counting
/// by name keeps the test harness's own threads out of the count.
/// Turn `dev`'s sanitizer on or off as `cell` says.
fn apply_sanitizer(cell: &Cell, dev: &mut Device) {
    if cell.sanitize {
        dev.enable_sanitizer();
    } else {
        dev.disable_sanitizer();
    }
}

fn block_workers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let named = |e: &std::fs::DirEntry| {
        std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.starts_with("simt-block"))
    };
    Some(tasks.filter_map(Result::ok).filter(named).count())
}

/// `block_workers()` once it equals `want`, polling for up to 10 s: a
/// joined thread's task entry can outlive the join briefly, and a freshly
/// spawned worker carries its name only once it has first run, which a
/// launch its caller finished alone need not wait for.
fn block_workers_settled(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = block_workers()?;
        if n == want || Instant::now() > deadline {
            return Some(n);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// stencil2d `HaloShared` with a 256 B sharing space stages every tile
/// through a global fallback. 200 ping-pong launches on one
/// `ManagedDevice` must reproduce the host reference and make the same
/// number of fallbacks on every launch. Successive launches take
/// successive `testkit::CELLS` sanitizer and oracle settings.
#[test]
fn halo_fallback_device_stays_correct_over_200_launches() {
    let _serial = serial();
    testkit::with_deadline("longlived-halo-fallback", Duration::from_secs(120), || {
        let (nx, ny, tile) = (34usize, 10usize, 8u64);
        let kern = stencil2d::build(4, 128, tile as u32, 256, Stencil2dVariant::HaloShared);
        let mut dev = Device::a100();
        dev.set_sim_threads(Some(2));
        let mut md = ManagedDevice::new(dev);
        let init = Stencil2dWorkload::generate(nx, ny).u;
        let (mut a, mut b) = (init.clone(), init.clone());
        let (pa, pb) = (md.map_to(&a), md.map_to(&b));
        let mut want = init;
        let mut fallbacks = Vec::with_capacity(LAUNCHES);
        for (s, cell) in (0..LAUNCHES).zip(CELLS.iter().cycle()) {
            let (src, dst) = if s % 2 == 0 { (pa, pb) } else { (pb, pa) };
            let args = [
                Slot::from_ptr(src),
                Slot::from_ptr(dst),
                Slot::from_u64(nx as u64),
                Slot::from_u64(ny as u64),
                Slot::from_u64(tile),
            ];
            apply_sanitizer(cell, &mut md.dev);
            if cell.oracle {
                kern.launch_oracle(&mut md.dev, &args).unwrap();
            }
            let stats = kern.run(&mut md.dev, &args);
            fallbacks.push(stats.counters.sharing_global_fallbacks);
            want = Stencil2dWorkload { nx, ny, u: want }.reference();
        }
        md.map_from(&mut a);
        md.map_from(&mut b);
        let got = if LAUNCHES % 2 == 1 { &b } else { &a };
        assert_eq!(got, &want, "grid after {LAUNCHES} launches differs from the host reference");
        assert!(fallbacks[0] > 0, "a 256 B sharing space must spill to global memory");
        assert!(
            fallbacks.iter().all(|&f| f == fallbacks[0]),
            "fallbacks per launch drifted: {fallbacks:?}"
        );
        assert_eq!(md.dev.global.live_bytes(), 0, "fallbacks or mappings leaked");
    });
}

/// 100,000 arena allocations and frees through 1,000 block views, with a
/// host segment read by every view. Constant-cost alloc and free finish in
/// well under a second; a table copied on every operation does not.
#[test]
fn arena_churn_of_100k_segments_finishes_inside_the_deadline() {
    let _serial = serial();
    testkit::with_deadline("longlived-arena-churn", Duration::from_secs(30), || {
        let g = GlobalMem::new();
        let host = g.alloc_from(&[1.5f64; 8]);
        for block in 0..1_000u32 {
            let mut v = g.view(block);
            for i in 0..100u64 {
                let p = v.alloc_zeroed::<u64>(4);
                v.write(p, 3, i);
                assert_eq!(v.read(p, 3), i);
                v.free(p);
            }
            assert_eq!(v.read(host, 7), 1.5);
            assert!(v.fallback_ranges().iter().all(|r| r.freed));
        }
        assert_eq!(g.alloc_count(), 100_001);
        assert_eq!(g.live_bytes(), 64);
    });
}

/// 100 devices at 4 sim threads, each launched twice, park three workers
/// apiece; dropping the devices joins all 300. The devices take the
/// `testkit::CELLS` sanitizer settings in turn.
#[test]
fn dropped_devices_join_their_block_workers() {
    let _serial = serial();
    testkit::with_deadline("longlived-pool-lifecycle", Duration::from_secs(120), || {
        let cfg = LaunchConfig { num_blocks: 16, threads_per_block: 64, smem_bytes: 0 };
        let baseline = block_workers();
        let mut want: Option<LaunchStats> = None;
        let mut devs = Vec::with_capacity(100);
        for cell in CELLS.iter().cycle().take(100) {
            let mut dev = Device::a100();
            dev.set_sim_threads(Some(4));
            apply_sanitizer(cell, &mut dev);
            let p = dev.global.alloc_zeroed::<u64>(16 * 64);
            for _ in 0..2 {
                let stats = dev
                    .launch(&cfg, |team| {
                        let lanes: Vec<u32> = (0..32).collect();
                        let bid = team.block_id as u64;
                        for w in 0..team.nwarps() {
                            team.run_lanes(w, &lanes, |lane, id| {
                                let i = bid * 64 + (w * 32 + id) as u64;
                                lane.write(p, i, i + 1);
                            });
                        }
                    })
                    .unwrap();
                assert_eq!(want.get_or_insert_with(|| stats.clone()), &stats);
            }
            assert_eq!(dev.global.read_slice(p, 16 * 64), (1..=16 * 64).collect::<Vec<u64>>());
            devs.push(dev);
        }
        if let Some(base) = baseline {
            assert_eq!(
                block_workers_settled(base + 300),
                Some(base + 300),
                "three parked workers per device"
            );
        }
        drop(devs);
        assert_eq!(block_workers_settled(baseline.unwrap_or(0)), baseline, "workers leaked");
    });
}

/// One `ManagedDevice` switches its sim thread count between launches,
/// 4 → 2 → 1 → 3: every launch's stats equal the serial launch's, and
/// the pool is rebuilt to the new width. The launches take the
/// `testkit::CELLS` sanitizer and oracle settings in turn.
#[test]
fn switching_sim_threads_between_launches_keeps_stats_serial() {
    let _serial = serial();
    testkit::with_deadline("longlived-thread-switch", Duration::from_secs(120), || {
        let (nx, ny, tile) = (34usize, 10usize, 8u64);
        let kern = stencil2d::build(4, 128, tile as u32, 256, Stencil2dVariant::HaloShared);
        let mut md = ManagedDevice::new(Device::a100());
        let init = Stencil2dWorkload::generate(nx, ny).u;
        let out = vec![0.0; init.len()];
        let (pa, pb) = (md.map_to(&init), md.map_to(&out));
        let args = [
            Slot::from_ptr(pa),
            Slot::from_ptr(pb),
            Slot::from_u64(nx as u64),
            Slot::from_u64(ny as u64),
            Slot::from_u64(tile),
        ];
        let baseline = block_workers();
        md.dev.set_sim_threads(Some(1));
        let serial = kern.run(&mut md.dev, &args);
        assert!(serial.blocks > 1, "the launch must have blocks to spread");
        assert_eq!(block_workers(), baseline, "a serial launch parks no worker");
        for (threads, cell) in [4, 2, 1, 3].into_iter().zip(&CELLS) {
            md.dev.set_sim_threads(Some(threads));
            apply_sanitizer(cell, &mut md.dev);
            if cell.oracle {
                kern.launch_oracle(&mut md.dev, &args).unwrap();
            }
            assert_eq!(kern.run(&mut md.dev, &args), serial, "threads={threads} {cell:?}");
            if let (Some(base), true) = (baseline, threads > 1) {
                assert_eq!(block_workers_settled(base + threads - 1), Some(base + threads - 1));
            }
        }
    });
}
