//! Long-lived devices: a device that has made many global-memory fallback
//! allocations must behave, and cost, the same per launch as a fresh one.
//!
//! The OpenMP runtime spills a SIMD group's sharing-space slice to global
//! memory when it overflows (§5.3.1), so an application that keeps one
//! device for thousands of time steps allocates and frees fallbacks on
//! every launch. Both tests run under the testkit watchdog; a segment table
//! whose per-operation cost grows with the device's age turns the arena
//! churn quadratic and trips its deadline.

use std::time::Duration;

use simt_omp::gpu::{Device, GlobalMem, Slot};
use simt_omp::host::ManagedDevice;
use simt_omp::kernels::stencil2d::{self, Stencil2dVariant, Stencil2dWorkload};

/// Ping-pong launches of the halo test.
const LAUNCHES: usize = 200;

/// stencil2d `HaloShared` with a 256 B sharing space stages every tile
/// through a global fallback. 200 ping-pong launches on one
/// `ManagedDevice` must reproduce the host reference and make the same
/// number of fallbacks on every launch.
#[test]
fn halo_fallback_device_stays_correct_over_200_launches() {
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
        for s in 0..LAUNCHES {
            let (src, dst) = if s % 2 == 0 { (pa, pb) } else { (pb, pa) };
            let args = [
                Slot::from_ptr(src),
                Slot::from_ptr(dst),
                Slot::from_u64(nx as u64),
                Slot::from_u64(ny as u64),
                Slot::from_u64(tile),
            ];
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
