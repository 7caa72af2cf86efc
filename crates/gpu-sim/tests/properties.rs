//! Property-based tests of the simulator's core invariants, driven by the
//! in-tree `testkit` harness (seeded random cases, replayable on failure).

use gpu_sim::mem::shared::SharedMem;
use gpu_sim::{DPtr, Device, DeviceArch, LaneMask, LaunchConfig, Slot};
use testkit::{check, Cell, CELLS};

/// A tiny device with `cell`'s sim threads and sanitizer.
fn device(cell: &Cell) -> Device {
    let mut dev = Device::new(DeviceArch::tiny());
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

/// Group masks partition the warp: disjoint, equal-sized, covering.
#[test]
fn group_masks_partition_warp() {
    check("group_masks_partition_warp", |rng| {
        let warp = 32u32 << rng.range_u32(0, 2); // 32 or 64
        let gs = 1u32 << rng.range_u32(0, 6); // 1..=32
        let groups = LaneMask::groups_of(warp, gs);
        assert_eq!(groups.len() as u32, warp / gs);
        let mut union = LaneMask::EMPTY;
        for g in &groups {
            assert_eq!(g.count(), gs);
            assert!(union.and(*g).is_empty());
            union = union.or(*g);
        }
        assert_eq!(union, LaneMask::full(warp));
    });
}

/// Mask algebra: de Morgan-ish identities on arbitrary masks.
#[test]
fn mask_algebra_identities() {
    check("mask_algebra_identities", |rng| {
        let (ma, mb) = (LaneMask(rng.next_u64()), LaneMask(rng.next_u64()));
        assert_eq!(ma.and(mb).count() + ma.minus(mb).count(), ma.count());
        assert_eq!(ma.or(mb).count() + ma.and(mb).count(), ma.count() + mb.count());
        // Iteration visits exactly the set bits in order.
        let lanes: Vec<u32> = ma.iter().collect();
        assert_eq!(lanes.len() as u32, ma.count());
        assert!(lanes.windows(2).all(|w| w[0] < w[1]));
        assert!(lanes.iter().all(|&l| ma.contains(l)));
    });
}

/// Slot encodings round-trip for arbitrary pointers and scalars.
#[test]
fn slot_roundtrips() {
    check("slot_roundtrips", |rng| {
        let seg = rng.range_u32(0, 1_000_000);
        let off = rng.range_u64(0, 1u64 << 40);
        let f = f64::from_bits(rng.next_u64());
        let p: DPtr<f64> =
            DPtr::from_bits(Slot::from_ptr(DPtr::<f64>::from_bits(((seg as u64) << 40) | off)).0);
        assert_eq!(p.segment(), seg);
        assert_eq!(p.offset(), off);
        let s = Slot::from_f64(f);
        assert_eq!(s.as_f64().to_bits(), f.to_bits());
    });
}

/// Shared-memory bump allocations never overlap and stay in bounds.
#[test]
fn shared_mem_allocations_disjoint() {
    check("shared_mem_allocations_disjoint", |rng| {
        let n = rng.range_usize(1, 20);
        let mut sm = SharedMem::new(4096);
        let mut taken: Vec<(u32, u32)> = Vec::new();
        for _ in 0..n {
            let bytes = rng.range_u32(1, 200);
            if let Some(off) = sm.alloc(bytes) {
                let slots = bytes.div_ceil(8);
                for &(o, n) in &taken {
                    assert!(off.0 >= o + n || off.0 + slots <= o, "allocation overlaps");
                }
                assert!((off.0 + slots) * 8 <= sm.capacity_bytes());
                taken.push((off.0, slots));
            }
        }
    });
}

/// Device memory: write-then-read returns the written data for arbitrary
/// slices; addresses are monotone within a segment.
#[test]
fn global_memory_roundtrip() {
    check("global_memory_roundtrip", |rng| {
        let len = rng.range_usize(1, 100);
        let data: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
        let dev = Device::new(DeviceArch::tiny());
        let p = dev.global.alloc_from(&data);
        let back = dev.global.read_slice(p, data.len());
        for (a, b) in back.iter().zip(data.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for i in 1..data.len() as u64 {
            assert_eq!(dev.global.addr_of(p, i) - dev.global.addr_of(p, i - 1), 8);
        }
    });
}

/// Lockstep charging: warp time equals the maximum lane time for pure
/// compute, independent of which lanes run.
#[test]
fn lockstep_is_max_combining() {
    let mut cells = CELLS.iter().cycle();
    check("lockstep_is_max_combining", |rng| {
        let n = rng.range_usize(1, 32);
        let costs: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 500)).collect();
        let mut dev = device(cells.next().unwrap());
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
        let costs2 = costs.clone();
        let stats = dev
            .launch(&cfg, move |team| {
                let lanes: Vec<u32> = (0..costs2.len() as u32).collect();
                let c = costs2.clone();
                team.run_lanes(0, &lanes, move |lane, id| {
                    lane.work(c[id as usize]);
                });
            })
            .unwrap();
        let max = *costs.iter().max().unwrap();
        assert_eq!(stats.total_issue, max);
    });
}

/// Launch cycle counts are deterministic for arbitrary compute shapes.
#[test]
fn launches_are_deterministic() {
    let mut cells = CELLS.iter().cycle();
    check("launches_are_deterministic", |rng| {
        let cell = cells.next().unwrap();
        let blocks = rng.range_u32(1, 16);
        let warps = rng.range_u32(1, 4);
        let work = rng.range_u64(1, 1000);
        let run = || {
            let mut dev = device(cell);
            let cfg =
                LaunchConfig { num_blocks: blocks, threads_per_block: warps * 32, smem_bytes: 256 };
            dev.launch(&cfg, |team| {
                for w in 0..team.nwarps() {
                    team.charge_alu(w, work * (w as u64 + 1));
                }
                team.block_barrier();
            })
            .unwrap()
            .cycles
        };
        assert_eq!(run(), run());
    });
}
