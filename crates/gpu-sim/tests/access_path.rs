//! The lane access path: a global load, store or atomic through
//! [`gpu_sim::Lane`] runs inline in the lane closure, and every rare case
//! branches out of line — ordinal growth, an element spanning two
//! sectors, an atomic's target, and the alive, type and bounds panics.
//! These tests reach each cold branch through `TeamCtx::run_lanes`, the
//! one path both engines and the sanitizer share.

mod common;

use common::panics_alike_sanitized_or_not;
use gpu_sim::stats::RtCounters;
use gpu_sim::{DPtr, Device, DeviceArch, LaunchConfig, LaunchStats, MemStats};
use testkit::CELLS;

fn one_thread_device() -> Device {
    let mut dev = Device::new(DeviceArch::a100());
    dev.set_sim_threads(Some(1));
    dev
}

fn one_block() -> LaunchConfig {
    LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 }
}

#[test]
#[should_panic(expected = "device OOB read: idx 3 >= len 3")]
fn oob_read_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_zeroed::<f64>(3);
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.read(p, 3);
            });
        });
    });
}

#[test]
#[should_panic(expected = "device OOB write: idx 4 >= len 3")]
fn oob_write_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_zeroed::<u32>(3);
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0, 1], |lane, id| {
                lane.write(p, 2 + 2 * id as u64, 1);
            });
        });
    });
}

#[test]
#[should_panic(expected = "device OOB write: idx 5 >= len 4")]
fn oob_atomic_add_f64_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_zeroed::<f64>(4);
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.atomic_add_f64(p.add(2), 3, 1.0);
            });
        });
    });
}

// An index that wraps `offset + idx` past `u64::MAX` is out of bounds in
// every profile: it neither aliases a low element nor trips the debug
// profile's overflow check.

#[test]
#[should_panic(expected = "device OOB read: idx 5 + 18446744073709551613 wraps (len 8)")]
fn wrapping_read_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_from(&(0..8).map(|i| i as f64).collect::<Vec<_>>());
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.read(p.add(5), -3i64 as u64);
            });
        });
    });
}

#[test]
#[should_panic(expected = "device OOB write: idx 2 + 18446744073709551615 wraps (len 3)")]
fn wrapping_write_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_zeroed::<u32>(3);
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.write(p.add(2), u64::MAX, 1);
            });
        });
    });
}

#[test]
#[should_panic(expected = "device OOB write: idx 1 + 18446744073709551615 wraps (len 2)")]
fn wrapping_atomic_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let p = dev.global.alloc_zeroed::<u64>(2);
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.atomic_add_u64(p.add(1), u64::MAX, 1);
            });
        });
    });
}

#[test]
#[should_panic(expected = "device OOB read: idx 4 + 18446744073709551615 wraps (len 8)")]
fn wrapping_host_read_panics() {
    let dev = one_thread_device();
    let p = dev.global.alloc_from(&[0u64; 8]);
    dev.global.read(p.add(4), -1i64 as u64);
}

#[test]
#[should_panic(expected = "device OOB address: idx 2305843009213693952 >= len 4")]
fn wrapping_host_address_panics() {
    let dev = one_thread_device();
    let p = dev.global.alloc_zeroed::<f64>(4);
    dev.global.addr_of(p, 1 << 61);
}

#[test]
#[should_panic(expected = "type confusion on segment 1: expected Vec<u32>")]
fn type_confusion_through_a_lane_panics() {
    panics_alike_sanitized_or_not(DeviceArch::a100(), |dev| {
        let _first = dev.global.alloc_zeroed::<u64>(1);
        let p = dev.global.alloc_zeroed::<f64>(3);
        let q: DPtr<u32> = DPtr::from_bits(p.to_bits());
        let _ = dev.launch(&one_block(), move |team| {
            team.run_lanes(0, &[0], |lane, _| {
                lane.read(p, 0);
                lane.read(q, 0);
            });
        });
    });
}

/// Three blocks of two warps. Warp 0 runs a two-ordinal step first; then
/// one super-step of warp 1 mixes every cold branch of the access path:
///
/// - ordinal 0 holds atomics (even lanes) and plain reads (odd lanes) of
///   one sector;
/// - ordinals 1 and 2 read and write 24-byte elements, half of which
///   span two sectors;
/// - lanes then run 0 to 8 more reads and a closing `u64` atomic, so the
///   step reaches 12 ordinals, past the two the thread's accumulator held
///   when its first block began, and the atomic lands in ordinals other
///   lanes read plainly.
fn cold_path_launch(cell: &testkit::Cell) -> (LaunchStats, Vec<f64>, Vec<u64>) {
    let mut dev = Device::new(DeviceArch::a100());
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    let sums = dev.global.alloc_zeroed::<f64>(4);
    let counts = dev.global.alloc_zeroed::<u64>(2);
    let src = dev.global.alloc_from(&(0..256).map(|i| i as f64).collect::<Vec<_>>());
    let tri =
        dev.global.alloc_from(&(0..64).map(|i| [i as f64, -i as f64, 0.5]).collect::<Vec<_>>());
    let out = dev.global.alloc_zeroed::<[f64; 3]>(96);
    let cfg = LaunchConfig { num_blocks: 3, threads_per_block: 64, smem_bytes: 0 };
    let lanes: Vec<u32> = (0..32).collect();
    let stats = dev
        .launch(&cfg, |team| {
            let b = team.block_id as u64;
            team.run_lanes(0, &lanes, |lane, id| {
                lane.read(src, id as u64);
                lane.read(src, 64 + id as u64);
            });
            team.run_lanes(1, &lanes, |lane, id| {
                let i = id as u64;
                if id % 2 == 0 {
                    lane.atomic_add_f64(sums, i / 2 % 2, 1.0);
                } else {
                    lane.read(sums, 2 + i / 2 % 2);
                }
                let t = lane.read(tri, (b * 7 + i) % 64);
                lane.write(out, b * 32 + i, [t[1], t[0], t[2] + 1.0]);
                for k in 0..i % 5 * 2 {
                    lane.read(src, (i * 8 + k * 3) % 256);
                }
                lane.atomic_add_u64(counts, i % 2, 1);
            });
        })
        .unwrap();
    (stats, dev.global.read_slice(sums, 4), dev.global.read_slice(counts, 2))
}

#[test]
fn cold_branches_in_one_super_step_keep_their_pinned_stats() {
    let want = LaunchStats {
        cycles: 5132,
        blocks: 3,
        blocks_per_sm: 32,
        total_issue: 3838,
        total_sectors: 383,
        total_smem_ops: 0,
        total_l1_hits: 132,
        total_dram_sectors: 173,
        mem: MemStats {
            l1_hits: 132,
            l1_full_hits: 45,
            l1_miss_sectors: 383,
            lsu_sectors: 578,
            tx_cycles: 618,
            l2_bank_sectors: vec![
                11, 7, 5, 7, 12, 7, 13, 10, 8, 7, 7, 13, 10, 10, 8, 11, 6, 12, 13, 8, 13, 15, 7, 9,
                11, 11, 10, 15, 7, 6, 10, 12, 10, 10, 10, 6, 5, 12, 10, 9,
            ],
            dram_sectors: 173,
            dram_atoms: 112,
            mlp_stalls: 8,
        },
        counters: RtCounters::default(),
        violations: Vec::new(),
    };
    for cell in &CELLS {
        let (stats, sums, counts) = cold_path_launch(cell);
        assert_eq!(stats, want, "{cell:?}");
        assert_eq!(sums, [24.0, 24.0, 0.0, 0.0], "{cell:?}");
        assert_eq!(counts, [48, 48], "{cell:?}");
    }
}
