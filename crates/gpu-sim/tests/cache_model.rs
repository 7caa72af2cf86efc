//! Tests of the memory-hierarchy model: 128-byte LSU transactions, the
//! sectored per-warp L1 window, and the L2/DRAM traffic split.

use gpu_sim::mem::pod::DevValue;
use gpu_sim::stats::RtCounters;
use gpu_sim::{Device, DeviceArch, LaunchConfig, LaunchError, LaunchStats, MemStats};
use testkit::{Cell, CELLS};

/// An a100 device with `cell`'s sim threads and sanitizer.
fn device(cell: &Cell) -> Device {
    let mut dev = Device::new(DeviceArch::a100());
    dev.set_sim_threads(cell.threads);
    if cell.sanitize {
        dev.enable_sanitizer();
    }
    dev
}

fn one_block() -> LaunchConfig {
    LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 }
}

#[test]
fn coalesced_warp_load_is_two_transactions() {
    for cell in &CELLS {
        // 32 consecutive f64 = 256 B = 2 lines; issue cost = 2 × line_cycles
        // plus sector traffic.
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32);
        let lc = dev.cost.line_cycles;
        let sc = dev.cost.sector_cycles;
        let stats = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, 8, "8 compulsory 32B sectors");
        assert_eq!(stats.total_dram_sectors, 8);
        assert_eq!(stats.total_issue, 2 * lc + 8 * sc);
    }
}

#[test]
fn strided_warp_load_is_32_transactions() {
    for cell in &CELLS {
        // Stride of 128 B: every lane touches its own line.
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32 * 16);
        let lc = dev.cost.line_cycles;
        let sc = dev.cost.sector_cycles;
        let stats = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64 * 16);
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, 32);
        assert_eq!(stats.total_issue, 32 * lc + 32 * sc);
    }
}

#[test]
fn sectored_cache_charges_each_sector_once() {
    for cell in &CELLS {
        // A lane streaming through one line (4 sectors, 16 f64) pays DRAM for
        // each sector exactly once even though the line tag hits after the
        // first access.
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(16);
        let stats = dev
            .launch(&one_block(), |team| {
                team.run_lanes(0, &[0], |lane, _| {
                    for i in 0..16u64 {
                        lane.read(p, i);
                    }
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, 4, "4 sectors of one line, each fetched once");
        // 16 accesses = 16 line transactions, but only 4 carried DRAM traffic.
        assert_eq!(stats.total_dram_sectors, 4);
    }
}

#[test]
fn warp_reuse_hits_the_l1_window() {
    for cell in &CELLS {
        // Reading the same 32 values twice: the second pass is all line hits
        // with no new traffic.
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32);
        let stats = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                    lane.read(p, id as u64); // second ordinal: same sectors
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, 8, "second pass must not refetch");
        assert!(stats.total_l1_hits > 0);
    }
}

#[test]
fn capacity_thrash_refetches_from_l2_not_dram() {
    for cell in &CELLS {
        // A working set far beyond the per-warp window: revisiting it refetches
        // (sectors counted twice = L2 traffic) but compulsory DRAM traffic
        // counts each sector once.
        let mut dev = device(cell);
        let n = 32 * 1024u64; // 256 KB ≫ the per-warp window
        let p = dev.global.alloc_zeroed::<f64>(n as usize);
        let stats = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                for pass in 0..2 {
                    let _ = pass;
                    team.run_lanes(0, &lanes, |lane, id| {
                        let mut i = id as u64;
                        while i < n {
                            lane.read(p, i);
                            i += 32;
                        }
                    });
                }
            })
            .unwrap();
        let compulsory = n / 4; // 4 f64 per sector
        assert_eq!(stats.total_dram_sectors, compulsory, "DRAM sees each sector once");
        assert_eq!(stats.total_sectors, 2 * compulsory, "L2 serves the thrashed second pass");
    }
}

#[test]
fn different_warps_have_independent_windows() {
    for cell in &CELLS {
        // Warp 1 reading what warp 0 cached still misses its own window (the
        // traffic then deduplicates at the DRAM level, not L1).
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32);
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 64, smem_bytes: 0 };
        let stats = dev
            .launch(&cfg, |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
                team.run_lanes(1, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, 16, "both warps miss their own L1");
        assert_eq!(stats.total_dram_sectors, 8, "but DRAM traffic deduplicates");
    }
}

#[test]
fn first_touch_resets_between_launches() {
    for cell in &CELLS {
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32);
        let run = |dev: &mut Device| {
            dev.launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            })
            .unwrap()
            .total_dram_sectors
        };
        assert_eq!(run(&mut dev), 8);
        // A new launch re-pays compulsory traffic (device caches are not
        // assumed warm across kernels).
        assert_eq!(run(&mut dev), 8);
    }
}

#[test]
fn cross_block_compulsory_traffic_survives_l1_refetches() {
    // Four blocks b = 0..3 each walk lines b..=b+4 of one array (so
    // neighbours overlap) through a single 4-way L1 set, which five lines
    // thrash: pass 1 reads sector 0 of each line, pass 2 re-fetches every
    // evicted line for sectors 2+3, pass 3 adds sector 1 to the still
    // resident line b+4 (a tag hit that fetches). Replayed in block order:
    //   block 0: 5 + 10 + 1 = 16 sectors in 5 + 5 + 1 = 11 atoms;
    //   blocks 1-3: only line b+4 is fresh: 1 + 2 + 1 = 4 sectors,
    //   3 atoms each.
    // Totals: 28 DRAM sectors (= 8 lines x sectors {0,2,3} + lines 4..7
    // x sector 1) in 20 atoms. L1 misses: every block pays 5 + 10 + 1.
    let run = |cell: &Cell| {
        let mut dev = device(cell);
        dev.cost.l1_lines = 4;
        let p = dev.global.alloc_zeroed::<f64>(16 * 8);
        let cfg = LaunchConfig { num_blocks: 4, threads_per_block: 32, smem_bytes: 0 };
        dev.launch(&cfg, |team| {
            let b = team.block_id as u64;
            let step = |team: &mut gpu_sim::TeamCtx<'_>,
                        lanes: &[u32],
                        f: &dyn Fn(&mut gpu_sim::Lane<'_, '_>, u32)| {
                team.run_lanes(0, lanes, f);
            };
            step(team, &[0], &|lane, _| {
                for l in b..=b + 4 {
                    lane.read(p, 16 * l);
                }
            });
            step(team, &[0, 1], &|lane, id| {
                for l in b..=b + 4 {
                    lane.read(p, 16 * l + 8 + 4 * id as u64);
                }
            });
            step(team, &[0], &|lane, _| {
                lane.read(p, 16 * (b + 4) + 4);
            });
        })
        .unwrap()
    };
    for cell in &CELLS {
        let s = run(cell);
        let at = format!("{cell:?}");
        assert_eq!(s.total_dram_sectors, 28, "{at}");
        assert_eq!(s.mem.dram_sectors, s.total_dram_sectors, "{at}");
        assert_eq!(s.mem.dram_atoms, 20, "{at}");
        assert_eq!(s.total_sectors, 4 * 16, "{at}: every refetch misses the L1");
        assert_eq!(s.total_l1_hits, 0, "{at}");
    }
}

#[test]
fn smem_bank_conflicts_serialize() {
    for cell in &CELLS {
        // 32 lanes hitting 32 consecutive slots: each bank once → 1 wavefront.
        // 32 lanes striding by 32 slots: all in bank 0 → 32 wavefronts.
        let cost = |stride: u32| {
            let mut dev = device(cell);
            let sc = dev.cost.smem_cycles;
            let cfg =
                LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 32 * 32 * 8 };
            let stats = dev
                .launch(&cfg, |team| {
                    let off = team.smem.alloc(32 * 32 * 8).unwrap();
                    let lanes: Vec<u32> = (0..32).collect();
                    team.run_lanes(0, &lanes, |lane, id| {
                        lane.smem_write_f64(off, id * stride, 1.0);
                    });
                })
                .unwrap();
            (stats.total_issue, sc)
        };
        let (conflict_free, sc) = cost(1);
        let (fully_conflicted, _) = cost(32);
        assert_eq!(conflict_free, sc, "one wavefront");
        assert_eq!(fully_conflicted, 32 * sc, "32-way serialization");
    }
}

#[test]
fn smem_broadcast_is_free_of_conflicts() {
    for cell in &CELLS {
        // All lanes reading the SAME slot broadcast in one wavefront.
        let mut dev = device(cell);
        let sc = dev.cost.smem_cycles;
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 1024 };
        let stats = dev
            .launch(&cfg, |team| {
                let off = team.smem.alloc(64).unwrap();
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, _| {
                    lane.smem_read_slot(off, 0);
                });
            })
            .unwrap();
        assert_eq!(stats.total_issue, sc, "broadcast costs one wavefront");
    }
}

// ---------------------------------------------------------------------------
// Coalescing: the transaction generation `run_lanes` performs per access
// ordinal. Each case is one super-step on a fresh device, so these pin the
// engine's own coalescing: its canonical shapes and its monotonicity in the
// active-lane set.
// ---------------------------------------------------------------------------

/// Run one super-step in which lanes `0..n` each read element `idx(lane)`
/// of a zeroed `len`-element array of `T` (segments are 256-byte aligned,
/// so element byte offsets are sector offsets). Returns the deduplicated
/// sectors the LSU saw, after checking that the cold L1 sent every one of
/// them to L2 and that every cell of the test matrix saw the same count.
fn step_sectors<T: DevValue + Default>(len: usize, n: u32, idx: impl Fn(u32) -> u64 + Sync) -> u64 {
    let counts = CELLS.map(|cell| {
        let mut dev = device(&cell);
        let p = dev.global.alloc_zeroed::<T>(len);
        let lanes: Vec<u32> = (0..n).collect();
        let stats = dev
            .launch(&one_block(), |team| {
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, idx(id));
                });
            })
            .unwrap();
        assert_eq!(stats.total_sectors, stats.mem.lsu_sectors, "a cold L1 misses every sector");
        stats.mem.lsu_sectors
    });
    assert!(counts.iter().all(|&c| c == counts[0]), "sectors vary across cells: {counts:?}");
    counts[0]
}

/// A 12-byte element: at unit stride, every third one straddles a 32-byte
/// sector boundary.
type Triple = [u32; 3];

#[test]
fn coalesce_broadcast_is_one_sector() {
    // Every lane reads the same f64: one 32 B sector, however many lanes.
    assert_eq!(step_sectors::<f64>(32, 32, |_| 16), 1);
}

#[test]
fn coalesce_unit_stride_is_minimal() {
    // 32 consecutive f64 = 256 B = exactly 8 sectors, nothing duplicated.
    assert_eq!(step_sectors::<f64>(32, 32, |l| l as u64), 8);
}

#[test]
fn coalesce_wide_stride_is_one_sector_per_lane() {
    // 128 B stride: every lane lands in its own line — worst case, one
    // sector per active lane.
    assert_eq!(step_sectors::<f64>(32 * 16, 32, |l| l as u64 * 16), 32);
}

#[test]
fn coalesce_misaligned_warp_pays_one_extra_sector() {
    // 32 unit-stride 12 B elements span 384 B = 12 sectors; shifting the
    // warp one element off sector alignment straddles one more (13). A
    // lone straddling lane (bytes 24..36) pays two sectors.
    assert_eq!(step_sectors::<Triple>(33, 32, |l| l as u64), 12);
    assert_eq!(step_sectors::<Triple>(33, 32, |l| l as u64 + 1), 13);
    assert_eq!(step_sectors::<Triple>(3, 1, |_| 2), 2);
}

#[test]
fn coalesce_partial_mask_touches_only_active_sectors() {
    // Lanes 0..8 of a unit-stride warp: 64 B = 2 sectors; the inactive
    // lanes' sectors never appear.
    assert_eq!(step_sectors::<f64>(32, 8, |l| l as u64), 2);
}

#[test]
fn coalesce_is_monotone_in_active_lanes() {
    // Enabling one more lane never shrinks the sector count, and adds at
    // most that lane's own sectors (two for a straddling element) — for a
    // deterministic pattern mixing strides, overlaps and misalignment.
    let pattern = |l: u32| (l as u64 * 37) % 61;
    let mut prev = 0;
    for n in 0..=32 {
        let cur = step_sectors::<Triple>(61, n, pattern);
        assert!(cur >= prev, "sector count must be monotone in active lanes");
        assert!(cur <= prev + 2, "a lane adds at most its own sectors");
        prev = cur;
    }
}

#[test]
fn burst_atoms_separate_strided_from_coalesced_fills() {
    for cell in &CELLS {
        // Equal useful DRAM traffic, different burst-atom cost: a coalesced
        // fill pays one 64 B atom per two sectors; 128 B-strided single-sector
        // fills pay a whole atom each, doubling their effective bandwidth at
        // the hierarchical DRAM roof.
        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32 * 16);
        let coalesced = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            })
            .unwrap();
        assert_eq!(coalesced.mem.dram_sectors, 8);
        assert_eq!(coalesced.mem.dram_atoms, 4, "fully-coalesced: 2 sectors per atom");

        let mut dev = device(cell);
        let p = dev.global.alloc_zeroed::<f64>(32 * 16);
        let strided = dev
            .launch(&one_block(), |team| {
                let lanes: Vec<u32> = (0..32).collect();
                team.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64 * 16);
                });
            })
            .unwrap();
        assert_eq!(strided.mem.dram_sectors, 32);
        assert_eq!(strided.mem.dram_atoms, 32, "single-sector fills burn one atom each");
    }
}

/// A launch of the reuse-isolation test. Every kind but `Target` needs
/// block state of another shape than `Target`'s, so running it between
/// two `Target` launches on one thread rebuilds that thread's reused
/// warps, accumulator and L1 windows.
#[derive(Clone, Copy, Debug)]
enum Reuse {
    /// a100: two warps per block each touch 2,048 distinct lines, enough
    /// to fill every set of their 512-line L1 windows, then re-read some.
    Target,
    /// mi100: wave64 lanes and 64 shared-memory banks.
    Wave64,
    /// A 4-line L1: one 4-way set.
    TinyL1,
}

fn reuse_launch(kind: Reuse, sanitize: bool) -> gpu_sim::LaunchStats {
    const LINES: u64 = 4096;
    let mut dev = match kind {
        Reuse::Wave64 => Device::new(DeviceArch::mi100()),
        _ => Device::new(DeviceArch::a100()),
    };
    if sanitize {
        dev.enable_sanitizer();
    }
    match kind {
        Reuse::TinyL1 => dev.cost.l1_lines = 4,
        Reuse::Target | Reuse::Wave64 => {}
    }
    dev.set_sim_threads(Some(1));
    let ws = dev.arch.warp_size;
    let p = dev.global.alloc_zeroed::<f64>(LINES as usize * 16);
    let cfg = LaunchConfig { num_blocks: 4, threads_per_block: 2 * ws, smem_bytes: 8 * ws };
    let per_lane = 2048 / ws as u64;
    dev.launch(&cfg, |team| {
        let lanes: Vec<u32> = (0..ws).collect();
        let off = team.smem.alloc(8 * ws).unwrap();
        let base = team.block_id as u64 * 331;
        for w in 0..team.nwarps() {
            let first = base + w as u64 * 997;
            team.run_lanes(w, &lanes, |lane, id| {
                for k in 0..per_lane {
                    let line = (first + id as u64 * per_lane + k) % LINES;
                    lane.read(p, line * 16 + k % 16);
                }
                lane.smem_write_f64(off, (id * 7) % ws, id as f64);
            });
            team.run_lanes(w, &lanes, |lane, id| {
                for k in per_lane - 8..per_lane {
                    let line = (first + id as u64 * per_lane + k) % LINES;
                    lane.read(p, line * 16 + k % 16);
                }
                lane.smem_read_f64(off, id);
            });
        }
    })
    .unwrap()
}

#[test]
fn reused_block_state_is_isolated_across_launches_and_cost_models() {
    for san in [false, true] {
        let fresh = |kind| std::thread::spawn(move || reuse_launch(kind, san)).join().unwrap();
        let kinds = [Reuse::Target, Reuse::Wave64, Reuse::TinyL1, Reuse::Target];
        let want: Vec<_> = kinds.iter().map(|&k| fresh(k)).collect();
        let target = &want[0];
        assert!(target.total_l1_hits > 0 && target.total_dram_sectors > 0, "{target:?}");
        assert!(target.total_dram_sectors < target.total_sectors, "blocks must share lines");
        assert_ne!(want[2].total_l1_hits, target.total_l1_hits, "the tiny L1 must change hits");
        // One thread, so every launch after the first reuses block state.
        let got = std::thread::spawn(move || kinds.map(|k| reuse_launch(k, san))).join().unwrap();
        for ((kind, got), want) in kinds.iter().zip(&got).zip(&want) {
            assert_eq!(got, want, "{kind:?} after reuse differs from a fresh thread (san {san})");
        }
    }
}

/// The stats of a one-warp-per-block a100 launch with no shared memory,
/// no runtime counters and no sanitizer findings: only the memory fields
/// vary between the pins below.
fn a100_stats(blocks: u32, cycles: u64, issue: u64, dram: u64, mem: MemStats) -> LaunchStats {
    LaunchStats {
        cycles,
        blocks,
        blocks_per_sm: 32,
        total_issue: issue,
        total_sectors: mem.l1_miss_sectors,
        total_smem_ops: 0,
        total_l1_hits: mem.l1_hits,
        total_dram_sectors: dram,
        mem,
        counters: RtCounters::default(),
        violations: Vec::new(),
    }
}

/// Element index of `line` in an f64 array allocated first on a fresh
/// device (based at byte 256, so line 2 holds elements 0..16).
fn elem_of_line(line: u64) -> u64 {
    (line - 2) * 16
}

/// Lines `4097·k` for `k = 1..=7`: distinct, but every one lands in the
/// same slot of the per-block visit filter (their low twelve bits equal
/// the next twelve), so the filter keeps only the last and re-logs bits a
/// refetch brings back.
const COLLIDING: [u64; 7] = [4097, 8194, 12291, 16388, 20485, 24582, 28679];

fn colliding_lines_launch(cell: &Cell) -> LaunchStats {
    let mut dev = device(cell);
    dev.cost.l1_lines = 4;
    let p = dev.global.alloc_zeroed::<f64>(elem_of_line(28680) as usize);
    let cfg = LaunchConfig { num_blocks: 4, threads_per_block: 64, smem_bytes: 0 };
    dev.launch(&cfg, |team| {
        let b = team.block_id as usize;
        let lines = &COLLIDING[b % 3..b % 3 + 5];
        for w in 0..2u32 {
            // Sector 0, then sectors 2 and 3, then sector 0 again of five
            // lines through one 4-way set: every pass refetches evicted
            // lines, and the third re-requests bits the block logged.
            team.run_lanes(w, &[0], |lane, _| {
                for &l in lines {
                    lane.read(p, elem_of_line(l));
                }
            });
            team.run_lanes(w, &[0, 1], |lane, id| {
                for &l in lines {
                    lane.read(p, elem_of_line(l) + 8 + 4 * id as u64);
                }
            });
            team.run_lanes(w, &[0, 1, 2], |lane, id| {
                for &l in lines.iter().rev() {
                    lane.read(p, elem_of_line(l) + id as u64);
                }
            });
        }
    })
    .unwrap()
}

#[test]
fn colliding_visit_filter_slots_keep_dram_exact() {
    // Every access misses the thrashed set, so each warp re-requests every
    // sector, and warp 1 repeats warp 0: the filter re-logs bits, and the
    // replay must still charge each of the 7 lines' sectors {0, 2, 3}
    // once, in one atom per pair.
    let want = a100_stats(
        4,
        4240,
        1040,
        21,
        MemStats {
            l1_hits: 0,
            l1_full_hits: 0,
            l1_miss_sectors: 160,
            lsu_sectors: 160,
            tx_cycles: 0,
            l2_bank_sectors: vec![
                0, 0, 0, 22, 0, 0, 0, 16, 0, 8, 12, 0, 0, 4, 16, 0, 6, 0, 4, 0, 8, 8, 0, 0, 0, 10,
                0, 0, 24, 0, 0, 4, 8, 0, 8, 0, 0, 0, 2, 0,
            ],
            dram_sectors: 21,
            dram_atoms: 14,
            mlp_stalls: 1,
        },
    );
    for cell in &CELLS {
        assert_eq!(colliding_lines_launch(cell), want, "{cell:?}");
    }
}

/// A 12-line L1 is three sets, not a power of two, so the set index would
/// need a divide: the launch is rejected before any block runs.
#[test]
fn non_power_of_two_set_count_is_rejected() {
    for cell in &CELLS {
        let mut dev = device(cell);
        dev.cost.l1_lines = 12;
        let err = dev.launch(&one_block(), |_| panic!("no block may run")).unwrap_err();
        assert_eq!(err, LaunchError::BadGeometry { l1_lines: 12, smem_banks: 32 }, "{cell:?}");
    }
}
