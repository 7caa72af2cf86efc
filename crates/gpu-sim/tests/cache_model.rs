//! Tests of the memory-hierarchy model: 128-byte LSU transactions, the
//! sectored per-warp L1 window, and the L2/DRAM traffic split.

use gpu_sim::{Device, DeviceArch, LaunchConfig};

fn device() -> Device {
    Device::new(DeviceArch::a100())
}

fn one_block() -> LaunchConfig {
    LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 }
}

#[test]
fn coalesced_warp_load_is_two_transactions() {
    // 32 consecutive f64 = 256 B = 2 lines; issue cost = 2 × line_cycles
    // plus sector traffic.
    let mut dev = device();
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

#[test]
fn strided_warp_load_is_32_transactions() {
    // Stride of 128 B: every lane touches its own line.
    let mut dev = device();
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

#[test]
fn sectored_cache_charges_each_sector_once() {
    // A lane streaming through one line (4 sectors, 16 f64) pays DRAM for
    // each sector exactly once even though the line tag hits after the
    // first access.
    let mut dev = device();
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

#[test]
fn warp_reuse_hits_the_l1_window() {
    // Reading the same 32 values twice: the second pass is all line hits
    // with no new traffic.
    let mut dev = device();
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

#[test]
fn capacity_thrash_refetches_from_l2_not_dram() {
    // A working set far beyond the per-warp window: revisiting it refetches
    // (sectors counted twice = L2 traffic) but compulsory DRAM traffic
    // counts each sector once.
    let mut dev = device();
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

#[test]
fn different_warps_have_independent_windows() {
    // Warp 1 reading what warp 0 cached still misses its own window (the
    // traffic then deduplicates at the DRAM level, not L1).
    let mut dev = device();
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

#[test]
fn first_touch_resets_between_launches() {
    let mut dev = device();
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
    let run = |threads: usize, flat: bool| {
        let mut dev = device();
        dev.cost.l1_lines = 4;
        dev.set_sim_threads(Some(threads));
        let p = dev.global.alloc_zeroed::<f64>(16 * 8);
        let cfg = LaunchConfig { num_blocks: 4, threads_per_block: 32, smem_bytes: 0 };
        dev.launch(&cfg, |team| {
            let b = team.block_id as u64;
            let step = |team: &mut gpu_sim::TeamCtx<'_>,
                        lanes: &[u32],
                        f: &dyn Fn(&mut gpu_sim::Lane<'_, '_>, u32)| {
                if flat {
                    team.run_lanes_flat(0, lanes, f);
                } else {
                    team.run_lanes(0, lanes, f);
                }
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
    for flat in [false, true] {
        for threads in [1, 2, 4] {
            let s = run(threads, flat);
            let at = format!("threads {threads}, flat {flat}");
            assert_eq!(s.total_dram_sectors, 28, "{at}");
            assert_eq!(s.mem.dram_sectors, s.total_dram_sectors, "{at}");
            assert_eq!(s.mem.dram_atoms, 20, "{at}");
            assert_eq!(s.total_sectors, 4 * 16, "{at}: every refetch misses the L1");
            assert_eq!(s.total_l1_hits, 0, "{at}");
        }
    }
}

#[test]
fn smem_bank_conflicts_serialize() {
    // 32 lanes hitting 32 consecutive slots: each bank once → 1 wavefront.
    // 32 lanes striding by 32 slots: all in bank 0 → 32 wavefronts.
    let cost = |stride: u32| {
        let mut dev = device();
        let sc = dev.cost.smem_cycles;
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 32 * 32 * 8 };
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

#[test]
fn smem_broadcast_is_free_of_conflicts() {
    // All lanes reading the SAME slot broadcast in one wavefront.
    let mut dev = device();
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

// ---------------------------------------------------------------------------
// Coalescing unit: `mem::hier::coalesce_sectors` is the pure mirror of the
// transaction generation both engines perform per ordinal; these pin its
// canonical shapes and its monotonicity in the active-lane set.
// ---------------------------------------------------------------------------

use gpu_sim::mem::hier::coalesce_sectors;

#[test]
fn coalesce_broadcast_is_one_sector() {
    // Every lane reads the same f64: one 32 B sector, however many lanes.
    let accesses: Vec<(u64, u32)> = (0..32).map(|_| (128, 8)).collect();
    assert_eq!(coalesce_sectors(&accesses, 32), vec![4]);
}

#[test]
fn coalesce_unit_stride_is_minimal() {
    // 32 consecutive f64 = 256 B = exactly 8 sectors, nothing duplicated.
    let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 8, 8)).collect();
    assert_eq!(coalesce_sectors(&accesses, 32), (0..8).collect::<Vec<u64>>());
}

#[test]
fn coalesce_wide_stride_is_one_sector_per_lane() {
    // 128 B stride: every lane lands in its own line — worst case, one
    // sector per active lane.
    let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 128, 8)).collect();
    let sectors = coalesce_sectors(&accesses, 32);
    assert_eq!(sectors.len(), 32);
    assert_eq!(sectors, (0..32).map(|i| i * 4).collect::<Vec<u64>>());
}

#[test]
fn coalesce_misaligned_warp_pays_one_extra_sector() {
    // Shifting a unit-stride warp 4 bytes off sector alignment straddles
    // one more 32 B sector (9 instead of 8); the lone straddling lane
    // pays two sectors.
    let aligned: Vec<(u64, u32)> = (0..32).map(|i| (i * 8, 8)).collect();
    let shifted: Vec<(u64, u32)> = (0..32).map(|i| (4 + i * 8, 8)).collect();
    assert_eq!(coalesce_sectors(&shifted, 32).len(), coalesce_sectors(&aligned, 32).len() + 1);
    assert_eq!(coalesce_sectors(&[(28, 8)], 32), vec![0, 1]);
}

#[test]
fn coalesce_partial_mask_touches_only_active_sectors() {
    // Lanes 0..8 of a unit-stride warp: 64 B = 2 sectors; the inactive
    // lanes' sectors never appear.
    let accesses: Vec<(u64, u32)> = (0..8).map(|i| (i * 8, 8)).collect();
    assert_eq!(coalesce_sectors(&accesses, 32), vec![0, 1]);
}

#[test]
fn coalesce_is_monotone_in_active_lanes() {
    // Enabling one more lane never shrinks the sector set, and only ever
    // adds that lane's own sectors — for an arbitrary deterministic
    // access pattern mixing strides, overlaps, and misalignment.
    let pattern: Vec<(u64, u32)> = (0..32u64).map(|i| ((i * 37) % 61 * 8 + (i % 3), 8)).collect();
    let mut prev: Vec<u64> = Vec::new();
    for n in 0..=pattern.len() {
        let cur = coalesce_sectors(&pattern[..n], 32);
        assert!(cur.len() >= prev.len(), "sector count must be monotone in active lanes");
        assert!(prev.iter().all(|s| cur.contains(s)), "sector set must grow monotonically");
        prev = cur;
    }
}

#[test]
fn burst_atoms_separate_strided_from_coalesced_fills() {
    // Equal useful DRAM traffic, different burst-atom cost: a coalesced
    // fill pays one 64 B atom per two sectors; 128 B-strided single-sector
    // fills pay a whole atom each, doubling their effective bandwidth at
    // the hierarchical DRAM roof.
    let mut dev = device();
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

    let mut dev = device();
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
