//! Pins simtcheck's happens-before findings over a seeded corpus of
//! sanitizer scripts: the corpus is an executable spec of the per-warp
//! sync table that checks the masked warp barrier
//! (`synchronizeWarp(simdmask())`, §5.1).
//!
//! Each script drives one block's [`Sanitizer`] through its public API:
//! plain shared-memory reads and writes, shared-memory atomics, full and
//! masked warp syncs (some with lanes missing), `barrier_arrive` and block
//! barriers. Accesses come from a few hot threads per script, so the same
//! slots are revisited by same-warp and cross-warp pairs with and without
//! a covering sync between them.
//!
//! The pinned values were recorded while the dense `nwarps * ws^2` table
//! still existed beside the adaptive one, with every script asserted to
//! give identical findings on both; the corpus now takes its place as the
//! reference.

use gpu_sim::{LaneMask, Sanitizer, Violation};
use testkit::SimRng;

const SCRIPTS: u64 = 500;

/// FNV-1a over every script's `finish()` findings, `Debug`-formatted.
const DIGEST: u64 = 0x15f5_c8b1_c995_98b3;
/// Findings per kind: `[SharedMemRace, AtomicPlainRace, BarrierDivergence]`.
const KINDS: [u64; 3] = [1570, 822, 1388];
/// `pairwise_tables()` summed over the corpus.
const PAIRWISE_TABLES: u64 = 1017;

#[derive(Clone, Copy, Debug)]
enum Event {
    Read { thread: u32, slot: u32 },
    Write { thread: u32, slot: u32 },
    Atomic { thread: u32, slot: u32 },
    WarpSync { warp: u32 },
    MaskedSync { warp: u32, required: LaneMask, arrived: LaneMask },
    Arrive { warp: u32 },
    BlockBarrier,
}

struct Script {
    nwarps: u32,
    warp_size: u32,
    slots: u32,
    events: Vec<Event>,
}

/// A lane set a masked sync may name: an aligned SIMD-group-like range, or
/// an arbitrary subset of the low lanes the hot threads live on.
fn lane_set(rng: &mut SimRng, warp_size: u32) -> LaneMask {
    if rng.flip() {
        let len = *rng.pick(&[2, 4, 8, 16]);
        let start = len * rng.range_u32(0, 16 / len);
        LaneMask::contiguous(start, len)
    } else {
        LaneMask(rng.next_u64()).and(LaneMask::contiguous(0, 16)).and(LaneMask::full(warp_size))
    }
}

fn script(rng: &mut SimRng) -> Script {
    let nwarps = rng.range_u32(1, 5);
    let warp_size = *rng.pick(&[32, 64]);
    let slots = rng.range_u32(8, 33);
    // Hot threads sit on the low 16 lanes, where the masked syncs land.
    let hot: Vec<u32> = (0..rng.range_usize(2, 7))
        .map(|_| rng.range_u32(0, nwarps) * warp_size + rng.range_u32(0, 16))
        .collect();
    let events = (0..rng.range_usize(20, 81))
        .map(|_| {
            let thread = *rng.pick(&hot);
            let slot = rng.range_u32(0, slots);
            let warp = rng.range_u32(0, nwarps);
            match rng.range_u32(0, 100) {
                0..=29 => Event::Read { thread, slot },
                30..=54 => Event::Write { thread, slot },
                55..=64 => Event::Atomic { thread, slot },
                65..=72 => Event::WarpSync { warp },
                73..=84 => {
                    let required = lane_set(rng, warp_size);
                    let arrived = if rng.range_u32(0, 3) == 0 {
                        required.minus(LaneMask(rng.next_u64()))
                    } else {
                        required
                    };
                    Event::MaskedSync { warp, required, arrived }
                }
                85..=93 => Event::Arrive { warp },
                _ => Event::BlockBarrier,
            }
        })
        .collect();
    Script { nwarps, warp_size, slots, events }
}

/// Run `script` on `san`; returns its findings and inflated pairwise tables.
fn run(mut san: Sanitizer, script: &Script) -> (Vec<Violation>, u64) {
    for &e in &script.events {
        match e {
            Event::Read { thread, slot } => san.record_smem(thread, slot, false),
            Event::Write { thread, slot } => san.record_smem(thread, slot, true),
            Event::Atomic { thread, slot } => san.record_smem_atomic(thread, slot),
            Event::WarpSync { warp } => san.on_warp_sync(warp),
            Event::MaskedSync { warp, required, arrived } => {
                san.on_warp_sync_masked(warp, required, arrived)
            }
            Event::Arrive { warp } => san.barrier_arrive(warp),
            Event::BlockBarrier => san.on_block_barrier(),
        }
    }
    let tables = san.pairwise_tables();
    (san.finish(), tables)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn corpus_findings_match_the_pin() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut kinds = [0u64; 3];
    let mut pairwise_tables = 0;
    for seed in 0..SCRIPTS {
        let s = script(&mut SimRng::seed_from_u64(seed));
        let (found, tables) = run(Sanitizer::new(0, s.nwarps, s.warp_size, s.slots), &s);
        digest = fnv1a(digest, format!("{found:?}").as_bytes());
        pairwise_tables += tables;
        for v in &found {
            kinds[match v {
                Violation::SharedMemRace { .. } => 0,
                Violation::AtomicPlainRace { .. } => 1,
                Violation::BarrierDivergence { .. } => 2,
                other => panic!("script {seed}: unexpected finding {other:?}"),
            }] += 1;
        }
    }
    assert!(kinds[0] > 0 && kinds[2] > 0 && pairwise_tables > 0, "trivial corpus");
    assert_eq!((digest, kinds, pairwise_tables), (DIGEST, KINDS, PAIRWISE_TABLES));
}
