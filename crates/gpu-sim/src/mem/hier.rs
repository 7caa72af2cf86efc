//! The hierarchical L1/L2/DRAM memory cost model.
//!
//! Block execution charges every transaction-replay cycle to the issuing
//! warp. Left there, that would overstate the cost of temporal-reuse
//! baselines (su3_bench, EXPERIMENTS.md): a replay whose line is fully
//! valid in L1 retires at L1 bandwidth through the LSU pipe on real
//! hardware instead of stalling instruction issue for a line-fill's worth
//! of cycles. Replays that *miss* (or partially fill a line) genuinely do
//! serialize — they allocate MSHRs and wait — so their cost stays on the
//! warp.
//!
//! The per-block *charging* happens in [`crate::TeamCtx::run_lanes`], the
//! one lane path both execution engines share, which also coalesces each
//! access ordinal into its unique 32-byte sectors; this module decides how
//! the resulting counters combine into the makespan
//! ([`crate::sched::makespan`]):
//!
//! * **L1/LSU (per SM)** — L1-hit replay cycles are *subtracted* from the
//!   warp-issue total and the latency critical path: the whole
//!   `line_cycles` charge for a *full-line* hit (every sector of the way
//!   valid — temporal reuse of a completed fill, retired by the LSU's
//!   line port at [`CacheGeom::lsu_hit_lines_per_cycle`]), and all but
//!   one issue cycle for a *partial-line* hit (the sector drains off the
//!   in-flight fill buffer). A kernel with no temporal reuse
//!   (`l1_hits == 0`) keeps its whole replay charge on the issue path.
//! * **L2 (device)** — L1-missing sectors hash to one of
//!   [`CacheGeom::l2_banks`] slices; the slowest bank is the roof.
//! * **DRAM (device)** — compulsory traffic crosses a bandwidth roof at
//!   its *effective* size: HBM's minimum access granularity
//!   ([`CacheGeom::dram_burst_sectors`] = 64 B) makes a single-sector
//!   fill occupy a whole burst atom, so uncoalesced baselines pay up to
//!   2× their useful traffic. The roof's rate is further capped by
//!   memory-level parallelism: by Little's law a launch sustaining
//!   `outstanding` sectors against `dram_latency` cycles of latency
//!   cannot exceed `outstanding / dram_latency` sectors per cycle,
//!   however wide the DRAM interface is. Cycles the cap adds are
//!   reported as [`MemStats::mlp_stalls`].
//!
//! Determinism (DESIGN §11) is preserved by construction: all memory
//! counters are folded per block and merged in block-index order, and the
//! makespan arithmetic consumes only launch totals.
//!
//! [`CacheGeom::l2_banks`]: crate::arch::CacheGeom::l2_banks
//! [`MemStats::mlp_stalls`]: crate::stats::MemStats::mlp_stalls

use crate::arch::CacheGeom;

/// The L2 bank slice an L1-missing sector is served by, for one bank
/// count. The sector id is Fibonacci-hashed (with a different shift than
/// the L1 set hash) so power-of-two strides spread instead of camping on
/// one slice. Bank counts need not be powers of two (a100 has 40), so the
/// hash is reduced modulo the count, with the modulo turned into a
/// multiply by a reciprocal computed once: a block's line walk divides
/// nowhere.
///
/// `recip = ⌊(2⁶⁴ − 1) / n⌋` underestimates `2⁶⁴ / n` by at most one, so
/// for every 64-bit hash `h` the quotient `⌊h · recip / 2⁶⁴⌋` is `⌊h / n⌋`
/// or one less; one conditional subtraction makes the remainder exact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct L2BankIndex {
    n: u64,
    recip: u64,
}

impl L2BankIndex {
    /// The index over `n_banks` slices (0 and 1 both map everything to
    /// slice 0).
    pub(crate) fn new(n_banks: u32) -> L2BankIndex {
        let n = n_banks.max(1) as u64;
        L2BankIndex { n, recip: u64::MAX / n }
    }

    /// Bank slice of `sector`.
    #[inline]
    pub(crate) fn of(self, sector: u64) -> u32 {
        let h = sector.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 31;
        let q = ((h as u128 * self.recip as u128) >> 64) as u64;
        let r = h - q * self.n;
        (if r >= self.n { r - self.n } else { r }) as u32
    }
}

/// Device-level L2 time: the slowest bank slice serves its sectors at
/// [`CacheGeom::l2_bank_sectors_per_cycle`]; a trailing partial beat
/// costs a full cycle.
pub fn l2_bank_time(bank_sectors: &[u64], geom: &CacheGeom) -> u64 {
    let rate = geom.l2_bank_sectors_per_cycle.max(1);
    bank_sectors.iter().map(|&s| s.div_ceil(rate)).max().unwrap_or(0)
}

/// DRAM roof with the memory-level-parallelism cap and the burst
/// (minimum-access) granularity rule: returns `(dram_cycles,
/// mlp_stall_cycles)` for the launch's compulsory traffic when it
/// sustains at most `outstanding` in-flight sectors device-wide.
/// `peak_rate` is the interface's sectors per cycle
/// ([`crate::cost::CostModel::dram_sectors_per_cycle`]).
///
/// HBM serves a minimum of [`CacheGeom::dram_burst_sectors`] sectors per
/// access, so the roof charges `dram_atoms × dram_burst_sectors`
/// *effective* sectors when that exceeds `dram_sectors`: a baseline whose
/// fills each carry one useful 32-byte sector pays double bandwidth,
/// while fully-coalesced line fills pay exactly their sector count. This
/// is what separates uncoalesced from coalesced streaming at *equal*
/// useful traffic — the core of Fig 9's baseline penalty.
pub fn dram_time(
    dram_sectors: u64,
    dram_atoms: u64,
    outstanding: u64,
    peak_rate: u64,
    geom: &CacheGeom,
) -> (u64, u64) {
    let effective = dram_sectors.max(dram_atoms.saturating_mul(geom.dram_burst_sectors));
    if effective == 0 {
        return (0, 0);
    }
    let peak = peak_rate.max(1);
    // Little's law: sustained rate = outstanding / latency.
    let sustained = (outstanding / geom.dram_latency.max(1)).max(1);
    let rate = sustained.min(peak);
    let t = effective.div_ceil(rate);
    let t_peak = effective.div_ceil(peak);
    (t, t - t_peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeom {
        crate::arch::DeviceArch::a100().cache
    }

    #[test]
    fn bank_hash_spreads_power_of_two_strides() {
        // 128 consecutive lines' worth of stride-4 sectors (a power-of-two
        // pattern) must not all camp on a handful of banks.
        let mut counts = vec![0u64; 40];
        let bank = L2BankIndex::new(40);
        for i in 0..128u64 {
            counts[bank.of(i * 4) as usize] += 1;
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(used >= 20, "stride-4 pattern used only {used}/40 banks");
        assert_eq!(counts.iter().sum::<u64>(), 128);
    }

    #[test]
    fn reciprocal_bank_index_equals_modulo() {
        // Seeded sectors plus the edges: 0, u64::MAX and ids past 2^40.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut sectors = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 7, 1 << 63];
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sectors.extend([x, x >> 20, x | 1 << 40]);
        }
        for n in 1..=128u32 {
            let idx = L2BankIndex::new(n);
            for &s in &sectors {
                let h = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 31;
                assert_eq!(idx.of(s) as u64, h % n as u64, "sector {s}, {n} banks");
            }
        }
        assert_eq!(L2BankIndex::new(0).of(12345), 0);
    }

    #[test]
    fn l2_time_is_slowest_bank() {
        let g = geom(); // 2 sectors/cycle per bank
        assert_eq!(l2_bank_time(&[10, 4, 0], &g), 5);
        assert_eq!(l2_bank_time(&[3], &g), 2); // partial beat rounds up
        assert_eq!(l2_bank_time(&[], &g), 0);
    }

    #[test]
    fn dram_mlp_cap_binds_at_low_occupancy() {
        let g = geom(); // latency 400, peak 32/cycle
                        // Plenty of parallelism: 108 SMs × 4 warps × 32 = 13824
                        // outstanding → sustained 34 > peak 32, no stall. Coalesced
                        // traffic: 2 sectors per atom → effective == sectors.
        let (t, stalls) = dram_time(46656, 23_328, 13_824, 32, &g);
        assert_eq!(t, 46656u64.div_ceil(32));
        assert_eq!(stalls, 0);
        // One warp on one SM: 32 outstanding / 400 latency → the sustained
        // rate clamps to the 1 sector/cycle floor.
        let (t1, stalls1) = dram_time(1000, 500, 32, 32, &g);
        assert_eq!(t1, 1000);
        assert!(stalls1 > 0);
        assert_eq!(t1 - stalls1, 1000u64.div_ceil(32));
    }

    #[test]
    fn dram_burst_granularity_doubles_single_sector_fills() {
        let g = geom(); // dram_burst_sectors = 2
                        // 1000 fills of one sector each: 1000 atoms → 2000 effective
                        // sectors, double the useful traffic.
        let (t, _) = dram_time(1000, 1000, 1 << 20, 32, &g);
        assert_eq!(t, 2000u64.div_ceil(32));
        // Fully coalesced: 1000 sectors in 500 atoms → effective 1000.
        let (tc, _) = dram_time(1000, 500, 1 << 20, 32, &g);
        assert_eq!(tc, 1000u64.div_ceil(32));
    }

    #[test]
    fn dram_zero_traffic_is_free() {
        assert_eq!(dram_time(0, 0, 0, 32, &geom()), (0, 0));
    }
}
