//! The analytic cycle cost model.
//!
//! Absolute cycle numbers from a software simulator are synthetic; what the
//! reproduction needs is that the *relative* effects the paper measures are
//! represented with plausible magnitudes:
//!
//! * compute issue throughput per SM (warp instructions / cycle),
//! * memory traffic in 32-byte sectors of 128-byte lines (coalescing)
//!   with a device-level bandwidth roof,
//! * partially-hidden memory latency (the visible fraction shrinks with
//!   occupancy — modeled as a fixed exposed-latency constant calibrated for
//!   the mid-occupancy regime the paper's kernels run in),
//! * synchronization costs: masked warp barriers are cheap, block-level
//!   barriers are an order of magnitude more expensive (this asymmetry is
//!   exactly why the paper's SIMD state machine, built on warp barriers, is
//!   cheaper than the team-level state machine built on block barriers),
//! * shared-memory access cost (the generic mode's variable-sharing space),
//! * atomic cost with same-address serialization inside a warp.
//!
//! Every benchmark and test uses the same constants; nothing is tuned per
//! figure. All constants are documented so deviations can be audited. The
//! sector and line sizes are the one geometry every modelled device shares
//! ([`SECTOR_BYTES`], [`LINE_BYTES`]), not fields of [`CostModel`]: the
//! access path splits addresses with shifts by them.

/// Bytes per DRAM traffic sector: the coalescing granularity.
pub const SECTOR_BYTES: u64 = 32;

/// Bytes per L1 cache line (transaction granularity of the LSU): four
/// sectors, so a line's sector-validity mask fits in a byte.
pub const LINE_BYTES: u64 = 128;

/// Cycle-cost constants for a simulated device.
///
/// The defaults are loosely calibrated against published A100
/// microbenchmarks (instruction issue 4 warps/cycle/SM split across
/// pipelines, ~400-cycle DRAM latency with high occupancy hiding most of it,
/// ~30 cycles shared-memory round trip, `__syncthreads` in the tens of
/// cycles when not contended).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Warp-visible cycles charged per global-memory sector *missing* the
    /// L1 window (DRAM transaction issue).
    pub sector_cycles: u64,
    /// Warp-visible cycles per distinct cache line touched by one memory
    /// instruction. An uncoalesced instruction touching 32 lines replays
    /// 32 transactions; a fully coalesced one touches 1–2.
    pub line_cycles: u64,
    /// Exposed (non-hidden) latency cycles charged per memory access
    /// *ordinal* that misses the L1 window (one per static access executed
    /// by a warp). Most latency is hidden by occupancy; this is the
    /// calibrated residue.
    pub exposed_latency: u64,

    /// Per-warp L1 window capacity in 128-byte cache lines (4-way set
    /// associative, so `l1_lines / 4` sets; [`crate::Device::validate`]
    /// rejects a set count that is not a power of two). A100 has 192 KB
    /// combined L1 per SM shared by up to 64 resident warps, so a warp's
    /// fair slice is only a few KB — strided access patterns whose
    /// per-warp footprint exceeds it (32 lanes × a line each = 4 KB)
    /// thrash, which is exactly the coalescing penalty the paper's `simd`
    /// mapping removes.
    pub l1_lines: u32,
    /// Warp-visible cycles per shared-memory access wavefront. Shared
    /// memory has [`crate::arch::DeviceArch::smem_banks`] banks (8-byte
    /// slots map to `slot % banks`); lanes of one instruction hitting
    /// *different* slots in the same bank serialize into that many
    /// wavefronts, while same-slot accesses broadcast.
    pub smem_cycles: u64,
    /// Cost of a masked warp-level barrier (`synchronizeWarp`).
    pub warp_sync_cycles: u64,
    /// Fixed bookkeeping issue cost of one SIMD state-machine handshake
    /// (post flags, fences, mask management — Fig 4/Fig 6), charged per
    /// warp per posted simd loop in generic mode, on top of the staged
    /// shared-memory traffic and warp barriers.
    pub handshake_cycles: u64,
    /// Cost of a block-level barrier (all warps of a team).
    pub block_barrier_cycles: u64,
    /// Base cost of an atomic RMW on global memory.
    pub atomic_cycles: u64,
    /// Additional serialization cost for each extra lane in a warp that
    /// targets the *same address* in the same atomic instruction.
    pub atomic_conflict_cycles: u64,
    /// Fixed overhead per kernel launch (driver + dispatch), cycles.
    pub launch_overhead: u64,
    /// Warp instructions an SM can issue per cycle (throughput roof across
    /// all resident warps of the SM).
    pub sm_issue_width: u64,
    /// Cycles per sector through one SM's memory pipeline (L1/LSU roof).
    pub sm_sector_cycles: u64,
    /// Device-wide DRAM bandwidth roof, applied to *compulsory* traffic
    /// (first touch of each sector): sectors per cycle.
    pub dram_sectors_per_cycle: u64,
    /// Base cost of dispatching an outlined function through the if-cascade
    /// of known regions (paper §5.5): the branch to the first compare.
    pub cascade_dispatch_cycles: u64,
    /// Incremental cost per cascade level walked before the match: the
    /// cascade is a *linear* compare+branch chain over the known outlined
    /// regions, so a body registered at position `p` pays
    /// `cascade_dispatch_cycles + p * cascade_level_cycles`. With enough
    /// registered regions the chain overtakes
    /// [`CostModel::indirect_call_cycles`] —
    /// the §5.5 trade-off that makes the cascade a heuristic, not a win
    /// in all cases.
    pub cascade_level_cycles: u64,
    /// Cost of a fallback indirect call through a function pointer
    /// (paper §5.5 notes these are "normally costly").
    pub indirect_call_cycles: u64,
    /// Cost of allocating a global-memory fallback block for the variable
    /// sharing space when a SIMD group's shared-memory slice is exhausted
    /// (paper §5.3.1: "a global memory allocation is created instead").
    pub global_alloc_cycles: u64,
    /// Imperfect compute/memory overlap: a wave costs
    /// `max(issue, mem, latency) + min(issue, mem) / overlap_denom`
    /// (0 disables the additive term — perfect overlap).
    pub overlap_denom: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sector_cycles: 2,
            line_cycles: 6,
            exposed_latency: 6,
            l1_lines: 512,
            smem_cycles: 2,
            warp_sync_cycles: 10,
            handshake_cycles: 64,
            block_barrier_cycles: 96,
            atomic_cycles: 24,
            atomic_conflict_cycles: 12,
            launch_overhead: 4_000,
            sm_issue_width: 2,
            sm_sector_cycles: 2,
            dram_sectors_per_cycle: 32,
            cascade_dispatch_cycles: 4,
            cascade_level_cycles: 3,
            indirect_call_cycles: 40,
            global_alloc_cycles: 600,
            overlap_denom: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_walk_overtakes_indirect_call_at_some_depth() {
        // §5.5: the if-cascade only beats the indirect call while the match
        // sits early in the compare chain. The default constants must admit
        // a crossover — otherwise the dispatch ablation cannot show the
        // trade-off.
        let c = CostModel::default();
        let cascade_at = |p: u64| c.cascade_dispatch_cycles + p * c.cascade_level_cycles;
        assert!(cascade_at(0) < c.indirect_call_cycles);
        let threshold = (0..).find(|&p| cascade_at(p) > c.indirect_call_cycles).unwrap();
        assert!(threshold > 1, "shallow matches must still win");
        assert!(cascade_at(threshold) > c.indirect_call_cycles);
    }

    #[test]
    fn warp_sync_is_much_cheaper_than_block_barrier() {
        // The paper's central cost asymmetry (§5.1): SIMD groups synchronize
        // with warp-level barriers which "do not have the same limitations"
        // as the team-level barrier that needs an extra warp.
        let c = CostModel::default();
        assert!(c.warp_sync_cycles * 3 <= c.block_barrier_cycles);
    }
}
