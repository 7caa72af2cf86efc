//! Profiling counters produced by simulated execution.

/// A schedulable per-device resource in the host runtime's timeline model.
///
/// A device overlaps three independent engines: the host→device DMA link,
/// the device→host DMA link (PCIe is full duplex), and the compute core.
/// Kernel launches consume [`Resource::Compute`]; the host runtime tags
/// transfers with the two link resources so its virtual-timeline scheduler
/// can overlap them with kernels (and with each other) in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Host→device DMA engine.
    H2D,
    /// Device→host DMA engine.
    D2H,
    /// The compute core (kernel execution).
    Compute,
}

/// Every resource, in a fixed display/iteration order.
pub const RESOURCES: [Resource; 3] = [Resource::H2D, Resource::D2H, Resource::Compute];

impl Resource {
    /// Dense index for per-resource tables (`0..RESOURCES.len()`).
    pub fn index(self) -> usize {
        match self {
            Resource::H2D => 0,
            Resource::D2H => 1,
            Resource::Compute => 2,
        }
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Resource::H2D => "h2d",
            Resource::D2H => "d2h",
            Resource::Compute => "compute",
        }
    }
}

/// Cycles consumed per device resource — the shape a launch (or transfer)
/// reports its cost in so the host runtime can attribute it to the right
/// engine on the virtual timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceCycles {
    /// Host→device link cycles.
    pub h2d: u64,
    /// Device→host link cycles.
    pub d2h: u64,
    /// Compute-core cycles.
    pub compute: u64,
}

impl ResourceCycles {
    /// Cycles charged to one resource.
    pub fn get(&self, r: Resource) -> u64 {
        match r {
            Resource::H2D => self.h2d,
            Resource::D2H => self.d2h,
            Resource::Compute => self.compute,
        }
    }

    /// Add cycles to one resource.
    pub fn add(&mut self, r: Resource, cycles: u64) {
        match r {
            Resource::H2D => self.h2d += cycles,
            Resource::D2H => self.d2h += cycles,
            Resource::Compute => self.compute += cycles,
        }
    }

    /// Sum over all resources — the fully serialized cost.
    pub fn total(&self) -> u64 {
        self.h2d + self.d2h + self.compute
    }
}

/// Resource profile of one executed thread block. Its L1-missing sectors
/// per L2 bank slice are not kept per block: the launch sums them per
/// participating thread ([`MemStats::l2_bank_sectors`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockProfile {
    /// Total warp-instruction issue cycles across all warps.
    pub issue: u64,
    /// Total global-memory sectors transferred.
    pub sectors: u64,
    /// Total shared-memory operations.
    pub smem_ops: u64,
    /// Sectors served from the warp-local L1 window.
    pub l1_hits: u64,
    /// Full-line L1 hits (subset of `l1_hits`): tag hits whose way had
    /// every sector valid — temporal reuse of a completed fill, as opposed
    /// to re-touching a sector while the line fill is still in flight.
    pub l1_full_hits: u64,
    /// First-touch (compulsory) sectors — DRAM-side traffic.
    pub dram_sectors: u64,
    /// 64-byte DRAM burst atoms the compulsory traffic occupies: HBM's
    /// minimum access granularity means a single-sector (32 B) fill still
    /// spends a whole atom of bandwidth, so `2 × dram_atoms ≥
    /// dram_sectors`, with equality only for fully-coalesced fills.
    /// Filled by the launch's block-index-order visit replay (not during
    /// block execution) so the per-visit burst grouping is bit-identical
    /// at any sim thread count.
    pub dram_atoms: u64,
    /// L1-hit replay cycles included in `issue` and the warp clocks that
    /// the makespan moves off the issue pipe into the LSU: the whole
    /// `line_cycles` charge per full-line hit, all but one `sector_cycles`
    /// beat per partial-line hit.
    pub tx_cycles: u64,
    /// Deduplicated sectors touched by warp instructions, L1 hits
    /// included — LSU pipe occupancy.
    pub lsu_sectors: u64,
    /// Critical-path cycles of the block net of each warp's own
    /// offloadable replay charges: `max` over warps of `clock − tx`, where
    /// a warp's clock includes barrier waits and exposed memory latency.
    /// The makespan's latency term.
    pub resid_cycles: u64,
    /// Threads the block occupies (occupancy input; includes the extra
    /// team-main warp in generic mode).
    pub threads: u32,
    /// Shared-memory bytes the block occupies (occupancy input).
    pub smem_bytes: u32,
}

/// Memory-hierarchy counters aggregated over a launch, merged from the
/// per-block profiles in block-index order (DESIGN §11) so they are
/// bit-identical at any sim thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Warp-L1 window hits (every requested sector already valid).
    pub l1_hits: u64,
    /// Full-line hits among `l1_hits` (way's entire sector mask valid —
    /// temporal reuse; the rest re-touched a line whose fill was still
    /// in progress).
    pub l1_full_hits: u64,
    /// L1-missing sectors (L2-bound traffic). Equals
    /// [`LaunchStats::total_sectors`].
    pub l1_miss_sectors: u64,
    /// Deduplicated sectors through the SM LSU pipes (hits included).
    pub lsu_sectors: u64,
    /// Offloadable L1-hit replay cycles contained in the issue totals
    /// (full `line_cycles` per full-line hit, all but one `sector_cycles`
    /// beat per partial-line hit).
    pub tx_cycles: u64,
    /// L1-missing sectors per L2 bank slice (length =
    /// [`crate::arch::CacheGeom::l2_banks`]); sums to `l1_miss_sectors`.
    /// `u64` sums, so the launch's per-thread partial sums add up to the
    /// same totals at any sim thread count.
    pub l2_bank_sectors: Vec<u64>,
    /// Compulsory (first-touch) sectors — DRAM traffic. Equals
    /// [`LaunchStats::total_dram_sectors`].
    pub dram_sectors: u64,
    /// 64-byte burst atoms the compulsory traffic occupies (HBM minimum
    /// access granularity); the DRAM roof charges
    /// `max(dram_sectors, 2 × dram_atoms)` effective sectors.
    pub dram_atoms: u64,
    /// Cycles the DRAM roof grew because the launch's memory-level
    /// parallelism could not sustain peak bandwidth.
    pub mlp_stalls: u64,
}

impl MemStats {
    /// Fold one block's profile in (every field but the L2 bank counts,
    /// which blocks do not carry). Callers iterate profiles in block-index
    /// order, which is what keeps the merge bit-identical across
    /// block-execution thread counts.
    pub fn merge_block(&mut self, p: &BlockProfile) {
        self.l1_hits += p.l1_hits;
        self.l1_full_hits += p.l1_full_hits;
        self.l1_miss_sectors += p.sectors;
        self.lsu_sectors += p.lsu_sectors;
        self.tx_cycles += p.tx_cycles;
        self.dram_sectors += p.dram_sectors;
        self.dram_atoms += p.dram_atoms;
    }
}

/// Runtime-behavior counters, aggregated over a launch. These are what the
/// ablation benchmarks and many tests observe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtCounters {
    /// `__parallel` invocations.
    pub parallel_regions: u64,
    /// `__simd` invocations.
    pub simd_loops: u64,
    /// Work items posted through a state machine (team- or SIMD-level).
    pub state_machine_posts: u64,
    /// Sharing-space slots staged to SIMD workers by generic-mode mains
    /// (fn + trip + live registers per worker; shrinks when the dead-stage
    /// pass trims registers no body reads).
    pub staged_slots: u64,
    /// Masked warp-level barriers executed.
    pub warp_syncs: u64,
    /// Block-level barriers executed.
    pub block_barriers: u64,
    /// Times a SIMD group's sharing-space slice overflowed into a global
    /// memory allocation (paper §5.3.1).
    pub sharing_global_fallbacks: u64,
    /// Outlined-function dispatches resolved through the if-cascade (§5.5).
    pub cascade_dispatches: u64,
    /// Outlined-function dispatches that fell back to an indirect call.
    pub indirect_calls: u64,
    /// simd loops executed sequentially because the device lacks warp-level
    /// barriers (AMD fallback, §5.4.1).
    pub sequential_simd_fallbacks: u64,
}

impl RtCounters {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, o: &RtCounters) {
        self.parallel_regions += o.parallel_regions;
        self.simd_loops += o.simd_loops;
        self.state_machine_posts += o.state_machine_posts;
        self.staged_slots += o.staged_slots;
        self.warp_syncs += o.warp_syncs;
        self.block_barriers += o.block_barriers;
        self.sharing_global_fallbacks += o.sharing_global_fallbacks;
        self.cascade_dispatches += o.cascade_dispatches;
        self.indirect_calls += o.indirect_calls;
        self.sequential_simd_fallbacks += o.sequential_simd_fallbacks;
    }
}

/// Result of a kernel launch: the simulated time and aggregated counters.
/// `PartialEq` compares every field — the determinism suite asserts stats
/// are bit-identical across block-execution thread counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// End-to-end simulated kernel cycles (block makespan over SMs plus
    /// launch overhead).
    pub cycles: u64,
    /// Number of blocks launched.
    pub blocks: u32,
    /// Resident blocks per SM the occupancy calculation allowed.
    pub blocks_per_sm: u32,
    /// Total issue cycles across the device.
    pub total_issue: u64,
    /// Total global-memory sectors.
    pub total_sectors: u64,
    /// Total shared-memory operations.
    pub total_smem_ops: u64,
    /// Total L1-window hits.
    pub total_l1_hits: u64,
    /// Total compulsory (DRAM) sectors.
    pub total_dram_sectors: u64,
    /// Memory-hierarchy counters (block-index-order merge of the
    /// per-block profiles, plus the makespan's MLP-stall attribution).
    pub mem: MemStats,
    /// Runtime-behavior counters summed over blocks.
    pub counters: RtCounters,
    /// Protocol violations found by the simtcheck sanitizer, over all
    /// blocks. Always empty unless [`crate::Device::enable_sanitizer`] was
    /// called before the launch.
    pub violations: Vec<crate::sanitize::Violation>,
}

impl LaunchStats {
    /// The launch's cost attributed to device resources: a kernel occupies
    /// the compute engine for its whole makespan and neither DMA link. The
    /// host runtime feeds this into its virtual-timeline scheduler so
    /// transfers it tags [`Resource::H2D`]/[`Resource::D2H`] genuinely
    /// overlap kernel execution in simulated time.
    pub fn resources(&self) -> ResourceCycles {
        ResourceCycles { h2d: 0, d2h: 0, compute: self.cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_cycles_accumulate_and_total() {
        let mut rc = ResourceCycles::default();
        rc.add(Resource::H2D, 100);
        rc.add(Resource::Compute, 50);
        rc.add(Resource::H2D, 10);
        assert_eq!(rc.get(Resource::H2D), 110);
        assert_eq!(rc.get(Resource::D2H), 0);
        assert_eq!(rc.get(Resource::Compute), 50);
        assert_eq!(rc.total(), 160);
        // Dense indices cover the table without collision.
        let idx: Vec<usize> = RESOURCES.iter().map(|r| r.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn launch_stats_charge_the_compute_engine() {
        let s = LaunchStats { cycles: 1234, ..Default::default() };
        let rc = s.resources();
        assert_eq!(rc.compute, 1234);
        assert_eq!(rc.h2d + rc.d2h, 0);
        assert_eq!(rc.total(), 1234);
    }

    #[test]
    fn counters_merge_adds_fields() {
        let mut a = RtCounters { parallel_regions: 1, warp_syncs: 5, ..Default::default() };
        let b = RtCounters {
            parallel_regions: 2,
            warp_syncs: 7,
            sharing_global_fallbacks: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.parallel_regions, 3);
        assert_eq!(a.warp_syncs, 12);
        assert_eq!(a.sharing_global_fallbacks, 3);
        assert_eq!(a.indirect_calls, 0);
    }
}
