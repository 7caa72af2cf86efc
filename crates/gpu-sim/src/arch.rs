//! Device architecture descriptors and the multi-backend registry.
//!
//! The paper evaluates on NVIDIA A100 (40 GB) GPUs and discusses, in §5.4.1,
//! the gap towards AMD GPUs: LLVM/OpenMP provides no wavefront-level barrier
//! there, so the generic-SIMD execution mode is unavailable and `simd` loops
//! fall back to sequential execution. Both device families are modeled here;
//! the `warp_sync_supported` capability bit is what the OpenMP runtime keys
//! its legalization on.
//!
//! Architectures are **registered**, not ad-hoc: [`ArchId`] names every
//! backend the simulator ships (`ArchId::ALL`), resolves names
//! (`ArchId::lookup`), and keys
//! the serve layer's warm-plan cache so one fleet can mix backends. Tests
//! may still construct custom [`DeviceArch`] values directly — the
//! registry is the named surface, not a straitjacket.

/// GPU vendor family; selects warp width conventions and capability defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vendor {
    /// NVIDIA-like: 32-lane warps, masked warp barriers available.
    Nvidia,
    /// AMD-like: 64-lane wavefronts, no wavefront-level barrier exposed to
    /// the OpenMP runtime (paper §5.4.1).
    Amd,
}

/// Per-architecture memory-hierarchy geometry, consumed by the memory
/// model ([`crate::mem::hier`]): a per-SM LSU pipe, banked L2 slices, and
/// a DRAM roofline whose effective bandwidth is capped by memory-level
/// parallelism (Little's law over the launch's outstanding requests).
#[derive(Clone, Debug)]
pub struct CacheGeom {
    /// Number of independent L2 bank slices (address-hashed).
    pub l2_banks: u32,
    /// Sectors per cycle one L2 bank slice can serve. The aggregate
    /// `l2_banks × l2_bank_sectors_per_cycle` (80 on A100-class parts,
    /// ~2.5× DRAM bandwidth) is reached only by a perfectly balanced
    /// access stream; bank camping degrades from there.
    pub l2_bank_sectors_per_cycle: u64,
    /// Full-line L1-hit transactions one SM's LSU retires per cycle.
    /// Replays whose line is entirely valid in the warp's L1 window
    /// (temporal reuse) are serviced at L1 bandwidth off the issue
    /// path; partial fills and misses stay on the warp — they allocate
    /// MSHRs and serialize.
    pub lsu_hit_lines_per_cycle: u64,
    /// Minimum DRAM access granularity in 32-byte sectors (HBM burst
    /// atom = 64 B → 2). A fill carrying fewer useful sectors than this
    /// still occupies a whole atom of bandwidth, which is what makes
    /// uncoalesced streaming pay up to 2× its useful traffic at the
    /// DRAM roof.
    pub dram_burst_sectors: u64,
    /// Round-trip DRAM latency in cycles (Little's law input).
    pub dram_latency: u64,
    /// Maximum outstanding DRAM sectors one resident warp sustains
    /// (MSHR/LDST queue share). Occupancy × this bounds the launch's
    /// memory-level parallelism.
    pub mlp_per_warp: u64,
}

/// Static description of a simulated device.
///
/// The resource limits feed the occupancy calculation in [`crate::sched`];
/// the capability flags feed runtime-mode decisions in `simt-omp-core`.
#[derive(Clone, Debug)]
pub struct DeviceArch {
    /// Human-readable name, printed by benchmark harnesses.
    pub name: &'static str,
    /// Vendor family.
    pub vendor: Vendor,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Lanes per warp (32 NVIDIA, 64 AMD).
    pub warp_size: u32,
    /// Maximum threads per thread block accepted by a launch.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM (occupancy limit).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM (occupancy limit).
    pub max_blocks_per_sm: u32,
    /// Shared memory capacity per block, bytes.
    pub smem_per_block: u32,
    /// Shared memory capacity per SM, bytes (occupancy limit).
    pub smem_per_sm: u32,
    /// Whether a warp-level barrier over a lane mask exists. The generic
    /// SIMD execution mode requires it (paper §5.4.1).
    pub warp_sync_supported: bool,
    /// Independent shared-memory banks, a power of two
    /// ([`crate::Device::validate`] rejects other counts). Successive
    /// 8-byte slots map to successive banks; distinct slots that one
    /// warp's shared-memory accesses ([`crate::Lane::smem_read_slot`] and
    /// its siblings) land in one bank serialize into wavefronts, charged
    /// as issue cycles. NVIDIA SMs expose 32 banks;
    /// the wave64 LDS is modeled as one bank per lane (64), so a stride-1
    /// full-wavefront access is conflict-free on both families.
    pub smem_banks: u32,
    /// Memory-hierarchy geometry for the memory cost model.
    pub cache: CacheGeom,
}

impl DeviceArch {
    /// NVIDIA A100-like descriptor (108 SMs, 32-lane warps), matching the
    /// paper's Perlmutter test bed (§6.1).
    pub fn a100() -> DeviceArch {
        DeviceArch {
            name: "sim-A100-40GB",
            vendor: Vendor::Nvidia,
            num_sms: 108,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            smem_per_block: 96 * 1024,
            smem_per_sm: 164 * 1024,
            warp_sync_supported: true,
            smem_banks: 32,
            // 40 L2 slices × 2 sectors/cycle = 80 sectors/cycle
            // aggregate; ~400-cycle DRAM round trip per published A100
            // microbenchmarks.
            cache: CacheGeom {
                l2_banks: 40,
                l2_bank_sectors_per_cycle: 2,
                lsu_hit_lines_per_cycle: 2,
                dram_burst_sectors: 2,
                dram_latency: 400,
                mlp_per_warp: 32,
            },
        }
    }

    /// AMD MI100-like descriptor (120 CUs, 64-lane wavefronts, no
    /// wavefront-level barrier — paper §5.4.1).
    pub fn mi100() -> DeviceArch {
        DeviceArch {
            name: "sim-MI100",
            vendor: Vendor::Amd,
            num_sms: 120,
            warp_size: 64,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2560,
            max_blocks_per_sm: 40,
            smem_per_block: 64 * 1024,
            smem_per_sm: 64 * 1024,
            warp_sync_supported: false,
            // One LDS bank per wavefront lane: a stride-1 access by all 64
            // lanes is conflict-free, exactly like 32 lanes over 32 banks
            // on the NVIDIA side. Folding 64 lanes into a 32-bank hash
            // (the old hard-coded model) manufactured 2-deep conflicts for
            // every dense access — the bug the `smem_banks` field fixes.
            smem_banks: 64,
            cache: CacheGeom {
                l2_banks: 32,
                l2_bank_sectors_per_cycle: 2,
                lsu_hit_lines_per_cycle: 2,
                dram_burst_sectors: 2,
                dram_latency: 350,
                mlp_per_warp: 32,
            },
        }
    }

    /// A small device useful in tests: 4 SMs, low residency limits, so that
    /// occupancy effects are visible with tiny launches.
    pub fn tiny() -> DeviceArch {
        DeviceArch {
            name: "sim-tiny",
            vendor: Vendor::Nvidia,
            num_sms: 4,
            warp_size: 32,
            max_threads_per_block: 256,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 4,
            smem_per_block: 8 * 1024,
            smem_per_sm: 16 * 1024,
            warp_sync_supported: true,
            smem_banks: 32,
            // Scaled-down hierarchy so occupancy and banking effects stay
            // visible with tiny launches.
            cache: CacheGeom {
                l2_banks: 8,
                l2_bank_sectors_per_cycle: 2,
                lsu_hit_lines_per_cycle: 2,
                dram_burst_sectors: 2,
                dram_latency: 400,
                mlp_per_warp: 32,
            },
        }
    }

    /// Number of warps needed to hold `threads` threads.
    #[inline]
    pub fn warps_for(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }
}

/// Key of one registered backend — `Copy + Eq + Hash`, so callers that
/// must content-address on an architecture (the serve layer's `PlanKey`
/// warm-plan cache) embed the id rather than the full descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchId {
    /// NVIDIA A100-like (32-lane warps, warp barriers available).
    A100,
    /// AMD MI100-like (64-lane wavefronts, no wavefront barrier —
    /// generic simd legalizes to leader-lane sequential execution).
    Mi100,
    /// Scaled-down test device (32-lane warps).
    Tiny,
}

impl ArchId {
    /// Every backend the simulator ships, in presentation order.
    pub const ALL: [ArchId; 3] = [ArchId::A100, ArchId::Mi100, ArchId::Tiny];

    /// Resolve a name to its id. Accepts the registry key (`"mi100"`) or
    /// the descriptor name (`"sim-MI100"`), either case.
    pub fn lookup(name: &str) -> Option<ArchId> {
        let want = name.to_ascii_lowercase();
        ArchId::ALL
            .into_iter()
            .find(|id| id.name() == want || id.arch().name.to_ascii_lowercase() == want)
    }

    /// Registry name (what [`ArchId::lookup`] matches).
    pub fn name(self) -> &'static str {
        match self {
            ArchId::A100 => "a100",
            ArchId::Mi100 => "mi100",
            ArchId::Tiny => "tiny",
        }
    }

    /// Materialize the full descriptor.
    pub fn arch(self) -> DeviceArch {
        match self {
            ArchId::A100 => DeviceArch::a100(),
            ArchId::Mi100 => DeviceArch::mi100(),
            ArchId::Tiny => DeviceArch::tiny(),
        }
    }

    /// Lanes per warp of this backend (without materializing the
    /// descriptor — the field plan keys used to carry directly).
    pub fn warp_size(self) -> u32 {
        match self {
            ArchId::A100 | ArchId::Tiny => 32,
            ArchId::Mi100 => 64,
        }
    }
}

impl std::fmt::Display for ArchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_shape() {
        let a = DeviceArch::a100();
        assert_eq!(a.vendor, Vendor::Nvidia);
        assert_eq!(a.warp_size, 32);
        assert_eq!(a.num_sms, 108);
        assert!(a.warp_sync_supported);
    }

    #[test]
    fn amd_lacks_warp_sync() {
        let a = DeviceArch::mi100();
        assert_eq!(a.vendor, Vendor::Amd);
        assert_eq!(a.warp_size, 64);
        assert!(!a.warp_sync_supported);
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        assert_eq!(ArchId::lookup("a100"), Some(ArchId::A100));
        assert_eq!(ArchId::lookup("MI100"), Some(ArchId::Mi100));
        assert_eq!(ArchId::lookup("sim-MI100"), Some(ArchId::Mi100));
        assert_eq!(ArchId::lookup("tiny"), Some(ArchId::Tiny));
        assert_eq!(ArchId::lookup("h100"), None);
        for id in ArchId::ALL {
            assert_eq!(ArchId::lookup(id.name()), Some(id));
            assert_eq!(id.arch().warp_size, id.warp_size());
        }
    }

    #[test]
    fn bank_counts_match_lane_counts() {
        // One bank per lane on both families: a dense stride-1 access by a
        // full warp/wavefront must be conflict-free.
        assert_eq!(DeviceArch::a100().smem_banks, 32);
        assert_eq!(DeviceArch::mi100().smem_banks, 64);
        assert_eq!(DeviceArch::tiny().smem_banks, 32);
    }

    #[test]
    fn warps_for_rounds_up() {
        let a = DeviceArch::a100();
        assert_eq!(a.warps_for(1), 1);
        assert_eq!(a.warps_for(32), 1);
        assert_eq!(a.warps_for(33), 2);
        assert_eq!(a.warps_for(128), 4);
        let m = DeviceArch::mi100();
        assert_eq!(m.warps_for(65), 2);
    }
}
