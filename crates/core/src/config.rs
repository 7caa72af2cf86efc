//! Kernel- and region-level execution configuration.
//!
//! Mirrors the launch-time decisions of the paper's runtime: whether the
//! `teams` region runs in **generic** (CPU-centric) or **SPMD** (GPU-centric)
//! mode (§3.1/§3.2), how many teams and threads to launch, how large the
//! variable-sharing space is (1024 B before the paper's work, 2048 B after —
//! §5.3.1), and per-`parallel`-region mode and SIMD group size (§5.1).

use gpu_sim::{DeviceArch, LaunchConfig};

/// Execution model of a `teams` or `parallel` region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// CPU-centric: one main thread runs sequential code, workers idle in a
    /// state machine until work is posted (§3.1, §5.3).
    Generic,
    /// GPU-centric: all threads execute the region; requires the region to
    /// be free of sequential side-effects (§3.2, §5.4).
    Spmd,
}

/// Per-kernel configuration, fixed at launch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Execution mode of the `teams` region.
    pub teams_mode: ExecMode,
    /// Number of teams (thread blocks).
    pub num_teams: u32,
    /// Worker threads per team — excludes the extra team-main warp that
    /// generic mode adds (paper Fig 2).
    pub threads_per_team: u32,
    /// Bytes of shared memory reserved for the variable-sharing space. The
    /// paper grew this from 1024 to 2048 bytes to accommodate SIMD groups
    /// (§5.3.1); both values are exercised by the ablation benchmarks.
    pub sharing_space_bytes: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            teams_mode: ExecMode::Spmd,
            num_teams: 108,
            threads_per_team: 128,
            sharing_space_bytes: 2048,
        }
    }
}

impl KernelConfig {
    /// The default sharing-space size after the paper's change (§5.3.1).
    pub const SHARING_SPACE_DEFAULT: u32 = 2048;
    /// The sharing-space size before the paper's change (§5.3.1).
    pub const SHARING_SPACE_LEGACY: u32 = 1024;

    /// Compute the hardware launch geometry: generic mode reserves one
    /// extra warp for the team main thread (paper Fig 2: "One additional
    /// warp is included to act as the main thread in the team"), and the
    /// block's shared memory is the sharing space.
    pub fn launch_config(&self, arch: &DeviceArch) -> LaunchConfig {
        let extra = match self.teams_mode {
            ExecMode::Generic => arch.warp_size,
            ExecMode::Spmd => 0,
        };
        LaunchConfig {
            num_blocks: self.num_teams,
            threads_per_block: self.threads_per_team + extra,
            smem_bytes: self.sharing_space_bytes,
        }
    }

    /// Number of worker warps per team.
    pub fn worker_warps(&self, arch: &DeviceArch) -> u32 {
        arch.warps_for(self.threads_per_team)
    }
}

/// Per-`parallel`-region configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParallelDesc {
    /// Execution mode of this `parallel` region (Fig 3: the "important
    /// divergence point" inside `__parallel`).
    pub mode: ExecMode,
    /// SIMD group size (`simdlen`). Group size 1 means the `simd` level is
    /// unused: the region behaves exactly like the pre-existing two-level
    /// runtime (§5.4: "parallel regions will always execute in SPMD mode
    /// with a SIMD group size of one").
    pub simdlen: u32,
}

impl ParallelDesc {
    /// SPMD parallel region with a given group size.
    pub fn spmd(simdlen: u32) -> ParallelDesc {
        ParallelDesc { mode: ExecMode::Spmd, simdlen }
    }

    /// Generic parallel region with a given group size.
    pub fn generic(simdlen: u32) -> ParallelDesc {
        ParallelDesc { mode: ExecMode::Generic, simdlen }
    }

    /// Sequential-simd legalization predicate (§5.4.1).
    ///
    /// Generic-mode SIMD regions drive the Fig 6 state machine with
    /// wavefront-level barriers. On architectures whose ISA does not expose
    /// such a barrier (`!warp_sync_supported` — AMD wave64 in the paper),
    /// the region is *legalized* instead of rejected: every simd loop runs
    /// sequentially on its SIMD main, workers never enter the state
    /// machine, and no warp barrier is ever issued. Both engines — the
    /// tree walker and the flat-bytecode lowering — key the rewrite off
    /// this one predicate so their stats stay bit-identical under the
    /// oracle.
    ///
    /// SPMD regions and `simdlen == 1` regions never legalize: they are
    /// already barrier-free at the wavefront level (or degenerate).
    #[inline]
    pub fn sequential_simd(&self, arch: &DeviceArch) -> bool {
        self.mode == ExecMode::Generic && self.simdlen > 1 && !arch.warp_sync_supported
    }

    /// Normalize against the architecture: group size must divide the warp
    /// size (groups never span warps, §5.1), and a group size of 1 forces
    /// SPMD mode (§5.4).
    pub fn normalized(mut self, arch: &DeviceArch) -> ParallelDesc {
        assert!(self.simdlen >= 1, "simdlen must be at least 1");
        assert!(
            arch.warp_size.is_multiple_of(self.simdlen),
            "simdlen {} must divide the warp size {} (SIMD groups cannot \
             span warps, paper §5.1)",
            self.simdlen,
            arch.warp_size
        );
        if self.simdlen == 1 {
            self.mode = ExecMode::Spmd;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_mode_reserves_extra_warp() {
        let arch = DeviceArch::a100();
        let mut cfg = KernelConfig { threads_per_team: 128, ..Default::default() };
        cfg.teams_mode = ExecMode::Spmd;
        assert_eq!(cfg.launch_config(&arch).threads_per_block, 128);
        cfg.teams_mode = ExecMode::Generic;
        assert_eq!(cfg.launch_config(&arch).threads_per_block, 160);
    }

    #[test]
    fn smem_is_the_sharing_space() {
        let arch = DeviceArch::a100();
        let cfg = KernelConfig { sharing_space_bytes: 1024, ..Default::default() };
        assert_eq!(cfg.launch_config(&arch).smem_bytes, 1024);
    }

    #[test]
    fn simdlen_one_forces_spmd() {
        let arch = DeviceArch::a100();
        let d = ParallelDesc::generic(1).normalized(&arch);
        assert_eq!(d.mode, ExecMode::Spmd);
        let d8 = ParallelDesc::generic(8).normalized(&arch);
        assert_eq!(d8.mode, ExecMode::Generic);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn simdlen_must_divide_warp() {
        ParallelDesc::spmd(5).normalized(&DeviceArch::a100());
    }

    #[test]
    fn amd_wave64_accepts_wide_groups() {
        let arch = DeviceArch::mi100();
        let d = ParallelDesc::spmd(64).normalized(&arch);
        assert_eq!(d.simdlen, 64);
    }

    #[test]
    fn worker_warps_follow_the_arch_width() {
        // Wave64 audit: warp counts and the generic-mode extra warp are
        // derived from the arch width, never a baked-in 32.
        let cfg = KernelConfig { threads_per_team: 128, ..Default::default() };
        assert_eq!(cfg.worker_warps(&DeviceArch::a100()), 4);
        assert_eq!(cfg.worker_warps(&DeviceArch::mi100()), 2);
        let generic = KernelConfig { teams_mode: ExecMode::Generic, ..cfg };
        assert_eq!(generic.launch_config(&DeviceArch::a100()).threads_per_block, 160);
        assert_eq!(generic.launch_config(&DeviceArch::mi100()).threads_per_block, 192);
    }

    #[test]
    fn sequential_simd_only_for_generic_groups_without_warp_sync() {
        let a100 = DeviceArch::a100();
        let mi100 = DeviceArch::mi100();
        // Generic + groups + no wavefront barrier → legalize.
        assert!(ParallelDesc::generic(8).sequential_simd(&mi100));
        // Same region on hardware with warp barriers runs the state machine.
        assert!(!ParallelDesc::generic(8).sequential_simd(&a100));
        // SPMD and degenerate group sizes never legalize.
        assert!(!ParallelDesc::spmd(8).sequential_simd(&mi100));
        assert!(!ParallelDesc::generic(1).sequential_simd(&mi100));
    }
}
