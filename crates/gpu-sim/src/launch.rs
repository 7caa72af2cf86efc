//! Devices and kernel launches.
//!
//! A [`Device`] owns its global memory and executes kernel launches. Blocks
//! are mutually independent (no inter-block synchronization exists within a
//! launch), so they execute concurrently on a spawn-at-launch worker pool
//! ([`crate::sched::run_blocks`], sized by `SIMT_SIM_THREADS`; 1 = serial),
//! each against a fresh isolated [`TeamCtx`]. Per-block profiles, counters,
//! traces and sanitizer findings are merged in block-index order, so the
//! resulting [`LaunchStats`] is bit-identical to a serial run at any thread
//! count; the launch result combines the per-block profiles into a
//! simulated makespan via [`crate::sched`].

use crate::arch::DeviceArch;
use crate::cost::CostModel;
use crate::exec::{burst_atoms, LineMap, TeamCtx, VisitLog};
use crate::mem::global::{FallbackRange, GlobalMem};
use crate::sanitize::{ForeignTouch, Sanitizer, Violation};
use crate::sched;
use crate::stats::{BlockProfile, LaunchStats, MemStats, RtCounters};
use crate::trace::Trace;

/// Everything one block's execution produced, collected by the worker pool
/// and merged on the launching thread in block-index order.
struct BlockOutcome {
    profile: BlockProfile,
    counters: RtCounters,
    violations: Vec<Violation>,
    foreign: Vec<ForeignTouch>,
    fallbacks: Vec<FallbackRange>,
    trace: Option<Trace>,
    visits: VisitLog,
}

/// Geometry of one kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub num_blocks: u32,
    /// Threads per block — must be a multiple of the warp size and include
    /// any extra runtime warp (generic-mode team main, paper Fig 2).
    pub threads_per_block: u32,
    /// Shared memory per block, bytes (runtime sharing space + globalized
    /// variables + user allocations).
    pub smem_bytes: u32,
}

/// Reasons a launch is rejected, mirroring CUDA launch failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Grid has zero blocks.
    ZeroBlocks,
    /// Threads per block is zero or exceeds the device limit.
    BadBlockSize { requested: u32, max: u32 },
    /// Threads per block is not a multiple of the warp size.
    UnalignedBlockSize { requested: u32, warp: u32 },
    /// Shared memory request exceeds the per-block capacity.
    SmemTooLarge { requested: u32, max: u32 },
    /// The block shape fits no SM (occupancy zero).
    ZeroOccupancy,
    /// The device's cost model has zero-byte sectors, or more sectors per
    /// line than the L1's 8-bit per-way sector mask holds.
    BadSectorModel { line_bytes: u32, sector_bytes: u32 },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::ZeroBlocks => write!(f, "launch with zero blocks"),
            LaunchError::BadBlockSize { requested, max } => {
                write!(f, "block size {requested} exceeds device limit {max}")
            }
            LaunchError::UnalignedBlockSize { requested, warp } => {
                write!(f, "block size {requested} is not a multiple of warp size {warp}")
            }
            LaunchError::SmemTooLarge { requested, max } => {
                write!(f, "shared memory {requested} B exceeds per-block limit {max} B")
            }
            LaunchError::ZeroOccupancy => write!(f, "block shape fits no SM"),
            LaunchError::BadSectorModel { line_bytes, sector_bytes } => write!(
                f,
                "{line_bytes} B lines of {sector_bytes} B sectors do not fit the 8-sector line mask"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A simulated GPU: architecture, cost model, and global memory.
pub struct Device {
    /// Architecture descriptor.
    pub arch: DeviceArch,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Device global memory.
    pub global: GlobalMem,
    /// Event trace of the most recent launch (empty unless enabled).
    pub trace: crate::trace::Trace,
    trace_enabled: bool,
    trace_cap: usize,
    sanitize_enabled: bool,
    /// Use the dense pre-compression sync table in the sanitizer (the
    /// reference the adaptive table is checked against, and the `simspeed`
    /// bench baseline).
    san_dense: bool,
    /// Block-execution thread count override; `None` = `SIMT_SIM_THREADS`
    /// env or available parallelism (see [`sched::resolve_threads`]).
    sim_threads: Option<usize>,
}

impl Device {
    /// Create a device with the default cost model.
    pub fn new(arch: DeviceArch) -> Device {
        // `SIMT_SANITIZE=1` (or any non-empty value other than "0") turns
        // simtcheck on for every device, so a whole test run can be
        // sanitized without touching individual call sites.
        let sanitize_env =
            std::env::var("SIMT_SANITIZE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        Device {
            arch,
            cost: CostModel::default(),
            global: GlobalMem::new(),
            trace: crate::trace::Trace::default(),
            trace_enabled: false,
            trace_cap: 0,
            sanitize_enabled: sanitize_env,
            san_dense: false,
            sim_threads: None,
        }
    }

    /// Enable event tracing for subsequent launches, keeping at most `cap`
    /// events per launch in [`Device::trace`].
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = crate::trace::Trace::with_capacity(cap);
        self.trace_enabled = true;
        self.trace_cap = cap;
    }

    /// Pin the number of host threads used to execute blocks, overriding
    /// `SIMT_SIM_THREADS`. `Some(1)` forces the serial path; `None` returns
    /// to environment/auto sizing.
    pub fn set_sim_threads(&mut self, threads: Option<usize>) {
        self.sim_threads = threads;
    }

    /// Thread count the next launch will use.
    pub fn sim_threads(&self) -> usize {
        sched::resolve_threads(self.sim_threads)
    }

    /// Select the sanitizer's sync-history representation: `true` = the
    /// dense pre-compression `nwarps * ws^2` table (bench baseline),
    /// `false` = the adaptive epoch representation (default).
    pub fn use_dense_sanitizer(&mut self, dense: bool) {
        self.san_dense = dense;
    }

    /// Enable the simtcheck sanitizer (see [`crate::sanitize`]) for
    /// subsequent launches: every block runs with barrier-divergence,
    /// shared-memory-race and sharing-space checks, and findings land in
    /// [`crate::stats::LaunchStats::violations`].
    pub fn enable_sanitizer(&mut self) {
        self.sanitize_enabled = true;
    }

    /// Turn the simtcheck sanitizer off again.
    pub fn disable_sanitizer(&mut self) {
        self.sanitize_enabled = false;
    }

    /// Whether subsequent launches attach the simtcheck sanitizer.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitize_enabled
    }

    /// Whether subsequent launches record an event trace.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// A100-like device — the paper's test bed (§6.1).
    pub fn a100() -> Device {
        Device::new(DeviceArch::a100())
    }

    /// Device on the architecture `SIMT_SIM_ARCH` names (default `a100`;
    /// see [`crate::arch::ArchRegistry::from_env`]). Harnesses that should
    /// participate in the CI arch axis construct their devices here; tests
    /// pinning backend-specific numbers keep naming the arch explicitly.
    pub fn from_env() -> Device {
        Device::new(DeviceArch::from_env())
    }

    /// Validate a launch configuration against this device.
    pub fn validate(&self, cfg: &LaunchConfig) -> Result<u32, LaunchError> {
        if self.cost.sectors_per_line().is_none() {
            return Err(LaunchError::BadSectorModel {
                line_bytes: self.cost.line_bytes,
                sector_bytes: self.cost.sector_bytes,
            });
        }
        if cfg.num_blocks == 0 {
            return Err(LaunchError::ZeroBlocks);
        }
        if cfg.threads_per_block == 0 || cfg.threads_per_block > self.arch.max_threads_per_block {
            return Err(LaunchError::BadBlockSize {
                requested: cfg.threads_per_block,
                max: self.arch.max_threads_per_block,
            });
        }
        if !cfg.threads_per_block.is_multiple_of(self.arch.warp_size) {
            return Err(LaunchError::UnalignedBlockSize {
                requested: cfg.threads_per_block,
                warp: self.arch.warp_size,
            });
        }
        if cfg.smem_bytes > self.arch.smem_per_block {
            return Err(LaunchError::SmemTooLarge {
                requested: cfg.smem_bytes,
                max: self.arch.smem_per_block,
            });
        }
        let resident = sched::blocks_per_sm(&self.arch, cfg.threads_per_block, cfg.smem_bytes);
        if resident == 0 {
            return Err(LaunchError::ZeroOccupancy);
        }
        Ok(resident)
    }

    /// Launch a kernel: `entry` is called once per block with that block's
    /// [`TeamCtx`], possibly from several worker threads at once (`entry`
    /// must be `Fn + Sync`; blocks may not communicate except through
    /// global-memory atomics). Returns the simulated launch statistics,
    /// which are bit-identical for every thread count.
    pub fn launch<F>(&mut self, cfg: &LaunchConfig, entry: F) -> Result<LaunchStats, LaunchError>
    where
        F: Fn(&mut TeamCtx<'_>) + Sync,
    {
        let resident = self.validate(cfg)?;
        let nwarps = cfg.threads_per_block / self.arch.warp_size;
        let threads = sched::resolve_threads(self.sim_threads);
        // Shared, immutable launch state the worker closure captures.
        let global = &self.global;
        let cost = &self.cost;
        let arch = &self.arch;
        let (trace_enabled, trace_cap) = (self.trace_enabled, self.trace_cap);
        let (sanitize, dense) = (self.sanitize_enabled, self.san_dense);
        let warp_size = self.arch.warp_size;
        let outcomes = sched::run_blocks(cfg.num_blocks, threads, |block_id| {
            let mut team =
                TeamCtx::new(block_id, cfg.num_blocks, nwarps, cfg.smem_bytes, global, cost, arch);
            if trace_enabled {
                team.attach_trace(Trace::with_capacity(trace_cap));
            }
            if sanitize {
                let san = if dense {
                    Sanitizer::new_dense(block_id, nwarps, warp_size, cfg.smem_bytes / 8)
                } else {
                    Sanitizer::new(block_id, nwarps, warp_size, cfg.smem_bytes / 8)
                };
                team.attach_sanitizer(Box::new(san));
            }
            entry(&mut team);
            let trace = trace_enabled.then(|| team.detach_trace());
            let (violations, foreign) = match team.detach_sanitizer() {
                Some(mut san) => {
                    let foreign = san.take_foreign();
                    (san.finish(), foreign)
                }
                None => (Vec::new(), Vec::new()),
            };
            let fallbacks = team.fallback_ranges();
            let visits = team.take_visits();
            let (profile, counters) = team.finish(cfg.threads_per_block, cfg.smem_bytes);
            BlockOutcome { profile, counters, violations, foreign, fallbacks, trace, visits }
        });

        // Deterministic merge: `run_blocks` returns outcomes sorted by
        // block id, so every reduction below sees them in the same order a
        // serial run would have produced them.
        let mut profiles = Vec::with_capacity(outcomes.len());
        let mut counters = RtCounters::default();
        let mut violations = Vec::new();
        let mut merged_trace = trace_enabled.then(|| Trace::with_capacity(trace_cap));
        let mut fallbacks_by_block: Vec<Vec<FallbackRange>> = Vec::with_capacity(outcomes.len());
        let mut foreign_by_block: Vec<Vec<ForeignTouch>> = Vec::with_capacity(outcomes.len());
        // Deterministic first-touch replay, folded into the merge: walk
        // every block's line-visit log in block-index order against one
        // sequential touched-set. Each visit's fresh sectors are
        // compulsory DRAM traffic: the block counts them in `dram_sectors`
        // and charges their 64-byte burst atoms to `dram_atoms`. Which
        // visit wins a cross-block shared sector is interleaving-dependent
        // online, and the burst-atom count is nonlinear in that grouping —
        // replaying here reproduces the `SIMT_SIM_THREADS=1` attribution
        // at any thread count. The map is pre-sized from the longest block
        // log: the summed lengths over-reserve when blocks share lines.
        let longest = outcomes.iter().map(|(_, o)| o.visits.entries().len()).max().unwrap_or(0);
        let mut touched = LineMap::<u8>::with_capacity_and_hasher(longest, Default::default());
        for (_, o) in outcomes {
            counters.merge(&o.counters);
            violations.extend(o.violations);
            if let (Some(m), Some(t)) = (merged_trace.as_mut(), o.trace) {
                m.absorb(t);
            }
            let mut p = o.profile;
            for &packed in o.visits.entries() {
                let (line, mask) = (packed >> 8, (packed & 0xff) as u8);
                let seen = touched.entry(line).or_insert(0);
                let fresh = mask & !*seen;
                *seen |= fresh;
                p.dram_sectors += fresh.count_ones() as u64;
                p.dram_atoms += burst_atoms(fresh);
            }
            profiles.push(p);
            fallbacks_by_block.push(o.fallbacks);
            foreign_by_block.push(o.foreign);
        }
        if let Some(m) = merged_trace {
            self.trace = m;
        }
        // Cross-team pass: join each block's foreign-arena *writes* against
        // the owner's leaked (never-freed) fallback ranges. Blocks never
        // synchronize with each other, so any such write raced with the
        // owner. Accessor-major order keeps the report deterministic.
        for (accessor, touches) in foreign_by_block.iter().enumerate() {
            for t in touches {
                if !t.write {
                    continue;
                }
                let leaked = fallbacks_by_block
                    .get(t.owner as usize)
                    .is_some_and(|fb| fb.iter().any(|r| !r.freed && r.contains(t.addr)));
                if leaked {
                    violations.push(Violation::CrossTeamFallbackRace {
                        owner: t.owner,
                        accessor: accessor as u32,
                        thread: t.thread,
                        addr: t.addr,
                    });
                }
            }
        }
        // Findings are part of LaunchStats either way; the stderr echo exists
        // for callers (examples, benches) that never look at `violations`.
        for v in &violations {
            eprintln!("simtcheck: {v}");
        }
        let span = sched::makespan(&self.arch, &self.cost, &profiles, resident);
        // Block-index-order fold of the memory counters (profiles are
        // already sorted by block id) — bit-identical at any thread count.
        let mut mem = MemStats::default();
        for p in &profiles {
            mem.merge_block(p);
        }
        mem.mlp_stalls = span.mlp_stalls;
        Ok(LaunchStats {
            cycles: span.cycles + self.cost.launch_overhead,
            blocks: cfg.num_blocks,
            blocks_per_sm: resident,
            total_issue: profiles.iter().map(|p| p.issue).sum(),
            total_sectors: profiles.iter().map(|p| p.sectors).sum(),
            total_smem_ops: profiles.iter().map(|p| p.smem_ops).sum(),
            total_l1_hits: profiles.iter().map(|p| p.l1_hits).sum(),
            total_dram_sectors: profiles.iter().map(|p| p.dram_sectors).sum(),
            mem,
            counters,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let d = Device::a100();
        let ok = LaunchConfig { num_blocks: 1, threads_per_block: 128, smem_bytes: 0 };
        assert!(d.validate(&ok).is_ok());
        assert_eq!(d.validate(&LaunchConfig { num_blocks: 0, ..ok }), Err(LaunchError::ZeroBlocks));
        assert!(matches!(
            d.validate(&LaunchConfig { threads_per_block: 2048, ..ok }),
            Err(LaunchError::BadBlockSize { .. })
        ));
        assert!(matches!(
            d.validate(&LaunchConfig { threads_per_block: 100, ..ok }),
            Err(LaunchError::UnalignedBlockSize { .. })
        ));
        assert!(matches!(
            d.validate(&LaunchConfig { smem_bytes: 1 << 20, ..ok }),
            Err(LaunchError::SmemTooLarge { .. })
        ));
    }

    #[test]
    fn validation_rejects_sector_models_the_line_mask_cannot_hold() {
        let ok = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
        let mut d = Device::new(DeviceArch::tiny());
        // 16 sectors of 8 B per 128 B line: bits 8.. of the u8 mask do not exist.
        d.cost.sector_bytes = 8;
        let err = LaunchError::BadSectorModel { line_bytes: 128, sector_bytes: 8 };
        assert_eq!(d.validate(&ok), Err(err));
        assert_eq!(d.launch(&ok, |_| {}).unwrap_err(), err);
        d.cost.sector_bytes = 0;
        assert!(matches!(
            d.validate(&ok),
            Err(LaunchError::BadSectorModel { line_bytes: 128, sector_bytes: 0 })
        ));
        // Exactly 8 sectors per line, and non-power-of-two sectors, still fit.
        d.cost.sector_bytes = 16;
        assert!(d.validate(&ok).is_ok());
        d.cost.sector_bytes = 24;
        assert!(d.validate(&ok).is_ok());
    }

    #[test]
    fn launch_runs_every_block_once() {
        let mut d = Device::new(DeviceArch::tiny());
        let p = d.global.alloc_zeroed::<u64>(16);
        let cfg = LaunchConfig { num_blocks: 16, threads_per_block: 32, smem_bytes: 0 };
        let stats = d
            .launch(&cfg, |team| {
                let bid = team.block_id as u64;
                team.run_lanes(0, &[0], move |lane, _| {
                    lane.write(p, bid, bid + 1);
                });
            })
            .unwrap();
        assert_eq!(stats.blocks, 16);
        let out = d.global.read_slice(p, 16);
        let expect: Vec<u64> = (1..=16).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn launch_is_deterministic() {
        let run = || {
            let mut d = Device::a100();
            let p = d.global.alloc_zeroed::<f64>(1024);
            let cfg = LaunchConfig { num_blocks: 64, threads_per_block: 128, smem_bytes: 1024 };
            d.launch(&cfg, |team| {
                for w in 0..team.nwarps() {
                    let lanes: Vec<u32> = (0..32).collect();
                    team.run_lanes(w, &lanes, |lane, id| {
                        let i = (w * 32 + id) as u64;
                        let v = lane.read(p, i % 1024);
                        lane.work(5);
                        lane.write(p, i % 1024, v + 1.0);
                    });
                }
                team.block_barrier();
            })
            .unwrap()
            .cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_blocks_take_longer() {
        let mut d = Device::new(DeviceArch::tiny());
        let cfg1 = LaunchConfig { num_blocks: 4, threads_per_block: 64, smem_bytes: 0 };
        let cfg2 = LaunchConfig { num_blocks: 64, threads_per_block: 64, smem_bytes: 0 };
        let body = |team: &mut TeamCtx<'_>| {
            team.charge_alu(0, 10_000);
        };
        let t1 = d.launch(&cfg1, body).unwrap().cycles;
        let t2 = d.launch(&cfg2, body).unwrap().cycles;
        assert!(t2 > t1, "16x blocks must take longer: {t1} vs {t2}");
    }

    #[test]
    fn launch_overhead_is_floor() {
        let mut d = Device::new(DeviceArch::tiny());
        let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
        let stats = d.launch(&cfg, |_| {}).unwrap();
        assert_eq!(stats.cycles, d.cost.launch_overhead);
    }
}
