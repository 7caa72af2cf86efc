//! Devices and kernel launches.
//!
//! A [`Device`] owns its global memory and executes kernel launches. Blocks
//! are mutually independent (no inter-block synchronization exists within a
//! launch), so they execute concurrently on the launching thread plus the
//! device's resident pool of parked workers ([`crate::sched::BlockPool`],
//! sized by [`Device::set_sim_threads`]; 1 = serial, no worker threads). Each
//! thread runs the blocks it claims one after another in one [`TeamCtx`]
//! built from its reused block state, and keeps what they produce in one
//! batch that it hands back once. Per-block profiles, traces and sanitizer
//! findings are merged in block-index order, and counters are summed, so
//! the resulting [`LaunchStats`] is bit-identical to a serial run at any
//! thread count; the launch result combines the per-block profiles into a
//! simulated makespan via [`crate::sched`].

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use crate::arch::DeviceArch;
use crate::cost::CostModel;
use crate::exec::{burst_atoms, Spare, TeamCtx};
use crate::mem::global::{FallbackRange, GlobalMem};
use crate::sanitize::{ForeignTouch, Violation};
use crate::sched;
use crate::stats::{BlockProfile, LaunchStats, MemStats, RtCounters};
use crate::trace::Trace;

/// One block's record in its [`Batch`]: its profile and trace, and where
/// its entries sit in the batch's logs.
struct Done {
    block: u32,
    profile: BlockProfile,
    violations: Range<usize>,
    foreign: Range<usize>,
    fallbacks: Range<usize>,
    /// The block's entries in the batch's visit log.
    visits: Range<usize>,
    trace: Option<Trace>,
}

/// Visit-log entries (512 KiB) a [`Batch`] keeps from one launch to the
/// next.
const KEPT_VISITS: usize = 1 << 16;

/// Everything one participant of a launch produced, block after block in
/// its claim order. The participant takes the batch from the launching
/// thread's [`Merge`] and puts it back when it leaves the launch, so
/// nothing crosses threads per block, and the launching thread clears and
/// reuses it instead of freeing it. Counters and L2 bank counts are `u64`
/// sums, so the batch keeps only its partial sums of them.
#[derive(Default)]
struct Batch {
    blocks: Vec<Done>,
    violations: Vec<Violation>,
    foreign: Vec<ForeignTouch>,
    fallbacks: Vec<FallbackRange>,
    /// The participant's visit log: its `TeamCtx` logs into it, and swaps
    /// it back when it leaves the launch.
    visits: Vec<u64>,
    counters: RtCounters,
    l2_bank_sectors: Vec<u64>,
}

impl Batch {
    fn clear(&mut self, l2_banks: usize) {
        self.blocks.clear();
        self.violations.clear();
        self.foreign.clear();
        self.fallbacks.clear();
        self.visits.clear();
        self.counters = RtCounters::default();
        self.l2_bank_sectors.clear();
        self.l2_bank_sectors.resize(l2_banks, 0);
    }

    /// Keep at most [`KEPT_VISITS`] entries of visit-log storage for the
    /// next launch. A launch that logs more does far more work than the
    /// allocation costs, and a thread that once ran one should not hold
    /// its memory through the smaller launches that follow.
    fn trim(&mut self) {
        self.visits.clear();
        self.visits.shrink_to(KEPT_VISITS);
    }

    /// Record the finished block `team` and end it.
    fn record(&mut self, team: &mut TeamCtx<'_>, cfg: &LaunchConfig) {
        let trace = team.tracing().then(|| team.detach_trace());
        let (violations, foreign) = (self.violations.len(), self.foreign.len());
        team.drain_findings(&mut self.violations, &mut self.foreign);
        let fallbacks = self.fallbacks.len();
        extend(&mut self.fallbacks, team.global().fallback_ranges());
        for (sum, &n) in self.l2_bank_sectors.iter_mut().zip(team.l2_bank_sectors()) {
            *sum += n;
        }
        let (block, visits) = (team.block_id, team.visit_range());
        let (profile, counters) = team.end(cfg.threads_per_block, cfg.smem_bytes);
        self.counters.merge(&counters);
        self.blocks.push(Done {
            block,
            profile,
            violations: violations..self.violations.len(),
            foreign: foreign..self.foreign.len(),
            fallbacks: fallbacks..self.fallbacks.len(),
            visits,
            trace,
        });
    }
}

/// `dst.extend_from_slice(src)`, skipped when `src` is empty. An empty
/// `Vec`'s pointer is dangling, and the C library's copy routine can take
/// a slow path on it even for zero bytes (about 80 ns on an AVX-512 Xeon,
/// more than the rest of an empty block's teardown).
fn extend<T: Clone>(dst: &mut Vec<T>, src: &[T]) {
    if !src.is_empty() {
        dst.extend_from_slice(src);
    }
}

/// The batches of a launch: each participant takes one from `free` and
/// hands it back to `done`, so a late participant never takes one that
/// an earlier one filled.
#[derive(Default)]
struct Batches {
    free: Vec<Batch>,
    done: Vec<Batch>,
}

/// The launching thread's merge state, reused from launch to launch: the
/// participants' batches, the block-order index into them, the profiles
/// in block order and the visit replay's touched set. A panicking launch
/// drops it; the next launch builds a fresh one.
#[derive(Default)]
struct Merge {
    batches: Mutex<Batches>,
    /// Block id → (batch, index into its `blocks`).
    order: Vec<(usize, usize)>,
    profiles: Vec<BlockProfile>,
    touched: Touched,
}

thread_local! {
    /// This launching thread's [`Merge`], `None` while a launch runs.
    static MERGE: std::cell::Cell<Option<Merge>> = const { std::cell::Cell::new(None) };
}

/// `Hasher` for the `u64` page ids of [`Touched`]: one folded
/// 64×64→128-bit multiply, so strided page ids still spread over every
/// bucket. Page ids are simulator-generated, so SipHash's flooding
/// resistance buys nothing here.
#[derive(Clone, Copy, Default)]
struct LineHasher(u64);

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("LineHasher only hashes u64 page ids")
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = (self.0 ^ x) as u128 * 0x9E37_79B9_7F4A_7C15u128;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// Lines per page of [`Touched`].
const PAGE_LINES: usize = 4096;

/// The visit replay's touched set: one sector mask per line, in pages of
/// [`PAGE_LINES`] consecutive lines found through a small page-id map,
/// with the last page cached, so a run of entries within one page costs
/// no lookup. Each launching thread keeps one (in its [`Merge`]) and
/// empties it after every replay by re-walking the replayed logs, keeping
/// its pages for the next launch.
struct Touched {
    /// Every page allocated so far; the first `used` are this replay's.
    pages: Vec<Box<[u8; PAGE_LINES]>>,
    used: usize,
    /// Page id (`line / PAGE_LINES`) → index into `pages`.
    index: std::collections::HashMap<u64, usize, std::hash::BuildHasherDefault<LineHasher>>,
    /// The page id and index of the last lookup (`u64::MAX`: none).
    last: (u64, usize),
}

impl Default for Touched {
    fn default() -> Touched {
        Touched { pages: Vec::new(), used: 0, index: Default::default(), last: (u64::MAX, 0) }
    }
}

impl Touched {
    /// The mask of `line`, adding its page on first touch.
    #[inline]
    fn mask(&mut self, line: u64) -> &mut u8 {
        let page = line / PAGE_LINES as u64;
        if page != self.last.0 {
            let (pages, used) = (&mut self.pages, &mut self.used);
            let i = *self.index.entry(page).or_insert_with(|| {
                if *used == pages.len() {
                    pages.push(Box::new([0; PAGE_LINES]));
                }
                *used += 1;
                *used - 1
            });
            self.last = (page, i);
        }
        &mut self.pages[self.last.1][line as usize % PAGE_LINES]
    }

    /// Empty the set after replaying `logs`: zero every mask they set,
    /// then forget the pages' ids, keeping the zeroed pages.
    fn clear<'a>(&mut self, logs: impl Iterator<Item = &'a [u64]>) {
        for log in logs {
            for &packed in log {
                *self.mask(packed >> 8) = 0;
            }
        }
        self.index.clear();
        self.used = 0;
        self.last = (u64::MAX, 0);
    }
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
    /// The L1 window's set count (`l1_lines / 4`, sets of 4 lines) or the
    /// shared-memory bank count is not a power of two: the access path
    /// indexes sets and banks with a mask.
    BadGeometry { l1_lines: u32, smem_banks: u32 },
    /// The device's warps are wider than a [`crate::LaneMask`]
    /// ([`crate::exec::MAX_LANES`] lanes).
    BadWarpSize { warp: u32 },
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
            LaunchError::BadGeometry { l1_lines, smem_banks } => write!(
                f,
                "an L1 of {l1_lines} lines (sets of 4) and {smem_banks} shared-memory banks: \
                 set and bank counts must be powers of two"
            ),
            LaunchError::BadWarpSize { warp } => write!(
                f,
                "warp size {warp} exceeds the {} lanes of a lane mask",
                crate::exec::MAX_LANES
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
    /// Block-execution thread count override; `None` = the host's
    /// available parallelism (see [`sched::resolve_threads`]).
    sim_threads: Option<usize>,
    /// Parked block workers, created by the first multi-thread launch.
    pool: sched::BlockPool,
}

impl Device {
    /// Create a device with the default cost model, the sanitizer off and
    /// the default thread count.
    pub fn new(arch: DeviceArch) -> Device {
        Device {
            arch,
            cost: CostModel::default(),
            global: GlobalMem::new(),
            trace: crate::trace::Trace::default(),
            trace_enabled: false,
            trace_cap: 0,
            sanitize_enabled: false,
            sim_threads: None,
            pool: sched::BlockPool::default(),
        }
    }

    /// Enable event tracing for subsequent launches, keeping at most `cap`
    /// events per launch in [`Device::trace`].
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = crate::trace::Trace::with_capacity(cap);
        self.trace_enabled = true;
        self.trace_cap = cap;
    }

    /// Pin the number of host threads used to execute blocks. `Some(1)`
    /// forces the serial path; `None` returns to the host's available
    /// parallelism.
    pub fn set_sim_threads(&mut self, threads: Option<usize>) {
        self.sim_threads = threads;
    }

    /// Thread count the next launch will use.
    pub fn sim_threads(&self) -> usize {
        sched::resolve_threads(self.sim_threads)
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

    /// A100-like device — the paper's test bed (§6.1).
    pub fn a100() -> Device {
        Device::new(DeviceArch::a100())
    }

    /// Validate a launch configuration against this device.
    pub fn validate(&self, cfg: &LaunchConfig) -> Result<u32, LaunchError> {
        let (l1_lines, smem_banks) = (self.cost.l1_lines, self.arch.smem_banks);
        if !(l1_lines / 4).is_power_of_two() || !smem_banks.is_power_of_two() {
            return Err(LaunchError::BadGeometry { l1_lines, smem_banks });
        }
        if self.arch.warp_size as usize > crate::exec::MAX_LANES {
            return Err(LaunchError::BadWarpSize { warp: self.arch.warp_size });
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
        let n = cfg.num_blocks as usize;
        let l2_banks = self.arch.cache.l2_banks as usize;
        let mut merge = MERGE.take().unwrap_or_default();
        {
            let free = &mut merge.batches.get_mut().unwrap_or_else(PoisonError::into_inner).free;
            free.resize_with(
                free.len().max(sched::participants(cfg.num_blocks, threads)),
                Batch::default,
            );
            for b in free.iter_mut() {
                b.clear(l2_banks);
            }
        }
        // Shared, immutable launch state the participants capture.
        let global = &self.global;
        let cost = &self.cost;
        let arch = &self.arch;
        let (trace_enabled, trace_cap) = (self.trace_enabled, self.trace_cap);
        let sanitize = self.sanitize_enabled;
        let batches = &merge.batches;
        self.pool.run_blocks(cfg.num_blocks, threads, |claims| {
            let lock = || batches.lock().unwrap_or_else(PoisonError::into_inner);
            let mut batch = lock().free.pop().expect("a batch per participant");
            // One context serves the thread's blocks in turn: its segment
            // cache looks each segment up once per launch.
            let spare = Spare::take(cost, arch);
            let mut team = TeamCtx::from_spare(
                spare,
                cfg.num_blocks,
                nwarps,
                cfg.smem_bytes,
                global,
                cost,
                arch,
            );
            // The blocks log their visits straight into the batch's log.
            team.swap_visit_log(&mut batch.visits);
            for block_id in claims {
                team.begin(block_id);
                if trace_enabled {
                    team.attach_trace(Trace::with_capacity(trace_cap));
                }
                if sanitize {
                    team.sanitize(cfg.smem_bytes / 8);
                }
                entry(&mut team);
                batch.record(&mut team, cfg);
            }
            team.swap_visit_log(&mut batch.visits);
            team.into_spare().put_back();
            lock().done.push(batch);
        });

        // Deterministic merge: walk the blocks in block-index order through
        // the batches, so every reduction below sees them in the order a
        // serial run would have produced them. Counters and L2 bank counts
        // are sums, folded per batch.
        let Merge { batches, order, profiles, touched } = &mut merge;
        let Batches { free, done: batches } =
            batches.get_mut().unwrap_or_else(PoisonError::into_inner);
        order.clear();
        order.resize(n, (0, 0));
        let mut counters = RtCounters::default();
        let mut l2_bank_sectors = vec![0; l2_banks];
        for (bi, b) in batches.iter().enumerate() {
            for (i, d) in b.blocks.iter().enumerate() {
                order[d.block as usize] = (bi, i);
            }
            counters.merge(&b.counters);
            for (sum, &s) in l2_bank_sectors.iter_mut().zip(&b.l2_bank_sectors) {
                *sum += s;
            }
        }
        let mut violations = Vec::new();
        let mut merged_trace = trace_enabled.then(|| Trace::with_capacity(trace_cap));
        // Deterministic first-touch replay, folded into the merge: walk
        // every block's line-visit log in block-index order against one
        // sequential touched-set. Each visit's fresh sectors are
        // compulsory DRAM traffic: the block counts them in `dram_sectors`
        // and charges their 64-byte burst atoms to `dram_atoms`. Which
        // visit wins a cross-block shared sector is interleaving-dependent
        // online, and the burst-atom count is nonlinear in that grouping —
        // replaying here reproduces the one-thread attribution
        // at any thread count. The touched set is emptied afterwards by
        // walking the logs again.
        profiles.clear();
        for &(bi, i) in order.iter() {
            let b = &mut batches[bi];
            let d = &mut b.blocks[i];
            extend(&mut violations, &b.violations[d.violations.clone()]);
            if let (Some(m), Some(t)) = (merged_trace.as_mut(), d.trace.take()) {
                m.absorb(t);
            }
            let mut p = d.profile;
            for &packed in &b.visits[d.visits.clone()] {
                let seen = touched.mask(packed >> 8);
                let fresh = packed as u8 & !*seen;
                *seen |= fresh;
                p.dram_sectors += fresh.count_ones() as u64;
                p.dram_atoms += burst_atoms(fresh);
            }
            profiles.push(p);
        }
        touched.clear(batches.iter().map(|b| &b.visits[..]));
        if let Some(m) = merged_trace {
            self.trace = m;
        }
        // Cross-team pass: join each block's foreign-arena *writes* against
        // the owner's leaked (never-freed) fallback ranges. Blocks never
        // synchronize with each other, so any such write raced with the
        // owner. Accessor-major order keeps the report deterministic.
        for (accessor, &(bi, i)) in order.iter().enumerate() {
            let b = &batches[bi];
            for t in b.foreign[b.blocks[i].foreign.clone()].iter().filter(|t| t.write) {
                let leaked = order.get(t.owner as usize).is_some_and(|&(oi, oj)| {
                    let o = &batches[oi];
                    let ranges = &o.fallbacks[o.blocks[oj].fallbacks.clone()];
                    ranges.iter().any(|r| !r.freed && r.contains(t.addr))
                });
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
        let span = sched::makespan(&self.arch, &self.cost, profiles, &l2_bank_sectors, resident);
        // Block-index-order fold of the memory counters (profiles are
        // already sorted by block id) — bit-identical at any thread count.
        let mut mem = MemStats { l2_bank_sectors, ..MemStats::default() };
        for p in profiles.iter() {
            mem.merge_block(p);
        }
        mem.mlp_stalls = span.mlp_stalls;
        let stats = LaunchStats {
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
        };
        for b in batches.iter_mut() {
            b.trim();
        }
        free.append(batches);
        MERGE.set(Some(merge));
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{Cell, CELLS};

    /// A device on `arch` with `cell`'s sim threads and sanitizer.
    fn cell_device(cell: &Cell, arch: DeviceArch) -> Device {
        let mut dev = Device::new(arch);
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
        dev
    }

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
    fn validation_rejects_set_and_bank_counts_that_are_not_powers_of_two() {
        for cell in &CELLS {
            let ok = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
            let mut d = cell_device(cell, DeviceArch::tiny());
            // 12 lines are 3 sets; 2 lines are not one set.
            for l1_lines in [12, 2] {
                d.cost.l1_lines = l1_lines;
                let err = LaunchError::BadGeometry { l1_lines, smem_banks: 32 };
                assert_eq!(d.validate(&ok), Err(err));
                assert_eq!(d.launch(&ok, |_| panic!("no block may run")).unwrap_err(), err);
            }
            // One set of 4 lines fits.
            d.cost.l1_lines = 4;
            assert!(d.validate(&ok).is_ok());
            d.arch.smem_banks = 48;
            let err = LaunchError::BadGeometry { l1_lines: 4, smem_banks: 48 };
            assert_eq!(d.launch(&ok, |_| panic!("no block may run")).unwrap_err(), err);
        }
    }

    #[test]
    fn launch_runs_every_block_once() {
        for cell in &CELLS {
            let mut d = cell_device(cell, DeviceArch::tiny());
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
    }

    #[test]
    fn launch_is_deterministic() {
        for cell in &CELLS {
            let run = || {
                let mut d = cell_device(cell, DeviceArch::a100());
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
    }

    #[test]
    fn more_blocks_take_longer() {
        for cell in &CELLS {
            let mut d = cell_device(cell, DeviceArch::tiny());
            let cfg1 = LaunchConfig { num_blocks: 4, threads_per_block: 64, smem_bytes: 0 };
            let cfg2 = LaunchConfig { num_blocks: 64, threads_per_block: 64, smem_bytes: 0 };
            let body = |team: &mut TeamCtx<'_>| {
                team.charge_alu(0, 10_000);
            };
            let t1 = d.launch(&cfg1, body).unwrap().cycles;
            let t2 = d.launch(&cfg2, body).unwrap().cycles;
            assert!(t2 > t1, "16x blocks must take longer: {t1} vs {t2}");
        }
    }

    #[test]
    fn launch_overhead_is_floor() {
        for cell in &CELLS {
            let mut d = cell_device(cell, DeviceArch::tiny());
            let cfg = LaunchConfig { num_blocks: 1, threads_per_block: 32, smem_bytes: 0 };
            let stats = d.launch(&cfg, |_| {}).unwrap();
            assert_eq!(stats.cycles, d.cost.launch_overhead);
        }
    }
}
