//! Block→SM scheduling and the kernel makespan model.
//!
//! Blocks execute functionally and independently on the device's
//! resident [`BlockPool`], producing per-block resource profiles that are
//! merged in block-index order (determinism). The *time* a launch takes is
//! then computed analytically:
//!
//! 1. **Occupancy**: resident blocks per SM is limited by the architecture's
//!    block/thread/shared-memory capacities. The extra team-main warp of
//!    generic mode (paper Fig 2) and the enlarged variable-sharing space
//!    (§5.3.1) both reduce occupancy through this calculation.
//! 2. **Waves**: blocks are assigned to SMs round-robin; each SM processes
//!    its blocks in waves of its residency limit. A wave takes
//!    `max(latency, issue-throughput, LSU-throughput)` — resident blocks
//!    hide each other's latency until a throughput roof binds.
//! 3. **Device roofs**: the slowest L2 bank slice, and DRAM bandwidth
//!    capped by the launch's memory-level parallelism
//!    ([`crate::mem::hier`]).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::arch::DeviceArch;
use crate::cost::CostModel;
use crate::mem::hier;
use crate::stats::BlockProfile;

/// Resolve the block-execution thread count: an explicit per-device
/// override wins, else the host's available parallelism, queried once per
/// process: the query reads the affinity mask and the cgroup quota, which
/// costs more than an empty launch. Always ≥ 1.
pub fn resolve_threads(override_threads: Option<usize>) -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    match override_threads {
        Some(n) => n.max(1),
        None => {
            *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
    }
}

/// A device's parked block-execution workers, kept resident across
/// launches (gpucachesim keeps its `SIMTCore`s the same way) so a launch
/// wakes threads instead of spawning and joining them.
///
/// Empty until the first launch that runs on more than one thread;
/// [`BlockPool::run_blocks`] then parks `threads − 1` workers beside the
/// launching thread, rebuilds them when the resolved count changes, and
/// dropping the pool joins them. Each worker keeps its thread-local block
/// state (the `TeamCtx` spare and the bytecode engine's scratch arena)
/// from one launch to the next.
#[derive(Default)]
pub struct BlockPool {
    workers: Option<Workers>,
}

/// The parked threads of a [`BlockPool`] and their shared job slot.
struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

/// A launch's block loop with its lifetime erased (see [`Workers::run`]).
type Job = &'static (dyn Fn() + Sync);

struct Shared {
    state: Mutex<JobState>,
    /// Signalled when a job is posted or the pool shuts down.
    posted: Condvar,
    /// Signalled when the last running worker leaves the job.
    finished: Condvar,
}

#[derive(Default)]
struct JobState {
    /// The current job, `None` once the caller has retracted it.
    job: Option<Job>,
    /// Bumped per posted job, so a worker joins each job at most once.
    epoch: u64,
    /// Workers that may still join the current job.
    open: usize,
    /// Workers inside the current job.
    running: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

fn lock(m: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
    // Jobs run outside the lock and their panics are caught, so the lock
    // is never held across a panic; a poisoned guard is still consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Workers {
    fn spawn(n: usize) -> Workers {
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState::default()),
            posted: Condvar::new(),
            finished: Condvar::new(),
        });
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("simt-block-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn block worker")
            })
            .collect();
        Workers { shared, handles }
    }

    /// Run `job` on the calling thread and on up to `helpers` parked
    /// workers, returning (or unwinding) only once every worker that
    /// joined has left it. The first panic, the caller's own before any
    /// worker's, is re-raised after that.
    fn run(&self, helpers: usize, job: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime is erased. A worker copies the
        // reference out of `JobState::job` under the lock and counts
        // itself in `running`; the retraction below clears the slot, and
        // this function returns or unwinds only after `running` is back
        // to zero, so no copy of the reference outlives the borrow. The
        // caller's own call to `job` is caught, and nothing between
        // posting and waiting can panic.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(job);
            st.epoch += 1;
            st.open = helpers;
        }
        self.shared.posted.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(job));
        let mut st = lock(&self.shared.state);
        // Every block is claimed (or the caller's own block panicked and
        // the launch fails anyway): workers that have not woken yet would
        // find nothing to do, so they are not waited for.
        st.job = None;
        st.open = 0;
        while st.running > 0 {
            st = self.shared.finished.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let theirs = st.panic.take();
        drop(st);
        if let Some(p) = mine.err().or(theirs) {
            resume_unwind(p);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let (Some(job), true) = (st.job, st.open > 0) {
                        st.open -= 1;
                        st.running += 1;
                        break job;
                    }
                }
                st = shared.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut st = lock(&shared.state);
        if let Err(p) = result {
            st.panic.get_or_insert(p);
        }
        st.running -= 1;
        if st.running == 0 {
            shared.finished.notify_one();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.posted.notify_all();
        for h in self.handles.drain(..) {
            // Jobs catch their panics, so a worker exits only by returning.
            let _ = h.join();
        }
    }
}

/// The block ids one participant of a launch claims, in increasing order,
/// from the counter every participant shares.
pub struct Claims<'a> {
    next: &'a AtomicU32,
    num_blocks: u32,
}

impl Iterator for Claims<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let b = self.next.fetch_add(1, Ordering::Relaxed);
        (b < self.num_blocks).then_some(b)
    }
}

impl BlockPool {
    /// Execute every block id in `0..num_blocks` on `threads` host
    /// threads — the caller plus `threads − 1` parked workers. Each
    /// thread that joins the launch calls `participant` once with its
    /// [`Claims`]: every participant claims blocks from one shared atomic
    /// counter, so imbalanced blocks don't idle workers, and a participant
    /// sees its own blocks in increasing id order. At most
    /// [`participants`] calls happen. Whatever a participant produces it
    /// keeps per participant and hands back once, so nothing crosses
    /// threads per block; callers merge in block-index order, which is
    /// what keeps parallel launches bit-identical to serial ones.
    ///
    /// With `threads <= 1` (or a single block) the caller is the only
    /// participant and no worker is created. A panic in any block is
    /// re-raised on the caller once every worker has left the launch; the
    /// pool stays usable.
    pub fn run_blocks<F>(&mut self, num_blocks: u32, threads: usize, participant: F)
    where
        F: Fn(Claims<'_>) + Sync,
    {
        let next = AtomicU32::new(0);
        let job = || participant(Claims { next: &next, num_blocks });
        let helpers = participants(num_blocks, threads) - 1;
        if helpers == 0 {
            return job();
        }
        if self.workers.as_ref().is_none_or(|w| w.handles.len() != threads - 1) {
            // Join the old workers before parking the new ones.
            self.workers = None;
            self.workers = Some(Workers::spawn(threads - 1));
        }
        self.workers.as_ref().expect("just spawned").run(helpers, &job);
    }
}

/// The most threads that join a launch of `num_blocks` blocks on `threads`
/// threads: one per block, and always the caller.
pub fn participants(num_blocks: u32, threads: usize) -> usize {
    threads.min(num_blocks as usize).max(1)
}

/// How many blocks of the given shape can be resident on one SM.
/// Returns 0 when a single block exceeds a per-SM capacity (launch error).
pub fn blocks_per_sm(arch: &DeviceArch, threads_per_block: u32, smem_bytes: u32) -> u32 {
    if threads_per_block == 0 {
        return 0;
    }
    let by_threads = arch.max_threads_per_sm / threads_per_block;
    let by_smem = (arch.smem_per_sm).checked_div(smem_bytes).unwrap_or(arch.max_blocks_per_sm);
    by_threads.min(by_smem).min(arch.max_blocks_per_sm)
}

/// Makespan result: the device cycles plus the MLP-stall attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Makespan {
    /// Device cycles, excluding launch overhead.
    pub cycles: u64,
    /// Cycles the DRAM roof grew beyond peak-bandwidth time because the
    /// launch's memory-level parallelism could not cover the latency.
    pub mlp_stalls: u64,
}

/// Compute the device makespan (excluding launch overhead) for a set of
/// executed blocks under the hierarchical memory model
/// ([`crate::mem::hier`]). `l2_bank_sectors` holds the launch's
/// L1-missing sectors per L2 bank slice, summed over its blocks.
///
/// Each SM runs its blocks in waves of `resident_per_sm`; a wave costs
/// `max(latency, issue/width, LSU)` plus the imperfect-overlap term.
/// Full-line L1-hit replays (`l1_full_hits`) retire through a per-SM LSU
/// pipe at L1 bandwidth, so the issue and latency terms are net of the
/// offloadable replay cycles (`tx_cycles`, `resid_cycles`). Partial fills
/// and misses keep their replay cycles on the issue path (MSHR allocation
/// serializes them). The device is then roofed by its slowest L2 bank
/// slice and by a DRAM roof capped by the launch's memory-level
/// parallelism.
pub fn makespan(
    arch: &DeviceArch,
    cost: &CostModel,
    profiles: &[BlockProfile],
    l2_bank_sectors: &[u64],
    resident_per_sm: u32,
) -> Makespan {
    assert!(resident_per_sm >= 1, "occupancy must allow at least one block");
    if profiles.is_empty() {
        return Makespan::default();
    }
    let geom = &arch.cache;
    let nsms = arch.num_sms as usize;
    // Round-robin assignment of blocks to SMs: SM `sm` runs blocks `sm`,
    // `sm + nsms`, … in waves of `resident_per_sm`.
    let resident = resident_per_sm as usize;
    let mut device_time = 0u64;
    for sm in 0..nsms.min(profiles.len()) {
        let mut t = 0u64;
        for start in (sm..profiles.len()).step_by(nsms * resident) {
            let wave = profiles[start..].iter().step_by(nsms).take(resident);
            // Latency and issue net of the L1-hit replay cycles that
            // retire in the LSU pipe below, overlapped with issue. Misses
            // (and one sector beat per partial-line hit) stay on the issue
            // path.
            let (mut latency, mut issue, mut full_hits, mut sectors) = (0u64, 0u64, 0u64, 0u64);
            for b in wave {
                latency = latency.max(b.resid_cycles);
                issue += b.issue.saturating_sub(b.tx_cycles);
                full_hits += b.l1_full_hits;
                sectors += b.sectors;
            }
            // Round up: a trailing partial issue group still costs a cycle.
            let issue_time = issue.div_ceil(cost.sm_issue_width.max(1));
            // The LSU's line port replays full-line hits at L1 bandwidth;
            // its sector port drains L1-missing sectors. Partial-line hit
            // replays cost their retained sector beat on the issue path and
            // their fill bandwidth at the DRAM burst roof — they occupy no
            // extra LSU throughput.
            let mem_time = full_hits
                .div_ceil(geom.lsu_hit_lines_per_cycle.max(1))
                .max(sectors * cost.sm_sector_cycles);
            let mut w = latency.max(issue_time).max(mem_time);
            // Compute and memory pipelines overlap imperfectly.
            if let Some(extra) = issue_time.min(mem_time).checked_div(cost.overlap_denom) {
                w += extra;
            }
            t += w;
        }
        device_time = device_time.max(t);
    }
    // Device-wide roofs: all L1-miss traffic crosses the L2 banks; only
    // first-touch (compulsory) traffic crosses DRAM. Slowest L2 bank slice
    // first.
    let l2_time = hier::l2_bank_time(l2_bank_sectors, geom);
    // Outstanding DRAM sectors the launch can sustain: resident warps
    // across the SMs it actually occupies.
    let warps_per_block =
        profiles.iter().map(|p| arch.warps_for(p.threads)).max().unwrap_or(1).max(1);
    let sms_used = (profiles.len() as u64).min(nsms as u64).max(1);
    let outstanding =
        sms_used * resident_per_sm as u64 * warps_per_block as u64 * geom.mlp_per_warp;
    let total_dram: u64 = profiles.iter().map(|b| b.dram_sectors).sum();
    let total_atoms: u64 = profiles.iter().map(|b| b.dram_atoms).sum();
    let (dram_time, mlp_stalls) =
        hier::dram_time(total_dram, total_atoms, outstanding, cost.dram_sectors_per_cycle, geom);
    Makespan { cycles: device_time.max(l2_time).max(dram_time), mlp_stalls }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabricated 4-warp (128-thread) block: `resid_cycles` of latency,
    /// `issue` cycles with no L1-hit replays, and `sectors` compulsory
    /// sectors.
    fn block(resid_cycles: u64, issue: u64, sectors: u64) -> BlockProfile {
        BlockProfile {
            resid_cycles,
            issue,
            sectors,
            dram_sectors: sectors,
            threads: 128,
            ..Default::default()
        }
    }

    /// The L2 bank totals of `profiles` when each block's sectors are
    /// dealt round-robin over `banks` slices: the first `sectors % banks`
    /// slices get one more than the rest.
    fn spread(profiles: &[BlockProfile], banks: u32) -> Vec<u64> {
        let n = banks as u64;
        let mut totals = vec![0; n as usize];
        for p in profiles {
            for (b, t) in totals.iter_mut().enumerate() {
                *t += p.sectors / n + u64::from((b as u64) < p.sectors % n);
            }
        }
        totals
    }

    /// [`makespan`] with every block's sectors spread over `arch`'s banks.
    fn span(arch: &DeviceArch, c: &CostModel, p: &[BlockProfile], resident: u32) -> Makespan {
        makespan(arch, c, p, &spread(p, arch.cache.l2_banks), resident)
    }

    fn cycles(arch: &DeviceArch, c: &CostModel, p: &[BlockProfile], resident: u32) -> u64 {
        span(arch, c, p, resident).cycles
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let a = DeviceArch::a100(); // 2048 threads/SM
        assert_eq!(blocks_per_sm(&a, 1024, 0), 2);
        assert_eq!(blocks_per_sm(&a, 256, 0), 8);
        assert_eq!(blocks_per_sm(&a, 128, 0), 16);
        // Tiny blocks hit the block-count limit.
        assert_eq!(blocks_per_sm(&a, 32, 0), 32);
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let a = DeviceArch::a100(); // 164 KiB smem/SM
        assert_eq!(blocks_per_sm(&a, 128, 64 * 1024), 2);
        assert_eq!(blocks_per_sm(&a, 128, 200 * 1024), 0);
    }

    #[test]
    fn extra_warp_reduces_occupancy() {
        // A generic-mode block (threads + one extra warp) fits fewer copies
        // per SM than its SPMD twin at the boundary.
        let a = DeviceArch::a100();
        let spmd = blocks_per_sm(&a, 1024, 0);
        let generic = blocks_per_sm(&a, 1024 + 32, 0);
        assert!(generic < spmd);
    }

    #[test]
    fn single_block_latency_bound() {
        let a = DeviceArch::tiny();
        let c = CostModel::default();
        // One wave: max(latency 1000, issue 10/2 = 5, LSU 0) + min(5, 0)/4.
        let p = vec![block(1000, 10, 0)];
        assert_eq!(cycles(&a, &c, &p, 4), 1000);
    }

    #[test]
    fn many_blocks_fill_sms() {
        let a = DeviceArch::tiny(); // 4 SMs
        let c = CostModel::default();
        // 8 identical latency-bound blocks, residency 1: two 500-cycle
        // waves per SM.
        let p: Vec<_> = (0..8).map(|_| block(500, 10, 0)).collect();
        assert_eq!(cycles(&a, &c, &p, 1), 1000);
        // With residency 2 both blocks share one wave (latency hidden).
        assert_eq!(cycles(&a, &c, &p, 2), 500);
    }

    #[test]
    fn issue_throughput_roof_binds() {
        let a = DeviceArch::tiny();
        let c = CostModel::default(); // issue width 2
                                      // 4 blocks over 4 SMs (one each): each wave is issue-bound,
                                      // 10_000 / 2 = 5_000 cycles, not latency-bound.
        let p = vec![block(10, 10_000, 0); 4];
        assert_eq!(cycles(&a, &c, &p, 4), 10_000 / c.sm_issue_width);
        // 8 blocks, residency 4: two blocks per SM in one wave sum issue.
        let p8 = vec![block(10, 10_000, 0); 8];
        assert_eq!(cycles(&a, &c, &p8, 4), 2 * 10_000 / c.sm_issue_width);
    }

    #[test]
    fn l1_hit_replays_leave_the_issue_pipe() {
        let a = DeviceArch::tiny(); // LSU retires 2 full-line hits/cycle
        let c = CostModel::default(); // issue width 2, overlap 1/4
        let p = vec![BlockProfile {
            resid_cycles: 10,
            issue: 10_000,
            tx_cycles: 6_000,
            l1_full_hits: 1_000,
            ..block(10, 10_000, 0)
        }];
        // Issue net of replays: (10_000 − 6_000) / 2 = 2_000. LSU:
        // 1_000 / 2 = 500. Wave: 2_000 + min(2_000, 500) / 4 = 2_125.
        assert_eq!(cycles(&a, &c, &p, 1), 2_125);
    }

    #[test]
    fn ragged_issue_rounds_up() {
        let a = DeviceArch::tiny();
        let c = CostModel::default(); // issue width 2
                                      // The odd trailing instruction still occupies an issue cycle:
                                      // 10_001 instructions on a 2-wide SM take 5_001 cycles, not 5_000.
        let p = vec![block(1, 10_001, 0)];
        assert_eq!(cycles(&a, &c, &p, 1), 5_001);
    }

    #[test]
    fn ragged_l2_rounds_up() {
        let a = DeviceArch::tiny(); // 8 L2 banks × 2 sectors/cycle
                                    // Isolate the L2 roof from the per-SM memory pipes and DRAM.
        let c = CostModel { sm_sector_cycles: 0, ..Default::default() };
        let l2_only = |b: BlockProfile| BlockProfile { dram_sectors: 0, ..b };
        // 3 blocks × 101 sectors spread over 8 banks: 101 = 8 × 12 + 5, so
        // banks 0..5 carry 3 × 13 = 39 sectors — 20 cycles at 2 per
        // cycle, not 19.
        let p: Vec<_> = (0..3).map(|_| l2_only(block(1, 0, 101))).collect();
        assert_eq!(cycles(&a, &c, &p, 1), 39u64.div_ceil(2));
        assert_eq!(cycles(&a, &c, &p, 1), 20);
        // The same 303 sectors camped on bank 0 take 303 / 2 → 152
        // cycles: the slowest slice, not the aggregate 16 sectors/cycle,
        // is the roof.
        let mut camped = vec![0; a.cache.l2_banks as usize];
        camped[0] = 303;
        assert_eq!(makespan(&a, &c, &p, &camped, 1).cycles, 152);
    }

    #[test]
    fn ragged_dram_rounds_up() {
        let a = DeviceArch::a100(); // 108 SMs, 32 DRAM sectors/cycle peak
        let c = CostModel::default();
        // 108 four-warp blocks, residency 1: 108 × 1 × 4 × 32 = 13_824
        // outstanding sectors sustain 13_824 / 400 = 34 ≥ 32 per cycle, so
        // DRAM runs at peak. 108_000_108 compulsory sectors (no burst
        // atoms) take 108_000_108 / 32 → 3_375_004 cycles: the final
        // partial beat costs a full cycle. Per SM 1_000_001 × 2 =
        // 2_000_002, L2 108 × 25_001 / 2 = 1_350_054: DRAM binds.
        let p: Vec<_> = (0..108).map(|_| block(10, 0, 1_000_001)).collect();
        let span = span(&a, &c, &p, 1);
        assert_eq!(span.cycles, 108_000_108u64.div_ceil(32));
        assert_eq!(span, Makespan { cycles: 3_375_004, mlp_stalls: 0 });
    }

    #[test]
    fn dram_mlp_cap_binds_at_low_occupancy() {
        let a = DeviceArch::a100();
        let c = CostModel::default();
        // Single-warp blocks: 108 × 1 × 1 × 32 = 3_456 outstanding
        // sectors sustain only 3_456 / 400 = 8 per cycle, so the same
        // 108_000_108 sectors take 13_500_014 cycles; the 10_125_010
        // beyond the 3_375_004 peak-rate time are MLP stalls.
        let p: Vec<_> =
            (0..108).map(|_| BlockProfile { threads: 32, ..block(10, 0, 1_000_001) }).collect();
        assert_eq!(span(&a, &c, &p, 1), Makespan { cycles: 13_500_014, mlp_stalls: 10_125_010 });
    }

    #[test]
    fn dram_roof_binds() {
        let a = DeviceArch::a100();
        let c = CostModel::default();
        let p: Vec<_> = (0..108).map(|_| block(10, 10, 1_000_000)).collect();
        // Per SM: 1M sectors × 2 cycles + min(5, 2M) / 4 = 2_000_001.
        // DRAM at peak: 108M sectors / 32 = 3_375_000.
        assert_eq!(cycles(&a, &c, &p, 1), 3_375_000);
    }

    #[test]
    fn empty_launch_is_zero() {
        let a = DeviceArch::tiny();
        let c = CostModel::default();
        assert_eq!(makespan(&a, &c, &[], &[], 1), Makespan::default());
    }

    /// Run `f` on every block of a `num_blocks` launch on `pool` and
    /// return `(block, result)` sorted by block id, checking that no more
    /// than [`participants`] threads joined and that each saw its claims
    /// in increasing order.
    fn collect<R: Send>(
        pool: &mut BlockPool,
        num_blocks: u32,
        threads: usize,
        f: impl Fn(u32) -> R + Sync,
    ) -> Vec<(u32, R)> {
        use std::sync::atomic::AtomicUsize;
        let out = Mutex::new(Vec::new());
        let joined = AtomicUsize::new(0);
        pool.run_blocks(num_blocks, threads, |claims| {
            joined.fetch_add(1, Ordering::Relaxed);
            let mine: Vec<(u32, R)> = claims.map(|b| (b, f(b))).collect();
            assert!(mine.windows(2).all(|w| w[0].0 < w[1].0), "claims must increase");
            out.lock().unwrap().extend(mine);
        });
        assert!(joined.into_inner() <= participants(num_blocks, threads));
        let mut out = out.into_inner().unwrap();
        out.sort_by_key(|&(b, _)| b);
        out
    }

    /// Run `num_blocks` blocks on `pool`, checking that every block ran
    /// exactly once; returns the threads that ran them, in block order.
    fn launch_ids(
        pool: &mut BlockPool,
        num_blocks: u32,
        threads: usize,
    ) -> Vec<std::thread::ThreadId> {
        let out = collect(pool, num_blocks, threads, |b| (b * 10, std::thread::current().id()));
        assert_eq!(out.len(), num_blocks as usize, "threads={threads}");
        for (i, &(b, (v, _))) in out.iter().enumerate() {
            assert_eq!(b, i as u32);
            assert_eq!(v, b * 10);
        }
        out.into_iter().map(|(_, (_, id))| id).collect()
    }

    fn worker_ids(pool: &BlockPool) -> Vec<std::thread::ThreadId> {
        pool.workers
            .as_ref()
            .map_or_else(Vec::new, |w| w.handles.iter().map(|h| h.thread().id()).collect())
    }

    #[test]
    fn run_blocks_covers_every_block_in_order() {
        for threads in [1, 2, 4, 8] {
            launch_ids(&mut BlockPool::default(), 37, threads);
        }
    }

    #[test]
    fn pool_workers_stay_resident_across_launches() {
        let caller = std::thread::current().id();
        for threads in [2, 4, 8] {
            let mut pool = BlockPool::default();
            let mut workers = Vec::new();
            for launch in 0..50 {
                let ids = launch_ids(&mut pool, 37, threads);
                if launch == 0 {
                    workers = worker_ids(&pool);
                    assert_eq!(workers.len(), threads - 1);
                }
                // The same parked threads serve every launch: a respawned
                // worker would have a new id.
                assert_eq!(worker_ids(&pool), workers, "threads={threads} launch={launch}");
                assert!(ids.iter().all(|id| *id == caller || workers.contains(id)));
            }
        }
    }

    #[test]
    fn pool_is_created_lazily_and_rebuilt_on_a_new_count() {
        let mut pool = BlockPool::default();
        launch_ids(&mut pool, 16, 1);
        launch_ids(&mut pool, 1, 4);
        assert!(pool.workers.is_none(), "inline launches must not park workers");
        launch_ids(&mut pool, 16, 3);
        let three = worker_ids(&pool);
        assert_eq!(three.len(), 2);
        launch_ids(&mut pool, 16, 1);
        assert_eq!(worker_ids(&pool), three, "an inline launch keeps the pool");
        launch_ids(&mut pool, 16, 5);
        let five = worker_ids(&pool);
        assert_eq!(five.len(), 4);
        assert!(five.iter().all(|id| !three.contains(id)));
    }

    #[test]
    fn run_blocks_serial_path_stays_on_caller_thread() {
        let caller = std::thread::current().id();
        let mut pool = BlockPool::default();
        let out = collect(&mut pool, 4, 1, |b| {
            assert_eq!(std::thread::current().id(), caller);
            b
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn run_blocks_empty_grid() {
        let out = collect(&mut BlockPool::default(), 0, 8, |b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn run_blocks_propagates_panics() {
        let mut pool = BlockPool::default();
        let r = catch_unwind(AssertUnwindSafe(|| {
            collect(&mut pool, 8, 4, |b| {
                if b == 5 {
                    panic!("block 5 exploded");
                }
                b
            })
        }));
        let msg = r.expect_err("the panic must reach the caller");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"block 5 exploded"));
    }

    #[test]
    fn a_panic_is_raised_after_every_sibling_finishes_and_the_pool_survives() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        // The launching thread claims block 0 first, so `panicker = 0`
        // mostly panics on the caller and `panicker = 1` on a worker.
        for (threads, panicker) in [(2, 0), (2, 1), (4, 0), (4, 1)] {
            let mut pool = BlockPool::default();
            let started = AtomicBool::new(false);
            let finished = AtomicBool::new(false);
            let r = catch_unwind(AssertUnwindSafe(|| {
                collect(&mut pool, 2, threads, |b| {
                    if b != panicker {
                        // The slow sibling: mid-block when the other panics.
                        started.store(true, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(100));
                        finished.store(true, Ordering::SeqCst);
                    } else {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !started.load(Ordering::SeqCst) {
                            assert!(Instant::now() < deadline, "the sibling never started");
                            std::thread::yield_now();
                        }
                        panic!("block {b} exploded");
                    }
                })
            }));
            let case = format!("threads={threads} panicker={panicker}");
            assert!(r.is_err(), "{case}");
            assert!(finished.load(Ordering::SeqCst), "{case}: re-raised while a sibling still ran");
            let workers = worker_ids(&pool);
            launch_ids(&mut pool, 37, threads);
            assert_eq!(worker_ids(&pool), workers, "{case}: the pool must survive a panic");
        }
    }

    #[test]
    fn resolve_threads_override_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(None), host);
        // The default is cached: later calls agree, and an override still
        // wins after the cache is filled.
        assert_eq!(resolve_threads(None), resolve_threads(None));
        assert_eq!(resolve_threads(Some(5)), 5);
    }
}
