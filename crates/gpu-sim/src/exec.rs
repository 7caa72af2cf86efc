//! The SIMT execution engine: blocks, warps, lanes, lockstep cost merging.
//!
//! Execution is *orchestrated*: the OpenMP runtime (in `simt-omp-core`)
//! decides which lanes of which warp run which per-lane program, and this
//! engine executes the programs functionally while accounting cycles with
//! SIMT lockstep semantics:
//!
//! * all lanes given to one [`TeamCtx::run_lanes`] call execute *together*
//!   as one warp-synchronous super-step;
//! * issue cycles combine with **max** over lanes — a warp is busy for as
//!   long as its longest-running lane, and lanes that finished early (idle
//!   SIMD lanes, short rows…) still cost their warp the full time. This is
//!   the mechanism behind the paper's "wasted threads" observations (§6.3);
//! * the k-th memory access of every lane is assumed to be the same static
//!   instruction (true for the uniform loop bodies OpenMP `simd` allows), so
//!   the addresses are **coalesced** together into 32-byte sectors;
//! * atomic accesses to the same address within a super-step serialize.
//!
//! Warp-level barriers, block-level barriers and direct runtime charges
//! (state-machine posts, dispatch costs…) are explicit [`TeamCtx`] methods.

use crate::arch::DeviceArch;
use crate::cost::CostModel;
use crate::mem::global::{FallbackRange, GlobalMem, GlobalView};
use crate::mem::pod::DevValue;
use crate::mem::ptr::{DPtr, Slot};
use crate::mem::shared::{SharedMem, SmOff};
use crate::stats::{BlockProfile, RtCounters};

#[derive(Clone, Copy, Debug)]
struct Access {
    addr: u64,
    bytes: u32,
    atomic: bool,
    write: bool,
}

/// How a lane touched a shared-memory slot (feeds the bank-conflict model
/// and the sanitizer's race rules — atomics never race with each other).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SmemKind {
    Read,
    Write,
    Atomic,
}

/// Per-lane cost trace captured while a lane program runs.
#[derive(Default, Debug)]
struct LaneTrace {
    alu: u64,
    smem_ops: u64,
    /// Shared-memory slot indices with an access kind, in program order
    /// (for bank-conflict analysis across lockstep lanes and the
    /// sanitizer).
    smem_slots: Vec<(u32, SmemKind)>,
    accesses: Vec<Access>,
}

/// How an outlined-function dispatch reaches its target (§5.5): through the
/// module's if-cascade at a given position in the linear compare chain, or
/// through the costly indirect-call fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// Matched by the if-cascade after walking `position` compare levels
    /// (position 0 is the first compare in the chain).
    Cascade {
        /// Zero-based position of the matched entry among the module's
        /// cascade-known outlined functions.
        position: u32,
    },
    /// Not visible to the cascade — dispatched via function pointer.
    Indirect,
}

/// Side effects observed while running lanes with the sanitizer attached,
/// accumulated per [`TeamCtx`] and drained with [`TeamCtx::take_observed`].
/// The runtime interpreter diffs these against declared effect footprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObservedEffects {
    /// Any plain global-memory write happened.
    pub global_writes: bool,
    /// Any global-memory atomic RMW happened.
    pub global_atomics: bool,
}

impl LaneTrace {
    fn clear(&mut self) {
        self.alu = 0;
        self.smem_ops = 0;
        self.smem_slots.clear();
        self.accesses.clear();
    }
}

/// Where a [`Lane`]'s cost events go: the recording trace used by
/// [`TeamCtx::run_lanes`] (kept byte-for-byte as before), or the online
/// coalescing accumulator of the flat bytecode path, which computes the
/// same per-super-step aggregates without materializing per-lane access
/// lists.
enum LaneSink<'a> {
    Trace(&'a mut LaneTrace),
    Flat(&'a mut FlatAcc),
}

impl LaneSink<'_> {
    #[inline]
    fn alu(&mut self, cycles: u64) {
        match self {
            LaneSink::Trace(t) => t.alu += cycles,
            LaneSink::Flat(a) => a.lane_alu += cycles,
        }
    }

    #[inline]
    fn global(&mut self, addr: u64, bytes: u32, atomic: bool, write: bool) {
        match self {
            LaneSink::Trace(t) => t.accesses.push(Access { addr, bytes, atomic, write }),
            LaneSink::Flat(a) => a.global(addr, bytes, atomic),
        }
    }

    #[inline]
    fn smem(&mut self, slot: u32, kind: SmemKind) {
        match self {
            LaneSink::Trace(t) => {
                t.smem_ops += 1;
                t.smem_slots.push((slot, kind));
            }
            LaneSink::Flat(a) => a.smem(slot),
        }
    }
}

/// One global-memory ordinal of the flat accumulator: the k-th access of
/// every lane in the super-step, reduced to its unique-sector set plus the
/// atomic target addresses (kept with multiplicity for serialization).
#[derive(Default)]
struct OrdAcc {
    sectors: Vec<u64>,
    atomics: Vec<u64>,
    /// Sectors were pushed in ascending order (with adjacent duplicates
    /// skipped), so they are already sorted *and* deduplicated — the common
    /// case for coalesced loops, which skips the commit-time sort entirely.
    sorted: bool,
}

impl OrdAcc {
    #[inline]
    fn push_sector(&mut self, s: u64) {
        match self.sectors.last() {
            Some(&prev) if prev == s => {} // adjacent duplicate
            Some(&prev) => {
                if prev > s {
                    self.sorted = false;
                }
                self.sectors.push(s);
            }
            None => self.sectors.push(s),
        }
    }
}

/// Shared-memory bank-conflict accumulator for one ordinal (the k-th smem
/// access of every lane in a super-step), parameterized by the device's
/// bank count ([`crate::arch::DeviceArch::smem_banks`]). Distinct slots
/// landing in one bank serialize into wavefronts; same-slot accesses
/// broadcast. This is the **single** implementation of the conflict walk —
/// the trace path ([`TeamCtx::commit`]) and the flat path
/// ([`TeamCtx::run_lanes_flat`]) both fold through it, which is what keeps
/// their wavefront counts bit-identical by construction. (The old code
/// duplicated the walk in three places over hard-coded `[_; 32]` arrays,
/// folding wave64 archs into a 32-bank hash, and capped the per-bank depth
/// at 255 via a `u8` `saturating_add`.)
#[derive(Clone, Debug, Default)]
pub struct BankAcc {
    /// Last slot seen per bank (`u32::MAX` = none) — the broadcast filter.
    bank_slots: Vec<u32>,
    /// Serialized wavefronts per bank. `u32`: a deep conflict (every lane
    /// of a wide warp on one bank, ordinal after ordinal) must count
    /// fully, not saturate at 255.
    bank_waves: Vec<u32>,
    worst: u32,
}

impl BankAcc {
    /// Accumulator over `banks` independent banks.
    pub fn new(banks: u32) -> BankAcc {
        assert!(banks >= 1, "a device needs at least one shared-memory bank");
        BankAcc {
            bank_slots: vec![u32::MAX; banks as usize],
            bank_waves: vec![0; banks as usize],
            worst: 0,
        }
    }

    /// Reset for the next ordinal, keeping the bank count.
    pub fn clear(&mut self) {
        self.bank_slots.fill(u32::MAX);
        self.bank_waves.fill(0);
        self.worst = 0;
    }

    /// Fold in one lane's access to an 8-byte slot.
    #[inline]
    pub fn visit(&mut self, slot: u32) {
        let b = (slot as usize) % self.bank_slots.len();
        if self.bank_slots[b] != slot {
            // New distinct slot in this bank: one more wavefront
            // (approximate: tracks the last slot seen per bank).
            self.bank_slots[b] = slot;
            self.bank_waves[b] += 1;
            self.worst = self.worst.max(self.bank_waves[b]);
        }
    }

    /// Wavefronts the deepest bank serializes into (0 if nothing visited).
    pub fn worst(&self) -> u32 {
        self.worst
    }
}

/// Super-step accumulator for [`TeamCtx::run_lanes_flat`]: per-ordinal
/// coalescing state plus running per-lane cursors, producing exactly the
/// aggregates [`TeamCtx::commit`] derives from the recorded traces.
#[derive(Default)]
struct FlatAcc {
    ords: Vec<OrdAcc>,
    smem_ords: Vec<BankAcc>,
    max_alu: u64,
    max_smem_ops: u64,
    max_ord: usize,
    max_smem_ord: usize,
    lane_alu: u64,
    lane_smem_ops: u64,
    lane_ord: usize,
    lane_smem_ord: usize,
    /// `log2(sector_bytes)` — the flat path requires a power-of-two sector.
    sector_shift: u32,
    /// Shared-memory bank count new ordinal accumulators are sized to
    /// ([`crate::arch::DeviceArch::smem_banks`]).
    smem_banks: u32,
}

impl FlatAcc {
    /// Prepare for a new super-step: clear the ordinals the previous step
    /// used (untouched entries are already clear) and reset the maxima.
    fn reset(&mut self, sector_shift: u32, smem_banks: u32) {
        for o in &mut self.ords[..self.max_ord] {
            o.sectors.clear();
            o.atomics.clear();
            o.sorted = true;
        }
        for s in &mut self.smem_ords[..self.max_smem_ord] {
            s.clear();
        }
        self.max_alu = 0;
        self.max_smem_ops = 0;
        self.max_ord = 0;
        self.max_smem_ord = 0;
        self.sector_shift = sector_shift;
        self.smem_banks = smem_banks;
    }

    fn begin_lane(&mut self) {
        self.lane_alu = 0;
        self.lane_smem_ops = 0;
        self.lane_ord = 0;
        self.lane_smem_ord = 0;
    }

    fn end_lane(&mut self) {
        self.max_alu = self.max_alu.max(self.lane_alu);
        self.max_smem_ops = self.max_smem_ops.max(self.lane_smem_ops);
        self.max_ord = self.max_ord.max(self.lane_ord);
        self.max_smem_ord = self.max_smem_ord.max(self.lane_smem_ord);
    }

    #[inline]
    fn global(&mut self, addr: u64, bytes: u32, atomic: bool) {
        let k = self.lane_ord;
        self.lane_ord += 1;
        if k >= self.ords.len() {
            self.ords.push(OrdAcc { sectors: Vec::new(), atomics: Vec::new(), sorted: true });
        }
        let o = &mut self.ords[k];
        let first = addr >> self.sector_shift;
        let last = (addr + bytes as u64 - 1) >> self.sector_shift;
        if first == last {
            // Fast path: the access fits one sector (every aligned element
            // up to sector size does).
            o.push_sector(first);
        } else {
            for s in first..=last {
                o.push_sector(s);
            }
        }
        if atomic {
            o.atomics.push(addr);
        }
    }

    #[inline]
    fn smem(&mut self, slot: u32) {
        self.lane_smem_ops += 1;
        let k = self.lane_smem_ord;
        self.lane_smem_ord += 1;
        if k >= self.smem_ords.len() {
            self.smem_ords.push(BankAcc::new(self.smem_banks));
        }
        self.smem_ords[k].visit(slot);
    }
}

/// Per-warp accounting state, including the warp's L1 window: a
/// direct-mapped map of recently touched sectors. Re-touching a cached
/// sector costs [`CostModel::l1_hit_cycles`] instead of a DRAM sector —
/// this is what lets a thread streaming through its own block of memory
/// (e.g. the serial inner loops of the two-level baselines) avoid paying
/// full DRAM cost for every element of a 32-byte sector.
#[derive(Clone, Debug, Default)]
struct WarpState {
    clock: u64,
    issue: u64,
    sectors: u64,
    dram_sectors: u64,
    smem_ops: u64,
    l1_hits: u64,
    /// L1-hit replay cycles included in `issue` and `clock` that the
    /// hierarchical makespan retires through the LSU pipe instead of the
    /// issue pipe: the whole `line_cycles` charge for a full-line hit
    /// (temporal reuse), all but one `sector_cycles` beat for a
    /// partial-line hit (the sector comes off the in-flight fill).
    /// Misses keep their replay cycles on the warp — they allocate MSHRs
    /// and serialize either way.
    tx: u64,
    /// Full-line L1 hits (subset of `l1_hits`): tag hits on a way whose
    /// entire sector mask is populated.
    full_hits: u64,
    /// Deduplicated sectors touched per ordinal, L1 hits included (LSU
    /// pipe occupancy).
    lsu_sectors: u64,
    /// 4-way set-associative tag store: `l1[set*4..set*4+4]`.
    l1: Vec<u64>,
    /// LRU ages parallel to `l1`.
    l1_age: Vec<u8>,
    /// Per-way sector-validity bitmasks (sectored cache: a line tag can be
    /// present with only some of its sectors fetched).
    l1_mask: Vec<u8>,
}

/// Program-order log of the block's line visits, kept for the launch's
/// deterministic first-touch replay (see `Device::launch`).
///
/// Which *visit* claims a sector's compulsory DRAM fill depends on how
/// blocks interleave, and the 64-byte burst-atom charge is a nonlinear
/// function of that per-visit grouping — so it cannot be computed online
/// without becoming thread-count dependent. Instead every block records
/// `(line, sector-bits first requested by this block in this visit)` in
/// its own execution order; the launch replays the logs in block-index
/// order against one sequential touched-set, which reproduces the
/// `SIMT_SIM_THREADS=1` attribution exactly at any thread count.
///
/// Entries are packed `line << 8 | mask`; the per-block `seen` prefilter
/// keeps the log bounded by the block's distinct (line, sector) footprint.
#[derive(Default)]
pub(crate) struct VisitLog {
    seen: std::collections::HashMap<u64, u8>,
    log: Vec<u64>,
}

impl VisitLog {
    #[inline]
    fn record(&mut self, line: u64, smask: u8) {
        let seen = self.seen.entry(line).or_insert(0);
        let new = smask & !*seen;
        if new != 0 {
            *seen |= new;
            self.log.push((line << 8) | new as u64);
        }
    }

    /// Packed `(line << 8 | mask)` entries in block execution order.
    pub(crate) fn entries(&self) -> &[u64] {
        &self.log
    }
}

/// Execution context handed to a per-lane program: typed access to global
/// and shared memory, with every operation recorded for cost accounting.
pub struct Lane<'a, 'g> {
    global: &'a mut GlobalView<'g>,
    smem: &'a mut SharedMem,
    sink: LaneSink<'a>,
}

impl<'a, 'g> Lane<'a, 'g> {
    /// Charge `cycles` of ALU work.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        self.sink.alu(cycles);
    }

    /// Load element `idx` relative to `p` from global memory.
    #[inline]
    pub fn read<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> T {
        let (addr, v) = self.global.read_at(p, idx);
        self.sink.global(addr, std::mem::size_of::<T>() as u32, false, false);
        v
    }

    /// Store to element `idx` relative to `p` in global memory.
    #[inline]
    pub fn write<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) {
        let addr = self.global.write_at(p, idx, v);
        self.sink.global(addr, std::mem::size_of::<T>() as u32, false, true);
    }

    /// Atomic `fetch_add` on an `f64` in global memory; returns the old
    /// value. Same-address conflicts within a super-step serialize for cost;
    /// the update itself is genuinely atomic across concurrent blocks.
    #[inline]
    pub fn atomic_add_f64(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> f64 {
        let (addr, old) = self.global.atomic_add_f64_at(p, idx, v);
        self.sink.global(addr, 8, true, true);
        old
    }

    /// Atomic `fetch_add` on a `u64` in global memory; returns the old value.
    #[inline]
    pub fn atomic_add_u64(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> u64 {
        let (addr, old) = self.global.atomic_add_u64_at(p, idx, v);
        self.sink.global(addr, 8, true, true);
        old
    }

    /// Read an 8-byte slot from shared memory.
    #[inline]
    pub fn smem_read_slot(&mut self, off: SmOff, idx: u32) -> Slot {
        self.sink.smem(off.0 + idx, SmemKind::Read);
        self.smem.read_slot(off, idx)
    }

    /// Write an 8-byte slot to shared memory.
    #[inline]
    pub fn smem_write_slot(&mut self, off: SmOff, idx: u32, v: Slot) {
        self.sink.smem(off.0 + idx, SmemKind::Write);
        self.smem.write_slot(off, idx, v);
    }

    /// Read a shared-memory slot as `f64`.
    #[inline]
    pub fn smem_read_f64(&mut self, off: SmOff, idx: u32) -> f64 {
        self.sink.smem(off.0 + idx, SmemKind::Read);
        self.smem.read_f64(off, idx)
    }

    /// Write a shared-memory slot as `f64`.
    #[inline]
    pub fn smem_write_f64(&mut self, off: SmOff, idx: u32, v: f64) {
        self.sink.smem(off.0 + idx, SmemKind::Write);
        self.smem.write_f64(off, idx, v);
    }

    /// Atomic `fetch_add` on a shared-memory slot holding an `f64`; returns
    /// the old value. Atomics to the same slot never race with each other,
    /// but an atomic unsynchronized with a *plain* access to the same slot
    /// is a protocol violation (simtcheck's atomic/plain rule).
    #[inline]
    pub fn smem_atomic_add_f64(&mut self, off: SmOff, idx: u32, v: f64) -> f64 {
        self.sink.smem(off.0 + idx, SmemKind::Atomic);
        let old = self.smem.read_f64(off, idx);
        self.smem.write_f64(off, idx, old + v);
        old
    }
}

/// The per-block execution context: warps, shared memory, a mutable view of
/// global memory, cost model and counters.
///
/// Created by [`crate::launch::Device::launch`] for each block, passed to
/// the kernel entry function.
pub struct TeamCtx<'g> {
    /// Id of this block within the launch grid.
    pub block_id: u32,
    /// Total blocks in the launch grid.
    pub num_blocks: u32,
    nwarps: u32,
    /// This block's shared memory.
    pub smem: SharedMem,
    gview: GlobalView<'g>,
    cost: &'g CostModel,
    arch: &'g DeviceArch,
    warps: Vec<WarpState>,
    /// Runtime-behavior counters for this block.
    pub counters: RtCounters,
    trace_pool: Vec<LaneTrace>,
    scratch_sectors: Vec<u64>,
    scratch_atomic: Vec<u64>,
    /// Per-block L1-missing sectors per L2 bank slice (length =
    /// `arch.cache.l2_banks`), folded by both commit paths.
    l2_bank_sectors: Vec<u64>,
    /// Line-visit log for the launch's deterministic first-touch replay.
    visits: VisitLog,
    flat_acc: FlatAcc,
    /// Reusable bank-conflict accumulator for the trace commit path, sized
    /// to `arch.smem_banks` once at construction.
    smem_bank_acc: BankAcc,
    event_trace: Option<crate::trace::Trace>,
    sanitizer: Option<Box<crate::sanitize::Sanitizer>>,
    observed: ObservedEffects,
}

impl<'g> TeamCtx<'g> {
    /// Create a block context. `nwarps` is the number of warps in the block
    /// (including any extra runtime warp the caller decided to reserve).
    pub fn new(
        block_id: u32,
        num_blocks: u32,
        nwarps: u32,
        smem_bytes: u32,
        global: &'g GlobalMem,
        cost: &'g CostModel,
        arch: &'g DeviceArch,
    ) -> TeamCtx<'g> {
        assert!(nwarps >= 1, "a block needs at least one warp");
        TeamCtx {
            block_id,
            num_blocks,
            nwarps,
            smem: SharedMem::new(smem_bytes),
            gview: global.view(block_id),
            cost,
            arch,
            warps: vec![WarpState::default(); nwarps as usize],
            counters: RtCounters::default(),
            trace_pool: Vec::new(),
            scratch_sectors: Vec::new(),
            scratch_atomic: Vec::new(),
            l2_bank_sectors: vec![0; arch.cache.l2_banks as usize],
            visits: VisitLog::default(),
            flat_acc: FlatAcc::default(),
            smem_bank_acc: BankAcc::new(arch.smem_banks),
            event_trace: None,
            sanitizer: None,
            observed: ObservedEffects::default(),
        }
    }

    /// Attach an event trace (taken over from the device during a traced
    /// launch).
    pub fn attach_trace(&mut self, t: crate::trace::Trace) {
        self.event_trace = Some(t);
    }

    /// Detach the event trace again.
    pub fn detach_trace(&mut self) -> crate::trace::Trace {
        self.event_trace.take().unwrap_or_default()
    }

    /// Attach a simtcheck sanitizer for this block (see
    /// [`crate::sanitize`]). All synchronization events and shared-memory
    /// accesses from here on are validated.
    pub fn attach_sanitizer(&mut self, s: Box<crate::sanitize::Sanitizer>) {
        self.sanitizer = Some(s);
    }

    /// Detach the sanitizer again (e.g. to collect its findings).
    pub fn detach_sanitizer(&mut self) -> Option<Box<crate::sanitize::Sanitizer>> {
        self.sanitizer.take()
    }

    /// Whether a sanitizer is attached (used by the runtime to decide if
    /// protocol metadata is worth emitting).
    pub fn sanitizing(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Drain the side effects observed since the last call (only tracked
    /// while a sanitizer is attached). The runtime interpreter brackets
    /// footprint-declared outlined calls with this to validate the
    /// declaration against what actually happened.
    pub fn take_observed(&mut self) -> ObservedEffects {
        std::mem::take(&mut self.observed)
    }

    /// Report an externally-detected violation (e.g. a footprint mismatch
    /// found by the runtime interpreter) through the attached sanitizer.
    /// No-op when not sanitizing.
    pub fn report_violation(&mut self, v: crate::sanitize::Violation) {
        if let Some(s) = &mut self.sanitizer {
            s.report_external(v);
        }
    }

    /// Number of warps in this block.
    pub fn nwarps(&self) -> u32 {
        self.nwarps
    }

    /// Lanes per warp on this device.
    pub fn warp_size(&self) -> u32 {
        self.arch.warp_size
    }

    /// Device architecture descriptor.
    pub fn arch(&self) -> &DeviceArch {
        self.arch
    }

    /// Cost model in effect.
    pub fn cost(&self) -> &CostModel {
        self.cost
    }

    /// This block's view of global memory (runtime-internal allocations,
    /// e.g. the sharing-space global fallback, go through it and land in
    /// the block's deterministic arena).
    pub fn global(&mut self) -> &mut GlobalView<'g> {
        &mut self.gview
    }

    /// Shared access to global memory.
    pub fn global_ref(&self) -> &GlobalMem {
        self.gview.mem()
    }

    /// Fallback allocations this block performed, for the launch merge
    /// step's cross-team race analysis.
    pub fn fallback_ranges(&self) -> Vec<FallbackRange> {
        self.gview.fallback_ranges().to_vec()
    }

    /// Current clock of a warp, cycles.
    pub fn warp_clock(&self, warp: u32) -> u64 {
        self.warps[warp as usize].clock
    }

    /// Run a per-lane program on `lanes` of `warp` as one lockstep
    /// super-step: `f` is invoked once per lane (in ascending lane order for
    /// determinism); issue combines with max over lanes, the k-th accesses
    /// of all lanes coalesce together.
    pub fn run_lanes<F>(&mut self, warp: u32, lanes: &[u32], mut f: F)
    where
        F: FnMut(&mut Lane<'_, '_>, u32),
    {
        assert!(warp < self.nwarps, "warp {warp} out of range");
        if lanes.is_empty() {
            return;
        }
        while self.trace_pool.len() < lanes.len() {
            self.trace_pool.push(LaneTrace::default());
        }
        for (i, &lane_id) in lanes.iter().enumerate() {
            debug_assert!(lane_id < self.arch.warp_size);
            let trace = &mut self.trace_pool[i];
            trace.clear();
            let mut lane = Lane {
                global: &mut self.gview,
                smem: &mut self.smem,
                sink: LaneSink::Trace(trace),
            };
            f(&mut lane, lane_id);
        }
        if let Some(mut san) = self.sanitizer.take() {
            for (i, &lane_id) in lanes.iter().enumerate() {
                let tid = warp * self.arch.warp_size + lane_id;
                for &(slot, kind) in &self.trace_pool[i].smem_slots {
                    match kind {
                        SmemKind::Read => san.record_smem(tid, slot, false),
                        SmemKind::Write => san.record_smem(tid, slot, true),
                        SmemKind::Atomic => san.record_smem_atomic(tid, slot),
                    }
                }
                for a in &self.trace_pool[i].accesses {
                    if a.atomic {
                        self.observed.global_atomics = true;
                    } else if a.write {
                        self.observed.global_writes = true;
                    }
                    san.record_global_access(tid, a.addr, a.write);
                }
            }
            self.sanitizer = Some(san);
        }
        self.commit(warp, lanes.len());
    }

    /// [`run_lanes`] for the flat bytecode executor: identical lockstep cost
    /// semantics, but coalescing aggregates are folded online into a
    /// per-ordinal accumulator instead of materializing per-lane access
    /// lists, skipping the trace/commit machinery entirely.
    ///
    /// Delegates to [`run_lanes`] whenever exact trace capture is needed —
    /// sanitizer attached, event trace active, or a cost model whose sector
    /// size is not a power of two — so the fast path never has to replicate
    /// those observers.
    ///
    /// [`run_lanes`]: TeamCtx::run_lanes
    pub fn run_lanes_flat<F>(&mut self, warp: u32, lanes: &[u32], mut f: F)
    where
        F: FnMut(&mut Lane<'_, '_>, u32),
    {
        if self.sanitizer.is_some()
            || self.event_trace.is_some()
            || !self.cost.sector_bytes.is_power_of_two()
        {
            return self.run_lanes(warp, lanes, f);
        }
        assert!(warp < self.nwarps, "warp {warp} out of range");
        if lanes.is_empty() {
            return;
        }
        let shift = self.cost.sector_bytes.trailing_zeros();
        self.flat_acc.reset(shift, self.arch.smem_banks);
        for &lane_id in lanes {
            debug_assert!(lane_id < self.arch.warp_size);
            self.flat_acc.begin_lane();
            let mut lane = Lane {
                global: &mut self.gview,
                smem: &mut self.smem,
                sink: LaneSink::Flat(&mut self.flat_acc),
            };
            f(&mut lane, lane_id);
            self.flat_acc.end_lane();
        }
        self.commit_flat(warp);
    }

    /// Merge the first `n` traces of the pool into `warp`'s accounting.
    fn commit(&mut self, warp: u32, n: usize) {
        let cost = self.cost;
        let mut scratch_sectors = std::mem::take(&mut self.scratch_sectors);
        let mut scratch_atomic = std::mem::take(&mut self.scratch_atomic);
        let traces = &self.trace_pool[..n];

        let max_alu = traces.iter().map(|t| t.alu).max().unwrap_or(0);
        let max_smem = traces.iter().map(|t| t.smem_ops).max().unwrap_or(0);
        let max_ord = traces.iter().map(|t| t.accesses.len()).max().unwrap_or(0);

        // Shared memory: the k-th smem access of all lanes is one
        // instruction; distinct slots landing in the same bank (of the
        // arch's `smem_banks`) serialize into wavefronts, same-slot
        // accesses broadcast — the [`BankAcc`] walk, shared with the flat
        // path.
        let max_smem_ord = traces.iter().map(|t| t.smem_slots.len()).max().unwrap_or(0);
        let mut bank_acc = std::mem::take(&mut self.smem_bank_acc);
        let mut smem_wavefronts = 0u64;
        for k in 0..max_smem_ord {
            bank_acc.clear();
            for t in traces {
                let Some(&(slot, _)) = t.smem_slots.get(k) else { continue };
                bank_acc.visit(slot);
            }
            smem_wavefronts += bank_acc.worst().max(1) as u64;
        }
        self.smem_bank_acc = bank_acc;

        let mut clock_add = max_alu + smem_wavefronts * cost.smem_cycles;
        let mut issue_add = clock_add;
        let mut sectors_add = 0u64;
        let mut hits_add = 0u64;
        let mut dram_add = 0u64;
        let mut lines_add = 0u64;
        let mut tx_add = 0u64;
        let mut full_hits_add = 0u64;
        let mut lsu_add = 0u64;
        // Lazily initialize this warp's L1 window (4-way set associative,
        // line-granular tags).
        if self.warps[warp as usize].l1.is_empty() && cost.l1_lines >= 4 {
            self.warps[warp as usize].l1 = vec![u64::MAX; cost.l1_lines as usize];
            self.warps[warp as usize].l1_age = vec![0; cost.l1_lines as usize];
            self.warps[warp as usize].l1_mask = vec![0; cost.l1_lines as usize];
        }
        let mut l1 = std::mem::take(&mut self.warps[warp as usize].l1);
        let mut l1_age = std::mem::take(&mut self.warps[warp as usize].l1_age);
        let mut l1_mask = std::mem::take(&mut self.warps[warp as usize].l1_mask);
        let mut banks = std::mem::take(&mut self.l2_bank_sectors);
        let mut visits = std::mem::take(&mut self.visits);
        let nsets = l1.len() / 4;

        let spl = (cost.line_bytes / cost.sector_bytes).max(1) as u64;
        for k in 0..max_ord {
            scratch_sectors.clear();
            scratch_atomic.clear();
            let mut any = false;
            for t in traces {
                let Some(a) = t.accesses.get(k) else { continue };
                any = true;
                let sb = cost.sector_bytes as u64;
                let first = a.addr / sb;
                let last = (a.addr + a.bytes as u64 - 1) / sb;
                for s in first..=last {
                    scratch_sectors.push(s);
                }
                if a.atomic {
                    scratch_atomic.push(a.addr);
                }
            }
            if !any {
                continue;
            }
            scratch_sectors.sort_unstable();
            scratch_sectors.dedup();
            let (lines, sectors, hits, full) = line_walk(
                &scratch_sectors,
                spl,
                nsets,
                &mut l1,
                &mut l1_age,
                &mut l1_mask,
                &self.gview,
                &mut dram_add,
                &mut visits,
                &mut banks,
            );
            let misses = sectors;
            let tx = lines * cost.line_cycles + sectors * cost.sector_cycles;
            let c = tx + atomic_serialize_cycles(&mut scratch_atomic, cost);
            issue_add += c;
            clock_add += c + if misses > 0 { cost.exposed_latency } else { 0 };
            sectors_add += sectors;
            hits_add += hits;
            lines_add += lines;
            tx_add += hit_replay_offload(hits, full, cost);
            full_hits_add += full;
            lsu_add += scratch_sectors.len() as u64;
        }

        self.scratch_sectors = scratch_sectors;
        self.scratch_atomic = scratch_atomic;
        self.l2_bank_sectors = banks;
        self.visits = visits;
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::SuperStep {
                block: self.block_id,
                warp,
                lanes: n as u32,
                issue: issue_add,
                lines: lines_add,
            });
        }
        let w = &mut self.warps[warp as usize];
        w.l1 = l1;
        w.l1_age = l1_age;
        w.l1_mask = l1_mask;
        w.clock += clock_add;
        w.issue += issue_add;
        w.sectors += sectors_add;
        w.dram_sectors += dram_add;
        w.smem_ops += max_smem;
        w.l1_hits += hits_add;
        w.tx += tx_add;
        w.full_hits += full_hits_add;
        w.lsu_sectors += lsu_add;
        let _ = max_smem;
    }

    /// [`commit`]-equivalent for the flat accumulator: derives the exact
    /// same per-super-step charges from [`FlatAcc`]'s pre-coalesced state.
    /// No event-trace branch — [`run_lanes_flat`] delegates to the trace
    /// path whenever a trace or sanitizer is attached.
    ///
    /// [`commit`]: TeamCtx::commit
    /// [`run_lanes_flat`]: TeamCtx::run_lanes_flat
    fn commit_flat(&mut self, warp: u32) {
        let cost = self.cost;
        let mut acc = std::mem::take(&mut self.flat_acc);

        let mut smem_wavefronts = 0u64;
        for s in &acc.smem_ords[..acc.max_smem_ord] {
            smem_wavefronts += s.worst().max(1) as u64;
        }

        let mut clock_add = acc.max_alu + smem_wavefronts * cost.smem_cycles;
        let mut issue_add = clock_add;
        let mut sectors_add = 0u64;
        let mut hits_add = 0u64;
        let mut dram_add = 0u64;
        let mut tx_add = 0u64;
        let mut full_hits_add = 0u64;
        let mut lsu_add = 0u64;
        if self.warps[warp as usize].l1.is_empty() && cost.l1_lines >= 4 {
            self.warps[warp as usize].l1 = vec![u64::MAX; cost.l1_lines as usize];
            self.warps[warp as usize].l1_age = vec![0; cost.l1_lines as usize];
            self.warps[warp as usize].l1_mask = vec![0; cost.l1_lines as usize];
        }
        let mut l1 = std::mem::take(&mut self.warps[warp as usize].l1);
        let mut l1_age = std::mem::take(&mut self.warps[warp as usize].l1_age);
        let mut l1_mask = std::mem::take(&mut self.warps[warp as usize].l1_mask);
        let mut banks = std::mem::take(&mut self.l2_bank_sectors);
        let mut visits = std::mem::take(&mut self.visits);
        let nsets = l1.len() / 4;
        let spl = (cost.line_bytes / cost.sector_bytes).max(1) as u64;

        for o in &mut acc.ords[..acc.max_ord] {
            if o.sectors.is_empty() && o.atomics.is_empty() {
                continue;
            }
            if !o.sorted {
                o.sectors.sort_unstable();
                o.sectors.dedup();
            }
            let (lines, sectors, hits, full) = line_walk(
                &o.sectors,
                spl,
                nsets,
                &mut l1,
                &mut l1_age,
                &mut l1_mask,
                &self.gview,
                &mut dram_add,
                &mut visits,
                &mut banks,
            );
            let misses = sectors;
            let tx = lines * cost.line_cycles + sectors * cost.sector_cycles;
            let c = tx + atomic_serialize_cycles(&mut o.atomics, cost);
            issue_add += c;
            clock_add += c + if misses > 0 { cost.exposed_latency } else { 0 };
            sectors_add += sectors;
            hits_add += hits;
            tx_add += hit_replay_offload(hits, full, cost);
            full_hits_add += full;
            lsu_add += o.sectors.len() as u64;
        }

        let w = &mut self.warps[warp as usize];
        w.l1 = l1;
        w.l1_age = l1_age;
        w.l1_mask = l1_mask;
        w.clock += clock_add;
        w.issue += issue_add;
        w.sectors += sectors_add;
        w.dram_sectors += dram_add;
        w.smem_ops += acc.max_smem_ops;
        w.l1_hits += hits_add;
        w.tx += tx_add;
        w.full_hits += full_hits_add;
        w.lsu_sectors += lsu_add;
        self.l2_bank_sectors = banks;
        self.visits = visits;
        self.flat_acc = acc;
    }

    /// Charge plain ALU cycles to a warp (runtime-internal work).
    pub fn charge_alu(&mut self, warp: u32, cycles: u64) {
        let w = &mut self.warps[warp as usize];
        w.clock += cycles;
        w.issue += cycles;
    }

    /// Charge `n` shared-memory operations to a warp (state posts, argument
    /// staging in the sharing space…).
    pub fn charge_smem_ops(&mut self, warp: u32, n: u64) {
        let c = n * self.cost.smem_cycles;
        let w = &mut self.warps[warp as usize];
        w.clock += c;
        w.issue += c;
        w.smem_ops += n;
    }

    /// Warp-level barrier over all lanes of `warp`. Lanes of a warp share
    /// one clock, so this charges the fixed synchronization cost.
    pub fn warp_sync(&mut self, warp: u32) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::WarpSync { block: self.block_id, warp });
        }
        if let Some(s) = &mut self.sanitizer {
            s.on_warp_sync(warp);
        }
        self.counters.warp_syncs += 1;
        let c = self.cost.warp_sync_cycles;
        let w = &mut self.warps[warp as usize];
        w.clock += c;
        w.issue += c;
    }

    /// Masked warp-level barrier (`synchronizeWarp(simdmask())`, §5.1):
    /// `required` is the mask the barrier waits for, `arrived` the lanes
    /// the caller can prove reached it. Costs the same as [`warp_sync`];
    /// the distinction feeds the sanitizer, which reports divergence when
    /// `arrived` misses required lanes and only advances the participants'
    /// synchronization epochs.
    ///
    /// [`warp_sync`]: TeamCtx::warp_sync
    pub fn warp_sync_masked(
        &mut self,
        warp: u32,
        required: crate::mask::LaneMask,
        arrived: crate::mask::LaneMask,
    ) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::WarpSync { block: self.block_id, warp });
        }
        if let Some(s) = &mut self.sanitizer {
            s.on_warp_sync_masked(warp, required, arrived);
        }
        self.counters.warp_syncs += 1;
        let c = self.cost.warp_sync_cycles;
        let w = &mut self.warps[warp as usize];
        w.clock += c;
        w.issue += c;
    }

    /// Announce that `warp` reaches the next [`block_barrier`]. Purely
    /// sanitizer metadata (no cost): if at least one warp announces, the
    /// sanitizer requires all of them to.
    ///
    /// [`block_barrier`]: TeamCtx::block_barrier
    pub fn barrier_arrive(&mut self, warp: u32) {
        if let Some(s) = &mut self.sanitizer {
            s.barrier_arrive(warp);
        }
    }

    /// Declare the sharing-space layout of the current parallel region to
    /// the sanitizer (no cost, no-op when not sanitizing).
    pub fn declare_sharing(&mut self, layout: crate::sanitize::SharingLayout) {
        if let Some(s) = &mut self.sanitizer {
            s.declare_sharing(layout);
        }
    }

    /// Block-level barrier over all warps of the team: clocks join at the
    /// maximum, plus the barrier cost.
    pub fn block_barrier(&mut self) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::BlockBarrier { block: self.block_id });
        }
        if let Some(s) = &mut self.sanitizer {
            s.on_block_barrier();
        }
        self.counters.block_barriers += 1;
        let m = self.warps.iter().map(|w| w.clock).max().unwrap_or(0);
        let c = self.cost.block_barrier_cycles;
        for w in &mut self.warps {
            w.clock = m + c;
            w.issue += c;
        }
    }

    /// Charge the dispatch of an outlined function: through the if-cascade
    /// of known regions, or the indirect-call fallback (§5.5).
    ///
    /// The cascade is a linear compare+branch chain, so a known region pays
    /// for every level walked before its match:
    /// `cascade_dispatch_cycles + position × cascade_level_cycles`. Deep
    /// enough in a large registry this overtakes the flat
    /// `indirect_call_cycles` — the trade-off the §5.5 heuristic accepts.
    pub fn charge_dispatch(&mut self, warp: u32, kind: DispatchKind) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::Dispatch {
                block: self.block_id,
                warp,
                cascade: matches!(kind, DispatchKind::Cascade { .. }),
            });
        }
        let c = match kind {
            DispatchKind::Cascade { position } => {
                self.counters.cascade_dispatches += 1;
                self.cost.cascade_dispatch_cycles + position as u64 * self.cost.cascade_level_cycles
            }
            DispatchKind::Indirect => {
                self.counters.indirect_calls += 1;
                self.cost.indirect_call_cycles
            }
        };
        self.charge_alu(warp, c);
    }

    /// Charge a global-memory fallback allocation for the sharing space
    /// (§5.3.1) and count it.
    pub fn charge_global_alloc(&mut self, warp: u32) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::GlobalAlloc { block: self.block_id, warp });
        }
        if let Some(s) = &mut self.sanitizer {
            s.on_fallback_alloc();
        }
        self.counters.sharing_global_fallbacks += 1;
        let c = self.cost.global_alloc_cycles;
        self.charge_alu(warp, c);
    }

    /// Free a sharing-space global fallback allocation (the paper frees
    /// them at the end of every parallel region, §5.3.1). The sanitizer
    /// balances these against [`charge_global_alloc`] to find leaks.
    ///
    /// [`charge_global_alloc`]: TeamCtx::charge_global_alloc
    pub fn free_shared_fallback<T: DevValue>(&mut self, p: DPtr<T>) {
        if let Some(s) = &mut self.sanitizer {
            s.on_fallback_free();
        }
        self.gview.free(p);
    }

    /// Allocate a zero-initialized sharing-space fallback segment in this
    /// block's global-memory arena, charging [`charge_global_alloc`] and
    /// registering the range for the cross-team race analysis. Pair with
    /// [`free_shared_fallback`] at the end of the parallel region.
    ///
    /// [`charge_global_alloc`]: TeamCtx::charge_global_alloc
    /// [`free_shared_fallback`]: TeamCtx::free_shared_fallback
    pub fn alloc_shared_fallback<T: DevValue + Default>(&mut self, warp: u32, n: usize) -> DPtr<T> {
        self.charge_global_alloc(warp);
        self.gview.alloc_zeroed(n)
    }

    /// Take the block's line-visit log for the launch's deterministic
    /// first-touch replay (leaves an empty log behind).
    pub(crate) fn take_visits(&mut self) -> VisitLog {
        std::mem::take(&mut self.visits)
    }

    /// Finish the block: produce its resource profile. `threads` and
    /// `smem_bytes` are the occupancy inputs recorded by the launch.
    /// `dram_atoms` is left at zero here — burst-atom attribution depends
    /// on cross-block first-touch order, so the launch fills it during the
    /// block-index-order replay of [`Self::take_visits`] logs.
    pub fn finish(self, threads: u32, smem_bytes: u32) -> (BlockProfile, RtCounters) {
        let profile = BlockProfile {
            issue: self.warps.iter().map(|w| w.issue).sum(),
            sectors: self.warps.iter().map(|w| w.sectors).sum(),
            dram_sectors: self.warps.iter().map(|w| w.dram_sectors).sum(),
            dram_atoms: 0,
            smem_ops: self.warps.iter().map(|w| w.smem_ops).sum(),
            l1_hits: self.warps.iter().map(|w| w.l1_hits).sum(),
            l1_full_hits: self.warps.iter().map(|w| w.full_hits).sum(),
            tx_cycles: self.warps.iter().map(|w| w.tx).sum(),
            lsu_sectors: self.warps.iter().map(|w| w.lsu_sectors).sum(),
            resid_cycles: self
                .warps
                .iter()
                .map(|w| w.clock.saturating_sub(w.tx))
                .max()
                .unwrap_or(0),
            l2_bank_sectors: self.l2_bank_sectors,
            threads,
            smem_bytes,
        };
        (profile, self.counters)
    }
}

/// Replay cycles of an ordinal's L1 hits that the hierarchical makespan
/// may retire through the LSU pipe instead of the issue pipe: the full
/// `line_cycles` charge for a full-line hit (the data is entirely L1
/// resident), and all but one `sector_cycles` beat for a partial-line hit
/// — its sector drains off the in-flight fill buffer at sector cost on
/// the issue path, while the fill's bandwidth cost is carried by the DRAM
/// burst wall. Both engines bank this identically (it is pure arithmetic
/// over `line_walk`'s counts), so the oracle contract extends to it.
#[inline]
fn hit_replay_offload(hits: u64, full_hits: u64, cost: &CostModel) -> u64 {
    let partial = hits - full_hits;
    full_hits * cost.line_cycles + partial * cost.line_cycles.saturating_sub(cost.sector_cycles)
}

/// Number of 64-byte DRAM burst atoms (pairs of adjacent 32-byte sectors)
/// a fill's sector mask occupies — the HBM minimum-access-granularity
/// rule: a single-sector fill still spends a whole atom of bandwidth.
#[inline]
pub(crate) fn burst_atoms(mask: u8) -> u64 {
    ((mask | (mask >> 1)) & 0b0101_0101).count_ones() as u64
}

/// Walk one ordinal's unique, sorted sector set grouped by cache line:
/// each distinct line is one LSU transaction; a line missing the warp's L1
/// window (4-way LRU, line tags, sectored validity) sends its
/// not-yet-fetched sectors to DRAM. Returns `(lines, dram-bound sectors,
/// line hits, full-line hits)` — a *hit* is a tag hit with every requested
/// sector already valid; it is a *full-line* hit when the way's entire
/// sector mask is populated (temporal reuse of a completed fill, as
/// opposed to re-touching a sector of a line whose fill is still in
/// progress). Bumps `dram_add` for first-touched (compulsory) sectors,
/// records the visit in `visits` for the launch's deterministic
/// burst-atom replay (see [`VisitLog`]), and attributes every L1-missing
/// sector to its L2 bank slice in `banks` (no-op when `banks` is empty).
///
/// Shared by [`TeamCtx::commit`] and [`TeamCtx::commit_flat`] so the two
/// execution engines agree on the memory model by construction — including
/// the LRU victim rule (*last* max-age way wins ties, per `max_by_key`).
#[allow(clippy::too_many_arguments)]
fn line_walk(
    sectors: &[u64],
    spl: u64,
    nsets: usize,
    l1: &mut [u64],
    l1_age: &mut [u8],
    l1_mask: &mut [u8],
    gview: &GlobalView<'_>,
    dram_add: &mut u64,
    visits: &mut VisitLog,
    banks: &mut [u64],
) -> (u64, u64, u64, u64) {
    let mut dram_sectors = 0u64;
    let mut lines = 0u64;
    let mut hits = 0u64;
    let mut full_hits = 0u64;
    let full_line_mask = ((1u16 << spl.min(8)) - 1) as u8;
    let mut i = 0usize;
    while i < sectors.len() {
        let line = sectors[i] / spl;
        let mut smask = 0u8;
        while i < sectors.len() && sectors[i] / spl == line {
            let bit = 1u8 << (sectors[i] % spl).min(7);
            if gview.first_touch(sectors[i]) {
                *dram_add += 1;
            }
            smask |= bit;
            i += 1;
        }
        visits.record(line, smask);
        lines += 1;
        if nsets == 0 {
            dram_sectors += smask.count_ones() as u64;
            bank_missing_sectors(smask, line, spl, banks);
            continue;
        }
        // Fibonacci-hash the set index so power-of-two array strides do
        // not alias into a handful of sets.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let set = (h % nsets as u64) as usize * 4;
        let ways = &mut l1[set..set + 4];
        let ages = &mut l1_age[set..set + 4];
        let masks = &mut l1_mask[set..set + 4];
        if let Some(w) = ways.iter().position(|&t| t == line) {
            // Tag hit: only sectors not yet fetched cost DRAM traffic
            // (sectored cache).
            let new = smask & !masks[w];
            if new == 0 {
                hits += 1;
                if masks[w] == full_line_mask {
                    full_hits += 1;
                }
            } else {
                dram_sectors += new.count_ones() as u64;
                bank_missing_sectors(new, line, spl, banks);
                masks[w] |= new;
            }
            ages[w] = 0;
            for (k, a) in ages.iter_mut().enumerate() {
                if k != w {
                    *a = a.saturating_add(1);
                }
            }
        } else {
            dram_sectors += smask.count_ones() as u64;
            bank_missing_sectors(smask, line, spl, banks);
            let victim =
                ages.iter().enumerate().max_by_key(|(_, &a)| a).map(|(k, _)| k).unwrap_or(0);
            ways[victim] = line;
            ages[victim] = 0;
            masks[victim] = smask;
            for (k, a) in ages.iter_mut().enumerate() {
                if k != victim {
                    *a = a.saturating_add(1);
                }
            }
        }
    }
    (lines, dram_sectors, hits, full_hits)
}

/// Attribute each set bit of `mask` (an L1-missing sector within `line`)
/// to its L2 bank slice. Bank counts therefore sum to exactly the
/// L1-missing sector total, which is what the hierarchical makespan's
/// per-bank L2 roof consumes.
#[inline]
fn bank_missing_sectors(mask: u8, line: u64, spl: u64, banks: &mut [u64]) {
    if banks.is_empty() {
        return;
    }
    let n = banks.len() as u32;
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros() as u64;
        m &= m - 1;
        banks[crate::mem::hier::l2_bank_of(line * spl + bit, n) as usize] += 1;
    }
}

/// Serialization cost of one ordinal's atomic accesses: the max same-address
/// multiplicity determines how many conflict rounds the warp pays. Zero when
/// the ordinal had no atomics. Sorts `atomics` in place.
fn atomic_serialize_cycles(atomics: &mut [u64], cost: &CostModel) -> u64 {
    if atomics.is_empty() {
        return 0;
    }
    atomics.sort_unstable();
    let mut max_mult = 1u64;
    let mut run = 1u64;
    for w in atomics.windows(2) {
        if w[0] == w[1] {
            run += 1;
            max_mult = max_mult.max(run);
        } else {
            run = 1;
        }
    }
    cost.atomic_cycles + (max_mult - 1) * cost.atomic_conflict_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::DeviceArch;

    fn setup() -> (GlobalMem, CostModel, DeviceArch) {
        (GlobalMem::new(), CostModel::default(), DeviceArch::a100())
    }

    fn ctx<'g>(
        g: &'g mut GlobalMem,
        c: &'g CostModel,
        a: &'g DeviceArch,
        nwarps: u32,
    ) -> TeamCtx<'g> {
        TeamCtx::new(0, 1, nwarps, 4096, g, c, a)
    }

    #[test]
    fn lockstep_issue_is_max_over_lanes() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 1);
        // Lane 0 works 100 cycles, lane 1 works 10: warp pays 100.
        t.run_lanes(0, &[0, 1], |lane, id| {
            lane.work(if id == 0 { 100 } else { 10 });
        });
        assert_eq!(t.warp_clock(0), 100);
    }

    #[test]
    fn coalesced_loads_share_sectors() {
        let (mut g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(64);
        let mut t = ctx(&mut g, &c, &a, 1);
        // 32 lanes load 32 consecutive f64 = 256 bytes = 8 sectors.
        let lanes: Vec<u32> = (0..32).collect();
        t.run_lanes(0, &lanes, |lane, id| {
            lane.read(p, id as u64);
        });
        let (prof, _) = t.finish(32, 0);
        assert_eq!(prof.sectors, 8);
    }

    #[test]
    fn strided_loads_cost_more_sectors() {
        let (mut g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(32 * 8);
        let mut t = ctx(&mut g, &c, &a, 1);
        // Stride-8 f64 accesses: every lane in its own sector.
        let lanes: Vec<u32> = (0..32).collect();
        t.run_lanes(0, &lanes, |lane, id| {
            lane.read(p, id as u64 * 8);
        });
        let (prof, _) = t.finish(32, 0);
        assert_eq!(prof.sectors, 32);
    }

    #[test]
    fn accesses_merge_by_ordinal_across_iterations() {
        let (mut g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(256);
        let mut t = ctx(&mut g, &c, &a, 1);
        // Each of 4 lanes makes 2 consecutive-coalescing accesses.
        t.run_lanes(0, &[0, 1, 2, 3], |lane, id| {
            lane.read(p, id as u64); // ordinal 0: 4 * 8B in one sector
            lane.read(p, 128 + id as u64); // ordinal 1: one sector
        });
        let (prof, _) = t.finish(32, 0);
        assert_eq!(prof.sectors, 2);
    }

    #[test]
    fn atomic_same_address_serializes() {
        let (g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(4);
        let mut t0 = TeamCtx::new(0, 1, 1, 0, &g, &c, &a);
        // 8 lanes atomically add to the SAME element.
        let lanes: Vec<u32> = (0..8).collect();
        t0.run_lanes(0, &lanes, |lane, _| {
            lane.atomic_add_f64(p, 0, 1.0);
        });
        let same_clock = t0.warp_clock(0);
        let (_, _) = t0.finish(32, 0);

        let g2 = GlobalMem::new();
        let q = g2.alloc_zeroed::<f64>(8);
        let mut t1 = TeamCtx::new(0, 1, 1, 0, &g2, &c, &a);
        // 8 lanes add to DIFFERENT elements.
        t1.run_lanes(0, &lanes, |lane, id| {
            lane.atomic_add_f64(q, id as u64, 1.0);
        });
        let diff_clock = t1.warp_clock(0);
        assert!(
            same_clock > diff_clock,
            "same-address atomics ({same_clock}) should cost more than \
             spread atomics ({diff_clock})"
        );
        // And the value is correct.
        assert_eq!(g.read(p, 0), 8.0);
    }

    #[test]
    fn atomic_value_semantics() {
        let (mut g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(1);
        let pu = g.alloc_zeroed::<u64>(1);
        let mut t = ctx(&mut g, &c, &a, 1);
        t.run_lanes(0, &[0, 1, 2], |lane, id| {
            lane.atomic_add_f64(p, 0, (id + 1) as f64);
            lane.atomic_add_u64(pu, 0, 10);
        });
        drop(t);
        assert_eq!(g.read(p, 0), 6.0);
        assert_eq!(g.read(pu, 0), 30);
    }

    #[test]
    fn block_barrier_joins_clocks_at_max() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 3);
        t.charge_alu(0, 50);
        t.charge_alu(1, 500);
        t.charge_alu(2, 5);
        t.block_barrier();
        for w in 0..3 {
            assert_eq!(t.warp_clock(w), 500 + c.block_barrier_cycles);
        }
        assert_eq!(t.counters.block_barriers, 1);
    }

    #[test]
    fn warp_sync_charges_fixed_cost() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 2);
        t.warp_sync(1);
        assert_eq!(t.warp_clock(1), c.warp_sync_cycles);
        assert_eq!(t.warp_clock(0), 0);
        assert_eq!(t.counters.warp_syncs, 1);
    }

    #[test]
    fn dispatch_costs_differ() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 1);
        t.charge_dispatch(0, DispatchKind::Cascade { position: 0 });
        let after_cascade = t.warp_clock(0);
        t.charge_dispatch(0, DispatchKind::Indirect);
        let after_indirect = t.warp_clock(0) - after_cascade;
        assert!(after_indirect > after_cascade);
        assert_eq!(t.counters.cascade_dispatches, 1);
        assert_eq!(t.counters.indirect_calls, 1);
        assert_eq!(after_cascade, c.cascade_dispatch_cycles);
    }

    #[test]
    fn cascade_dispatch_cost_scales_with_position() {
        // §5.5 regression: the cascade is a linear compare chain, so a deep
        // match must cost more than a shallow one, and past a threshold
        // position the indirect call must win.
        let (mut g, c, a) = setup();
        let cost_at = |g: &mut GlobalMem, pos: u32| {
            let mut t = ctx(g, &c, &a, 1);
            t.charge_dispatch(0, DispatchKind::Cascade { position: pos });
            t.warp_clock(0)
        };
        let shallow = cost_at(&mut g, 0);
        let mid = cost_at(&mut g, 4);
        let deep = cost_at(&mut g, 32);
        assert!(shallow < mid && mid < deep, "cost must grow with depth");
        assert_eq!(mid, c.cascade_dispatch_cycles + 4 * c.cascade_level_cycles);
        let mut t = ctx(&mut g, &c, &a, 1);
        t.charge_dispatch(0, DispatchKind::Indirect);
        let indirect = t.warp_clock(0);
        assert!(shallow < indirect, "early cascade matches beat the pointer");
        assert!(deep > indirect, "deep cascade matches lose to the pointer");
    }

    #[test]
    fn smem_ops_through_lane_are_counted() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 1);
        let off = t.smem.alloc(64).unwrap();
        t.run_lanes(0, &[0, 1], |lane, id| {
            lane.smem_write_f64(off, id, id as f64 + 1.0);
        });
        let read_back = t.smem.read_f64(off, 1);
        assert_eq!(read_back, 2.0);
        let (prof, _) = t.finish(32, 4096);
        assert_eq!(prof.smem_ops, 1); // max over lanes, lockstep
    }

    #[test]
    fn finish_aggregates_warps() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 2);
        t.charge_alu(0, 10);
        t.charge_alu(1, 30);
        let (prof, _) = t.finish(64, 2048);
        assert_eq!(prof.resid_cycles, 30);
        assert_eq!(prof.issue, 40);
        assert_eq!(prof.threads, 64);
        assert_eq!(prof.smem_bytes, 2048);
    }

    #[test]
    fn empty_lanes_is_noop() {
        let (mut g, c, a) = setup();
        let mut t = ctx(&mut g, &c, &a, 1);
        t.run_lanes(0, &[], |_, _| panic!("must not run"));
        assert_eq!(t.warp_clock(0), 0);
    }

    /// Run the same lane program through `run_lanes` and `run_lanes_flat`
    /// on identical fresh contexts and assert the profiles match exactly.
    fn assert_flat_matches<F>(nwarps: u32, steps: &[(u32, Vec<u32>)], build: F)
    where
        F: Fn(&GlobalMem) -> Box<dyn Fn(&mut Lane<'_, '_>, u32)>,
    {
        let c = CostModel::default();
        let a = DeviceArch::a100();
        let run = |flat: bool| {
            let g = GlobalMem::new();
            let f = build(&g);
            let mut t = TeamCtx::new(0, 1, nwarps, 4096, &g, &c, &a);
            let _ = t.smem.alloc(512);
            for (warp, lanes) in steps {
                if flat {
                    t.run_lanes_flat(*warp, lanes, |lane, id| f(lane, id));
                } else {
                    t.run_lanes(*warp, lanes, |lane, id| f(lane, id));
                }
            }
            t.finish(nwarps * 32, 4096)
        };
        let (tree, tc) = run(false);
        let (flat, fc) = run(true);
        assert_eq!(tree, flat, "profiles diverged");
        assert_eq!(tc, fc, "counters diverged");
    }

    #[test]
    fn flat_matches_tree_on_mixed_access_patterns() {
        // Coalesced + strided + ragged lane participation + multi-ordinal.
        assert_flat_matches(2, &[(0, (0..32).collect()), (1, (0..7).collect())], |g| {
            let p = g.alloc_zeroed::<f64>(4096);
            Box::new(move |lane, id| {
                lane.work(3 + id as u64 % 5);
                lane.read(p, id as u64); // coalesced
                lane.read(p, id as u64 * 9 + 1); // strided
                if id % 3 == 0 {
                    lane.write(p, 2048 + id as u64, 1.0); // divergent ordinal
                }
            })
        });
    }

    #[test]
    fn flat_matches_tree_on_unsorted_and_duplicate_sectors() {
        // Descending addresses force the sort path; shared sectors dedup.
        assert_flat_matches(1, &[(0, (0..16).collect())], |g| {
            let p = g.alloc_zeroed::<f64>(1024);
            Box::new(move |lane, id| {
                lane.read(p, 600 - id as u64 * 16); // descending, unsorted
                lane.read(p, (id as u64 / 4) * 4); // 4 lanes share a sector
            })
        });
    }

    #[test]
    fn flat_matches_tree_on_atomics() {
        assert_flat_matches(1, &[(0, (0..8).collect()), (0, (0..8).collect())], |g| {
            let p = g.alloc_zeroed::<f64>(64);
            let u = g.alloc_zeroed::<u64>(64);
            Box::new(move |lane, id| {
                lane.atomic_add_f64(p, 0, 1.0); // full conflict
                lane.atomic_add_u64(u, id as u64 % 3, 1); // partial conflict
            })
        });
    }

    #[test]
    fn flat_matches_tree_on_smem_bank_conflicts() {
        assert_flat_matches(1, &[(0, (0..32).collect())], |g| {
            let _ = g;
            Box::new(move |lane, id| {
                let off = SmOff(0);
                lane.smem_write_f64(off, id * 2, id as f64); // 2-way conflict
                lane.smem_read_f64(off, 0); // broadcast
                if id < 5 {
                    lane.smem_atomic_add_f64(off, 40, 1.0);
                }
            })
        });
    }

    #[test]
    fn flat_matches_tree_on_l1_reuse() {
        // Re-reading the same block of memory exercises tag hits, sectored
        // validity masks, and LRU aging identically in both engines.
        assert_flat_matches(1, &[(0, (0..32).collect()), (0, (0..32).collect())], |g| {
            let p = g.alloc_zeroed::<f64>(8192);
            Box::new(move |lane, id| {
                for rep in 0..4u64 {
                    lane.read(p, id as u64 + rep * 16);
                }
                lane.read(p, 4096 + id as u64 * 113 % 3800);
            })
        });
    }

    #[test]
    fn flat_delegates_under_sanitizer() {
        // With a sanitizer attached the flat path must take the exact trace
        // route (it is the only one that feeds the race rules).
        let (g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(64);
        let mut t = TeamCtx::new(0, 1, 1, 4096, &g, &c, &a);
        t.attach_sanitizer(Box::new(crate::sanitize::Sanitizer::new(0, 1, 32, 512)));
        t.run_lanes_flat(0, &[0, 1], |lane, id| {
            lane.write(p, id as u64, 1.0);
        });
        assert!(t.take_observed().global_writes, "sanitizer observers must still fire");
    }

    #[test]
    fn bank_acc_counts_deep_conflicts_without_saturating() {
        // Regression: the accumulator once tracked per-bank wavefronts in a
        // `u8` with `saturating_add`, silently capping conflict depth at
        // 255 and under-charging pathologically strided access patterns.
        let mut acc = BankAcc::new(32);
        for i in 0..300u32 {
            acc.visit(i * 32); // all distinct slots, all in bank 0
        }
        assert_eq!(acc.worst(), 300, "deep conflicts must count fully");
        // Same-slot accesses broadcast: one wavefront no matter the count.
        acc.clear();
        for _ in 0..300 {
            acc.visit(7);
        }
        assert_eq!(acc.worst(), 1);
    }

    #[test]
    fn bank_count_changes_conflict_wavefronts() {
        // A 64-lane stride-1 access is conflict-free on a 64-bank LDS but
        // folds into a 2-way conflict on 32 banks.
        let mut lds64 = BankAcc::new(64);
        let mut lds32 = BankAcc::new(32);
        for slot in 0..64u32 {
            lds64.visit(slot);
            lds32.visit(slot);
        }
        assert_eq!(lds64.worst(), 1);
        assert_eq!(lds32.worst(), 2);
    }

    #[test]
    fn wave64_stride1_smem_is_conflict_free_end_to_end() {
        // mi100 models the LDS with one bank per wavefront lane, so a dense
        // 64-lane stride-1 shared-memory instruction costs a single
        // wavefront — the old hard-coded 32-bank fold double-charged it.
        // Both engines must agree.
        let c = CostModel::default();
        let run = |arch: &DeviceArch, flat: bool| {
            let g = GlobalMem::new();
            let mut t = TeamCtx::new(0, 1, 1, 4096, &g, &c, arch);
            let off = t.smem.alloc(64 * 8).unwrap();
            let lanes: Vec<u32> = (0..arch.warp_size).collect();
            let body = |lane: &mut Lane<'_, '_>, id: u32| {
                lane.smem_write_f64(off, id, id as f64);
            };
            if flat {
                t.run_lanes_flat(0, &lanes, body);
            } else {
                t.run_lanes(0, &lanes, body);
            }
            t.warp_clock(0)
        };
        let mi = DeviceArch::mi100();
        assert_eq!(run(&mi, false), c.smem_cycles);
        assert_eq!(run(&mi, true), c.smem_cycles);
        // Folding the same access onto 32 banks serializes into 2 waves.
        let mut folded = DeviceArch::mi100();
        folded.smem_banks = 32;
        assert_eq!(run(&folded, false), 2 * c.smem_cycles);
        assert_eq!(run(&folded, true), 2 * c.smem_cycles);
    }

    #[test]
    fn flat_falls_back_on_non_pow2_sector() {
        // A non-power-of-two sector size cannot use the flat path.
        let c = CostModel { sector_bytes: 24, ..Default::default() };
        let a = DeviceArch::a100();
        let run = |flat: bool| {
            let g = GlobalMem::new();
            let p = g.alloc_zeroed::<f64>(64);
            let mut t = TeamCtx::new(0, 1, 1, 0, &g, &c, &a);
            let lanes: Vec<u32> = (0..8).collect();
            if flat {
                t.run_lanes_flat(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            } else {
                t.run_lanes(0, &lanes, |lane, id| {
                    lane.read(p, id as u64);
                });
            }
            t.finish(32, 0).0
        };
        assert_eq!(run(false), run(true));
    }
}
