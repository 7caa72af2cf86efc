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
//! Both execution engines (the tree walker in `simt-omp-core` and the
//! bytecode executor in `simt-omp-codegen`) run lanes through this one
//! `run_lanes`: each access folds into a per-ordinal accumulator as the
//! lane runs, and an attached sanitizer records it at the same moment.
//!
//! Warp-level barriers, block-level barriers and direct runtime charges
//! (state-machine posts, dispatch costs…) are explicit [`TeamCtx`] methods.

use crate::arch::DeviceArch;
use crate::cost::{CostModel, LINE_BYTES, SECTOR_BYTES};
use crate::mem::global::{GlobalMem, GlobalView, ViewStore};
use crate::mem::hier::L2BankIndex;
use crate::mem::pod::DevValue;
use crate::mem::ptr::{DPtr, Slot};
use crate::mem::shared::{SharedMem, SmOff};
use crate::sanitize::Sanitizer;
use crate::stats::{BlockProfile, RtCounters};

/// log2 of [`SECTOR_BYTES`]: a byte address shifts right by it to its sector.
const SECTOR_SHIFT: u32 = SECTOR_BYTES.trailing_zeros();

/// Sectors per cache line, at most the 8 bits of a line's sector mask.
const SPL: u64 = LINE_BYTES / SECTOR_BYTES;
const _: () = assert!(SECTOR_BYTES.is_power_of_two() && SPL.is_power_of_two() && SPL <= 8);

/// A way's sector mask with every sector of its line valid.
const FULL_LINE: u8 = ((1u16 << SPL) - 1) as u8;

/// Sector `s`'s line, and its bit in that line's sector mask.
#[inline(always)]
fn split_sector(s: u64) -> (u64, u64) {
    (s >> SPL.trailing_zeros(), s & (SPL - 1))
}

/// How a lane touched a shared-memory slot (the sanitizer's race rules:
/// atomics never race with each other).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SmemKind {
    Read,
    Write,
    Atomic,
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

/// One global-memory ordinal of the super-step accumulator: the k-th access of
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
    /// Add sector `s`, skipping an adjacent duplicate and noting order.
    #[inline(always)]
    fn push_sector(&mut self, s: u64) {
        match self.sectors.last() {
            Some(&prev) if prev == s => return, // adjacent duplicate
            Some(&prev) if prev > s => self.sorted = false,
            _ => {}
        }
        self.sectors.push(s);
    }

    /// Add sectors `first..=last`, the rest of an access that spans more
    /// than one sector.
    #[cold]
    #[inline(never)]
    fn push_span(&mut self, first: u64, last: u64) {
        for s in first..=last {
            self.push_sector(s);
        }
    }

    /// Record an atomic access's target address.
    #[cold]
    #[inline(never)]
    fn push_atomic(&mut self, addr: u64) {
        self.atomics.push(addr);
    }
}

/// Shared-memory bank-conflict accumulator for one ordinal (the k-th smem
/// access of every lane in a super-step), parameterized by the device's
/// bank count ([`crate::arch::DeviceArch::smem_banks`], a power of two, so
/// a slot's bank is its low bits). Distinct slots
/// landing in one bank serialize into wavefronts; same-slot accesses
/// broadcast. Per-bank depth is a `u32`, so a deep conflict counts fully,
/// and the bank count follows the arch, so a wave64 LDS is not folded onto
/// 32 banks.
#[derive(Clone, Debug, Default)]
pub(crate) struct BankAcc {
    /// Last slot seen per bank (`u32::MAX` = none) — the broadcast filter.
    bank_slots: Vec<u32>,
    /// Serialized wavefronts per bank. `u32`: a deep conflict (every lane
    /// of a wide warp on one bank, ordinal after ordinal) must count
    /// fully, not saturate at 255.
    bank_waves: Vec<u32>,
    worst: u32,
}

impl BankAcc {
    /// Accumulator over `banks` independent banks, a power of two
    /// (`Device::validate` rejects other counts before a launch).
    pub fn new(banks: u32) -> BankAcc {
        assert!(banks.is_power_of_two(), "{banks} shared-memory banks: not a power of two");
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
        let b = slot as usize & (self.bank_slots.len() - 1);
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

/// Super-step accumulator for [`TeamCtx::run_lanes`]: per-ordinal
/// coalescing state plus running per-lane cursors. Lanes fold their
/// accesses in as they run, so no per-lane access list is ever built.
#[derive(Default)]
struct StepAcc {
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
    /// Shared-memory bank count new ordinal accumulators are sized to
    /// ([`crate::arch::DeviceArch::smem_banks`]).
    smem_banks: u32,
    /// A warp instruction's line set under construction ([`LineSet`]).
    lines: Vec<u64>,
}

impl StepAcc {
    fn new(smem_banks: u32) -> StepAcc {
        StepAcc { smem_banks, ..Default::default() }
    }

    /// Prepare for a new super-step: clear the ordinals the previous step
    /// used (untouched entries are already clear) and reset the maxima.
    fn reset(&mut self) {
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

    /// Fold one lane's global access into its ordinal. The common access
    /// (an ordinal the step already has, one sector, not atomic) runs
    /// inline; the rest branches to out-of-line helpers.
    #[inline(always)]
    fn global(&mut self, addr: u64, bytes: u32, atomic: bool) {
        let k = self.lane_ord;
        self.lane_ord += 1;
        if k >= self.ords.len() {
            self.grow_ords();
        }
        let (first, last) = StepAcc::sectors(addr, bytes);
        let o = &mut self.ords[k];
        o.push_sector(first);
        if first != last {
            o.push_span(first + 1, last);
        }
        if atomic {
            o.push_atomic(addr);
        }
    }

    /// The first and last sector of a `bytes`-wide access at `addr`
    /// (`bytes` ≥ 1).
    #[inline(always)]
    fn sectors(addr: u64, bytes: u32) -> (u64, u64) {
        let end = addr + bytes as u64 - 1;
        (addr >> SECTOR_SHIFT, end >> SECTOR_SHIFT)
    }

    /// Add the ordinal a lane's access reached first in this block.
    #[cold]
    #[inline(never)]
    fn grow_ords(&mut self) {
        self.ords.push(OrdAcc { sectors: Vec::new(), atomics: Vec::new(), sorted: true });
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

/// Per-warp accounting state, including the warp's [`L1Window`] of
/// recently touched lines and sectors. Re-touching a cached sector pays
/// only its line's [`CostModel::line_cycles`] instead of a DRAM sector
/// beat and the exposed latency, and `hit_replay_offload` moves that
/// charge (all of it for a full-line hit, all but one `sector_cycles`
/// beat for a partial one) to the LSU pipe — this is what lets a thread streaming through its own block of memory
/// (e.g. the serial inner loops of the two-level baselines) avoid paying
/// full DRAM cost for every element of a 32-byte sector.
#[derive(Clone, Debug, Default)]
struct WarpState {
    clock: u64,
    issue: u64,
    sectors: u64,
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
    l1: L1Window,
}

impl WarpState {
    /// Zero the counters for a new block, keeping the L1 window's storage
    /// and emptying it by epoch ([`L1Window::new_block`]).
    fn reset(&mut self) {
        let mut l1 = std::mem::take(&mut self.l1);
        l1.new_block();
        *self = WarpState { l1, ..WarpState::default() };
    }
}

/// One 4-way set of an [`L1Window`]: line tags, saturating LRU ages and
/// per-way sector-validity bitmasks (sectored cache: a line tag can be
/// present with only some of its sectors fetched), packed together with
/// the epoch of the block that last filled the set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct L1Set {
    tags: [u64; 4],
    ages: [u8; 4],
    masks: [u8; 4],
    /// The set holds the current block's lines only while `stamp` equals
    /// the window's epoch; [`L1Window::set`] empties a stale set on its
    /// first touch.
    stamp: u32,
}

impl L1Set {
    const EMPTY: L1Set = L1Set { tags: [u64::MAX; 4], ages: [0; 4], masks: [0; 4], stamp: 0 };

    /// Make way `w` the most recently used: its age drops to zero and
    /// every other way ages by one, saturating.
    #[inline]
    fn touch(&mut self, w: usize) {
        for a in &mut self.ages {
            *a = a.saturating_add(1);
        }
        self.ages[w] = 0;
    }

    /// The way holding `line`, if any, from one mask of all four tag
    /// compares instead of a search that stops at the first match. A
    /// line sits in at most one way, and no line is the empty tag.
    #[inline(always)]
    fn way_by_mask(&self, line: u64) -> Option<usize> {
        let m = (self.tags[0] == line) as u32
            | ((self.tags[1] == line) as u32) << 1
            | ((self.tags[2] == line) as u32) << 2
            | ((self.tags[3] == line) as u32) << 3;
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// The LRU victim: the oldest way, the *last* one when ages tie (the
    /// rule `max_by_key` implements).
    #[inline]
    fn victim(&self) -> usize {
        let mut v = 0;
        for w in 1..4 {
            if self.ages[w] >= self.ages[v] {
                v = w;
            }
        }
        v
    }
}

/// A warp's L1 window: 4-way set-associative, line-granular tags, LRU,
/// one [`L1Set`] per four lines, a power of two of them (a line's set is
/// the low bits of its hash). Empty until the warp's first commit. A
/// window outlives its block (see [`Spare`]): each set carries the epoch
/// of the block that last filled it, and a set stamped with an older
/// epoch is empty.
#[derive(Clone, Debug, Default)]
struct L1Window {
    sets: Vec<L1Set>,
    /// The current block's epoch.
    epoch: u32,
}

impl L1Window {
    /// Take a warp's window out of `slot` for a commit (the commit puts it
    /// back), allocating `lines / 4` sets on first use: a power of two
    /// (`Device::validate` rejects other counts before a launch).
    fn take(slot: &mut L1Window, lines: u32) -> L1Window {
        if slot.sets.is_empty() {
            let n = lines as usize / 4;
            assert!(n.is_power_of_two(), "an L1 of {lines} lines: sets not a power of two");
            return L1Window { sets: vec![L1Set::EMPTY; n], epoch: 0 };
        }
        std::mem::take(slot)
    }

    /// Empty the window for a new block in O(1): bump the epoch, so every
    /// set is stale. When the epoch wraps, an old stamp could match the
    /// new epoch, so every set is cleared at once instead.
    fn new_block(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.sets.fill(L1Set::EMPTY);
        }
    }

    /// The set `line` maps to, for the current block: cleared first if
    /// another block's epoch stamped it. The line id is Fibonacci-hashed
    /// so power-of-two array strides do not alias into a handful of sets.
    #[inline]
    fn set(&mut self, line: u64) -> &mut L1Set {
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let s = h as usize & (self.sets.len() - 1);
        let set = &mut self.sets[s];
        if set.stamp != self.epoch {
            *set = L1Set { stamp: self.epoch, ..L1Set::EMPTY };
        }
        set
    }
}

/// Slots of a block's [`VisitLog`] filter.
const FILTER_SLOTS: usize = 4096;

/// The visit filter's storage: one packed `line << 8 | mask` per slot,
/// 0 when empty.
type VisitFilter = Box<[u64; FILTER_SLOTS]>;

/// An empty [`VisitFilter`], from a zeroed allocation.
fn visit_filter() -> VisitFilter {
    vec![0; FILTER_SLOTS].into_boxed_slice().try_into().expect("FILTER_SLOTS words")
}

/// Filter slot of `line`: the low bits, folded with the next twelve so
/// lines a power-of-two plane stride apart do not all share one slot.
/// Lines of one aligned 4,096-line window never collide.
#[inline]
fn filter_slot(line: u64) -> usize {
    (line ^ line >> 12) as usize & (FILTER_SLOTS - 1)
}

/// Program-order log of the block's line visits, the input of the
/// launch's block-index-order replay (see `Device::launch`) — the only
/// place compulsory DRAM traffic is counted.
///
/// Which *visit* claims a sector's compulsory DRAM fill depends on how
/// blocks interleave, and the 64-byte burst-atom charge is a nonlinear
/// function of that per-visit grouping — so neither `dram_sectors` nor
/// `dram_atoms` can be computed online without the per-block split
/// becoming thread-count dependent. Instead every block records `(line,
/// sector-bits first requested by this block in this visit)` in its own
/// execution order; the launch replays the logs in block-index order
/// against one sequential touched-set, which reproduces the one-thread
/// attribution exactly at any thread count.
///
/// Entries are packed `line << 8 | mask`. A direct-mapped filter of
/// [`FILTER_SLOTS`] packed slots drops bits this block already logged for
/// the slot's line. It is lossy, and that is exact: a collision only
/// forgets bits the block logged before, so a re-logged bit is already in
/// the replay's touched set when its entry is replayed, and every entry's
/// fresh mask — hence `dram_sectors` and `dram_atoms` — is what a
/// lossless filter would give. [`line_walk`] records only L1 misses and
/// tag hits that add sectors: a way's valid sectors were all recorded
/// when they were fetched, so a pure hit could never add a bit here.
struct VisitLog {
    filter: VisitFilter,
    /// During a launch, the participant's log, which keeps every block's
    /// entries until the launch takes it back ([`TeamCtx::swap_visit_log`]).
    log: Vec<u64>,
    /// The current block's first entry in `log`.
    start: usize,
}

impl VisitLog {
    #[inline]
    fn record(&mut self, line: u64, smask: u8) {
        let slot = &mut self.filter[filter_slot(line)];
        let seen = if *slot >> 8 == line { *slot as u8 } else { 0 };
        let new = smask & !seen;
        if new != 0 {
            *slot = (line << 8) | (seen | new) as u64;
            self.log.push((line << 8) | new as u64);
        }
    }

    /// Empty the filter by walking the block's entries: every filled slot
    /// holds the line of an entry the fill also logged.
    fn clear_filter(&mut self) {
        for &packed in &self.log[self.start..] {
            self.filter[filter_slot(packed >> 8)] = 0;
        }
    }
}

/// Block state a sim thread keeps from one block to the next, so a block
/// allocates none of it. Each part is empty whenever it is here, or is
/// emptied when the next block starts, in time proportional to the
/// block's threads or to what the block touched:
///
/// * the warps' counters are zeroed and their L1 windows emptied by epoch
///   ([`L1Window::new_block`]);
/// * the super-step accumulator clears what each step used;
/// * the visit filter is emptied by walking the block's log entries;
///   during a launch the log is the participant's batch log;
/// * shared memory zeroes its written prefix ([`SharedMem`]);
/// * the L2 bank counts are zeroed (one word per bank);
/// * the sanitizer is [`Sanitizer::reset`]: per-thread and per-warp state
///   rewritten, shared-memory slots emptied by stamp;
/// * the global-memory view's segment cache is launch-scoped: it stays
///   filled from block to block of one launch and is dropped when the
///   thread leaves the launch ([`Spare::put_back`]).
///
/// During a launch the state stays in one [`TeamCtx`] that serves the
/// thread's blocks in turn ([`TeamCtx::begin`], [`TeamCtx::end`]).
///
/// [`Sanitizer::reset`]: crate::sanitize::Sanitizer::reset
pub(crate) struct Spare {
    warps: Vec<WarpState>,
    acc: StepAcc,
    /// It does not depend on the cost model, so a rebuild for another one
    /// keeps it, as it keeps every part below `l1_lines`.
    filter: VisitFilter,
    /// The [`CostModel::l1_lines`] the warps' windows were sized for.
    l1_lines: u32,
    log: Vec<u64>,
    smem: SharedMem,
    l2_bank_sectors: Vec<u64>,
    view: ViewStore,
    sanitizer: Option<Box<Sanitizer>>,
}

impl Spare {
    /// This thread's spare state, rebuilt where it does not fit the cost
    /// model and arch: the bank count shapes [`StepAcc`], the line count
    /// the L1 windows.
    pub(crate) fn take(cost: &CostModel, arch: &DeviceArch) -> Spare {
        let fresh = || (Vec::new(), StepAcc::new(arch.smem_banks));
        match SPARE.take() {
            Some(s) if s.fits(cost, arch) => s,
            Some(s) => {
                let (warps, acc) = fresh();
                Spare { warps, acc, l1_lines: cost.l1_lines, ..s }
            }
            None => {
                let (warps, acc) = fresh();
                Spare {
                    warps,
                    acc,
                    filter: visit_filter(),
                    l1_lines: cost.l1_lines,
                    log: Vec::new(),
                    smem: SharedMem::default(),
                    l2_bank_sectors: Vec::new(),
                    view: ViewStore::default(),
                    sanitizer: None,
                }
            }
        }
    }

    fn fits(&self, cost: &CostModel, arch: &DeviceArch) -> bool {
        self.l1_lines == cost.l1_lines && self.acc.smem_banks == arch.smem_banks
    }

    /// Give the state back to this thread for its next launch, dropping
    /// the launch's cached segments.
    pub(crate) fn put_back(mut self) {
        self.view.leave_launch();
        SPARE.set(Some(self));
    }
}

thread_local! {
    /// This sim thread's [`Spare`]. A device's block pool keeps its
    /// workers alive, so the state is reused across blocks and launches
    /// on every thread. A panicking block drops it; the next block builds
    /// a fresh one.
    static SPARE: std::cell::Cell<Option<Spare>> = const { std::cell::Cell::new(None) };
}

/// Execution context handed to a per-lane program: typed access to global
/// and shared memory, with every operation folded into the super-step's
/// cost accumulator and, when a sanitizer is attached, recorded there as
/// it happens.
pub struct Lane<'a, 'g> {
    global: &'a mut GlobalView<'g>,
    smem: &'a mut SharedMem,
    acc: &'a mut StepAcc,
    sanitizer: Option<&'a mut crate::sanitize::Sanitizer>,
    /// Block-global thread id of this lane (the sanitizer's access label).
    tid: u32,
    observed: &'a mut ObservedEffects,
}

impl<'a, 'g> Lane<'a, 'g> {
    /// The same lane, borrowed for a shorter while.
    fn reborrow(&mut self) -> Lane<'_, 'g> {
        Lane {
            global: &mut *self.global,
            smem: &mut *self.smem,
            acc: &mut *self.acc,
            sanitizer: self.sanitizer.as_deref_mut(),
            tid: self.tid,
            observed: &mut *self.observed,
        }
    }

    /// Charge `cycles` of ALU work.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        self.acc.lane_alu += cycles;
    }

    #[inline(always)]
    fn global_access(&mut self, addr: u64, bytes: u32, atomic: bool, write: bool) {
        self.acc.global(addr, bytes, atomic);
        if self.sanitizer.is_some() {
            self.sanitize_global(addr, atomic, write);
        }
    }

    #[inline]
    fn smem_access(&mut self, slot: u32, kind: SmemKind) {
        self.acc.smem(slot);
        if self.sanitizer.is_some() {
            self.sanitize_smem(slot, kind);
        }
    }

    // The recorders stay out of line: every lane closure inlines the
    // accessors above, and a sanitized run is off the hot path.
    #[cold]
    #[inline(never)]
    fn sanitize_global(&mut self, addr: u64, atomic: bool, write: bool) {
        let Some(san) = self.sanitizer.as_deref_mut() else { return };
        if atomic {
            self.observed.global_atomics = true;
        } else if write {
            self.observed.global_writes = true;
        }
        san.record_global_access(self.tid, addr, write);
    }

    #[cold]
    #[inline(never)]
    fn sanitize_smem(&mut self, slot: u32, kind: SmemKind) {
        let Some(san) = self.sanitizer.as_deref_mut() else { return };
        match kind {
            SmemKind::Read => san.record_smem(self.tid, slot, false),
            SmemKind::Write => san.record_smem(self.tid, slot, true),
            SmemKind::Atomic => san.record_smem_atomic(self.tid, slot),
        }
    }

    /// Load element `idx` relative to `p` from global memory.
    #[inline(always)]
    pub fn read<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> T {
        let (addr, v) = self.global.read_at(p, idx);
        self.global_access(addr, std::mem::size_of::<T>() as u32, false, false);
        v
    }

    /// Store to element `idx` relative to `p` in global memory.
    #[inline(always)]
    pub fn write<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) {
        let addr = self.global.write_at(p, idx, v);
        self.global_access(addr, std::mem::size_of::<T>() as u32, false, true);
    }

    /// Atomic `fetch_add` on an `f64` in global memory; returns the old
    /// value. Same-address conflicts within a super-step serialize for cost;
    /// the update itself is genuinely atomic across concurrent blocks.
    #[inline(always)]
    pub fn atomic_add_f64(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> f64 {
        let (addr, old) = self.global.atomic_add_f64_at(p, idx, v);
        self.global_access(addr, 8, true, true);
        old
    }

    /// Atomic `fetch_add` on a `u64` in global memory; returns the old value.
    #[inline(always)]
    pub fn atomic_add_u64(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> u64 {
        let (addr, old) = self.global.atomic_add_u64_at(p, idx, v);
        self.global_access(addr, 8, true, true);
        old
    }

    /// Read an 8-byte slot from shared memory.
    #[inline]
    pub fn smem_read_slot(&mut self, off: SmOff, idx: u32) -> Slot {
        self.smem_access(off.0 + idx, SmemKind::Read);
        self.smem.read_slot(off, idx)
    }

    /// Write an 8-byte slot to shared memory.
    #[inline]
    pub fn smem_write_slot(&mut self, off: SmOff, idx: u32, v: Slot) {
        self.smem_access(off.0 + idx, SmemKind::Write);
        self.smem.write_slot(off, idx, v);
    }

    /// Read a shared-memory slot as `f64`.
    #[inline]
    pub fn smem_read_f64(&mut self, off: SmOff, idx: u32) -> f64 {
        self.smem_access(off.0 + idx, SmemKind::Read);
        self.smem.read_f64(off, idx)
    }

    /// Write a shared-memory slot as `f64`.
    #[inline]
    pub fn smem_write_f64(&mut self, off: SmOff, idx: u32, v: f64) {
        self.smem_access(off.0 + idx, SmemKind::Write);
        self.smem.write_f64(off, idx, v);
    }

    /// Atomic `fetch_add` on a shared-memory slot holding an `f64`; returns
    /// the old value. Atomics to the same slot never race with each other,
    /// but an atomic unsynchronized with a *plain* access to the same slot
    /// is a protocol violation (simtcheck's atomic/plain rule).
    #[inline]
    pub fn smem_atomic_add_f64(&mut self, off: SmOff, idx: u32, v: f64) -> f64 {
        self.smem_access(off.0 + idx, SmemKind::Atomic);
        let old = self.smem.read_f64(off, idx);
        self.smem.write_f64(off, idx, old + v);
        old
    }
}

/// Most lanes a warp can have: the width of a [`crate::LaneMask`] and of
/// a warp instruction's per-lane arrays. [`crate::Device::validate`]
/// rejects wider warps.
pub const MAX_LANES: usize = 64;

/// The accessor of a warp-form simd body: the active lanes of one round
/// at once. Lane `l` is the round's `l`-th active lane; every access
/// names each active lane's element through an index closure over `l`.
///
/// A warp-form body has no per-lane branch, so every access covers every
/// active lane, and the k-th access of a round is one instruction for all
/// of them — the ordinal rule of [`TeamCtx::run_lanes`]. In warp mode
/// ([`TeamCtx::run_warp`]) each [`Warp::read`] or [`Warp::write`] is that
/// instruction: one segment lookup with one alive and type check, a bounds
/// check per lane (with the per-lane path's panic messages), and the
/// lanes' addresses reduced to a sorted line set that walks the warp's L1
/// window at once. In lane mode ([`Warp::lane`]) it is one lane's
/// [`Lane`] access, which lets a warp-form body run wherever a per-lane
/// one does: under the sanitizer and the event trace, and lane by lane in
/// the tree walker. Both modes give the same statistics for the same
/// rounds.
pub struct Warp<'a, 'g> {
    /// Active lanes of the current round.
    n: usize,
    form: WarpForm<'a, 'g>,
}

enum WarpForm<'a, 'g> {
    Lane(Lane<'a, 'g>),
    Issue(Issue<'a, 'g>),
}

/// Warp-mode state of a [`TeamCtx::run_warp`] super-step.
struct Issue<'a, 'g> {
    tc: &'a mut TeamCtx<'g>,
    warp: u32,
    /// The warp's L1 window, taken for the super-step.
    l1: L1Window,
    step: StepCost,
    /// ALU cycles charged so far. A round's lanes are a subset of the
    /// previous round's, so a lane of the first round that is active in
    /// every round did all of it: this sum is the per-lane maximum.
    alu: u64,
}

impl<'a, 'g> Warp<'a, 'g> {
    /// Lane mode: a one-lane accessor over `lane`, whose accesses are
    /// `lane`'s own.
    pub fn lane(lane: &'a mut Lane<'_, 'g>) -> Warp<'a, 'g> {
        Warp { n: 1, form: WarpForm::Lane(lane.reborrow()) }
    }

    /// Charge `cycles` of ALU work to every active lane.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        match &mut self.form {
            WarpForm::Lane(lane) => lane.work(cycles),
            WarpForm::Issue(issue) => issue.alu += cycles,
        }
    }

    /// Load element `idx(l)` relative to `p` for every active lane `l`;
    /// lane `l`'s value is entry `l` of the result.
    #[inline(always)]
    pub fn read<T: DevValue + Default>(
        &mut self,
        p: DPtr<T>,
        idx: impl Fn(usize) -> u64,
    ) -> [T; MAX_LANES] {
        let mut out = [T::default(); MAX_LANES];
        match &mut self.form {
            WarpForm::Lane(lane) => out[0] = lane.read(p, idx(0)),
            WarpForm::Issue(issue) => {
                let seg = issue.tc.gview.checked(p);
                let mut set = LineSet::new(&mut issue.tc.acc);
                for (l, o) in out[..self.n].iter_mut().enumerate() {
                    let (addr, v) = seg.load(p, idx(l));
                    *o = v;
                    set.access(addr, std::mem::size_of::<T>() as u32);
                }
                set.finish();
                issue.commit();
            }
        }
        out
    }

    /// Store `v(l)` to element `idx(l)` relative to `p` for every active
    /// lane `l`, in lane order.
    #[inline(always)]
    pub fn write<T: DevValue>(
        &mut self,
        p: DPtr<T>,
        idx: impl Fn(usize) -> u64,
        v: impl Fn(usize) -> T,
    ) {
        match &mut self.form {
            WarpForm::Lane(lane) => lane.write(p, idx(0), v(0)),
            WarpForm::Issue(issue) => {
                let seg = issue.tc.gview.checked(p);
                let mut set = LineSet::new(&mut issue.tc.acc);
                for l in 0..self.n {
                    let addr = seg.store(p, idx(l), v(l));
                    set.access(addr, std::mem::size_of::<T>() as u32);
                }
                set.finish();
                issue.commit();
            }
        }
    }
}

/// The rounds of a [`TeamCtx::run_warp`] super-step.
pub struct WarpRounds<'a, 'g> {
    warp: Warp<'a, 'g>,
}

impl<'a, 'g> WarpRounds<'a, 'g> {
    /// Start the next round with `lanes` active lanes (at most
    /// [`MAX_LANES`]) and return the accessor its body runs on.
    pub fn round(&mut self, lanes: usize) -> &mut Warp<'a, 'g> {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "a round has 1 to {MAX_LANES} lanes, not {lanes}"
        );
        self.warp.n = lanes;
        &mut self.warp
    }
}

impl Issue<'_, '_> {
    /// Walk the instruction's line set ([`StepAcc::lines`], closed by
    /// [`LineSet::finish`]) and fold its cost into the step.
    #[inline(always)]
    fn commit(&mut self) {
        let tc = &mut *self.tc;
        let mut walk = Walk::default();
        let mut lsu = 0u64;
        for &packed in &tc.acc.lines {
            let mask = packed as u8;
            lsu += mask.count_ones() as u64;
            walk_line::<true>(
                &mut walk,
                packed >> 8,
                mask,
                &mut self.l1,
                &mut tc.visits,
                &mut tc.l2_bank_sectors,
                tc.l2_bank,
            );
        }
        self.step.instr(walk, lsu, 0, tc.cost);
    }
}

/// A warp instruction's requested lines, built lane by lane into
/// [`StepAcc::lines`] as packed `line << 8 | sector-mask` entries. A
/// sector of the line the previous lane touched merges into its entry, so
/// a coalesced instruction builds its sorted set as it goes; anything
/// else is sorted and merged once, in [`LineSet::finish`].
struct LineSet<'s> {
    acc: &'s mut StepAcc,
    /// The entry being built (its mask is 0 before the first access).
    line: u64,
    mask: u8,
    /// The entries pushed so far ascend.
    sorted: bool,
}

impl<'s> LineSet<'s> {
    #[inline(always)]
    fn new(acc: &'s mut StepAcc) -> LineSet<'s> {
        acc.lines.clear();
        LineSet { acc, line: 0, mask: 0, sorted: true }
    }

    /// Add the sectors of a `bytes`-wide access at `addr`.
    #[inline(always)]
    fn access(&mut self, addr: u64, bytes: u32) {
        let (first, last) = StepAcc::sectors(addr, bytes);
        self.sector(first);
        if first != last {
            self.span(first + 1, last);
        }
    }

    /// The rest of an access that spans more than one sector.
    #[cold]
    #[inline(never)]
    fn span(&mut self, first: u64, last: u64) {
        for s in first..=last {
            self.sector(s);
        }
    }

    #[inline(always)]
    fn sector(&mut self, s: u64) {
        let (line, bit) = split_sector(s);
        if line == self.line {
            self.mask |= 1 << bit;
            return;
        }
        if self.mask != 0 {
            self.sorted &= line > self.line;
            self.acc.lines.push(self.line << 8 | self.mask as u64);
        }
        self.line = line;
        self.mask = 1 << bit;
    }

    /// Close the set: [`StepAcc::lines`] then holds one entry per line,
    /// in ascending line order.
    #[inline(always)]
    fn finish(self) {
        self.acc.lines.push(self.line << 8 | self.mask as u64);
        if !self.sorted {
            sort_lines(&mut self.acc.lines);
        }
    }
}

/// Sort packed line entries and merge each line's entries into one.
#[cold]
#[inline(never)]
fn sort_lines(lines: &mut Vec<u64>) {
    lines.sort_unstable();
    lines.dedup_by(|next, kept| {
        let same = *next >> 8 == *kept >> 8;
        if same {
            *kept |= *next & 0xff;
        }
        same
    });
}

/// The per-block execution context: warps, shared memory, a mutable view of
/// global memory, cost model and counters.
///
/// [`crate::launch::Device::launch`] builds one per sim thread from the
/// thread's `Spare` and runs the thread's blocks in it one after
/// another, passing it to the kernel entry function once per block.
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
    /// Per-block L1-missing sectors per L2 bank slice (length =
    /// `arch.cache.l2_banks`), folded by every commit.
    l2_bank_sectors: Vec<u64>,
    /// The bank slice of a missing sector, divided by reciprocal.
    l2_bank: L2BankIndex,
    /// Line-visit log for the launch's deterministic first-touch replay.
    visits: VisitLog,
    acc: StepAcc,
    event_trace: Option<crate::trace::Trace>,
    sanitizer: Option<Box<Sanitizer>>,
    /// The thread's reused sanitizer while none is attached.
    idle_sanitizer: Option<Box<Sanitizer>>,
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
        let spare = Spare::take(cost, arch);
        let mut team =
            TeamCtx::from_spare(spare, num_blocks, nwarps, smem_bytes, global, cost, arch);
        team.begin(block_id);
        team
    }

    /// A context on `spare` for blocks of one launch, each started with
    /// [`Self::begin`] and ended with [`Self::end`]. The spare's segment
    /// cache must be empty or hold segments of `global`.
    pub(crate) fn from_spare(
        spare: Spare,
        num_blocks: u32,
        nwarps: u32,
        smem_bytes: u32,
        global: &'g GlobalMem,
        cost: &'g CostModel,
        arch: &'g DeviceArch,
    ) -> TeamCtx<'g> {
        assert!(nwarps >= 1, "a block needs at least one warp");
        let Spare {
            mut warps,
            acc,
            filter,
            log,
            mut smem,
            mut l2_bank_sectors,
            view,
            sanitizer,
            ..
        } = spare;
        warps.truncate(nwarps as usize);
        warps.resize_with(nwarps as usize, WarpState::default);
        smem.reuse(smem_bytes);
        l2_bank_sectors.resize(arch.cache.l2_banks as usize, 0);
        TeamCtx {
            block_id: 0,
            num_blocks,
            nwarps,
            smem,
            gview: global.view_in(view),
            cost,
            arch,
            warps,
            counters: RtCounters::default(),
            l2_bank_sectors,
            l2_bank: L2BankIndex::new(arch.cache.l2_banks),
            visits: VisitLog { filter, log, start: 0 },
            acc,
            event_trace: None,
            sanitizer: None,
            idle_sanitizer: sanitizer,
            observed: ObservedEffects::default(),
        }
    }

    /// Start block `block_id` in place. The previous block, if any, was
    /// [`Self::end`]ed: this empties what it left behind (warp counters and
    /// L1 windows, shared memory, the fallback arena).
    pub(crate) fn begin(&mut self, block_id: u32) {
        self.block_id = block_id;
        for w in &mut self.warps {
            w.reset();
        }
        self.smem.reuse(self.smem.capacity_bytes());
        self.gview.begin_block(block_id);
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
    pub fn attach_sanitizer(&mut self, s: Box<Sanitizer>) {
        self.sanitizer = Some(s);
    }

    /// Attach the thread's reused sanitizer, reset for this block with
    /// `smem_slots` shared-memory slots (the launch path's
    /// [`Self::attach_sanitizer`]).
    pub(crate) fn sanitize(&mut self, smem_slots: u32) {
        let mut s = self.sanitizer.take().or(self.idle_sanitizer.take()).unwrap_or_default();
        s.reset(self.block_id, self.nwarps, self.arch.warp_size, smem_slots);
        self.sanitizer = Some(s);
    }

    /// Append the attached sanitizer's findings and foreign-arena touches
    /// (see `Sanitizer::drain`); no-op when not sanitizing.
    pub(crate) fn drain_findings(
        &mut self,
        out: &mut Vec<crate::sanitize::Violation>,
        foreign: &mut Vec<crate::sanitize::ForeignTouch>,
    ) {
        if let Some(s) = &mut self.sanitizer {
            s.drain(out, foreign);
        }
    }

    /// Detach the sanitizer again (e.g. to collect its findings).
    pub fn detach_sanitizer(&mut self) -> Option<Box<Sanitizer>> {
        self.sanitizer.take()
    }

    /// Whether a sanitizer is attached (used by the runtime to decide if
    /// protocol metadata is worth emitting).
    pub fn sanitizing(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Whether an event trace is attached. The bytecode engine checks it
    /// to emit the same super-steps as the tree walker where it would
    /// otherwise skip lanes or trip evaluations that charge nothing.
    pub fn tracing(&self) -> bool {
        self.event_trace.is_some()
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

    /// Current clock of a warp, cycles.
    pub fn warp_clock(&self, warp: u32) -> u64 {
        self.warps[warp as usize].clock
    }

    /// Run a per-lane program on `lanes` of `warp` as one lockstep
    /// super-step: `f` is invoked once per lane (in ascending lane order for
    /// determinism); issue combines with max over lanes, the k-th accesses
    /// of all lanes coalesce together. An attached sanitizer sees every
    /// access as it happens, lane by lane in program order.
    pub fn run_lanes<F>(&mut self, warp: u32, lanes: &[u32], mut f: F)
    where
        F: FnMut(&mut Lane<'_, '_>, u32),
    {
        assert!(warp < self.nwarps, "warp {warp} out of range");
        if lanes.is_empty() {
            return;
        }
        self.acc.reset();
        for &lane_id in lanes {
            debug_assert!(lane_id < self.arch.warp_size);
            self.acc.begin_lane();
            let mut lane = Lane {
                global: &mut self.gview,
                smem: &mut self.smem,
                acc: &mut self.acc,
                sanitizer: self.sanitizer.as_deref_mut(),
                tid: warp * self.arch.warp_size + lane_id,
                observed: &mut self.observed,
            };
            f(&mut lane, lane_id);
            self.acc.end_lane();
        }
        self.commit(warp, lanes.len() as u32);
    }

    /// Run a warp-form body on `warp` as one lockstep super-step of
    /// `lanes` lanes: `f` starts each round with [`WarpRounds::round`] and
    /// runs the body on the accessor it returns. Each access is a warp
    /// instruction committed at once, in the order [`Self::run_lanes`]
    /// commits its ordinals, so the super-step costs what the same lanes'
    /// per-lane run would: the k-th access of round r is ordinal `r·A + k`
    /// when every round makes `A` accesses, and ALU work is maxed over
    /// lanes. That holds when each round's lanes are a subset of the
    /// previous round's, as in a simd loop whose lanes stride through
    /// their iterations. A sanitized super-step takes [`Self::run_lanes`]
    /// and [`Warp::lane`] instead, so findings keep their lane order.
    pub fn run_warp<F>(&mut self, warp: u32, lanes: u32, f: F)
    where
        F: FnOnce(&mut WarpRounds<'_, 'g>),
    {
        assert!(warp < self.nwarps, "warp {warp} out of range");
        assert!(self.sanitizer.is_none(), "a sanitized super-step runs lane by lane");
        if lanes == 0 {
            return;
        }
        let l1 = L1Window::take(&mut self.warps[warp as usize].l1, self.cost.l1_lines);
        let issue = Issue { tc: self, warp, l1, step: StepCost::default(), alu: 0 };
        let mut rounds = WarpRounds { warp: Warp { n: 0, form: WarpForm::Issue(issue) } };
        f(&mut rounds);
        let WarpForm::Issue(Issue { tc, warp, l1, mut step, alu }) = rounds.warp.form else {
            unreachable!("a warp-mode super-step keeps its issue state")
        };
        step.alu(alu);
        tc.warps[warp as usize].l1 = l1;
        tc.end_step(warp, lanes, step, 0);
    }

    /// Fold the super-step in [`StepAcc`] into `warp`'s accounting: bank
    /// wavefronts per smem ordinal, then per global ordinal the L1 line
    /// walk, replay and atomic-serialization cycles.
    fn commit(&mut self, warp: u32, lanes: u32) {
        let cost = self.cost;
        let mut acc = std::mem::take(&mut self.acc);

        // Shared memory: the k-th smem access of all lanes is one
        // instruction; distinct slots landing in the same bank serialize
        // into wavefronts, same-slot accesses broadcast.
        let mut smem_wavefronts = 0u64;
        for s in &acc.smem_ords[..acc.max_smem_ord] {
            smem_wavefronts += s.worst().max(1) as u64;
        }

        let mut step = StepCost::default();
        step.alu(acc.max_alu + smem_wavefronts * cost.smem_cycles);
        let mut l1 = L1Window::take(&mut self.warps[warp as usize].l1, cost.l1_lines);
        let mut banks = std::mem::take(&mut self.l2_bank_sectors);

        // Every ordinal below `max_ord` holds at least the longest lane's
        // access, so none is empty.
        for o in &mut acc.ords[..acc.max_ord] {
            if !o.sorted {
                o.sectors.sort_unstable();
                o.sectors.dedup();
            }
            let (lines, missing, hits, full_hits) =
                line_walk(&o.sectors, &mut l1, &mut self.visits, &mut banks, self.l2_bank);
            let walk = Walk { lines, missing, hits, full_hits };
            let atomic = atomic_serialize_cycles(&mut o.atomics, cost);
            step.instr(walk, o.sectors.len() as u64, atomic, cost);
        }

        self.warps[warp as usize].l1 = l1;
        self.l2_bank_sectors = banks;
        self.end_step(warp, lanes, step, acc.max_smem_ops);
        self.acc = acc;
    }

    /// Close a super-step of `lanes` lanes on `warp`: record it in the
    /// event trace and add its cost to the warp's counters.
    fn end_step(&mut self, warp: u32, lanes: u32, step: StepCost, smem_ops: u64) {
        if let Some(t) = &mut self.event_trace {
            t.push(crate::trace::TraceEvent::SuperStep {
                block: self.block_id,
                warp,
                lanes,
                issue: step.issue,
                lines: step.lines,
            });
        }
        let w = &mut self.warps[warp as usize];
        w.clock += step.clock;
        w.issue += step.issue;
        w.sectors += step.sectors;
        w.smem_ops += smem_ops;
        w.l1_hits += step.hits;
        w.tx += step.tx;
        w.full_hits += step.full_hits;
        w.lsu_sectors += step.lsu;
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

    /// The block's line-visit log so far, packed `(line << 8 | mask)`
    /// entries in execution order, for the launch's deterministic
    /// first-touch replay.
    #[cfg(test)]
    fn visits(&self) -> &[u64] {
        &self.visits.log[self.visits.start..]
    }

    /// Where the block's entries sit in the visit log, which keeps every
    /// ended block's entries until [`Self::swap_visit_log`].
    pub(crate) fn visit_range(&self) -> std::ops::Range<usize> {
        self.visits.start..self.visits.log.len()
    }

    /// Swap the visit log for `log`, an empty one. A launch swaps in its
    /// participant's log before the first block and swaps it back, with
    /// every block's entries, after the last: the entries are never
    /// copied, and one buffer per participant holds them.
    pub(crate) fn swap_visit_log(&mut self, log: &mut Vec<u64>) {
        debug_assert!(log.is_empty());
        std::mem::swap(&mut self.visits.log, log);
        self.visits.start = 0;
    }

    /// The block's L1-missing sectors per L2 bank slice so far.
    pub(crate) fn l2_bank_sectors(&self) -> &[u64] {
        &self.l2_bank_sectors
    }

    /// Finish the block: produce its resource profile. `threads` and
    /// `smem_bytes` are the occupancy inputs recorded by the launch.
    /// `dram_sectors` and `dram_atoms` are left at zero here — compulsory
    /// traffic depends on cross-block first-touch order, so the launch
    /// fills both during the block-index-order replay of the
    /// line-visit logs. The block's storage goes back to this
    /// thread's `SPARE` for its next block.
    pub fn finish(mut self, threads: u32, smem_bytes: u32) -> (BlockProfile, RtCounters) {
        let done = self.end(threads, smem_bytes);
        self.into_spare().put_back();
        done
    }

    /// [`Self::finish`] in place: the block's profile and counters, with
    /// its visit filter and L2 bank counts emptied for the next
    /// [`Self::begin`]. Its visit-log entries stay in the thread's log.
    pub(crate) fn end(&mut self, threads: u32, smem_bytes: u32) -> (BlockProfile, RtCounters) {
        self.visits.clear_filter();
        self.visits.start = self.visits.log.len();
        self.l2_bank_sectors.fill(0);
        self.observed = ObservedEffects::default();
        let w = &self.warps;
        let profile = BlockProfile {
            issue: w.iter().map(|w| w.issue).sum(),
            sectors: w.iter().map(|w| w.sectors).sum(),
            dram_sectors: 0,
            dram_atoms: 0,
            smem_ops: w.iter().map(|w| w.smem_ops).sum(),
            l1_hits: w.iter().map(|w| w.l1_hits).sum(),
            l1_full_hits: w.iter().map(|w| w.full_hits).sum(),
            tx_cycles: w.iter().map(|w| w.tx).sum(),
            lsu_sectors: w.iter().map(|w| w.lsu_sectors).sum(),
            resid_cycles: w.iter().map(|w| w.clock.saturating_sub(w.tx)).max().unwrap_or(0),
            threads,
            smem_bytes,
        };
        (profile, std::mem::take(&mut self.counters))
    }

    /// The context's storage, for the thread's [`SPARE`] or its next
    /// launch's blocks.
    pub(crate) fn into_spare(mut self) -> Spare {
        self.visits.log.clear();
        Spare {
            warps: self.warps,
            acc: self.acc,
            filter: self.visits.filter,
            l1_lines: self.cost.l1_lines,
            log: self.visits.log,
            smem: self.smem,
            l2_bank_sectors: self.l2_bank_sectors,
            view: self.gview.into_store(),
            sanitizer: self.sanitizer.or(self.idle_sanitizer),
        }
    }
}

/// Replay cycles of an ordinal's L1 hits that the hierarchical makespan
/// may retire through the LSU pipe instead of the issue pipe: the full
/// `line_cycles` charge for a full-line hit (the data is entirely L1
/// resident), and all but one `sector_cycles` beat for a partial-line hit
/// — its sector drains off the in-flight fill buffer at sector cost on
/// the issue path, while the fill's bandwidth cost is carried by the DRAM
/// burst wall. It is pure arithmetic over `line_walk`'s counts.
#[inline]
fn hit_replay_offload(hits: u64, full_hits: u64, cost: &CostModel) -> u64 {
    let partial = hits - full_hits;
    full_hits * cost.line_cycles + partial * cost.line_cycles.saturating_sub(cost.sector_cycles)
}

/// A super-step's cost so far, folded instruction by instruction with
/// [`StepCost::instr`] by both the per-lane commit and the warp
/// instruction, so the two price a memory instruction one way.
#[derive(Clone, Copy, Debug, Default)]
struct StepCost {
    clock: u64,
    issue: u64,
    /// DRAM-bound (L1-missing) sectors.
    sectors: u64,
    hits: u64,
    lines: u64,
    /// L1-hit replay cycles the LSU pipe may retire ([`WarpState::tx`]).
    tx: u64,
    full_hits: u64,
    /// Distinct sectors requested, hits included.
    lsu: u64,
}

impl StepCost {
    /// Add `cycles` of issue-bound work (ALU, bank wavefronts).
    #[inline]
    fn alu(&mut self, cycles: u64) {
        self.clock += cycles;
        self.issue += cycles;
    }

    /// Fold in one memory instruction: its line walk, its `lsu` distinct
    /// sectors and its `atomic` serialization cycles. Every line is one
    /// transaction and every missing sector one replay beat; an
    /// instruction that misses also exposes the memory latency once.
    #[inline]
    fn instr(&mut self, walk: Walk, lsu: u64, atomic: u64, cost: &CostModel) {
        let tx = walk.lines * cost.line_cycles + walk.missing * cost.sector_cycles;
        let c = tx + atomic;
        self.issue += c;
        self.clock += c + if walk.missing > 0 { cost.exposed_latency } else { 0 };
        self.sectors += walk.missing;
        self.hits += walk.hits;
        self.lines += walk.lines;
        self.tx += hit_replay_offload(walk.hits, walk.full_hits, cost);
        self.full_hits += walk.full_hits;
        self.lsu += lsu;
    }
}

/// Number of 64-byte DRAM burst atoms (pairs of adjacent 32-byte sectors)
/// a fill's sector mask occupies — the HBM minimum-access-granularity
/// rule: a single-sector fill still spends a whole atom of bandwidth.
#[inline]
pub(crate) fn burst_atoms(mask: u8) -> u64 {
    ((mask | (mask >> 1)) & 0b0101_0101).count_ones() as u64
}

/// What walking one instruction's lines through a warp's L1 window found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Walk {
    /// Distinct lines: one LSU transaction each.
    lines: u64,
    /// Requested sectors the window did not hold (DRAM-bound).
    missing: u64,
    /// Line hits: a tag hit with every requested sector already valid.
    hits: u64,
    /// Full-line hits (subset of `hits`): the way's whole sector mask is
    /// populated.
    full_hits: u64,
}

/// Walk one ordinal's unique, sorted sector set grouped by cache line
/// ([`split_sector`]), each line through [`walk_line`]. Returns `(lines,
/// dram-bound sectors, line hits, full-line hits)`.
fn line_walk(
    sectors: &[u64],
    l1: &mut L1Window,
    visits: &mut VisitLog,
    banks: &mut [u64],
    bank: L2BankIndex,
) -> (u64, u64, u64, u64) {
    let mut walk = Walk::default();
    let mut i = 0usize;
    while i < sectors.len() {
        let (line, first) = split_sector(sectors[i]);
        let mut smask = 1u8 << first;
        i += 1;
        while i < sectors.len() {
            let (l, s) = split_sector(sectors[i]);
            if l != line {
                break;
            }
            smask |= 1u8 << s;
            i += 1;
        }
        walk_line::<false>(&mut walk, line, smask, l1, visits, banks, bank);
    }
    (walk.lines, walk.missing, walk.hits, walk.full_hits)
}

/// Walk one line of an instruction, requesting the sectors in `smask`,
/// and fold the outcome into `walk`. The line is one LSU transaction; a
/// line missing the warp's L1 window (4-way LRU, line tags, sectored
/// validity) sends its not-yet-fetched sectors to DRAM. A *hit* is a tag
/// hit with every requested sector already valid; it is a *full-line* hit
/// when the way's entire sector mask is populated (temporal reuse of a
/// completed fill, as opposed to re-touching a sector of a line whose fill
/// is still in progress). Every L1 miss and every sector-adding tag hit is
/// recorded in `visits` for the launch's replay, which derives the
/// compulsory `dram_sectors` and burst atoms (see [`VisitLog`]); every
/// L1-missing sector is attributed to its L2 bank slice in `banks` (no-op
/// when `banks` is empty).
///
/// The per-lane commit ([`line_walk`]) and the warp instruction
/// ([`Warp::read`]) both walk their lines here, in ascending line order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk_line<const TAG_MASK: bool>(
    walk: &mut Walk,
    line: u64,
    smask: u8,
    l1: &mut L1Window,
    visits: &mut VisitLog,
    banks: &mut [u64],
    bank: L2BankIndex,
) {
    walk.lines += 1;
    let mut missing = |mask: u8| {
        walk.missing += mask.count_ones() as u64;
        bank_missing_sectors(mask, line, banks, bank);
    };
    let set = l1.set(line);
    let way =
        if TAG_MASK { set.way_by_mask(line) } else { set.tags.iter().position(|&t| t == line) };
    if let Some(w) = way {
        // Tag hit: only sectors not yet fetched cost DRAM traffic
        // (sectored cache).
        let new = smask & !set.masks[w];
        if new == 0 {
            walk.hits += 1;
            if set.masks[w] == FULL_LINE {
                walk.full_hits += 1;
            }
        } else {
            set.masks[w] |= new;
            visits.record(line, smask);
            missing(new);
        }
        set.touch(w);
    } else {
        let victim = set.victim();
        set.tags[victim] = line;
        set.masks[victim] = smask;
        set.touch(victim);
        visits.record(line, smask);
        missing(smask);
    }
}

/// Attribute each set bit of `mask` (an L1-missing sector within `line`)
/// to its L2 bank slice. Bank counts therefore sum to exactly the
/// L1-missing sector total, which is what the hierarchical makespan's
/// per-bank L2 roof consumes.
#[inline]
fn bank_missing_sectors(mask: u8, line: u64, banks: &mut [u64], bank: L2BankIndex) {
    if banks.is_empty() {
        return;
    }
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros() as u64;
        m &= m - 1;
        banks[bank.of(line * SPL + bit) as usize] += 1;
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

    /// Run `steps` of one lane program on a fresh a100 block (4 KiB of
    /// shared memory, the first 512 B allocated) and assert its profile,
    /// counters, L2 bank counts and line-visit log. The expected values are literals, so
    /// any change to the coalescing, bank, L1 or visit rules shows here.
    fn assert_pinned<F>(
        nwarps: u32,
        steps: &[(u32, Vec<u32>)],
        build: F,
        profile: BlockProfile,
        banks: &[u64],
        visits: &[u64],
    ) where
        F: Fn(&GlobalMem) -> Box<dyn Fn(&mut Lane<'_, '_>, u32)>,
    {
        let c = CostModel::default();
        let a = DeviceArch::a100();
        let g = GlobalMem::new();
        let f = build(&g);
        let mut t = TeamCtx::new(0, 1, nwarps, 4096, &g, &c, &a);
        let _ = t.smem.alloc(512);
        for (warp, lanes) in steps {
            t.run_lanes(*warp, lanes, |lane, id| f(lane, id));
        }
        assert_eq!(t.visits(), visits, "line-visit log");
        assert_eq!(t.l2_bank_sectors(), banks, "L2 bank counts");
        let (got, counters) = t.finish(nwarps * 32, 4096);
        assert_eq!(got, profile, "profile");
        assert_eq!(counters, RtCounters::default(), "lane work touches no runtime counter");
    }

    /// One round of a warp-form body over the active lanes `ids`: a
    /// descending (unsorted) read, sector-sharing reads, a write, reads of
    /// 40-byte elements that span sectors and lines, and reuse across
    /// rounds.
    fn warp_body(w: &mut Warp<'_, '_>, ids: &[u32], r: u64, p: DPtr<f64>, q: DPtr<[f64; 5]>) {
        let id = |l: usize| ids[l] as u64;
        let a = w.read(p, |l| 600 - id(l) * 16 + r);
        w.work(3 + r);
        let b = w.read(p, |l| id(l) / 4 * 4 + 64 * r);
        w.write(p, |l| 1000 + id(l) * 8 + r, |l| a[l] + b[l] + 1.0);
        let c = w.read(q, |l| (id(l) * 5 + r) % 23);
        w.write(p, |l| 2000 + id(l) * 40, |l| c[l][r as usize % 5]);
        w.work(2);
    }

    #[test]
    fn warp_instructions_cost_what_their_lanes_do() {
        // Lane `id` runs `trips[id]` rounds, so each round's lanes are a
        // subset of the previous round's. Both modes must leave the same
        // profile, visit log, bank counts and memory.
        let trips: Vec<u64> = (0..32u64).map(|id| 5 - id % 6).collect();
        let (cost, a) = (CostModel::default(), DeviceArch::a100());
        let mut runs = Vec::new();
        for warp_mode in [false, true] {
            let g = GlobalMem::new();
            let p = g.alloc_from(&(0..4096).map(|i| i as f64).collect::<Vec<_>>());
            let q = g.alloc_from(&(0..23).map(|i| [i as f64; 5]).collect::<Vec<_>>());
            let mut t = TeamCtx::new(0, 1, 2, 0, &g, &cost, &a);
            let lanes: Vec<u32> = (0..32).collect();
            for warp in 0..2 {
                if warp_mode {
                    t.run_warp(warp, 32, |rounds| {
                        for r in 0.. {
                            let ids: Vec<u32> = lanes
                                .iter()
                                .copied()
                                .filter(|&id| r < trips[id as usize])
                                .collect();
                            if ids.is_empty() {
                                break;
                            }
                            warp_body(rounds.round(ids.len()), &ids, r, p, q);
                        }
                    });
                } else {
                    t.run_lanes(warp, &lanes, |lane, id| {
                        for r in 0..trips[id as usize] {
                            warp_body(&mut Warp::lane(lane), &[id], r, p, q);
                        }
                    });
                }
            }
            let visits = t.visits().to_vec();
            let banks = t.l2_bank_sectors().to_vec();
            let profile = t.finish(64, 0);
            runs.push((profile, visits, banks, g.read_slice(p, 4096)));
        }
        assert_eq!(runs[0].0, runs[1].0, "profile");
        assert_eq!(runs[0].1, runs[1].1, "visit log");
        assert_eq!(runs[0].2, runs[1].2, "bank counts");
        assert_eq!(runs[0].3, runs[1].3, "memory");
        assert!(runs[0].0 .0.l1_hits > 0 && runs[0].0 .0.sectors > 0);
    }

    #[test]
    fn pinned_mixed_access_patterns() {
        // Coalesced + strided + ragged lane participation + multi-ordinal.
        assert_pinned(
            2,
            &[(0, (0..32).collect()), (1, (0..7).collect())],
            |g| {
                let p = g.alloc_zeroed::<f64>(4096);
                Box::new(move |lane, id| {
                    lane.work(3 + id as u64 % 5);
                    lane.read(p, id as u64); // coalesced
                    lane.read(p, id as u64 * 9 + 1); // strided
                    if id % 3 == 0 {
                        lane.write(p, 2048 + id as u64, 1.0); // divergent ordinal
                    }
                })
            },
            BlockProfile {
                issue: 290,
                sectors: 54,
                l1_hits: 2,
                l1_full_hits: 2,
                tx_cycles: 12,
                lsu_sectors: 59,
                resid_cycles: 233,
                threads: 64,
                smem_bytes: 4096,
                ..Default::default()
            },
            &[
                0, 1, 3, 2, 1, 2, 1, 2, 2, 1, 3, 2, 2, 1, 2, 0, 2, 2, 0, 0, 0, 1, 1, 3, 2, 1, 2, 1,
                1, 0, 1, 1, 2, 1, 0, 1, 2, 3, 2, 0,
            ],
            &[
                527, 783, 1034, 1282, 1541, 1797, 2058, 2314, 2564, 2821, 3081, 3338, 3586, 3845,
                4101, 4362, 4618, 4868, 33295, 33551,
            ],
        );
    }

    #[test]
    fn pinned_unsorted_and_duplicate_sectors() {
        // Descending addresses force the sort path; shared sectors dedup.
        assert_pinned(
            1,
            &[(0, (0..16).collect())],
            |g| {
                let p = g.alloc_zeroed::<f64>(1024);
                Box::new(move |lane, id| {
                    lane.read(p, 600 - id as u64 * 16); // descending, unsorted
                    lane.read(p, (id as u64 / 4) * 4); // 4 lanes share a sector
                })
            },
            BlockProfile {
                issue: 142,
                sectors: 20,
                lsu_sectors: 20,
                resid_cycles: 154,
                threads: 32,
                smem_bytes: 4096,
                ..Default::default()
            },
            &[
                0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 1, 2, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0,
                0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0,
            ],
            &[
                6148, 6404, 6660, 6916, 7172, 7428, 7684, 7940, 8196, 8452, 8708, 8964, 9220, 9476,
                9732, 9988, 527,
            ],
        );
    }

    #[test]
    fn pinned_atomics() {
        assert_pinned(
            1,
            &[(0, (0..8).collect()), (0, (0..8).collect())],
            |g| {
                let p = g.alloc_zeroed::<f64>(64);
                let u = g.alloc_zeroed::<u64>(64);
                Box::new(move |lane, id| {
                    lane.atomic_add_f64(p, 0, 1.0); // full conflict
                    lane.atomic_add_u64(u, id as u64 % 3, 1); // partial conflict
                })
            },
            BlockProfile {
                issue: 340,
                sectors: 2,
                l1_hits: 2,
                tx_cycles: 8,
                lsu_sectors: 4,
                resid_cycles: 344,
                threads: 32,
                smem_bytes: 4096,
                ..Default::default()
            },
            &[
                0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
            &[513, 1537],
        );
    }

    #[test]
    fn pinned_smem_bank_conflicts() {
        assert_pinned(
            1,
            &[(0, (0..32).collect())],
            |_| {
                Box::new(move |lane, id| {
                    let off = SmOff(0);
                    lane.smem_write_f64(off, id * 2, id as f64); // 2-way conflict
                    lane.smem_read_f64(off, 0); // broadcast
                    if id < 5 {
                        lane.smem_atomic_add_f64(off, 40, 1.0);
                    }
                })
            },
            BlockProfile {
                issue: 8,
                smem_ops: 3,
                resid_cycles: 8,
                threads: 32,
                smem_bytes: 4096,
                ..Default::default()
            },
            &[0; 40],
            &[],
        );
    }

    #[test]
    fn pinned_l1_reuse() {
        // Re-reading the same block of memory exercises tag hits, sectored
        // validity masks, and LRU aging.
        assert_pinned(
            1,
            &[(0, (0..32).collect()), (0, (0..32).collect())],
            |g| {
                let p = g.alloc_zeroed::<f64>(8192);
                Box::new(move |lane, id| {
                    for rep in 0..4u64 {
                        lane.read(p, id as u64 + rep * 16);
                    }
                    lane.read(p, 4096 + id as u64 * 113 % 3800);
                })
            },
            BlockProfile {
                issue: 584,
                sectors: 52,
                l1_hits: 43,
                l1_full_hits: 11,
                tx_cycles: 194,
                lsu_sectors: 128,
                resid_cycles: 420,
                threads: 32,
                smem_bytes: 4096,
                ..Default::default()
            },
            &[
                1, 2, 2, 2, 2, 2, 1, 1, 2, 1, 1, 0, 0, 0, 3, 2, 2, 2, 3, 1, 1, 1, 1, 1, 0, 0, 0, 0,
                3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0,
            ],
            &[
                527, 783, 1039, 1295, 1551, 66049, 67841, 69633, 71425, 73218, 75010, 76802, 78594,
                80388, 82180, 83972, 85764, 87560, 89352, 91144, 92936, 94977, 96769, 98561,
                100353, 102146, 103938, 105730, 107522, 109316, 111108, 112900, 114692, 116488,
                118280, 120072, 121864,
            ],
        );
    }

    /// Sector ids of `lines` whole lines of 4 sectors.
    fn whole_lines(lines: std::ops::Range<u64>) -> Vec<u64> {
        lines.flat_map(|l| l * 4..l * 4 + 4).collect()
    }

    fn empty_log() -> VisitLog {
        VisitLog { filter: visit_filter(), log: Vec::new(), start: 0 }
    }

    /// `line_walk` with no L2 banks to attribute.
    fn walk(sectors: &[u64], l1: &mut L1Window, visits: &mut VisitLog) -> (u64, u64, u64, u64) {
        line_walk(sectors, l1, visits, &mut [], L2BankIndex::new(0))
    }

    #[test]
    fn a_new_block_empties_the_l1_window_by_epoch() {
        let mut l1 = L1Window::take(&mut L1Window::default(), 16);
        let mut visits = empty_log();
        let lines = whole_lines(0..4);
        assert_eq!(walk(&lines, &mut l1, &mut visits), (4, 16, 0, 0));
        assert_eq!(walk(&lines, &mut l1, &mut visits), (4, 0, 4, 4), "same block: all hits");
        l1.new_block();
        assert_eq!(walk(&lines, &mut l1, &mut visits), (4, 16, 0, 0), "new block: all misses");
    }

    #[test]
    fn epoch_wrap_clears_every_set() {
        let mut l1 = L1Window::take(&mut L1Window::default(), 64);
        let mut visits = empty_log();
        // 256 distinct lines over 16 sets of 4 ways: every set fills.
        walk(&whole_lines(0..256), &mut l1, &mut visits);
        assert!(l1.sets.iter().all(|s| !s.tags.contains(&u64::MAX)), "every way holds a line");
        // Every set current at the last epoch before the wrap.
        l1.epoch = u32::MAX;
        for s in &mut l1.sets {
            s.stamp = u32::MAX;
        }
        l1.new_block();
        assert_eq!(l1.epoch, 0);
        assert!(l1.sets.iter().all(|&s| s == L1Set::EMPTY));
        let (lines, missing, hits, _) = walk(&whole_lines(0..256), &mut l1, &mut visits);
        assert_eq!((lines, missing, hits), (256, 1024, 0));
    }

    #[test]
    fn a_visit_filter_collision_relogs_only_logged_bits() {
        let mut v = empty_log();
        assert_eq!(filter_slot(4097), filter_slot(8194));
        v.record(4097, 0b0011);
        v.record(4097, 0b0110); // sector 1 is already logged
        v.record(8194, 0b0001); // evicts 4097 from the shared slot
        v.record(4097, 0b1001); // forgets sector 0, logs it again
        let entry = |line: u64, mask: u64| line << 8 | mask;
        let want = [entry(4097, 0b0011), entry(4097, 0b0100), entry(8194, 1), entry(4097, 0b1001)];
        assert_eq!(v.log, want);
        v.clear_filter();
        assert!(v.filter.iter().all(|&slot| slot == 0), "walking the log empties the filter");
    }

    #[test]
    fn lru_tie_evicts_the_last_oldest_way() {
        let mut set = L1Set { ages: [7, 9, 9, 2], ..L1Set::EMPTY };
        assert_eq!(set.victim(), 2, "ways 1 and 2 tie at the oldest age");
        set.ages = [255; 4];
        assert_eq!(set.victim(), 3);
        set.touch(3);
        assert_eq!(set.ages, [255, 255, 255, 0], "ages saturate");
        // Four lines into one empty set: every fill ties among the oldest
        // ways, so the ways fill from last to first.
        let mut l1 = L1Window::take(&mut L1Window::default(), 4);
        let mut visits = empty_log();
        walk(&whole_lines(10..14), &mut l1, &mut visits);
        assert_eq!(l1.sets[0].tags, [13, 12, 11, 10]);
        assert_eq!(l1.sets[0].ages, [0, 1, 2, 3]);
        // A fifth line evicts line 10, the oldest, from way 3.
        walk(&whole_lines(14..15), &mut l1, &mut visits);
        assert_eq!(l1.sets[0].tags, [13, 12, 11, 14]);
    }

    #[test]
    fn sanitizer_records_each_access_online() {
        // Two lanes of warp 1 race on one smem slot and touch block 1's
        // fallback arena: the sanitizer must see both lanes' accesses with
        // their block-global thread ids, in lane order.
        let (g, c, a) = setup();
        let mut owner = TeamCtx::new(1, 2, 1, 0, &g, &c, &a);
        let q = owner.global().alloc_zeroed::<f64>(8);
        let host = g.alloc_zeroed::<u64>(1);
        let mut t = TeamCtx::new(0, 2, 2, 4096, &g, &c, &a);
        let off = t.smem.alloc(64).unwrap();
        t.attach_sanitizer(Box::new(crate::sanitize::Sanitizer::new(0, 2, 32, 512)));
        t.run_lanes(1, &[0, 1], |lane, id| {
            lane.smem_write_f64(off, 3, id as f64);
            lane.write(q, id as u64, 1.0);
            lane.atomic_add_u64(host, 0, 1);
            if id == 1 {
                lane.read(q, 0);
            }
        });
        assert_eq!(
            t.take_observed(),
            ObservedEffects { global_writes: true, global_atomics: true },
        );
        let mut san = t.detach_sanitizer().unwrap();
        let arena = crate::mem::global::ARENA_BASE + crate::mem::global::ARENA_STRIDE;
        let touch =
            |thread, addr, write| crate::sanitize::ForeignTouch { owner: 1, thread, addr, write };
        assert_eq!(
            san.take_foreign(),
            vec![touch(32, arena, true), touch(33, arena + 8, true), touch(33, arena, false)],
        );
        let write = |thread| crate::sanitize::AccessLabel { thread, write: true, epoch: 0 };
        assert_eq!(
            san.finish(),
            vec![crate::sanitize::Violation::SharedMemRace {
                block: 0,
                slot: off.0 + 3,
                first: write(32),
                second: write(33),
            }],
        );
    }

    #[test]
    fn attached_trace_records_each_super_step() {
        // 32 coalesced f64 loads span 2 lines of 4 sectors each; 3 lanes of
        // ALU work charge their max.
        let (g, c, a) = setup();
        let p = g.alloc_zeroed::<f64>(32);
        let mut t = TeamCtx::new(0, 1, 2, 0, &g, &c, &a);
        t.attach_trace(crate::trace::Trace::with_capacity(8));
        let lanes: Vec<u32> = (0..32).collect();
        t.run_lanes(1, &lanes, |lane, id| {
            lane.read(p, id as u64);
        });
        t.run_lanes(0, &[0, 1, 2], |lane, id| lane.work(id as u64 + 1));
        let step = |warp, lanes, issue, lines| crate::trace::TraceEvent::SuperStep {
            block: 0,
            warp,
            lanes,
            issue,
            lines,
        };
        assert_eq!(
            t.detach_trace().events(),
            [step(1, 32, 2 * c.line_cycles + 8 * c.sector_cycles, 2), step(0, 3, 3, 0)],
        );
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
        let c = CostModel::default();
        let run = |arch: &DeviceArch| {
            let g = GlobalMem::new();
            let mut t = TeamCtx::new(0, 1, 1, 4096, &g, &c, arch);
            let off = t.smem.alloc(64 * 8).unwrap();
            let lanes: Vec<u32> = (0..arch.warp_size).collect();
            t.run_lanes(0, &lanes, |lane, id| {
                lane.smem_write_f64(off, id, id as f64);
            });
            assert!(t.visits().is_empty());
            assert_eq!(t.l2_bank_sectors(), [0; 32]);
            let clock = t.warp_clock(0);
            let (profile, counters) = t.finish(64, 4096);
            assert_eq!(counters, RtCounters::default());
            let expect = BlockProfile {
                issue: clock,
                smem_ops: 1,
                resid_cycles: clock,
                threads: 64,
                smem_bytes: 4096,
                ..Default::default()
            };
            assert_eq!(profile, expect);
            clock
        };
        assert_eq!(run(&DeviceArch::mi100()), c.smem_cycles);
        // Folding the same access onto 32 banks serializes into 2 waves.
        let mut folded = DeviceArch::mi100();
        folded.smem_banks = 32;
        assert_eq!(run(&folded), 2 * c.smem_cycles);
    }

    #[test]
    fn sector_split_covers_every_byte_with_at_most_one_extra() {
        testkit::check("sector_split_covers_every_byte_with_at_most_one_extra", |rng| {
            let addr = rng.range_u64(0, 1_000_000);
            let bytes = rng.range_u32(1, 4096);
            let (first, last) = StepAcc::sectors(addr, bytes);
            // The sectors holding the first and the last byte, so every
            // byte in between is covered.
            let last_byte = addr + bytes as u64 - 1;
            assert_eq!((first, last), (addr / SECTOR_BYTES, last_byte / SECTOR_BYTES));
            // Bounds: at least the ceiling, at most one extra.
            let least = (bytes as u64).div_ceil(SECTOR_BYTES);
            assert!((least..=least + 1).contains(&(last - first + 1)), "{addr} +{bytes}");
        });
    }
}
