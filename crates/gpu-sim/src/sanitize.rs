//! simtcheck — an always-available runtime sanitizer for the simulated
//! device runtime.
//!
//! The simulator executes deterministically, but the *protocols* the OpenMP
//! runtime layers on top of it (generic-mode state machines, masked warp
//! barriers, the variable sharing space of §5.3.1) have invariants the cost
//! model alone never checks. `simtcheck` validates them during execution:
//!
//! 1. **Barrier divergence** — a block barrier or a masked warp sync
//!    (`synchronizeWarp(simdmask())`, §5.1) that is not reached by every
//!    required participant (e.g. generic-mode workers vs the extra
//!    team-main warp) deadlocks real hardware.
//! 2. **Shared-memory races** — two accesses to the same shared-memory
//!    slot from different threads with no synchronization between them
//!    (same *epoch*), at least one a write. Epochs advance at block
//!    barriers (all threads) and warp syncs (the participating lanes).
//! 3. **Sharing-space misuse** — reads of never-written sharing-space
//!    slots, writes that overflow a SIMD group's slice instead of taking
//!    the global-memory fallback, and fallback allocations still live when
//!    `__target_deinit` runs (the paper frees them at the end of every
//!    parallel region, §5.3.1).
//!
//! Enable it with [`crate::Device::enable_sanitizer`]; findings surface as
//! [`Violation`]s on [`crate::stats::LaunchStats::violations`]. The runtime
//! interpreter (in `simt-omp-core`) feeds the sanitizer the metadata it
//! needs: the sharing-space layout per parallel region, barrier arrival
//! sets, and the lane masks of masked warp syncs.

use crate::mask::LaneMask;

/// Where a barrier-divergence violation was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierKind {
    /// Block-level barrier: `missing` holds warp indices.
    Block,
    /// Masked warp-level barrier: `missing` holds lane indices.
    WarpSync {
        /// The warp the masked sync ran on.
        warp: u32,
    },
}

/// One shared-memory access, as labelled by the sanitizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessLabel {
    /// Global thread id within the block (`warp * warp_size + lane`).
    pub thread: u32,
    /// `true` for a write, `false` for a read.
    pub write: bool,
    /// The thread's synchronization epoch at the time of the access.
    pub epoch: u64,
}

/// A protocol violation detected during a sanitized launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A barrier was released without every required participant arriving.
    BarrierDivergence {
        /// Block id.
        block: u32,
        /// Block barrier or masked warp sync.
        kind: BarrierKind,
        /// Missing participants (warp ids for block barriers, lane ids for
        /// warp syncs).
        missing: Vec<u32>,
    },
    /// Two unsynchronized accesses to the same shared-memory slot from
    /// different threads, at least one a write.
    SharedMemRace {
        /// Block id.
        block: u32,
        /// Shared-memory slot index.
        slot: u32,
        /// The earlier access.
        first: AccessLabel,
        /// The later, conflicting access.
        second: AccessLabel,
    },
    /// A sharing-space slot was read before any thread wrote it.
    UnwrittenRead {
        /// Block id.
        block: u32,
        /// Shared-memory slot index.
        slot: u32,
        /// Reading thread.
        thread: u32,
    },
    /// A thread wrote outside its SIMD group's sharing-space slice instead
    /// of taking the global-memory fallback (§5.3.1).
    SharingOverflow {
        /// Block id.
        block: u32,
        /// Shared-memory slot index written.
        slot: u32,
        /// Writing thread.
        thread: u32,
        /// The writer's SIMD group.
        group: u32,
        /// Slots available per group slice in this region.
        group_slots: u32,
    },
    /// Sharing-space global fallback allocations outlived the parallel
    /// region that created them and were still live at `__target_deinit`.
    LeakedFallback {
        /// Block id.
        block: u32,
        /// Allocations never freed.
        outstanding: u64,
    },
    /// An atomic RMW and a plain (non-atomic) access touched the same
    /// shared-memory slot with no synchronization between them. Atomics
    /// never race with each other, but mixing them with unordered plain
    /// accesses is undefined on real hardware.
    AtomicPlainRace {
        /// Block id.
        block: u32,
        /// Shared-memory slot index.
        slot: u32,
        /// The atomic access.
        atomic: AccessLabel,
        /// The conflicting plain access.
        plain: AccessLabel,
    },
    /// A thread block wrote into another block's *leaked* sharing-space
    /// fallback allocation. Blocks of one launch have no synchronization
    /// between them, so any cross-block write to a fallback that its owner
    /// never freed is an unsynchronized cross-team global-memory race.
    /// Detected at launch merge time from per-block fallback ranges and
    /// foreign-arena access summaries.
    CrossTeamFallbackRace {
        /// Block that allocated (and leaked) the fallback.
        owner: u32,
        /// Block whose thread wrote into it.
        accessor: u32,
        /// Writing thread id within the accessor block.
        thread: u32,
        /// Synthetic byte address written.
        addr: u64,
    },
    /// An outlined function's observed behavior contradicted its declared
    /// effect footprint (static claims are checked, not trusted).
    FootprintViolation {
        /// Block id.
        block: u32,
        /// Which outlined function (e.g. `seq #2`, `simd body #0`).
        func: String,
        /// What the declaration missed.
        detail: String,
    },
    /// The block found more violations than the per-block cap keeps; the
    /// launch reports this count right after the block's kept findings.
    FindingsDropped {
        /// Block id.
        block: u32,
        /// Findings found past the cap and not kept.
        dropped: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BarrierDivergence { block, kind, missing } => match kind {
                BarrierKind::Block => {
                    write!(f, "block {block}: block barrier released without warps {missing:?}")
                }
                BarrierKind::WarpSync { warp } => write!(
                    f,
                    "block {block}: masked warp sync on warp {warp} missing lanes {missing:?}"
                ),
            },
            Violation::SharedMemRace { block, slot, first, second } => {
                let k = match (first.write, second.write) {
                    (true, true) => "write-write",
                    (false, true) | (true, false) => "read-write",
                    (false, false) => "read-read",
                };
                write!(
                    f,
                    "block {block}: {k} race on shared slot {slot}: thread {} then \
                     thread {} in epoch {}",
                    first.thread, second.thread, second.epoch
                )
            }
            Violation::UnwrittenRead { block, slot, thread } => {
                write!(f, "block {block}: thread {thread} read never-written sharing slot {slot}")
            }
            Violation::SharingOverflow { block, slot, thread, group, group_slots } => write!(
                f,
                "block {block}: thread {thread} (group {group}) wrote sharing slot \
                 {slot} outside its {group_slots}-slot slice without the global fallback"
            ),
            Violation::LeakedFallback { block, outstanding } => write!(
                f,
                "block {block}: {outstanding} sharing-space global fallback \
                 allocation(s) leaked past __target_deinit"
            ),
            Violation::AtomicPlainRace { block, slot, atomic, plain } => {
                let kind = if plain.write { "write" } else { "read" };
                write!(
                    f,
                    "block {block}: unsynchronized atomic RMW by thread {} vs plain \
                     {kind} by thread {} on shared slot {slot}",
                    atomic.thread, plain.thread
                )
            }
            Violation::CrossTeamFallbackRace { owner, accessor, thread, addr } => write!(
                f,
                "block {accessor}: thread {thread} wrote block {owner}'s leaked \
                 sharing-space fallback at {addr:#x} (cross-team race)"
            ),
            Violation::FootprintViolation { block, func, detail } => {
                write!(f, "block {block}: {func} violated its declared footprint: {detail}")
            }
            Violation::FindingsDropped { block, dropped } => {
                write!(f, "block {block}: {dropped} more finding(s) past the per-block cap")
            }
        }
    }
}

/// The sharing-space layout of the current parallel region, declared by the
/// runtime interpreter so the sanitizer can attribute slots to owners.
#[derive(Clone, Copy, Debug)]
pub struct SharingLayout {
    /// First slot of the sharing space in block shared memory.
    pub base: u32,
    /// Total slots the sharing space reserves.
    pub total_slots: u32,
    /// Slots of the leading team-main slice.
    pub team_slots: u32,
    /// Slots per SIMD-group slice (0 = every post must take the fallback).
    pub group_slots: u32,
    /// Number of SIMD groups in the region.
    pub num_groups: u32,
    /// SIMD group size: thread `tid`'s group is `tid / simdlen`.
    pub simdlen: u32,
}

/// Per-slot access history within the current epoch structure.
#[derive(Clone, Debug, Default)]
struct SlotState {
    last_write: Option<AccessLabel>,
    /// Readers since the last write (one entry per thread, latest epoch).
    readers: Vec<AccessLabel>,
    /// Most recent atomic RMW on the slot (atomics never race with each
    /// other, only with unordered plain accesses).
    last_atomic: Option<AccessLabel>,
    /// The history belongs to the current block only while this equals
    /// the sanitizer's [`Sanitizer::block_stamp`]; an older stamp means
    /// empty.
    stamp: u32,
}

impl SlotState {
    /// Forget the history, keeping the readers' storage.
    fn clear(&mut self, stamp: u32) {
        self.last_write = None;
        self.readers.clear();
        self.last_atomic = None;
        self.stamp = stamp;
    }
}

/// Cap on stored violations per block (further ones are counted, not kept).
const MAX_VIOLATIONS: usize = 64;

/// Cap on recorded foreign-arena touches per block.
const MAX_FOREIGN: usize = 256;

/// One access by this block into another block's fallback arena, reported
/// to the launch merge step (which joins it against the owner's
/// [`crate::mem::global::FallbackRange`]s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForeignTouch {
    /// Block id owning the arena that was touched.
    pub owner: u32,
    /// Touching thread id within the recording block.
    pub thread: u32,
    /// Synthetic byte address.
    pub addr: u64,
    /// Whether the touch was a write (plain or atomic RMW).
    pub write: bool,
}

/// Per-warp synchronization summary in the adaptive (FastTrack-style)
/// representation: a scalar epoch of the warp's last *full* sync, inflating
/// to a lazily allocated `ws x ws` pairwise table only when a partial
/// masked `warp_sync_masked` makes lane pairs diverge.
#[derive(Clone, Debug, Default)]
struct WarpSyncState {
    /// Epoch of the last sync covering every lane of the warp.
    last_full: u64,
    /// `pair[a * ws + b]`: epoch of the last partial sync covering lanes
    /// `a` and `b`. Meaningful only while `inflated`; its storage outlives
    /// the block that allocated it.
    pair: Box<[u64]>,
    /// Whether a partial masked sync on the warp inflated `pair` in the
    /// current block.
    inflated: bool,
}

/// The per-block sanitizer state. Attached by the launch path when
/// [`crate::Device::enable_sanitizer`] is on; fed by [`crate::TeamCtx`].
/// A sim thread keeps one from block to block and `Sanitizer::reset`s
/// it, so its tables are allocated once.
#[derive(Debug, Default)]
pub struct Sanitizer {
    block: u32,
    warp_size: u32,
    nwarps: u32,
    /// Per-thread synchronization epoch: the id of the last sync event the
    /// thread participated in.
    epochs: Vec<u64>,
    next_epoch: u64,
    /// Within-warp synchronization history, one entry per warp. Cross-warp
    /// ordering comes only from block barriers
    /// ([`Self::last_block_barrier`]), so per-warp state makes the
    /// happens-before check exact.
    sync: Vec<WarpSyncState>,
    /// Partial-sync pairwise tables inflated so far.
    pair_inflations: u64,
    /// Accesses into other blocks' fallback arenas.
    foreign: Vec<ForeignTouch>,
    /// Id of the most recent block barrier.
    last_block_barrier: u64,
    slots: Vec<SlotState>,
    /// The current block's stamp: a slot stamped otherwise is empty, so a
    /// reset empties every slot by bumping it.
    block_stamp: u32,
    sharing: Option<SharingLayout>,
    /// Warps that announced arrival at the upcoming block barrier.
    arrived_warps: Vec<bool>,
    any_arrival: bool,
    outstanding_fallbacks: u64,
    violations: Vec<Violation>,
    /// Violations beyond [`MAX_VIOLATIONS`], counted but not stored.
    dropped: u64,
}

impl Sanitizer {
    /// Fresh sanitizer for one block, using the adaptive epoch
    /// representation: O(warps) state until a partial masked warp sync
    /// inflates a per-warp pairwise table.
    pub fn new(block: u32, nwarps: u32, warp_size: u32, smem_slots: u32) -> Sanitizer {
        let mut s = Sanitizer::default();
        s.reset(block, nwarps, warp_size, smem_slots);
        s
    }

    /// Make this the fresh sanitizer [`Sanitizer::new`] builds, keeping
    /// the storage: per-thread and per-warp state is rewritten (O(threads)),
    /// shared-memory slots are emptied by stamp, and findings and foreign
    /// touches are cleared.
    pub(crate) fn reset(&mut self, block: u32, nwarps: u32, warp_size: u32, smem_slots: u32) {
        self.block = block;
        self.warp_size = warp_size;
        self.nwarps = nwarps;
        self.epochs.clear();
        self.epochs.resize((nwarps * warp_size) as usize, 0);
        self.next_epoch = 0;
        self.sync.truncate(nwarps as usize);
        for w in &mut self.sync {
            w.last_full = 0;
            w.inflated = false;
        }
        self.sync.resize_with(nwarps as usize, WarpSyncState::default);
        self.pair_inflations = 0;
        self.foreign.clear();
        self.last_block_barrier = 0;
        // Stamp 0 is never current, so slots added by `resize` start empty.
        self.block_stamp = self.block_stamp.wrapping_add(1);
        if self.block_stamp == 0 {
            self.block_stamp = 1;
            for s in &mut self.slots {
                s.stamp = 0;
            }
        }
        self.slots.resize_with(smem_slots as usize, SlotState::default);
        self.sharing = None;
        self.arrived_warps.clear();
        self.arrived_warps.resize(nwarps as usize, false);
        self.any_arrival = false;
        self.outstanding_fallbacks = 0;
        self.violations.clear();
        self.dropped = 0;
    }

    /// Slot `slot`'s history in the current block, emptied first if an
    /// earlier block left it; `None` past the block's shared memory.
    fn slot(&mut self, slot: u32) -> Option<&mut SlotState> {
        let stamp = self.block_stamp;
        let state = self.slots.get_mut(slot as usize)?;
        if state.stamp != stamp {
            state.clear(stamp);
        }
        Some(state)
    }

    fn report(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.dropped += 1;
        }
    }

    /// Violations found beyond the storage cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Words of synchronization-history state currently allocated — the
    /// quantity the adaptive representation keeps O(warps) on kernels with
    /// no partial masked syncs (regression guard against the old eager
    /// `nwarps * ws^2` allocation).
    pub fn sync_words(&self) -> usize {
        self.sync.iter().map(|w| 1 + if w.inflated { w.pair.len() } else { 0 }).sum()
    }

    /// Number of per-warp pairwise tables inflated by partial masked syncs.
    pub fn pairwise_tables(&self) -> u64 {
        self.pair_inflations
    }

    /// Report a violation detected outside the sanitizer itself (the
    /// runtime interpreter's footprint validation uses this).
    pub fn report_external(&mut self, v: Violation) {
        self.report(v);
    }

    // ----- metadata from the runtime interpreter -----------------------

    /// Declare the sharing-space layout of a new parallel region. Clears
    /// the access history of the sharing region (its contents are
    /// re-staged per region).
    pub fn declare_sharing(&mut self, layout: SharingLayout) {
        let lo = layout.base as usize;
        let hi = ((layout.base + layout.total_slots) as usize).min(self.slots.len());
        for s in &mut self.slots[lo..hi.max(lo)] {
            s.clear(self.block_stamp);
        }
        self.sharing = Some(layout);
    }

    /// Announce that `warp` reaches the next block barrier.
    pub fn barrier_arrive(&mut self, warp: u32) {
        if let Some(a) = self.arrived_warps.get_mut(warp as usize) {
            *a = true;
            self.any_arrival = true;
        }
    }

    // ----- synchronization events --------------------------------------

    /// A block barrier executed. If any arrivals were announced, every warp
    /// must have arrived; then all threads advance to a common epoch.
    pub fn on_block_barrier(&mut self) {
        if self.any_arrival {
            let missing: Vec<u32> =
                (0..self.nwarps).filter(|&w| !self.arrived_warps[w as usize]).collect();
            if !missing.is_empty() {
                self.report(Violation::BarrierDivergence {
                    block: self.block,
                    kind: BarrierKind::Block,
                    missing,
                });
            }
        }
        self.arrived_warps.fill(false);
        self.any_arrival = false;
        self.next_epoch += 1;
        self.epochs.fill(self.next_epoch);
        // No per-pair work: `last_block_barrier` dominates every older
        // pairwise epoch in `ordered_before`.
        self.last_block_barrier = self.next_epoch;
    }

    /// An unmasked warp sync on `warp`: all its lanes synchronize.
    pub fn on_warp_sync(&mut self, warp: u32) {
        self.advance_lanes(warp, LaneMask::full(self.warp_size));
    }

    /// A masked warp sync on `warp`: `required` lanes must all arrive;
    /// `arrived` is the set the caller can prove reached the barrier.
    pub fn on_warp_sync_masked(&mut self, warp: u32, required: LaneMask, arrived: LaneMask) {
        let missing = required.minus(arrived);
        if !missing.is_empty() {
            self.report(Violation::BarrierDivergence {
                block: self.block,
                kind: BarrierKind::WarpSync { warp },
                missing: missing.iter().collect(),
            });
        }
        self.advance_lanes(warp, required.or(arrived));
    }

    fn advance_lanes(&mut self, warp: u32, lanes: LaneMask) {
        self.next_epoch += 1;
        let ws = self.warp_size;
        let participants = lanes.and(LaneMask::full(ws));
        for a in participants.iter() {
            if let Some(e) = self.epochs.get_mut((warp * ws + a) as usize) {
                *e = self.next_epoch;
            }
        }
        let Some(state) = self.sync.get_mut(warp as usize) else { return };
        if participants.count() == ws {
            // Full sync: one scalar update, no pairwise table.
            state.last_full = self.next_epoch;
        } else {
            // Partial masked sync: inflate the warp's pairwise table on
            // first use in the block, reusing an earlier block's storage.
            if !state.inflated {
                let len = (ws * ws) as usize;
                if state.pair.len() == len {
                    state.pair.fill(0);
                } else {
                    state.pair = vec![0u64; len].into_boxed_slice();
                }
                state.inflated = true;
                self.pair_inflations += 1;
            }
            for a in participants.iter() {
                for b in participants.iter() {
                    state.pair[(a * ws + b) as usize] = self.next_epoch;
                }
            }
        }
    }

    /// Whether an access by `w_thread` with epoch `w_epoch` happens-before
    /// the *current* event on `thread`: a sync covering both must have run
    /// after the access. Cross-warp, only a block barrier orders; within a
    /// warp, any sync event including both lanes does.
    fn ordered_before(&self, w_thread: u32, w_epoch: u64, thread: u32) -> bool {
        if w_thread == thread {
            return true;
        }
        let ws = self.warp_size;
        let mut latest_common = self.last_block_barrier;
        if w_thread / ws == thread / ws {
            let sw = self.sync.get((thread / ws) as usize).map_or(0, |state| {
                let pairwise = if state.inflated {
                    state.pair[((thread % ws) * ws + w_thread % ws) as usize]
                } else {
                    0
                };
                state.last_full.max(pairwise)
            });
            latest_common = latest_common.max(sw);
        }
        // A common sync issued *before* the access would have raised the
        // accessor's epoch to at least its id, so `> w_epoch` means it ran
        // after the access and orders it before the current event.
        latest_common > w_epoch
    }

    // ----- shared-memory accesses --------------------------------------

    /// Record one shared-memory slot access by global thread `thread`.
    pub fn record_smem(&mut self, thread: u32, slot: u32, write: bool) {
        let epoch = self.epochs.get(thread as usize).copied().unwrap_or(0);
        let label = AccessLabel { thread, write, epoch };
        let block = self.block;
        let in_sharing =
            self.sharing.map(|l| slot >= l.base && slot < l.base + l.total_slots).unwrap_or(false);

        if write {
            if let Some(v) = self.check_overflow(thread, slot) {
                self.report(v);
            }
        }

        if self.slot(slot).is_none() {
            return;
        }
        let state = &self.slots[slot as usize];
        let mut found: Vec<Violation> = Vec::new();
        // Plain access vs an unordered atomic RMW: the atomic/plain rule.
        if let Some(a) = state.last_atomic {
            if !self.ordered_before(a.thread, a.epoch, thread) {
                found.push(Violation::AtomicPlainRace { block, slot, atomic: a, plain: label });
            }
        }
        if write {
            // A write conflicts with the previous write and with every read
            // since it, unless a covering sync ordered them before us.
            if let Some(w) = state.last_write {
                if !self.ordered_before(w.thread, w.epoch, thread) {
                    found.push(Violation::SharedMemRace { block, slot, first: w, second: label });
                }
            }
            for r in &state.readers {
                if !self.ordered_before(r.thread, r.epoch, thread) {
                    found.push(Violation::SharedMemRace { block, slot, first: *r, second: label });
                }
            }
        } else {
            match state.last_write {
                Some(w) => {
                    if !self.ordered_before(w.thread, w.epoch, thread) {
                        found.push(Violation::SharedMemRace {
                            block,
                            slot,
                            first: w,
                            second: label,
                        });
                    }
                }
                None => {
                    // An atomic counts as initialization: reading after only
                    // atomic writes is not an unwritten read.
                    if in_sharing && state.last_atomic.is_none() {
                        found.push(Violation::UnwrittenRead { block, slot, thread });
                    }
                }
            }
        }
        let state = &mut self.slots[slot as usize];
        if write {
            state.last_write = Some(label);
            state.readers.clear();
            // The plain write supersedes the atomic history; if it raced
            // with the atomic we reported it above.
            state.last_atomic = None;
        } else {
            match state.readers.iter_mut().find(|r| r.thread == thread) {
                Some(r) => *r = label,
                None => state.readers.push(label),
            }
        }
        for v in found {
            self.report(v);
        }
    }

    /// Record one shared-memory atomic RMW by global thread `thread`.
    /// Atomics never race with each other; they conflict only with plain
    /// accesses not ordered before them.
    pub fn record_smem_atomic(&mut self, thread: u32, slot: u32) {
        let epoch = self.epochs.get(thread as usize).copied().unwrap_or(0);
        let label = AccessLabel { thread, write: true, epoch };
        let block = self.block;
        if let Some(v) = self.check_overflow(thread, slot) {
            self.report(v);
        }
        if self.slot(slot).is_none() {
            return;
        }
        let state = &self.slots[slot as usize];
        let mut found: Vec<Violation> = Vec::new();
        if let Some(w) = state.last_write {
            if !self.ordered_before(w.thread, w.epoch, thread) {
                found.push(Violation::AtomicPlainRace { block, slot, atomic: label, plain: w });
            }
        }
        for r in &state.readers {
            if !self.ordered_before(r.thread, r.epoch, thread) {
                found.push(Violation::AtomicPlainRace { block, slot, atomic: label, plain: *r });
            }
        }
        self.slots[slot as usize].last_atomic = Some(label);
        for v in found {
            self.report(v);
        }
    }

    /// Whether a write to `slot` lands outside the writer's group slice of
    /// the declared sharing layout.
    fn check_overflow(&self, thread: u32, slot: u32) -> Option<Violation> {
        let l = self.sharing?;
        // Only the partitioned group region is owner-checked; the team
        // slice and memory outside the sharing space are unrestricted.
        let group_region = l.base + l.team_slots;
        if slot < group_region || slot >= l.base + l.total_slots {
            return None;
        }
        // The extra team-main warp (generic mode) is not in any group.
        let writer_group = thread / l.simdlen.max(1);
        if writer_group >= l.num_groups {
            return None;
        }
        let idx = slot - group_region;
        let fits = l.group_slots > 0
            && idx / l.group_slots == writer_group
            && idx < l.num_groups * l.group_slots;
        if fits {
            return None;
        }
        Some(Violation::SharingOverflow {
            block: self.block,
            slot,
            thread,
            group: writer_group,
            group_slots: l.group_slots,
        })
    }

    // ----- cross-team fallback accesses --------------------------------

    /// Record one global-memory access by `thread`. Only accesses landing
    /// in *another* block's fallback arena are kept (capped, deduplicated);
    /// the launch merge step joins them against the owners' fallback
    /// ranges to flag cross-team races on leaked allocations.
    #[inline]
    pub fn record_global_access(&mut self, thread: u32, addr: u64, write: bool) {
        use crate::mem::global::{ARENA_BASE, ARENA_STRIDE};
        if addr < ARENA_BASE {
            return;
        }
        let owner = ((addr - ARENA_BASE) / ARENA_STRIDE) as u32;
        if owner == self.block {
            return;
        }
        let touch = ForeignTouch { owner, thread, addr, write };
        if self.foreign.len() < MAX_FOREIGN && !self.foreign.contains(&touch) {
            self.foreign.push(touch);
        }
    }

    /// Drain the recorded foreign-arena touches (launch merge step).
    pub fn take_foreign(&mut self) -> Vec<ForeignTouch> {
        std::mem::take(&mut self.foreign)
    }

    // ----- sharing-space fallback lifecycle ----------------------------

    /// A sharing-space global fallback allocation happened.
    pub fn on_fallback_alloc(&mut self) {
        self.outstanding_fallbacks += 1;
    }

    /// A sharing-space global fallback allocation was freed.
    pub fn on_fallback_free(&mut self) {
        self.outstanding_fallbacks = self.outstanding_fallbacks.saturating_sub(1);
    }

    /// The launch's teardown of a block, leaving the storage for the next
    /// one: append [`Self::finish`]'s findings to `out`, then one
    /// [`Violation::FindingsDropped`] if the cap dropped any, and the
    /// foreign-arena touches to `foreign`.
    pub(crate) fn drain(&mut self, out: &mut Vec<Violation>, foreign: &mut Vec<ForeignTouch>) {
        self.report_leak();
        // Empty vectors are skipped: a zero-byte copy from an empty
        // vector's dangling pointer can be slow (see `launch::extend`).
        if !self.violations.is_empty() {
            out.append(&mut self.violations);
        }
        if self.dropped > 0 {
            out.push(Violation::FindingsDropped { block: self.block, dropped: self.dropped });
        }
        if !self.foreign.is_empty() {
            foreign.append(&mut self.foreign);
        }
    }

    fn report_leak(&mut self) {
        if self.outstanding_fallbacks > 0 {
            self.violations.push(Violation::LeakedFallback {
                block: self.block,
                outstanding: self.outstanding_fallbacks,
            });
        }
    }

    /// End of the block (`__target_deinit` has run): check for leaked
    /// fallbacks and return all findings. A leak is kept even past
    /// `MAX_VIOLATIONS`: there is at most one per block.
    pub fn finish(mut self) -> Vec<Violation> {
        self.report_leak();
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> Sanitizer {
        Sanitizer::new(0, 2, 32, 256)
    }

    #[test]
    fn same_epoch_write_write_races() {
        let mut s = san();
        s.record_smem(0, 10, true);
        s.record_smem(1, 10, true);
        let v = s.finish();
        assert!(matches!(v[0], Violation::SharedMemRace { slot: 10, .. }), "{v:?}");
    }

    #[test]
    fn sync_separates_accesses() {
        let mut s = san();
        s.record_smem(0, 10, true);
        s.on_warp_sync(0);
        s.record_smem(1, 10, false); // reader in a later epoch: clean
        assert!(s.finish().is_empty());
    }

    #[test]
    fn masked_sync_only_synchronizes_participants() {
        let mut s = san();
        s.record_smem(0, 10, true);
        // Sync lanes 8..16 only; lane 1 (thread 1) stays in the old epoch.
        s.on_warp_sync_masked(0, LaneMask::contiguous(8, 8), LaneMask::contiguous(8, 8));
        s.record_smem(1, 10, false);
        let v = s.finish();
        assert!(matches!(v[0], Violation::SharedMemRace { .. }), "{v:?}");
    }

    #[test]
    fn block_barrier_synchronizes_everyone() {
        let mut s = san();
        s.record_smem(0, 3, true);
        s.on_block_barrier();
        s.record_smem(40, 3, false); // warp 1 lane 8, new epoch
        assert!(s.finish().is_empty());
    }

    #[test]
    fn missing_warp_at_block_barrier() {
        let mut s = san();
        s.barrier_arrive(0);
        s.on_block_barrier();
        let v = s.finish();
        assert_eq!(
            v[0],
            Violation::BarrierDivergence { block: 0, kind: BarrierKind::Block, missing: vec![1] }
        );
    }

    #[test]
    fn unannounced_barriers_are_not_checked() {
        let mut s = san();
        s.on_block_barrier();
        assert!(s.finish().is_empty());
    }

    #[test]
    fn divergent_masked_sync() {
        let mut s = san();
        s.on_warp_sync_masked(1, LaneMask::contiguous(0, 8), LaneMask::contiguous(0, 4));
        let v = s.finish();
        assert_eq!(
            v[0],
            Violation::BarrierDivergence {
                block: 0,
                kind: BarrierKind::WarpSync { warp: 1 },
                missing: vec![4, 5, 6, 7],
            }
        );
    }

    #[test]
    fn unwritten_sharing_read_flagged_inside_region_only() {
        let mut s = san();
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 8,
            group_slots: 4,
            num_groups: 8,
            simdlen: 8,
        });
        s.record_smem(0, 200, false); // outside the sharing space: fine
        s.record_smem(0, 12, false); // inside: never written
        let v = s.finish();
        assert_eq!(v, vec![Violation::UnwrittenRead { block: 0, slot: 12, thread: 0 }]);
    }

    #[test]
    fn overflow_write_outside_group_slice() {
        let mut s = san();
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 8,
            group_slots: 4,
            num_groups: 8,
            simdlen: 4,
        });
        // Thread 0 is group 0: slots 8..12. Slot 13 belongs to group 1.
        s.record_smem(0, 9, true);
        s.record_smem(0, 13, true);
        let v = s.finish();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::SharingOverflow { slot: 13, group: 0, .. }), "{v:?}");
    }

    #[test]
    fn zero_slot_slices_always_overflow() {
        let mut s = san();
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 32,
            team_slots: 32,
            group_slots: 0,
            num_groups: 64,
            simdlen: 2,
        });
        // The group region is empty; no group-region slot exists, so no
        // write can be attributed — but any write past the team slice of a
        // *larger* space is an overflow:
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 32,
            group_slots: 0,
            num_groups: 64,
            simdlen: 2,
        });
        s.record_smem(0, 40, true);
        let v = s.finish();
        assert!(matches!(v[0], Violation::SharingOverflow { group_slots: 0, .. }), "{v:?}");
    }

    #[test]
    fn leaked_fallback_reported_at_finish() {
        let mut s = san();
        s.on_fallback_alloc();
        s.on_fallback_alloc();
        s.on_fallback_free();
        let v = s.finish();
        assert_eq!(v, vec![Violation::LeakedFallback { block: 0, outstanding: 1 }]);
    }

    #[test]
    fn balanced_fallbacks_are_clean() {
        let mut s = san();
        s.on_fallback_alloc();
        s.on_fallback_free();
        assert!(s.finish().is_empty());
    }

    #[test]
    fn region_redeclare_clears_history() {
        let mut s = san();
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 8,
            group_slots: 4,
            num_groups: 8,
            simdlen: 8,
        });
        s.record_smem(0, 9, true);
        // New region: the old write is forgotten; a same-epoch write by a
        // different thread is not a race against it.
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 8,
            group_slots: 4,
            num_groups: 8,
            simdlen: 8,
        });
        s.record_smem(1, 9, true);
        assert!(s.finish().is_empty());
    }

    #[test]
    fn violation_cap_counts_drops() {
        let mut s = san();
        for i in 0..(MAX_VIOLATIONS as u32 + 10) {
            s.record_smem(0, 5, true);
            s.record_smem(1, 5, true); // WW race each round (same epoch)
            let _ = i;
        }
        assert!(s.dropped() > 0);
        assert_eq!(s.finish().len(), MAX_VIOLATIONS);
    }

    #[test]
    fn leaked_fallback_survives_a_full_cap() {
        let mut s = san();
        s.on_fallback_alloc();
        for _ in 0..(MAX_VIOLATIONS + 3) {
            s.record_smem(0, 5, true);
            s.record_smem(40, 5, true); // cross-warp WW race each round
        }
        let v = s.finish();
        assert_eq!(v.len(), MAX_VIOLATIONS + 1);
        assert_eq!(v.last(), Some(&Violation::LeakedFallback { block: 0, outstanding: 1 }));
    }

    #[test]
    fn display_is_readable() {
        let v = Violation::LeakedFallback { block: 3, outstanding: 2 };
        assert!(format!("{v}").contains("leaked"));
        let fp = Violation::FootprintViolation {
            block: 1,
            func: "seq #0".into(),
            detail: "undeclared global write".into(),
        };
        assert!(format!("{fp}").contains("footprint"));
    }

    #[test]
    fn atomic_vs_plain_unsynchronized_races() {
        let mut s = san();
        s.record_smem(0, 7, true); // plain write
        s.record_smem_atomic(1, 7); // same epoch: atomic/plain race
        let v = s.finish();
        assert!(
            matches!(v[0], Violation::AtomicPlainRace { slot: 7, .. }),
            "expected atomic/plain race, got {v:?}"
        );
    }

    #[test]
    fn plain_after_unordered_atomic_races() {
        let mut s = san();
        s.record_smem_atomic(0, 7);
        s.record_smem(1, 7, false); // plain read, same epoch
        let v = s.finish();
        assert!(matches!(v[0], Violation::AtomicPlainRace { .. }), "{v:?}");
    }

    #[test]
    fn atomics_never_race_with_each_other() {
        let mut s = san();
        s.record_smem_atomic(0, 7);
        s.record_smem_atomic(1, 7);
        s.record_smem_atomic(40, 7); // other warp, same epoch
        assert!(s.finish().is_empty());
    }

    #[test]
    fn barrier_separates_atomic_and_plain() {
        let mut s = san();
        s.record_smem_atomic(0, 7);
        s.on_block_barrier();
        s.record_smem(40, 7, false); // ordered after the atomic: clean
        assert!(s.finish().is_empty());
    }

    #[test]
    fn read_after_only_atomics_is_not_unwritten() {
        let mut s = san();
        s.declare_sharing(SharingLayout {
            base: 0,
            total_slots: 64,
            team_slots: 8,
            group_slots: 4,
            num_groups: 8,
            simdlen: 8,
        });
        // Slot 8 is in thread 0's own group slice (group 0 owns 8..12).
        s.record_smem_atomic(0, 8);
        s.on_block_barrier();
        s.record_smem(1, 8, false);
        assert!(s.finish().is_empty());
    }

    #[test]
    fn report_external_surfaces_in_findings() {
        let mut s = san();
        s.report_external(Violation::FootprintViolation {
            block: 0,
            func: "seq #1".into(),
            detail: "undeclared atomic".into(),
        });
        let v = s.finish();
        assert!(matches!(v[0], Violation::FootprintViolation { .. }));
    }

    #[test]
    fn no_quadratic_allocation_without_partial_syncs() {
        // Regression for the eager `nwarps * ws^2` table: a kernel that
        // only ever uses full warp syncs and block barriers must keep the
        // sync history at O(warps) words.
        let nwarps = 32u32;
        let ws = 32u32;
        let mut s = Sanitizer::new(0, nwarps, ws, 256);
        assert_eq!(s.sync_words(), nwarps as usize);
        for w in 0..nwarps {
            s.on_warp_sync(w);
            s.record_smem(w * ws, (w % 8) * 8, true);
        }
        s.on_block_barrier();
        for w in 0..nwarps {
            s.on_warp_sync(w);
        }
        assert_eq!(s.sync_words(), nwarps as usize, "full syncs must not inflate");
        assert_eq!(s.pairwise_tables(), 0);
        assert!((s.sync_words() as u32) < nwarps * ws * ws / 100);
    }

    #[test]
    fn partial_masked_sync_inflates_only_its_warp() {
        let mut s = Sanitizer::new(0, 4, 32, 256);
        s.on_warp_sync_masked(2, LaneMask::contiguous(0, 16), LaneMask::contiguous(0, 16));
        // One warp inflated: 4 scalars + one 32x32 table.
        assert_eq!(s.pairwise_tables(), 1);
        assert_eq!(s.sync_words(), 4 + 32 * 32);
        // Repeat partial syncs on the same warp reuse the table.
        s.on_warp_sync_masked(2, LaneMask::contiguous(16, 16), LaneMask::contiguous(16, 16));
        assert_eq!(s.pairwise_tables(), 1);
    }

    /// A full sync, a partial masked sync and a block barrier each order
    /// exactly the pairs they cover. The expected list is what the adaptive
    /// table and the dense `nwarps * ws^2` table it replaced both reported.
    #[test]
    fn adaptive_and_dense_agree() {
        let mut s = Sanitizer::new(0, 2, 32, 256);
        s.record_smem(0, 10, true);
        s.record_smem(33, 10, true); // cross-warp, unordered: race
        s.on_warp_sync(0);
        s.record_smem(1, 10, false); // ordered after t0, not after t33: race
        s.on_warp_sync_masked(0, LaneMask::contiguous(0, 8), LaneMask::contiguous(0, 8));
        s.record_smem(2, 10, true); // ordered after t1 by the partial sync; races t33
        s.record_smem(12, 10, true); // non-participant: races with t2
        s.on_block_barrier();
        s.record_smem(40, 10, false); // after block barrier: clean
        let label = |thread, write, epoch| AccessLabel { thread, write, epoch };
        let race = |first, second| Violation::SharedMemRace { block: 0, slot: 10, first, second };
        assert_eq!(
            s.finish(),
            vec![
                race(label(0, true, 0), label(33, true, 0)),
                race(label(33, true, 0), label(1, false, 1)),
                race(label(33, true, 0), label(2, true, 2)),
                race(label(2, true, 2), label(12, true, 1)),
            ]
        );
    }

    #[test]
    fn foreign_touches_recorded_and_deduped() {
        use crate::mem::global::{ARENA_BASE, ARENA_STRIDE};
        let mut s = san(); // block 0
        s.record_global_access(3, 0x1000, true); // ordinary heap: ignored
        s.record_global_access(3, ARENA_BASE + 8, true); // own arena: ignored
        let foreign = ARENA_BASE + 2 * ARENA_STRIDE + 16; // block 2's arena
        s.record_global_access(3, foreign, true);
        s.record_global_access(3, foreign, true); // duplicate
        s.record_global_access(4, foreign, false); // read, distinct record
        let got = s.take_foreign();
        assert_eq!(
            got,
            vec![
                ForeignTouch { owner: 2, thread: 3, addr: foreign, write: true },
                ForeignTouch { owner: 2, thread: 4, addr: foreign, write: false },
            ]
        );
        assert!(s.take_foreign().is_empty(), "take drains");
        assert!(s.finish().is_empty(), "foreign touches are not per-block violations");
    }

    #[test]
    fn cross_team_violation_displays() {
        let v = Violation::CrossTeamFallbackRace { owner: 1, accessor: 2, thread: 7, addr: 0x40 };
        let txt = format!("{v}");
        assert!(txt.contains("cross-team"), "{txt}");
        assert!(txt.contains("block 1"), "{txt}");
    }
}
