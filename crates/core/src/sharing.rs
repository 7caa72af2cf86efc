//! The variable sharing space (paper §5.3.1).
//!
//! Generic-mode execution communicates variables from main threads to
//! worker threads through a static shared-memory area. Before the paper's
//! work only the single team main thread wrote to it (1024 bytes); with
//! SIMD groups every SIMD main writes too, so the paper doubled it to 2048
//! bytes and divides the available space **evenly among the SIMD groups**.
//! A group whose slice cannot hold its variables falls back to a fresh
//! **global-memory allocation**, freed at the end of the parallel region.
//!
//! This module computes the layout; the runtime interpreter performs (and
//! charges) the actual staging traffic.

use gpu_sim::mem::shared::{SharedMem, SmOff};

/// Slots reserved at the front of the space for the *team* main thread's
/// posts (the pre-existing single-writer use of the space).
const TEAM_SLICE_SLOTS: u32 = 32;

/// Slots a generic-mode SIMD main must post into its group slice to stage a
/// `simd` loop for its workers (§5.3.1): the outlined function, the trip
/// count, and `stage_regs` thread-level registers the body may read.
///
/// Single source of truth — the runtime staging loop, the bytecode lowerer,
/// and simtlint's overflow analysis all call this, so the fallback
/// threshold can never drift between execution and prediction.
pub fn stage_slots(stage_regs: usize) -> u32 {
    2 + stage_regs as u32
}

/// Slots the *team* main thread posts into the team slice when parking
/// workers for a generic-mode parallel region: the region function, the
/// kernel arguments, and the team-scope registers.
///
/// Shared by the runtime post loop, the bytecode lowerer, and simtlint's
/// E-TEAM-POST overflow check.
pub fn post_slots(nargs: usize, team_regs: usize) -> u32 {
    (1 + nargs + team_regs) as u32
}

/// Pure slot arithmetic of the sharing space: how many slots the team slice
/// and each group slice get for a given capacity and group count.
///
/// This is the single source of truth for the layout math — the runtime
/// ([`SharingSpace`]) and the static analysis (`simtlint`,
/// `Analysis::staging_report`) both use it, so report arithmetic can never
/// drift from execution. No shared memory is touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotLayout {
    /// Total capacity in 8-byte slots.
    pub total_slots: u32,
    /// Slots of the leading team-main slice.
    pub team_slots: u32,
    /// Slots per SIMD-group slice (0 when groups outnumber slots).
    pub group_slots: u32,
    /// Number of SIMD groups the space is divided among.
    pub num_groups: u32,
}

impl SlotLayout {
    /// Layout for a space of `total_slots` slots divided among
    /// `num_groups` SIMD groups (§5.3.1: the space after the team slice is
    /// divided evenly).
    pub fn new(total_slots: u32, num_groups: u32) -> SlotLayout {
        assert!(num_groups >= 1);
        let team_slots = TEAM_SLICE_SLOTS.min(total_slots);
        let group_slots = total_slots.saturating_sub(TEAM_SLICE_SLOTS) / num_groups;
        SlotLayout { total_slots, team_slots, group_slots, num_groups }
    }

    /// Layout for a sharing space of `bytes` bytes (8-byte slots). A size
    /// that is not a multiple of 8 is rounded **up** to the next whole
    /// slot — the runtime rounds its shared-memory reservation the same
    /// way ([`SharingSpace::reserve`]), so capacity is never silently
    /// dropped.
    pub fn for_bytes(bytes: u32, num_groups: u32) -> SlotLayout {
        SlotLayout::new(bytes.div_ceil(8), num_groups)
    }

    /// Whether a group slice can hold `slots` slots; `false` means the
    /// runtime must allocate the global fallback (§5.3.1).
    pub fn group_fits(&self, slots: u32) -> bool {
        slots <= self.group_slots
    }

    /// Whether the team slice can hold `slots` slots.
    pub fn team_fits(&self, slots: u32) -> bool {
        slots <= self.team_slots
    }

    /// Start slot (relative to the space base) of group `g`'s slice.
    pub fn group_start(&self, g: u32) -> u32 {
        assert!(g < self.num_groups, "group {g} out of range");
        self.team_slots + g * self.group_slots
    }
}

/// Layout of the variable sharing space for one team.
#[derive(Clone, Copy, Debug)]
pub struct SharingSpace {
    base: SmOff,
    total_slots: u32,
    /// Slice layout of the current parallel region; `None` until
    /// [`Self::configure_groups`] runs. Group-slice accessors panic while
    /// unconfigured — an unconfigured space has *no* defined group layout,
    /// and silently treating it as one giant group (the old behaviour)
    /// masked interpreter sequencing bugs.
    layout: Option<SlotLayout>,
}

impl SharingSpace {
    /// Reserve `bytes` of shared memory for the sharing space, rounded up
    /// to whole 8-byte slots (matching [`SlotLayout::for_bytes`]). Panics
    /// if the block's shared memory cannot hold it (launch sizing bug).
    pub fn reserve(smem: &mut SharedMem, bytes: u32) -> SharingSpace {
        let total_slots = bytes.div_ceil(8);
        let base = smem
            .alloc(total_slots * 8)
            .expect("shared memory too small for the variable sharing space");
        SharingSpace { base, total_slots, layout: None }
    }

    /// Slice layout for a `parallel` region with `num_groups` SIMD groups:
    /// delegates the arithmetic to [`SlotLayout`] (§5.3.1).
    pub fn configure_groups(&mut self, num_groups: u32) {
        self.layout = Some(SlotLayout::new(self.total_slots, num_groups));
    }

    /// The configured group layout; panics on use before
    /// [`Self::configure_groups`].
    fn layout(&self) -> SlotLayout {
        self.layout.expect(
            "sharing space used before configure_groups: the group layout \
             is undefined until a parallel region divides the space (§5.3.1)",
        )
    }

    /// The team main thread's slice (offset, slots). The team slice does
    /// not depend on the group count, so it is defined even before
    /// [`Self::configure_groups`]; the arithmetic still goes through
    /// [`SlotLayout`] so the two can never drift.
    pub fn team_slice(&self) -> (SmOff, u32) {
        let l = self.layout.unwrap_or_else(|| SlotLayout::new(self.total_slots, 1));
        (self.base, l.team_slots)
    }

    /// Group `g`'s slice (offset, slots). Slots may be 0 when many groups
    /// share a small space — every use then needs the global fallback.
    /// Panics if [`Self::configure_groups`] has not run.
    pub fn group_slice(&self, g: u32) -> (SmOff, u32) {
        let l = self.layout();
        let start = l.group_start(g);
        (SmOff(self.base.0 + start), l.group_slots)
    }

    /// Whether a group slice can hold `slots` slots; `false` means the
    /// runtime must allocate the global fallback (§5.3.1). Panics if
    /// [`Self::configure_groups`] has not run.
    pub fn group_fits(&self, slots: u32) -> bool {
        self.layout().group_fits(slots)
    }

    /// Whether the team slice can hold `slots` slots.
    pub fn team_fits(&self, slots: u32) -> bool {
        slots <= self.team_slice().1
    }

    /// Slots per group under the current configuration. Panics if
    /// [`Self::configure_groups`] has not run.
    pub fn group_slots(&self) -> u32 {
        self.layout().group_slots
    }

    /// Total capacity in slots.
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// The current region's layout as simtcheck needs it
    /// ([`gpu_sim::TeamCtx::declare_sharing`]) for groups of `simdlen`
    /// lanes. Panics if [`Self::configure_groups`] has not run.
    pub fn declared_layout(&self, simdlen: u32) -> gpu_sim::SharingLayout {
        let l = self.layout();
        gpu_sim::SharingLayout {
            base: self.base.0,
            total_slots: self.total_slots,
            team_slots: l.team_slots,
            group_slots: l.group_slots,
            num_groups: l.num_groups,
            simdlen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(bytes: u32) -> (SharedMem, SharingSpace) {
        let mut smem = SharedMem::new(bytes + 64);
        let s = SharingSpace::reserve(&mut smem, bytes);
        (smem, s)
    }

    #[test]
    fn stage_and_post_slot_arithmetic() {
        // §5.3.1: fn + trip + registers for a SIMD-main stage; fn + args +
        // team registers for a team-main post.
        assert_eq!(stage_slots(0), 2);
        assert_eq!(stage_slots(3), 5);
        assert_eq!(post_slots(0, 0), 1);
        assert_eq!(post_slots(4, 2), 7);
    }

    #[test]
    fn paper_default_layout() {
        // 2048 B = 256 slots; 32 reserved for the team, 224 for groups.
        let (_m, mut s) = space(2048);
        assert_eq!(s.total_slots(), 256);
        s.configure_groups(4); // e.g. 128 threads, simdlen 32
        assert_eq!(s.group_slots(), 56);
        assert!(s.group_fits(10));
    }

    #[test]
    fn many_groups_get_starved() {
        // §5.3.1: "In a case where a large number of SIMD groups are used
        // the variable sharing space is less likely to be able to fit all
        // variables."
        let (_m, mut s) = space(2048);
        s.configure_groups(64); // 128 threads, simdlen 2
        assert_eq!(s.group_slots(), 3);
        assert!(s.group_fits(3));
        assert!(!s.group_fits(4));
    }

    #[test]
    fn legacy_1024_starves_sooner() {
        let (_m, mut s1) = space(1024);
        let (_m2, mut s2) = space(2048);
        s1.configure_groups(32);
        s2.configure_groups(32);
        assert!(s1.group_slots() < s2.group_slots());
    }

    #[test]
    fn slices_are_disjoint_and_in_bounds() {
        let (_m, mut s) = space(2048);
        s.configure_groups(16);
        let mut prev_end = s.team_slice().0 .0 + s.team_slice().1;
        for g in 0..16 {
            let (off, n) = s.group_slice(g);
            assert!(off.0 >= prev_end, "slice {g} overlaps previous");
            prev_end = off.0 + n;
        }
        assert!(prev_end <= s.total_slots() + s.team_slice().0 .0);
    }

    #[test]
    fn zero_slot_groups_force_fallback() {
        let (_m, mut s) = space(1024); // 128 slots, 96 after team slice
        s.configure_groups(128);
        assert_eq!(s.group_slots(), 0);
        assert!(!s.group_fits(1));
        assert!(s.group_fits(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_slice_bounds_checked() {
        let (_m, mut s) = space(2048);
        s.configure_groups(4);
        s.group_slice(4);
    }

    #[test]
    #[should_panic(expected = "before configure_groups")]
    fn unconfigured_group_slice_panics() {
        // Regression: an unconfigured space used to masquerade as one giant
        // group (`num_groups.max(1)`), silently handing out the whole
        // post-team area as "group 0" before any parallel region defined a
        // layout.
        let (_m, s) = space(2048);
        s.group_slice(0);
    }

    #[test]
    #[should_panic(expected = "before configure_groups")]
    fn unconfigured_group_fits_panics() {
        let (_m, s) = space(2048);
        s.group_fits(1);
    }

    #[test]
    fn team_slice_is_defined_before_groups_and_follows_slot_layout() {
        // The team slice exists from reservation (the pre-SIMD single-writer
        // use of the space) and must agree with SlotLayout before and after
        // configuration.
        let (_m, mut s) = space(2048);
        assert_eq!(s.team_slice().1, SlotLayout::for_bytes(2048, 1).team_slots);
        assert!(s.team_fits(32));
        s.configure_groups(8);
        assert_eq!(s.team_slice().1, SlotLayout::for_bytes(2048, 8).team_slots);
    }

    #[test]
    fn ragged_byte_sizes_round_up_to_whole_slots() {
        // Regression: `for_bytes` used to truncate `bytes / 8`, silently
        // dropping capacity for sizes that are not a multiple of 8.
        for (bytes, want_slots) in [(2041u32, 256u32), (2048, 256), (7, 1), (9, 2), (0, 0)] {
            let l = SlotLayout::for_bytes(bytes, 4);
            assert_eq!(l.total_slots, want_slots, "bytes={bytes}");
            // The runtime reservation must hand out the same capacity.
            let (_m, mut s) = space(bytes);
            s.configure_groups(4);
            assert_eq!(s.total_slots(), want_slots, "bytes={bytes}");
            assert_eq!(s.group_slots(), l.group_slots, "bytes={bytes}");
        }
    }

    #[test]
    fn slot_layout_agrees_with_runtime_space() {
        // The pure layout and the runtime space must produce identical
        // arithmetic for every configuration (the analysis relies on it).
        for bytes in [256u32, 512, 1024, 2048, 4096] {
            for ng in [1u32, 2, 4, 16, 64, 128] {
                let l = SlotLayout::for_bytes(bytes, ng);
                let (_m, mut s) = space(bytes);
                s.configure_groups(ng);
                assert_eq!(l.total_slots, s.total_slots());
                assert_eq!(l.group_slots, s.group_slots(), "bytes={bytes} ng={ng}");
                assert_eq!(l.team_slots, s.team_slice().1);
                for g in 0..ng.min(8) {
                    let (off, _) = s.group_slice(g);
                    assert_eq!(off.0 - s.team_slice().0 .0, l.group_start(g));
                }
                for n in 0..6 {
                    assert_eq!(l.group_fits(n), s.group_fits(n));
                    assert_eq!(l.team_fits(n), s.team_fits(n));
                }
            }
        }
    }
}
