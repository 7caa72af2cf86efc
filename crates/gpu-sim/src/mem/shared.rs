//! Simulated per-block shared memory.
//!
//! Shared memory is modeled as an array of 8-byte slots with a bump
//! allocator. The OpenMP runtime reserves a *variable sharing space* at the
//! start of it (1024 bytes before the paper's work, 2048 bytes after —
//! §5.3.1), divided evenly among SIMD groups; the rest is available for
//! globalized variables (§4.3) and user allocations.
//!
//! The capacity is declared per launch and feeds the occupancy calculation:
//! more shared memory per block means fewer resident blocks per SM.

use super::ptr::Slot;

/// Handle to a shared-memory allocation: a slot offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmOff(pub u32);

/// Per-block shared memory: an 8-byte-slot array with a bump allocator.
#[derive(Default)]
pub struct SharedMem {
    slots: Vec<u64>,
    /// Bump-allocation cursor, in slots.
    cursor: u32,
    /// High-water mark of the cursor, in slots.
    peak: u32,
    /// One past the highest slot written: every slot from here on is
    /// still zero, so emptying the memory for reuse zeroes only the
    /// prefix below it.
    dirty: usize,
}

impl SharedMem {
    /// Create shared memory with `capacity_bytes` bytes (rounded up to
    /// whole 8-byte slots).
    pub fn new(capacity_bytes: u32) -> SharedMem {
        let mut sm = SharedMem::default();
        sm.reuse(capacity_bytes);
        sm
    }

    /// Empty the memory for another block with `capacity_bytes` bytes,
    /// keeping its storage: zero the written prefix and reset the
    /// allocator, as if freshly created.
    pub(crate) fn reuse(&mut self, capacity_bytes: u32) {
        // Nothing written, nothing to zero: the test also keeps a zero-byte
        // fill off a dangling pointer, which the C library can make slow.
        if self.dirty > 0 {
            self.slots[..self.dirty].fill(0);
        }
        self.slots.resize((capacity_bytes as usize).div_ceil(8), 0);
        self.cursor = 0;
        self.peak = 0;
        self.dirty = 0;
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        (self.slots.len() * 8) as u32
    }

    /// Bump-allocate `bytes` bytes (rounded up to whole slots). Returns
    /// `None` when the block's shared memory is exhausted — callers fall
    /// back to global memory, as the runtime does (§5.3.1).
    pub fn alloc(&mut self, bytes: u32) -> Option<SmOff> {
        let need = bytes.div_ceil(8);
        if self.cursor as usize + need as usize > self.slots.len() {
            return None;
        }
        let off = SmOff(self.cursor);
        self.cursor += need;
        self.peak = self.peak.max(self.cursor);
        Some(off)
    }

    /// Reset the bump allocator to `mark` (stack-style deallocation at the
    /// end of a parallel region).
    pub fn reset_to(&mut self, mark: SmOff) {
        assert!(mark.0 <= self.cursor, "reset beyond allocation cursor");
        self.cursor = mark.0;
    }

    /// Current allocation cursor (to pair with [`Self::reset_to`]).
    pub fn mark(&self) -> SmOff {
        SmOff(self.cursor)
    }

    /// Peak slots ever allocated, in bytes.
    pub fn peak_bytes(&self) -> u32 {
        self.peak * 8
    }

    /// Read the slot at `off + idx`.
    #[inline]
    pub fn read_slot(&self, off: SmOff, idx: u32) -> Slot {
        Slot(self.slots[(off.0 + idx) as usize])
    }

    /// Write the slot at `off + idx`.
    #[inline]
    pub fn write_slot(&mut self, off: SmOff, idx: u32, v: Slot) {
        self.store((off.0 + idx) as usize, v.0);
    }

    #[inline]
    fn store(&mut self, i: usize, word: u64) {
        self.slots[i] = word;
        self.dirty = self.dirty.max(i + 1);
    }

    /// Read a slot as an `f64` (for user shared arrays of doubles).
    #[inline]
    pub fn read_f64(&self, off: SmOff, idx: u32) -> f64 {
        f64::from_bits(self.slots[(off.0 + idx) as usize])
    }

    /// Write a slot as an `f64`.
    #[inline]
    pub fn write_f64(&mut self, off: SmOff, idx: u32, v: f64) {
        self.store((off.0 + idx) as usize, v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_slots() {
        assert_eq!(SharedMem::new(2048).capacity_bytes(), 2048);
        assert_eq!(SharedMem::new(2047).capacity_bytes(), 2048);
        assert_eq!(SharedMem::new(1).capacity_bytes(), 8);
        assert_eq!(SharedMem::new(0).capacity_bytes(), 0);
    }

    #[test]
    fn bump_allocation_and_exhaustion() {
        let mut sm = SharedMem::new(64); // 8 slots
        let a = sm.alloc(32).unwrap(); // 4 slots
        let b = sm.alloc(32).unwrap(); // 4 slots
        assert_eq!(a, SmOff(0));
        assert_eq!(b, SmOff(4));
        // Exhausted: the global-fallback signal.
        assert_eq!(sm.alloc(8), None);
        assert_eq!(sm.peak_bytes(), 64);
    }

    #[test]
    fn stack_style_reset() {
        let mut sm = SharedMem::new(64);
        let mark = sm.mark();
        sm.alloc(64).unwrap();
        assert_eq!(sm.alloc(8), None);
        sm.reset_to(mark);
        assert!(sm.alloc(8).is_some());
        // Peak survives resets.
        assert_eq!(sm.peak_bytes(), 64);
    }

    #[test]
    fn slot_and_f64_views_alias() {
        let mut sm = SharedMem::new(32);
        let off = sm.alloc(16).unwrap();
        sm.write_f64(off, 0, 2.5);
        assert_eq!(sm.read_slot(off, 0).as_f64(), 2.5);
        sm.write_slot(off, 1, Slot::from_u64(77));
        assert_eq!(sm.read_slot(off, 1).as_u64(), 77);
    }

    #[test]
    fn reuse_zeroes_what_was_written_and_resizes() {
        let mut sm = SharedMem::new(64);
        sm.write_f64(SmOff(0), 5, 3.0);
        sm.alloc(16).unwrap();
        sm.reuse(32);
        assert_eq!((sm.capacity_bytes(), sm.mark(), sm.peak_bytes()), (32, SmOff(0), 0));
        sm.reuse(64);
        assert!((0..8).all(|i| sm.read_slot(SmOff(0), i).as_u64() == 0));
    }
}
