//! Device pointers and the 8-byte argument slot encoding.
//!
//! The paper's runtime passes outlined-function arguments as a packed array
//! of pointers: *"These variables are always stored as pointers such that
//! each variable is a consistent size"* (§5.3.1). We keep that property: a
//! [`Slot`] is exactly 8 bytes, and a typed [`DPtr<T>`] round-trips through
//! its bit pattern (segment id in the high bits, element offset in the low
//! bits). Scalars travel as their raw bit patterns, exactly like firstprivate
//! scalars smuggled through a `void*` in the real runtime.
//!
//! Type information is *not* carried in the slot — the producer and the
//! consumer of a payload agree on the layout out of band, as C code does
//! with `void**`. Decoding with the wrong element type is caught at access
//! time by the typed downcast in [`super::global::GlobalMem`].

use std::fmt;
use std::marker::PhantomData;

use super::pod::DevValue;

/// Bits reserved for the element offset inside a [`DPtr`] bit pattern.
const OFF_BITS: u32 = 40;
const OFF_MASK: u64 = (1u64 << OFF_BITS) - 1;
/// Bits left for the segment id above the offset.
const SEG_BITS: u32 = 64 - OFF_BITS;

/// A typed pointer into simulated global memory: a segment id plus an
/// element offset within the segment.
pub struct DPtr<T> {
    pub(crate) seg: u32,
    pub(crate) off: u64,
    _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for DPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DPtr<T> {}

impl<T> PartialEq for DPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seg == other.seg && self.off == other.off
    }
}
impl<T> Eq for DPtr<T> {}

impl<T> fmt::Debug for DPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DPtr(seg={}, off={})", self.seg, self.off)
    }
}

impl<T: DevValue> DPtr<T> {
    pub(crate) fn new(seg: u32, off: u64) -> DPtr<T> {
        // A wider id would alias a low one through `to_bits`.
        assert!(
            seg >> SEG_BITS == 0,
            "segment id space exhausted: id {seg} needs over {SEG_BITS} bits"
        );
        assert!(off <= OFF_MASK, "element offset exceeds encodable range");
        DPtr { seg, off, _pd: PhantomData }
    }

    /// Segment id (useful for diagnostics).
    pub fn segment(self) -> u32 {
        self.seg
    }

    /// Element offset within the segment.
    pub fn offset(self) -> u64 {
        self.off
    }

    /// Pointer to element `self.offset() + delta`. A sum past the
    /// encodable range, wrapping included, panics in every profile.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, delta: u64) -> DPtr<T> {
        DPtr::new(self.seg, self.off.saturating_add(delta))
    }

    /// Encode into an 8-byte slot bit pattern.
    pub fn to_bits(self) -> u64 {
        ((self.seg as u64) << OFF_BITS) | self.off
    }

    /// Decode from an 8-byte slot bit pattern produced by [`Self::to_bits`].
    pub fn from_bits(bits: u64) -> DPtr<T> {
        DPtr::new((bits >> OFF_BITS) as u32, bits & OFF_MASK)
    }
}

/// One 8-byte argument slot of an outlined-function payload.
///
/// Mirrors the `void**` payload of the paper's runtime: every argument —
/// pointer or scalar — occupies one fixed-size slot (§5.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Slot(pub u64);

impl Slot {
    /// Pack a device pointer.
    pub fn from_ptr<T: DevValue>(p: DPtr<T>) -> Slot {
        Slot(p.to_bits())
    }

    /// Pack an `f64` scalar by bit pattern.
    pub fn from_f64(v: f64) -> Slot {
        Slot(v.to_bits())
    }

    /// Pack a `u64` scalar.
    pub fn from_u64(v: u64) -> Slot {
        Slot(v)
    }

    /// Pack an `i64` scalar.
    pub fn from_i64(v: i64) -> Slot {
        Slot(v as u64)
    }

    /// Pack a `u32` scalar (zero-extended).
    pub fn from_u32(v: u32) -> Slot {
        Slot(v as u64)
    }

    /// Unpack a device pointer. The caller asserts the slot was packed with
    /// [`Slot::from_ptr`] of the same `T`; a wrong `T` is detected on first
    /// dereference.
    pub fn as_ptr<T: DevValue>(self) -> DPtr<T> {
        DPtr::from_bits(self.0)
    }

    /// Unpack an `f64` scalar.
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Unpack a `u64` scalar.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Unpack an `i64` scalar.
    pub fn as_i64(self) -> i64 {
        self.0 as i64
    }

    /// Unpack a `u32` scalar (truncating).
    pub fn as_u32(self) -> u32 {
        self.0 as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_8_bytes() {
        // The §5.3.1 "consistent size" property.
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn ptr_bits_roundtrip() {
        let p: DPtr<f64> = DPtr::new(7, 123_456);
        let q: DPtr<f64> = DPtr::from_bits(p.to_bits());
        assert_eq!(p, q);
        assert_eq!(q.segment(), 7);
        assert_eq!(q.offset(), 123_456);
    }

    #[test]
    fn ptr_add_offsets() {
        let p: DPtr<u32> = DPtr::new(1, 10);
        assert_eq!(p.add(5).offset(), 15);
        assert_eq!(p.add(0), p);
    }

    #[test]
    fn scalar_slots_roundtrip() {
        assert_eq!(Slot::from_f64(-3.25).as_f64(), -3.25);
        assert_eq!(Slot::from_u64(u64::MAX).as_u64(), u64::MAX);
        assert_eq!(Slot::from_i64(-9).as_i64(), -9);
        assert_eq!(Slot::from_u32(42).as_u32(), 42);
        // NaN bit patterns survive.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(Slot::from_f64(nan).as_f64().to_bits(), nan.to_bits());
    }

    #[test]
    fn ptr_through_slot_roundtrip() {
        let p: DPtr<i32> = DPtr::new(3, 99);
        let s = Slot::from_ptr(p);
        assert_eq!(s.as_ptr::<i32>(), p);
    }

    #[test]
    #[should_panic]
    fn offset_range_is_enforced() {
        let _: DPtr<u8> = DPtr::new(0, 1u64 << 41);
    }

    #[test]
    fn widest_segment_id_roundtrips() {
        let p: DPtr<u8> = DPtr::new((1 << SEG_BITS) - 1, OFF_MASK);
        assert_eq!(DPtr::<u8>::from_bits(p.to_bits()), p);
    }

    #[test]
    #[should_panic(expected = "segment id space exhausted")]
    fn segment_id_past_the_encoding_panics_instead_of_aliasing() {
        // Id 2^24 would encode as segment 0.
        let _: DPtr<u8> = DPtr::new(1 << SEG_BITS, 0);
    }
}
