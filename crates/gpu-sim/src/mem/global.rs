//! Simulated global (device) memory, shareable across concurrently
//! executing thread blocks.
//!
//! Global memory is a set of typed segments. Each segment gets a synthetic
//! byte address range so that the cost model can analyze coalescing: the
//! address of element `i` of a segment is `base + i * size_of::<T>()`, and
//! bases are spaced so distinct segments never share a 32-byte sector.
//!
//! Since the parallel block engine runs blocks on several host threads,
//! global memory is the one genuinely shared resource of a launch and is
//! built for `&self` access throughout:
//!
//! * element storage is 64-bit words behind relaxed atomics (the
//!   [`DevValue`] codec maps every element type onto words), so plain
//!   reads/writes never take a lock;
//! * the segment table is a `Vec` of `Option<Arc<Segment>>` indexed by
//!   segment id, behind one short mutex. Allocation pushes in place and
//!   free clears the slot to `None` (8 bytes) — both O(1), however many
//!   segments the device has ever made, since ids are never reused. A
//!   block's [`GlobalView`] looks each segment up once (one lock, one
//!   `Arc` clone on that cache miss) and keeps it in a short per-view
//!   list, so every later access is a scan of a few ids plus an index,
//!   with no lock and no refcount traffic. A cached segment shares its
//!   `alive` flag with the table, so use after free still panics;
//! * nothing here tracks which sectors a launch has touched: compulsory
//!   DRAM traffic is counted by the launch's serial replay of the blocks'
//!   line-visit logs (`exec::VisitLog`), so the access path carries no
//!   per-launch state at all;
//! * device-side fallback allocations land in per-block **arenas** at
//!   deterministic synthetic addresses (`ARENA_BASE + block_id *
//!   ARENA_STRIDE`), so cache-set hashing and coalescing never depend on
//!   cross-block allocation order.
//!
//! Besides user buffers, the OpenMP runtime allocates *fallback* blocks here
//! when a SIMD group's shared-memory variable-sharing slice overflows
//! (paper §5.3.1); those go through the same API and are freed at the end of
//! the parallel region.

use std::any::TypeId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::pod::DevValue;
use super::ptr::DPtr;

/// Alignment of segment base addresses (also guarantees sector alignment).
const SEG_ALIGN: u64 = 256;

/// Base synthetic address of the per-block fallback arenas. Host-side
/// allocations bump upward from low addresses and stay far below this.
pub(crate) const ARENA_BASE: u64 = 1 << 44;

/// Synthetic address space reserved per block arena (16 MiB of fallback
/// allocations per block — far beyond what a sharing space can spill).
pub(crate) const ARENA_STRIDE: u64 = 1 << 24;

/// The storage words of `values`, in one pass: `store_words` emits each
/// value's words in index order.
fn words_of<T: DevValue>(values: impl ExactSizeIterator<Item = T>) -> Vec<AtomicU64> {
    let mut words = Vec::with_capacity(values.len() * T::WORDS);
    values.for_each(|v| v.store_words(&mut |_, w| words.push(AtomicU64::new(w))));
    words
}

/// The storage of `n` default values. A default stored as all-zero words
/// (every primitive, and arrays and pairs of them) comes from a zeroed
/// allocation, whose pages stay untouched until the kernel writes them.
fn default_words<T: DevValue + Default>(n: usize) -> Vec<AtomicU64> {
    let mut zero = true;
    T::default().store_words(&mut |_, w| zero &= w == 0);
    if !zero {
        return words_of(std::iter::repeat_n(T::default(), n));
    }
    // SAFETY: `AtomicU64` has the in-memory representation of `u64`, so
    // all-zero bytes are a valid `AtomicU64` holding 0.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n * T::WORDS).assume_init() }.into_vec()
}

/// One typed segment: metadata plus word storage behind relaxed atomics.
pub(crate) struct Segment {
    base: u64,
    /// Elements in the segment.
    len: usize,
    /// Logical bytes per element (drives synthetic addressing).
    elem_bytes: usize,
    /// Storage words per element.
    elem_words: usize,
    type_id: TypeId,
    alive: AtomicBool,
    words: Vec<AtomicU64>,
}

impl Segment {
    fn check<T: DevValue>(&self, seg: u32) {
        if !self.alive.load(Ordering::Relaxed) {
            panic!("use after free of segment {seg}");
        }
        if self.type_id != TypeId::of::<T>() {
            panic!("type confusion on segment {seg}: expected Vec<{}>", std::any::type_name::<T>());
        }
    }

    #[inline]
    fn read<T: DevValue>(&self, seg: u32, i: usize) -> T {
        self.check::<T>(seg);
        assert!(i < self.len, "device OOB read: idx {i} >= len {}", self.len);
        let base = i * self.elem_words;
        T::load_words(&mut |j| self.words[base + j].load(Ordering::Relaxed))
    }

    #[inline]
    fn write<T: DevValue>(&self, seg: u32, i: usize, v: T) {
        self.check::<T>(seg);
        assert!(i < self.len, "device OOB write: idx {i} >= len {}", self.len);
        let base = i * self.elem_words;
        v.store_words(&mut |j, w| self.words[base + j].store(w, Ordering::Relaxed));
    }

    /// Atomic read-modify-write of the single storage word of element `i`.
    /// Only valid for 1-word element types (`f64`/`u64` atomics).
    #[inline]
    fn rmw_word<T: DevValue>(&self, seg: u32, i: usize, f: impl Fn(u64) -> u64) -> u64 {
        self.check::<T>(seg);
        assert!(i < self.len, "device OOB write: idx {i} >= len {}", self.len);
        debug_assert_eq!(self.elem_words, 1);
        self.words[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(f(w)))
            .unwrap_or_else(|w| w)
    }

    fn logical_bytes(&self) -> u64 {
        (self.len * self.elem_bytes) as u64
    }
}

struct Master {
    /// Indexed by segment id; `None` once freed.
    segs: Vec<Option<Arc<Segment>>>,
    next_base: u64,
}

/// The device's global memory: typed segments with synthetic addresses,
/// shared by every concurrently executing block of a launch.
pub struct GlobalMem {
    master: Mutex<Master>,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    alloc_count: AtomicU64,
}

impl Default for GlobalMem {
    fn default() -> GlobalMem {
        GlobalMem::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking kernel (simulated OOB etc.) may poison a lock; the
    // tables themselves are never left half-updated, so keep going.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl GlobalMem {
    /// Create an empty global memory.
    pub fn new() -> GlobalMem {
        GlobalMem {
            master: Mutex::new(Master { segs: Vec::new(), next_base: SEG_ALIGN }),
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            alloc_count: AtomicU64::new(0),
        }
    }

    /// A block-scoped accessor with a per-view segment cache and this
    /// block's deterministic fallback arena.
    pub fn view(&self, block_id: u32) -> GlobalView<'_> {
        let arena = ARENA_BASE + block_id as u64 * ARENA_STRIDE;
        GlobalView {
            mem: self,
            segs: Vec::new(),
            arena_next: arena,
            arena_limit: arena + ARENA_STRIDE,
            arena_allocs: Vec::new(),
        }
    }

    /// Store `words`, the storage of `len` values, as a new segment at the
    /// next host address, or at `base_override` (an arena address).
    fn push_segment<T: DevValue>(
        &self,
        words: Vec<AtomicU64>,
        len: usize,
        base_override: Option<u64>,
    ) -> DPtr<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let mut m = lock(&self.master);
        let base = match base_override {
            Some(b) => b,
            None => {
                let b = m.next_base;
                m.next_base += bytes.div_ceil(SEG_ALIGN).max(1) * SEG_ALIGN;
                b
            }
        };
        // Encode the id before pushing: an id past the slot encoding panics
        // without leaving a segment behind.
        let p = DPtr::new(m.segs.len() as u32, 0);
        m.segs.push(Some(Arc::new(Segment {
            base,
            len,
            elem_bytes: std::mem::size_of::<T>(),
            elem_words: T::WORDS,
            type_id: TypeId::of::<T>(),
            alive: AtomicBool::new(true),
            words,
        })));
        drop(m);
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.peak_bytes.fetch_max(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.alloc_count.fetch_add(1, Ordering::Relaxed);
        p
    }

    /// Allocate a segment initialized from host data (the H2D copy itself is
    /// charged by the host runtime, not here).
    pub fn alloc_from<T: DevValue>(&self, data: &[T]) -> DPtr<T> {
        self.push_segment(words_of(data.iter().copied()), data.len(), None)
    }

    /// Allocate a zero-initialized segment of `n` elements.
    pub fn alloc_zeroed<T: DevValue + Default>(&self, n: usize) -> DPtr<T> {
        self.push_segment(default_words::<T>(n), n, None)
    }

    /// Free a segment. Accessing it afterwards panics (simulated
    /// use-after-free detection), also through a view that cached it
    /// earlier. The word storage is reclaimed once such views drop.
    pub fn free<T: DevValue>(&self, p: DPtr<T>) {
        self.free_seg(p.seg);
    }

    /// Free a segment by id (the element type only matters to the typed
    /// `DPtr` surface): clear its table slot and its shared `alive` flag.
    fn free_seg(&self, idx: u32) {
        let seg = match lock(&self.master).segs.get_mut(idx as usize) {
            Some(slot) => slot.take(),
            None => panic!("free of invalid segment {idx}"),
        };
        let seg = seg.unwrap_or_else(|| panic!("double free of segment {idx}"));
        seg.alive.store(false, Ordering::Relaxed);
        self.live_bytes.fetch_sub(seg.logical_bytes(), Ordering::Relaxed);
    }

    /// Table slot of segment `idx`: `None` past the table, `Some(None)`
    /// once freed.
    fn slot(&self, idx: u32) -> Option<Option<Arc<Segment>>> {
        lock(&self.master).segs.get(idx as usize).cloned()
    }

    fn seg(&self, idx: u32) -> Arc<Segment> {
        match self.slot(idx) {
            Some(Some(s)) => s,
            Some(None) => panic!("use after free of segment {idx}"),
            None => panic!("access to invalid segment {idx}"),
        }
    }

    /// Read element `idx` relative to pointer `p` (functional access, no
    /// cycle cost — kernels charge through their `Lane` instead).
    #[inline]
    pub fn read<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> T {
        self.seg(p.seg).read(p.seg, (p.off + idx) as usize)
    }

    /// Write element `idx` relative to pointer `p`.
    #[inline]
    pub fn write<T: DevValue>(&self, p: DPtr<T>, idx: u64, v: T) {
        self.seg(p.seg).write(p.seg, (p.off + idx) as usize, v);
    }

    /// Synthetic byte address of element `idx` relative to `p`, used by the
    /// coalescing analysis.
    #[inline]
    pub fn addr_of<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> u64 {
        let s = self.seg(p.seg);
        s.base + (p.off + idx) * std::mem::size_of::<T>() as u64
    }

    /// Number of elements in the segment behind `p`, counted from `p`'s
    /// offset.
    pub fn len_of<T: DevValue>(&self, p: DPtr<T>) -> usize {
        let s = self.seg(p.seg);
        s.check::<T>(p.seg);
        s.len - p.off as usize
    }

    /// Copy `len` elements starting at `p` back to the host.
    pub fn read_slice<T: DevValue>(&self, p: DPtr<T>, len: usize) -> Vec<T> {
        let s = self.seg(p.seg);
        s.check::<T>(p.seg);
        let start = p.off as usize;
        assert!(start + len <= s.len, "device OOB slice read");
        (0..len).map(|i| s.read(p.seg, start + i)).collect()
    }

    /// Overwrite `data.len()` elements starting at `p` from host data.
    pub fn write_slice<T: DevValue>(&self, p: DPtr<T>, data: &[T]) {
        let s = self.seg(p.seg);
        s.check::<T>(p.seg);
        let start = p.off as usize;
        assert!(start + data.len() <= s.len, "device OOB slice write");
        for (i, v) in data.iter().enumerate() {
            s.write(p.seg, start + i, *v);
        }
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Total number of allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count.load(Ordering::Relaxed)
    }

    /// Word-level snapshot of every live segment — the oracle mode uses this
    /// to rewind device memory between the tree-walk and bytecode runs.
    pub fn checkpoint(&self) -> MemCheckpoint {
        let segs = self
            .live_segments()
            .into_iter()
            .map(|(seg, s)| CkSeg {
                seg,
                base: s.base,
                words: s.words.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
            })
            .collect();
        MemCheckpoint { segs }
    }

    /// Every live segment with its id, in id order.
    fn live_segments(&self) -> Vec<(u32, Arc<Segment>)> {
        let m = lock(&self.master);
        let live = m.segs.iter().enumerate();
        live.filter_map(|(i, s)| Some((i as u32, Arc::clone(s.as_ref()?)))).collect()
    }

    /// Rewind memory to `ck`: every segment captured in the checkpoint gets
    /// its words restored, and segments allocated (and still alive) since the
    /// checkpoint are freed. Panics if a checkpointed segment was freed in
    /// the meantime — the oracle cannot resurrect freed segments.
    pub fn restore(&self, ck: &MemCheckpoint) {
        let kept: HashSet<u32> = ck.segs.iter().map(|s| s.seg).collect();
        for (i, _) in self.live_segments() {
            if !kept.contains(&i) {
                self.free_seg(i);
            }
        }
        for c in &ck.segs {
            let s = match self.slot(c.seg) {
                Some(Some(s)) => s,
                Some(None) => {
                    panic!("cannot restore segment {}: freed since the checkpoint", c.seg)
                }
                None => panic!("restore of unknown segment {}", c.seg),
            };
            for (w, v) in s.words.iter().zip(&c.words) {
                w.store(*v, Ordering::Relaxed);
            }
        }
    }
}

/// A rewindable snapshot of global memory contents (see
/// [`GlobalMem::checkpoint`]).
pub struct MemCheckpoint {
    segs: Vec<CkSeg>,
}

struct CkSeg {
    seg: u32,
    base: u64,
    words: Vec<u64>,
}

impl MemCheckpoint {
    /// Compare the *host-allocated* segments (base below the fallback-arena
    /// window) of two checkpoints word for word. Returns a description of
    /// the first mismatch, or `None` when identical — the oracle's notion of
    /// "same results".
    pub fn host_mismatch(&self, other: &MemCheckpoint) -> Option<String> {
        let host = |ck: &MemCheckpoint| -> Vec<(u32, u64, usize)> {
            ck.segs
                .iter()
                .filter(|s| s.base < ARENA_BASE)
                .map(|s| (s.seg, s.base, s.words.len()))
                .collect()
        };
        if host(self) != host(other) {
            return Some("host segment tables differ".into());
        }
        let mine: Vec<&CkSeg> = self.segs.iter().filter(|s| s.base < ARENA_BASE).collect();
        let theirs: Vec<&CkSeg> = other.segs.iter().filter(|s| s.base < ARENA_BASE).collect();
        for (a, b) in mine.iter().zip(&theirs) {
            if let Some(w) = a.words.iter().zip(&b.words).position(|(x, y)| x != y) {
                return Some(format!(
                    "segment {} word {} differs: {:#x} vs {:#x}",
                    a.seg, w, a.words[w], b.words[w]
                ));
            }
        }
        None
    }
}

/// One device-side fallback allocation made through a block's
/// [`GlobalView`], reported to the launch merge step for cross-team race
/// analysis.
#[derive(Clone, Copy, Debug)]
pub struct FallbackRange {
    /// First synthetic byte address of the allocation.
    pub base: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Whether the owning block freed it before finishing.
    pub freed: bool,
    seg: u32,
}

impl FallbackRange {
    /// Whether `addr` falls inside the allocation.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes
    }
}

/// A block's accessor to shared global memory: caches every segment the
/// block touches and owns the block's deterministic fallback arena.
pub struct GlobalView<'g> {
    mem: &'g GlobalMem,
    /// Segments this block has touched, each looked up in the table once.
    /// A block touches a handful, so a linear scan beats any map. Safe
    /// across frees: a cached `Arc` shares its segment's `alive` flag, so
    /// stale use still panics.
    segs: Vec<(u32, Arc<Segment>)>,
    arena_next: u64,
    arena_limit: u64,
    arena_allocs: Vec<FallbackRange>,
}

impl<'g> GlobalView<'g> {
    #[inline]
    fn seg(&mut self, idx: u32) -> &Segment {
        let i = match self.segs.iter().position(|(id, _)| *id == idx) {
            Some(i) => i,
            None => self.cache_miss(idx),
        };
        &self.segs[i].1
    }

    #[cold]
    fn cache_miss(&mut self, idx: u32) -> usize {
        let s = self.mem.seg(idx);
        self.segs.push((idx, s));
        self.segs.len() - 1
    }

    /// Read element `idx` relative to `p`.
    #[inline]
    pub fn read<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> T {
        self.seg(p.seg).read(p.seg, (p.off + idx) as usize)
    }

    /// Write element `idx` relative to `p`.
    #[inline]
    pub fn write<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) {
        self.seg(p.seg).write(p.seg, (p.off + idx) as usize, v);
    }

    /// Synthetic byte address of element `idx` relative to `p`.
    #[inline]
    pub fn addr_of<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> u64 {
        let s = self.seg(p.seg);
        s.base + (p.off + idx) * std::mem::size_of::<T>() as u64
    }

    /// Atomic `fetch_add` on an `f64` element; returns the old value.
    /// Genuinely atomic across concurrently executing blocks.
    #[inline]
    pub fn atomic_add_f64(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> f64 {
        let old = self
            .seg(p.seg)
            .rmw_word::<f64>(p.seg, (p.off + idx) as usize, |w| (f64::from_bits(w) + v).to_bits());
        f64::from_bits(old)
    }

    /// Atomic `fetch_add` on a `u64` element; returns the old value.
    #[inline]
    pub fn atomic_add_u64(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> u64 {
        self.seg(p.seg).rmw_word::<u64>(p.seg, (p.off + idx) as usize, |w| w.wrapping_add(v))
    }

    // Combined accessors: one segment lookup yields both the synthetic byte
    // address (for the coalescing model) and the data operation. `Lane` uses
    // these so every device access does a single table walk.

    /// Read element `idx` relative to `p`, returning its synthetic address.
    #[inline]
    pub(crate) fn read_at<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> (u64, T) {
        let s = self.seg(p.seg);
        let addr = s.base + (p.off + idx) * std::mem::size_of::<T>() as u64;
        (addr, s.read(p.seg, (p.off + idx) as usize))
    }

    /// Write element `idx` relative to `p`, returning its synthetic address.
    #[inline]
    pub(crate) fn write_at<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) -> u64 {
        let s = self.seg(p.seg);
        let addr = s.base + (p.off + idx) * std::mem::size_of::<T>() as u64;
        s.write(p.seg, (p.off + idx) as usize, v);
        addr
    }

    /// [`Self::atomic_add_f64`] plus the element's synthetic address.
    #[inline]
    pub(crate) fn atomic_add_f64_at(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> (u64, f64) {
        let s = self.seg(p.seg);
        let addr = s.base + (p.off + idx) * 8;
        let old =
            s.rmw_word::<f64>(p.seg, (p.off + idx) as usize, |w| (f64::from_bits(w) + v).to_bits());
        (addr, f64::from_bits(old))
    }

    /// [`Self::atomic_add_u64`] plus the element's synthetic address.
    #[inline]
    pub(crate) fn atomic_add_u64_at(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> (u64, u64) {
        let s = self.seg(p.seg);
        let addr = s.base + (p.off + idx) * 8;
        let old = s.rmw_word::<u64>(p.seg, (p.off + idx) as usize, |w| w.wrapping_add(v));
        (addr, old)
    }

    /// Allocate a zero-initialized fallback segment in this block's arena.
    /// The synthetic address depends only on the block id and this block's
    /// allocation order — never on cross-block timing — which keeps L1-set
    /// hashing and coalescing deterministic under parallel execution.
    pub fn alloc_zeroed<T: DevValue + Default>(&mut self, n: usize) -> DPtr<T> {
        let bytes = (n * std::mem::size_of::<T>()) as u64;
        let aligned = bytes.div_ceil(SEG_ALIGN).max(1) * SEG_ALIGN;
        assert!(
            self.arena_next + aligned <= self.arena_limit,
            "per-block fallback arena overflow ({} B requested past {} B arena)",
            bytes,
            ARENA_STRIDE
        );
        let base = self.arena_next;
        self.arena_next += aligned;
        let p = self.mem.push_segment(default_words::<T>(n), n, Some(base));
        self.arena_allocs.push(FallbackRange { base, bytes, freed: false, seg: p.seg });
        p
    }

    /// Free a segment (device-side). Arena allocations made through this
    /// view are marked freed for the leak/race analysis.
    pub fn free<T: DevValue>(&mut self, p: DPtr<T>) {
        self.mem.free(p);
        self.segs.retain(|(id, _)| *id != p.seg);
        // A block frees a region's few fallbacks as the region ends, so the
        // match sits near the back of a long-running block's list.
        if let Some(r) = self.arena_allocs.iter_mut().rev().find(|r| r.seg == p.seg) {
            r.freed = true;
        }
    }

    /// Number of elements in the segment behind `p`, from `p`'s offset.
    pub fn len_of<T: DevValue>(&mut self, p: DPtr<T>) -> usize {
        let s = self.seg(p.seg);
        s.check::<T>(p.seg);
        s.len - p.off as usize
    }

    /// The underlying shared memory object.
    pub fn mem(&self) -> &'g GlobalMem {
        self.mem
    }

    /// Fallback allocations this view performed (the launch merge step
    /// reads these for cross-team race analysis).
    pub fn fallback_ranges(&self) -> &[FallbackRange] {
        &self.arena_allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[1.0f64, 2.0, 3.0]);
        assert_eq!(g.read(p, 0), 1.0);
        assert_eq!(g.read(p, 2), 3.0);
        g.write(p, 1, 9.5);
        assert_eq!(g.read_slice(p, 3), vec![1.0, 9.5, 3.0]);
    }

    #[test]
    fn alloc_zeroed_holds_defaults_whatever_their_words() {
        /// A value whose default is not all-zero words.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Seven(u64);
        impl Default for Seven {
            fn default() -> Seven {
                Seven(7)
            }
        }
        impl DevValue for Seven {
            const WORDS: usize = 1;
            fn store_words(self, put: &mut impl FnMut(usize, u64)) {
                put(0, self.0);
            }
            fn load_words(get: &mut impl FnMut(usize) -> u64) -> Seven {
                Seven(get(0))
            }
        }
        let g = GlobalMem::new();
        assert_eq!(g.read_slice(g.alloc_zeroed::<Seven>(3), 3), vec![Seven(7); 3]);
        assert_eq!(g.read_slice(g.alloc_zeroed::<(f64, [i32; 2])>(5), 5), vec![(0.0, [0; 2]); 5]);
        let p = g.alloc_from(&[(1.5f64, [-2i32, 3]), (4.0, [5, -6])]);
        assert_eq!(g.read(p, 1), (4.0, [5, -6]));
        let mut v = g.view(0);
        let a = v.alloc_zeroed::<Seven>(2);
        assert_eq!((v.read(a, 1), g.read(v.alloc_zeroed::<f32>(4), 3)), (Seven(7), 0.0));
    }

    #[test]
    fn zeroed_alloc() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<u32>(5);
        assert_eq!(g.read_slice(p, 5), vec![0; 5]);
        assert_eq!(g.len_of(p), 5);
    }

    #[test]
    fn addresses_are_disjoint_and_typed() {
        let g = GlobalMem::new();
        let a = g.alloc_zeroed::<f64>(10);
        let b = g.alloc_zeroed::<f64>(10);
        // Consecutive elements are 8 bytes apart.
        assert_eq!(g.addr_of(a, 1) - g.addr_of(a, 0), 8);
        // Segments never share a sector.
        let last_a = g.addr_of(a, 9) + 8;
        assert!(g.addr_of(b, 0) / 32 > (last_a - 1) / 32);
    }

    #[test]
    fn pointer_offsetting() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[10u32, 20, 30, 40]);
        let q = p.add(2);
        assert_eq!(g.read(q, 0), 30);
        assert_eq!(g.len_of(q), 2);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn oob_read_panics() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<f64>(3);
        g.read(p, 3);
    }

    #[test]
    #[should_panic(expected = "type confusion")]
    fn type_confusion_is_detected() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<f64>(3);
        let bits = p.to_bits();
        let q: DPtr<u32> = DPtr::from_bits(bits);
        g.read(q, 0);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn use_after_free_is_detected() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<f64>(3);
        g.free(p);
        g.read(p, 0);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn stale_view_cache_sees_free() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<f64>(3);
        let mut view = g.view(0);
        assert_eq!(view.read(p, 0), 0.0); // caches the segment
        g.free(p);
        view.read(p, 0); // stale cache entry, but the alive flag is shared
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn view_lookup_of_freed_segment_panics() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<u64>(3);
        g.free(p);
        g.view(0).addr_of(p, 0); // never cached: the freed slot itself panics
    }

    #[test]
    #[should_panic(expected = "invalid segment")]
    fn access_past_the_table_panics() {
        let g = GlobalMem::new();
        g.view(0).read(DPtr::<u64>::new(5, 0), 0);
    }

    #[test]
    fn free_leaves_an_empty_slot_and_drops_the_view_cache_entry() {
        let g = GlobalMem::new();
        let mut v = g.view(0);
        let a = v.alloc_zeroed::<u64>(2);
        v.write(a, 0, 3);
        let b = g.alloc_zeroed::<u64>(2);
        assert_eq!(v.segs.len(), 1);
        v.free(a);
        assert!(v.segs.is_empty());
        assert!(lock(&g.master).segs[a.seg as usize].is_none());
        // Ids are never reused: the next segment gets a fresh one.
        assert_eq!(g.alloc_zeroed::<u64>(1).segment(), b.segment() + 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_detected() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<f64>(3);
        g.free(p);
        g.free(p);
    }

    #[test]
    fn accounting_tracks_live_and_peak() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<u64>(100); // 800 bytes
        assert_eq!(g.live_bytes(), 800);
        let q = g.alloc_zeroed::<u8>(10);
        assert_eq!(g.live_bytes(), 810);
        g.free(p);
        assert_eq!(g.live_bytes(), 10);
        assert_eq!(g.peak_bytes(), 810);
        g.free(q);
        assert_eq!(g.live_bytes(), 0);
        assert_eq!(g.alloc_count(), 2);
    }

    #[test]
    fn view_sees_segments_allocated_after_it() {
        let g = GlobalMem::new();
        let mut view = g.view(0);
        let p = g.alloc_from(&[5u64, 6]); // allocated after the view was made
        assert_eq!(view.read(p, 1), 6);
    }

    #[test]
    fn arena_addresses_depend_only_on_block_id() {
        let g = GlobalMem::new();
        let mut v3 = g.view(3);
        let mut v1 = g.view(1);
        // Interleave allocations from two "blocks" in arbitrary order.
        let a3 = v3.alloc_zeroed::<u64>(4);
        let a1 = v1.alloc_zeroed::<u64>(4);
        let b3 = v3.alloc_zeroed::<u64>(4);
        assert_eq!(v3.addr_of(a3, 0), ARENA_BASE + 3 * ARENA_STRIDE);
        assert_eq!(v1.addr_of(a1, 0), ARENA_BASE + ARENA_STRIDE);
        assert_eq!(v3.addr_of(b3, 0), ARENA_BASE + 3 * ARENA_STRIDE + SEG_ALIGN);

        // A fresh memory with the opposite interleaving yields the same
        // addresses — the determinism the parallel engine relies on.
        let g2 = GlobalMem::new();
        let mut w1 = g2.view(1);
        let mut w3 = g2.view(3);
        let c1 = w1.alloc_zeroed::<u64>(4);
        let c3 = w3.alloc_zeroed::<u64>(4);
        assert_eq!(w1.addr_of(c1, 0), ARENA_BASE + ARENA_STRIDE);
        assert_eq!(w3.addr_of(c3, 0), ARENA_BASE + 3 * ARENA_STRIDE);
    }

    #[test]
    fn view_atomics_are_atomic_across_threads() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<u64>(1);
        std::thread::scope(|s| {
            for b in 0..4u32 {
                let g = &g;
                s.spawn(move || {
                    let mut v = g.view(b);
                    for _ in 0..1000 {
                        v.atomic_add_u64(p, 0, 1);
                    }
                });
            }
        });
        assert_eq!(g.read(p, 0), 4000);
    }

    #[test]
    fn fallback_ranges_track_frees() {
        let g = GlobalMem::new();
        let mut v = g.view(0);
        let a = v.alloc_zeroed::<u64>(2);
        let b = v.alloc_zeroed::<u64>(2);
        v.free(a);
        let b1 = v.addr_of(b, 1);
        let ranges = v.fallback_ranges();
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].freed);
        assert!(!ranges[1].freed);
        assert!(ranges[1].contains(b1));
    }

    #[test]
    fn checkpoint_restore_rewinds_words_and_frees_new_segments() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[1.0f64, 2.0, 3.0]);
        let ck = g.checkpoint();
        g.write(p, 1, 99.0);
        let q = g.alloc_zeroed::<u64>(8); // allocated after the checkpoint
        g.restore(&ck);
        assert_eq!(g.read_slice(p, 3), vec![1.0, 2.0, 3.0]);
        // The post-checkpoint segment was freed by the rewind.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.read(q, 0)));
        assert!(res.is_err(), "post-checkpoint segment should be dead");
    }

    #[test]
    #[should_panic(expected = "freed since the checkpoint")]
    fn restore_refuses_a_segment_freed_after_the_checkpoint() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[1u64, 2]);
        let ck = g.checkpoint();
        g.free(p);
        g.restore(&ck);
    }

    #[test]
    fn checkpoints_compare_host_segments() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[5u64, 6, 7]);
        let a = g.checkpoint();
        let b = g.checkpoint();
        assert_eq!(a.host_mismatch(&b), None);
        g.write(p, 2, 8u64);
        let c = g.checkpoint();
        assert!(a.host_mismatch(&c).unwrap().contains("differs"));
        // Arena segments are invisible to the comparison.
        let mut v = g.view(0);
        let arena = v.alloc_zeroed::<u64>(4);
        v.write(arena, 0, 42);
        g.restore(&c);
        let mut v2 = g.view(0);
        let arena2 = v2.alloc_zeroed::<u64>(4);
        v2.write(arena2, 0, 7);
        let d = g.checkpoint();
        assert_eq!(c.host_mismatch(&d), None);
    }

    #[test]
    fn combined_accessors_agree_with_split_calls() {
        let g = GlobalMem::new();
        let p = g.alloc_from(&[1.5f64, 2.5]);
        let u = g.alloc_from(&[10u64, 20]);
        let mut v = g.view(0);
        let (addr, val) = v.read_at(p, 1);
        assert_eq!(addr, v.addr_of(p, 1));
        assert_eq!(val, 2.5);
        assert_eq!(v.write_at(p, 0, 9.0), v.addr_of(p, 0));
        assert_eq!(v.read(p, 0), 9.0);
        let (aaddr, old) = v.atomic_add_f64_at(p, 1, 1.0);
        assert_eq!((aaddr, old), (v.addr_of(p, 1), 2.5));
        assert_eq!(v.read(p, 1), 3.5);
        let (uaddr, uold) = v.atomic_add_u64_at(u, 1, 5);
        assert_eq!((uaddr, uold), (v.addr_of(u, 1), 20));
        assert_eq!(v.read(u, 1), 25);
    }
}
