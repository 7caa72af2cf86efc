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
//!   [`GlobalView`] looks each segment up once (one lock, one `Arc` clone
//!   on that cache miss) and keeps it in a short list, so every later
//!   access is a scan of a few ids plus an index, with no lock and no
//!   refcount traffic. During a launch the list is launch-scoped per sim
//!   thread: one view serves all of the thread's blocks in turn
//!   (`GlobalView::begin_block`), so a thread looks a segment up once
//!   per launch, and drops the `Arc`s when it leaves the launch. A cached
//!   segment shares its `alive` flag with the table, so use after free
//!   still panics;
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

/// The storage words of `values`, sized once. A one-word type collects
/// straight into an exact-size vector; a wider one index-stores each
/// value's words into a zeroed allocation.
fn words_of<T: DevValue>(values: impl ExactSizeIterator<Item = T>) -> Vec<AtomicU64> {
    if T::WORDS == 1 {
        return values.map(|v| AtomicU64::new(word_of(v))).collect();
    }
    let mut words = zeroed_words(values.len() * T::WORDS);
    for (i, v) in values.enumerate() {
        let base = i * T::WORDS;
        v.store_words(&mut |j, w| *words[base + j].get_mut() = w);
    }
    words
}

/// The single storage word of a one-word value.
#[inline]
fn word_of<T: DevValue>(v: T) -> u64 {
    let mut word = 0;
    v.store_words(&mut |_, w| word = w);
    word
}

/// `n` words holding 0, from a zeroed allocation whose pages stay
/// untouched until they are written.
fn zeroed_words(n: usize) -> Vec<AtomicU64> {
    // SAFETY: `AtomicU64` has the in-memory representation of `u64`, so
    // all-zero bytes are a valid `AtomicU64` holding 0.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n).assume_init() }.into_vec()
}

/// The storage of `n` default values. A default stored as all-zero words
/// (every primitive, and arrays and pairs of them) is [`zeroed_words`].
fn default_words<T: DevValue + Default>(n: usize) -> Vec<AtomicU64> {
    let mut zero = true;
    T::default().store_words(&mut |_, w| zero &= w == 0);
    if !zero {
        return words_of(std::iter::repeat_n(T::default(), n));
    }
    zeroed_words(n * T::WORDS)
}

/// One typed segment: metadata plus word storage behind relaxed atomics.
pub(crate) struct Segment {
    base: u64,
    /// Elements in the segment.
    len: usize,
    /// Logical bytes per element (drives synthetic addressing).
    elem_bytes: usize,
    type_id: TypeId,
    alive: AtomicBool,
    words: Vec<AtomicU64>,
}

// Every access runs `elem` inline: the `alive` load, the type compare and
// the bounds compare on the way to the words. The bounds compare also
// catches an `off + idx` that wraps past `u64::MAX`, so a wrapped index is
// an OOB panic in every profile. The panics they guard stay out of line, so
// the whole path inlines into a lane closure.
impl Segment {
    /// Panic unless the segment is alive and holds `T`s.
    #[inline(always)]
    fn check<T: DevValue>(&self, seg: u32) {
        let alive = self.alive.load(Ordering::Relaxed);
        if !alive || self.type_id != TypeId::of::<T>() {
            bad_access(seg, alive, std::any::type_name::<T>());
        }
    }

    /// The index of element `idx` relative to `p` and its words, after the
    /// alive, type and bounds checks; `op` names the access in the
    /// out-of-bounds panic.
    #[inline(always)]
    fn elem<T: DevValue>(&self, p: DPtr<T>, idx: u64, op: &'static str) -> (u64, &[AtomicU64]) {
        self.check::<T>(p.seg);
        self.bound(p, idx, op)
    }

    /// [`Self::elem`] without the alive and type checks, for a segment
    /// already [`Self::check`]ed for `T`: the bounds check alone.
    #[inline(always)]
    fn bound<T: DevValue>(&self, p: DPtr<T>, idx: u64, op: &'static str) -> (u64, &[AtomicU64]) {
        let (i, wrapped) = p.off.overflowing_add(idx);
        if wrapped | (i >= self.len as u64) {
            out_of_bounds(op, p.off, idx, self.len);
        }
        let base = i as usize * T::WORDS;
        (i, &self.words[base..base + T::WORDS])
    }

    /// The words of `len` elements from `p`, after the alive, type and
    /// bounds checks; `oob` is the out-of-bounds panic message.
    fn range<T: DevValue>(&self, p: DPtr<T>, len: usize, oob: &str) -> &[AtomicU64] {
        self.check::<T>(p.seg);
        let start = p.off as usize;
        let end = start.checked_add(len).filter(|&end| end <= self.len);
        let Some(end) = end else { panic!("{oob}") };
        &self.words[start * T::WORDS..end * T::WORDS]
    }

    /// Synthetic byte address of element `i`.
    #[inline(always)]
    fn addr<T: DevValue>(&self, i: u64) -> u64 {
        self.base + i * std::mem::size_of::<T>() as u64
    }

    /// Synthetic byte address of element `idx` relative to `p`, which may
    /// lie past the end; an address that wraps `u64` is an OOB panic.
    fn addr_rel<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> u64 {
        let bytes = std::mem::size_of::<T>() as u64;
        let offset = p.off.checked_add(idx).and_then(|i| i.checked_mul(bytes));
        match offset.and_then(|o| o.checked_add(self.base)) {
            Some(addr) => addr,
            None => out_of_bounds("address", p.off, idx, self.len),
        }
    }

    /// Read element `idx` relative to `p`; returns its synthetic address.
    #[inline(always)]
    fn read<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> (u64, T) {
        self.check::<T>(p.seg);
        self.load(p, idx)
    }

    /// Write element `idx` relative to `p`; returns its synthetic address.
    #[inline(always)]
    fn write<T: DevValue>(&self, p: DPtr<T>, idx: u64, v: T) -> u64 {
        self.check::<T>(p.seg);
        self.store(p, idx, v)
    }

    /// [`Self::read`] on a segment already checked for `T`
    /// ([`GlobalView::checked`]): a warp instruction checks the segment
    /// once and each lane's index here.
    #[inline(always)]
    pub(crate) fn load<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> (u64, T) {
        let (i, words) = self.bound(p, idx, "read");
        (self.addr::<T>(i), T::load_words(&mut |j| words[j].load(Ordering::Relaxed)))
    }

    /// [`Self::write`] on a segment already checked for `T`.
    #[inline(always)]
    pub(crate) fn store<T: DevValue>(&self, p: DPtr<T>, idx: u64, v: T) -> u64 {
        let (i, words) = self.bound(p, idx, "write");
        v.store_words(&mut |j, w| words[j].store(w, Ordering::Relaxed));
        self.addr::<T>(i)
    }

    /// Atomic read-modify-write of the single storage word of element `idx`
    /// relative to `p`; returns its synthetic address and the old word.
    /// Only valid for 1-word element types (`f64`/`u64` atomics).
    #[inline(always)]
    fn rmw_word<T: DevValue>(&self, p: DPtr<T>, idx: u64, f: impl Fn(u64) -> u64) -> (u64, u64) {
        debug_assert_eq!(T::WORDS, 1);
        let (i, words) = self.elem(p, idx, "write");
        let old = words[0]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(f(w)))
            .unwrap_or_else(|w| w);
        (self.addr::<T>(i), old)
    }

    fn logical_bytes(&self) -> u64 {
        (self.len * self.elem_bytes) as u64
    }
}

/// The use-after-free or type-confusion panic of [`Segment::check`].
#[cold]
#[inline(never)]
fn bad_access(seg: u32, alive: bool, ty: &str) -> ! {
    if !alive {
        panic!("use after free of segment {seg}");
    }
    panic!("type confusion on segment {seg}: expected Vec<{ty}>");
}

/// The out-of-bounds panic of [`Segment::elem`] and [`Segment::addr_rel`]:
/// element `idx` relative to an offset `off` lies past `len`, or its index
/// or address wraps.
#[cold]
#[inline(never)]
fn out_of_bounds(op: &str, off: u64, idx: u64, len: usize) -> ! {
    match off.checked_add(idx) {
        Some(i) => panic!("device OOB {op}: idx {i} >= len {len}"),
        None => panic!("device OOB {op}: idx {off} + {idx} wraps (len {len})"),
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
        let mut view = self.view_in(ViewStore::default());
        view.begin_block(block_id);
        view
    }

    /// A view on reused storage, for [`GlobalView::begin_block`] to place
    /// at a block. The store's segment cache must come from a view of this
    /// memory in the same launch, or be empty: segment ids restart at 0 on
    /// every `GlobalMem`.
    pub(crate) fn view_in(&self, store: ViewStore) -> GlobalView<'_> {
        GlobalView {
            mem: self,
            segs: store.segs,
            arena_next: 0,
            arena_limit: 0,
            arena_allocs: store.arena_allocs,
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

    /// Allocate a segment of `n` elements without initializing them, as
    /// `map(alloc:)` does: it holds zero words, whatever value of `T`
    /// those decode to.
    pub fn alloc_uninit<T: DevValue>(&self, n: usize) -> DPtr<T> {
        self.push_segment(zeroed_words(n * T::WORDS), n, None)
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
        self.seg(p.seg).read(p, idx).1
    }

    /// Write element `idx` relative to pointer `p`.
    #[inline]
    pub fn write<T: DevValue>(&self, p: DPtr<T>, idx: u64, v: T) {
        self.seg(p.seg).write(p, idx, v);
    }

    /// Synthetic byte address of element `idx` relative to `p`, used by the
    /// coalescing analysis.
    #[inline]
    pub fn addr_of<T: DevValue>(&self, p: DPtr<T>, idx: u64) -> u64 {
        self.seg(p.seg).addr_rel(p, idx)
    }

    /// Copy `len` elements starting at `p` back to the host. The alive,
    /// type and bounds checks run once for the whole range.
    pub fn read_slice<T: DevValue>(&self, p: DPtr<T>, len: usize) -> Vec<T> {
        let s = self.seg(p.seg);
        let words = s.range::<T>(p, len, "device OOB slice read");
        (0..len)
            .map(|i| T::load_words(&mut |j| words[i * T::WORDS + j].load(Ordering::Relaxed)))
            .collect()
    }

    /// Overwrite `data.len()` elements starting at `p` from host data.
    pub fn write_slice<T: DevValue>(&self, p: DPtr<T>, data: &[T]) {
        let s = self.seg(p.seg);
        let words = s.range::<T>(p, data.len(), "device OOB slice write");
        for (i, v) in data.iter().enumerate() {
            v.store_words(&mut |j, w| words[i * T::WORDS + j].store(w, Ordering::Relaxed));
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

/// The storage of a [`GlobalView`] kept from one launch to the next on a
/// sim thread: the segment cache, emptied when the thread leaves a launch,
/// and the fallback-range list.
#[derive(Default)]
pub(crate) struct ViewStore {
    segs: Vec<(u32, Arc<Segment>)>,
    arena_allocs: Vec<FallbackRange>,
}

impl ViewStore {
    /// Drop every cached segment: the thread leaves the launch, and the
    /// next launch may be on another `GlobalMem`.
    pub(crate) fn leave_launch(&mut self) {
        self.segs.clear();
    }
}

/// A block's accessor to shared global memory: caches every segment the
/// block touches and owns the block's deterministic fallback arena.
pub struct GlobalView<'g> {
    mem: &'g GlobalMem,
    /// Segments this view has touched (during a launch, for every block
    /// its thread has run so far), each looked up in the table once.
    /// A block touches a handful, so a linear scan beats any map. Safe
    /// across frees: a cached `Arc` shares its segment's `alive` flag, so
    /// stale use still panics.
    segs: Vec<(u32, Arc<Segment>)>,
    arena_next: u64,
    arena_limit: u64,
    arena_allocs: Vec<FallbackRange>,
}

impl<'g> GlobalView<'g> {
    /// The cached segment `idx`. A miss, the first access of a block to a
    /// segment, takes the table lock out of line.
    #[inline(always)]
    fn seg(&mut self, idx: u32) -> &Segment {
        match self.segs.iter().position(|(id, _)| *id == idx) {
            Some(i) => &self.segs[i].1,
            None => self.cache_miss(idx),
        }
    }

    #[cold]
    #[inline(never)]
    fn cache_miss(&mut self, idx: u32) -> &Segment {
        let s = self.mem.seg(idx);
        self.segs.push((idx, s));
        &self.segs[self.segs.len() - 1].1
    }

    /// Read element `idx` relative to `p`.
    #[inline]
    pub fn read<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> T {
        self.read_at(p, idx).1
    }

    /// Write element `idx` relative to `p`.
    #[inline]
    pub fn write<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) {
        self.write_at(p, idx, v);
    }

    /// Synthetic byte address of element `idx` relative to `p`.
    #[inline]
    pub fn addr_of<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> u64 {
        self.seg(p.seg).addr_rel(p, idx)
    }

    /// Atomic `fetch_add` on an `f64` element; returns the old value.
    /// Genuinely atomic across concurrently executing blocks.
    #[inline]
    pub fn atomic_add_f64(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> f64 {
        self.atomic_add_f64_at(p, idx, v).1
    }

    /// Atomic `fetch_add` on a `u64` element; returns the old value.
    #[inline]
    pub fn atomic_add_u64(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> u64 {
        self.atomic_add_u64_at(p, idx, v).1
    }

    /// The segment `p` points into, after the alive and type checks, for
    /// a warp instruction's per-lane [`Segment::load`]s and
    /// [`Segment::store`]s.
    #[inline(always)]
    pub(crate) fn checked<T: DevValue>(&mut self, p: DPtr<T>) -> &Segment {
        let s = self.seg(p.seg);
        s.check::<T>(p.seg);
        s
    }

    // Combined accessors: one segment lookup yields both the synthetic byte
    // address (for the coalescing model) and the data operation. `Lane` uses
    // these so every device access does a single table walk.

    /// Read element `idx` relative to `p`, returning its synthetic address.
    #[inline(always)]
    pub(crate) fn read_at<T: DevValue>(&mut self, p: DPtr<T>, idx: u64) -> (u64, T) {
        self.seg(p.seg).read(p, idx)
    }

    /// Write element `idx` relative to `p`, returning its synthetic address.
    #[inline(always)]
    pub(crate) fn write_at<T: DevValue>(&mut self, p: DPtr<T>, idx: u64, v: T) -> u64 {
        self.seg(p.seg).write(p, idx, v)
    }

    /// [`Self::atomic_add_f64`] plus the element's synthetic address.
    #[inline(always)]
    pub(crate) fn atomic_add_f64_at(&mut self, p: DPtr<f64>, idx: u64, v: f64) -> (u64, f64) {
        let (addr, old) = self.seg(p.seg).rmw_word(p, idx, |w| (f64::from_bits(w) + v).to_bits());
        (addr, f64::from_bits(old))
    }

    /// [`Self::atomic_add_u64`] plus the element's synthetic address.
    #[inline(always)]
    pub(crate) fn atomic_add_u64_at(&mut self, p: DPtr<u64>, idx: u64, v: u64) -> (u64, u64) {
        self.seg(p.seg).rmw_word(p, idx, |w| w.wrapping_add(v))
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

    /// The underlying shared memory object.
    pub fn mem(&self) -> &'g GlobalMem {
        self.mem
    }

    /// Fallback allocations this view performed (the launch merge step
    /// reads these for cross-team race analysis).
    pub fn fallback_ranges(&self) -> &[FallbackRange] {
        &self.arena_allocs
    }

    /// Serve block `block_id` next: its fallback arena, no fallback
    /// ranges yet, and the segment cache as it is.
    pub(crate) fn begin_block(&mut self, block_id: u32) {
        self.arena_next = ARENA_BASE + block_id as u64 * ARENA_STRIDE;
        self.arena_limit = self.arena_next + ARENA_STRIDE;
        self.arena_allocs.clear();
    }

    /// The view's storage, segment cache included.
    pub(crate) fn into_store(self) -> ViewStore {
        ViewStore { segs: self.segs, arena_allocs: self.arena_allocs }
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
    fn alloc_from_round_trips_multi_word_elements() {
        let g = GlobalMem::new();
        let tri: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, -0.5 * i as f64, f64::MAX]).collect();
        let p = g.alloc_from(&tri);
        assert_eq!(g.read_slice(p, tri.len()), tri);
        let pairs: Vec<(u32, f64)> = (0..7).map(|i| (u32::MAX - i, i as f64 + 0.25)).collect();
        let q = g.alloc_from(&pairs);
        assert_eq!(g.read_slice(q, pairs.len()), pairs);
        assert_eq!(g.read(q, 6), (u32::MAX - 6, 6.25));
        assert!(g.read_slice(g.alloc_from::<(u32, f64)>(&[]), 0).is_empty());
    }

    #[test]
    fn zeroed_alloc() {
        let g = GlobalMem::new();
        let p = g.alloc_zeroed::<u32>(5);
        assert_eq!(g.read_slice(p, 5), vec![0; 5]);
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
    fn a_buffer_freed_after_a_launch_is_released() {
        // Each sim thread caches the segments a launch touches and must
        // drop them when it leaves the launch: a buffer freed afterwards
        // loses its last `Arc`, so its storage goes.
        use crate::launch::{Device, LaunchConfig};
        for (threads, sanitize) in [(1, false), (2, false), (1, true), (2, true)] {
            let mut d = Device::new(crate::arch::DeviceArch::tiny());
            d.set_sim_threads(Some(threads));
            if sanitize {
                d.enable_sanitizer();
            }
            let p = d.global.alloc_zeroed::<u64>(64);
            let weak = Arc::downgrade(&d.global.seg(p.seg));
            let cfg = LaunchConfig { num_blocks: 16, threads_per_block: 32, smem_bytes: 0 };
            // On 2 threads, blocks 0 and 1 meet here, so both threads
            // take part in the launch and cache the segment.
            let both = std::sync::Barrier::new(2);
            d.launch(&cfg, |team| {
                let b = team.block_id as u64;
                team.run_lanes(0, &[0, 1], |lane, id| {
                    lane.read(p, b * 2 + id as u64);
                });
                if threads == 2 && b < 2 {
                    both.wait();
                }
            })
            .unwrap();
            d.global.free(p);
            assert!(weak.upgrade().is_none(), "threads={threads}: a cache kept the segment");
        }
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
