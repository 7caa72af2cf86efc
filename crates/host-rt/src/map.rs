//! The host-side data-mapping table: `map(to:/from:/alloc:)` semantics
//! with reference counting, as in LLVM's `libomptarget`.
//!
//! Host buffers are identified by their base address. Entering a mapped
//! region increments the entry's reference count; only the 0→1 transition
//! allocates device memory and (for `to`) copies. Exiting decrements; only
//! the 1→0 transition copies back (for `from`) and frees. This is the
//! standard present-table behavior that makes nested `target data` regions
//! cheap.

use std::any::TypeId;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use gpu_sim::mem::pod::DevValue;
use gpu_sim::{DPtr, Device};

use crate::event::Event;
use crate::stream::Stream;
use crate::xfer::{XferModel, XferStats};

struct MapEntry {
    bits: u64,
    len: usize,
    elem: TypeId,
    elem_size: usize,
    refcount: u32,
}

/// A device plus its mapping table and transfer accounting — the per-device
/// state `libomptarget` keeps.
pub struct ManagedDevice {
    /// The simulated device.
    pub dev: Device,
    /// Transfer link model.
    pub model: XferModel,
    /// Accumulated transfer statistics.
    pub xfer: XferStats,
    table: HashMap<usize, MapEntry>,
}

impl ManagedDevice {
    /// Wrap a device with an empty mapping table.
    pub fn new(dev: Device) -> ManagedDevice {
        ManagedDevice {
            dev,
            model: XferModel::default(),
            xfer: XferStats::default(),
            table: HashMap::new(),
        }
    }

    fn key<T>(host: &[T]) -> usize {
        host.as_ptr() as usize
    }

    fn enter<T: DevValue>(&mut self, host: &[T], copy: bool) -> DPtr<T> {
        let key = Self::key(host);
        if let Some(e) = self.table.get_mut(&key) {
            assert_eq!(e.elem, TypeId::of::<T>(), "mapped with a different element type");
            assert_eq!(e.len, host.len(), "mapped with a different length");
            e.refcount += 1;
            return DPtr::from_bits(e.bits);
        }
        let p = if copy {
            let p = self.dev.global.alloc_from(host);
            self.xfer.record_h2d(&self.model, std::mem::size_of_val(host) as u64);
            p
        } else {
            // `alloc:` — device memory without initialization transfer.
            let p = self.dev.global.alloc_from(host); // contents present but uncharged
            p
        };
        self.table.insert(
            key,
            MapEntry {
                bits: p.to_bits(),
                len: host.len(),
                elem: TypeId::of::<T>(),
                elem_size: std::mem::size_of::<T>(),
                refcount: 1,
            },
        );
        p
    }

    /// `map(to: host)` — enter the region; copies host→device on first
    /// mapping.
    pub fn map_to<T: DevValue>(&mut self, host: &[T]) -> DPtr<T> {
        self.enter(host, true)
    }

    /// `map(alloc: host)` — enter without the initializing copy.
    pub fn map_alloc<T: DevValue>(&mut self, host: &[T]) -> DPtr<T> {
        self.enter(host, false)
    }

    /// `map(from: host)` — exit the region; on the last reference, copy
    /// device→host and free device memory.
    pub fn map_from<T: DevValue>(&mut self, host: &mut [T]) {
        let key = host.as_ptr() as usize;
        let e = self.table.get_mut(&key).expect("map_from of unmapped buffer");
        assert_eq!(e.elem, TypeId::of::<T>());
        e.refcount -= 1;
        if e.refcount == 0 {
            let p: DPtr<T> = DPtr::from_bits(e.bits);
            let data = self.dev.global.read_slice(p, e.len);
            host.copy_from_slice(&data);
            self.xfer.record_d2h(&self.model, (e.len * e.elem_size) as u64);
            self.dev.global.free(p);
            self.table.remove(&key);
        }
    }

    /// `map(release: host)` — exit without the copy-back.
    pub fn map_release<T: DevValue>(&mut self, host: &[T]) {
        let key = Self::key(host);
        let e = self.table.get_mut(&key).expect("map_release of unmapped buffer");
        e.refcount -= 1;
        if e.refcount == 0 {
            let p: DPtr<T> = DPtr::from_bits(e.bits);
            self.dev.global.free(p);
            self.table.remove(&key);
        }
    }

    /// `target update from(host)` — copy device→host without changing the
    /// mapping.
    pub fn update_from<T: DevValue>(&mut self, host: &mut [T]) {
        let key = host.as_ptr() as usize;
        let e = self.table.get(&key).expect("update of unmapped buffer");
        assert_eq!(e.elem, TypeId::of::<T>());
        let p: DPtr<T> = DPtr::from_bits(e.bits);
        let data = self.dev.global.read_slice(p, e.len);
        host.copy_from_slice(&data);
        self.xfer.record_d2h(&self.model, (e.len * e.elem_size) as u64);
    }

    /// `target update to(host)` — copy host→device without changing the
    /// mapping.
    pub fn update_to<T: DevValue>(&mut self, host: &[T]) {
        let key = Self::key(host);
        let e = self.table.get(&key).expect("update of unmapped buffer");
        assert_eq!(e.elem, TypeId::of::<T>());
        let p: DPtr<T> = DPtr::from_bits(e.bits);
        self.dev.global.write_slice(p, host);
        self.xfer.record_h2d(&self.model, (e.len * e.elem_size) as u64);
    }

    /// Present-table lookup: the device pointer a host buffer is mapped to,
    /// if any.
    pub fn present<T: DevValue>(&self, host: &[T]) -> Option<DPtr<T>> {
        self.table.get(&Self::key(host)).map(|e| {
            assert_eq!(e.elem, TypeId::of::<T>());
            DPtr::from_bits(e.bits)
        })
    }

    /// Number of live mapping entries.
    pub fn mapped_entries(&self) -> usize {
        self.table.len()
    }
}

/// Split `len` elements into `chunks` near-even contiguous ranges.
fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, len.max(1));
    (0..chunks)
        .map(|k| (k * len / chunks)..((k + 1) * len / chunks))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Double-buffered pipelined `map(to:)`: enter the mapping for `host`
/// (present-table entry, refcount 1 — exit later with
/// [`ManagedDevice::map_from`]/[`ManagedDevice::map_release`] as usual),
/// but stream the initializing copy in `chunks` pieces on `copy`'s H2D
/// link instead of one synchronous transfer. Returns the device pointer
/// plus one `(event, element range)` pair per chunk; a consumer stream
/// that `wait_event`s chunk `k` before touching its range can overlap its
/// compute on chunk `k` with the transfer of chunk `k+1` — the classic
/// double-buffer. Each chunk pays the link's fixed latency, so more chunks
/// trade overlap against setup overhead.
pub fn pipelined_map_to<T: DevValue>(
    copy: &Stream,
    host: &[T],
    chunks: usize,
) -> (DPtr<T>, Vec<(Event, Range<usize>)>) {
    let p = copy.device().lock().map_alloc(host);
    let mut out = Vec::new();
    for range in chunk_ranges(host.len(), chunks) {
        let data = &host[range.clone()];
        copy.enqueue_h2d(|md| {
            md.dev.global.write_slice(p.add(range.start as u64), data);
            let model = md.model;
            let bytes = std::mem::size_of_val(data) as u64;
            md.xfer.record_h2d(&model, bytes);
            model.cycles_for(bytes)
        });
        out.push((copy.record_event(), range));
    }
    (p, out)
}

/// Pipelined `map(to:)` + sliced kernel: upload `host` in `chunks` pieces
/// on `copy` and run `kernel` once per chunk on `compute`, each slice
/// gated on its chunk's transfer event — H2D of chunk `k+1` overlaps the
/// kernel on slice `k` in simulated time. `kernel` receives the locked
/// device, the mapped base pointer, and the slice's element range, and
/// returns the compute cycles consumed (typically `stats.cycles` of a
/// launch). Both streams must be bound to the same device. Returns the
/// mapped device pointer.
pub fn pipelined_to_compute<T, F>(
    copy: &Stream,
    compute: &Stream,
    host: &[T],
    chunks: usize,
    mut kernel: F,
) -> DPtr<T>
where
    T: DevValue,
    F: FnMut(&mut ManagedDevice, DPtr<T>, Range<usize>) -> u64,
{
    assert!(
        Arc::ptr_eq(copy.device(), compute.device()),
        "pipelined_to_compute: copy and compute streams target different devices"
    );
    let (p, chunk_events) = pipelined_map_to(copy, host, chunks);
    for (ev, range) in chunk_events {
        compute.wait_event(&ev);
        compute.enqueue(|md| kernel(md, p, range));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> ManagedDevice {
        ManagedDevice::new(Device::a100())
    }

    #[test]
    fn map_to_copies_once() {
        let mut md = dev();
        let host = vec![1.0f64, 2.0, 3.0];
        let p = md.map_to(&host);
        assert_eq!(md.dev.global.read_slice(p, 3), host);
        assert_eq!(md.xfer.h2d_count, 1);
        // Nested mapping: refcount only, no second copy.
        let p2 = md.map_to(&host);
        assert_eq!(p, p2);
        assert_eq!(md.xfer.h2d_count, 1);
        assert_eq!(md.mapped_entries(), 1);
    }

    #[test]
    fn map_from_copies_back_on_last_exit() {
        let mut md = dev();
        let mut host = vec![0.0f64; 4];
        let p = md.map_to(&host);
        md.map_to(&host); // second enter
        md.dev.global.write(p, 2, 42.0);
        // First exit: still referenced, no copy-back.
        md.map_from(&mut host);
        assert_eq!(host[2], 0.0);
        assert_eq!(md.mapped_entries(), 1);
        // Last exit: copy-back + free.
        md.map_from(&mut host);
        assert_eq!(host[2], 42.0);
        assert_eq!(md.mapped_entries(), 0);
        assert_eq!(md.dev.global.live_bytes(), 0);
        assert_eq!(md.xfer.d2h_count, 1);
    }

    #[test]
    fn alloc_skips_initial_copy() {
        let mut md = dev();
        let host = vec![7u32; 8];
        let _ = md.map_alloc(&host);
        assert_eq!(md.xfer.h2d_count, 0);
        md.map_release(&host);
        assert_eq!(md.mapped_entries(), 0);
    }

    #[test]
    fn update_moves_data_without_remapping() {
        let mut md = dev();
        let mut host = vec![1.0f64, 2.0];
        let p = md.map_to(&host);
        md.dev.global.write(p, 0, 10.0);
        md.update_from(&mut host);
        assert_eq!(host[0], 10.0);
        host[1] = 20.0;
        md.update_to(&host);
        assert_eq!(md.dev.global.read(p, 1), 20.0);
        assert_eq!(md.mapped_entries(), 1);
        assert_eq!(md.xfer.h2d_count, 2);
        assert_eq!(md.xfer.d2h_count, 1);
    }

    #[test]
    fn present_lookup() {
        let mut md = dev();
        let a = vec![1u64; 4];
        let b = vec![2u64; 4];
        let p = md.map_to(&a);
        assert_eq!(md.present(&a), Some(p));
        assert_eq!(md.present(&b), None);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for (len, chunks) in [(10, 3), (7, 7), (5, 9), (1, 1), (0, 4), (1024, 4)] {
            let rs = chunk_ranges(len, chunks);
            let total: usize = rs.iter().map(|r| r.len()).sum();
            assert_eq!(total, len, "len {len} chunks {chunks}");
            let mut expect = 0;
            for r in &rs {
                assert_eq!(r.start, expect, "gap at {expect}");
                expect = r.end;
            }
        }
    }

    #[test]
    fn pipelined_map_to_lands_data_and_charges_per_chunk() {
        let rt = crate::HostRuntime::new();
        let copy = rt.stream(0);
        let host: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let (p, chunk_events) = pipelined_map_to(&copy, &host, 4);
        assert_eq!(chunk_events.len(), 4);
        let md = rt.device(0);
        let mut md = md.lock();
        assert_eq!(md.dev.global.read_slice(p, 1000), host);
        // Mapping entered: present + refcounted like a plain map_to.
        assert_eq!(md.present(&host), Some(p));
        assert_eq!(md.xfer.h2d_count, 4);
        assert_eq!(md.xfer.h2d_bytes, 8000);
        // Normal exit path still applies.
        md.map_release(&host);
        assert_eq!(md.mapped_entries(), 0);
    }

    #[test]
    fn pipelined_to_compute_overlaps_transfer_with_kernel() {
        let rt = crate::HostRuntime::new();
        let copy = rt.stream(0);
        let compute = rt.stream(0);
        let host: Vec<f64> = vec![1.0; 4096];
        let mut ranges = Vec::new();
        pipelined_to_compute(&copy, &compute, &host, 4, |md, p, range| {
            // Touch the slice so mis-sequencing would be observable.
            assert_eq!(md.dev.global.read(p, range.start as u64), 1.0);
            ranges.push(range.clone());
            range.len() as u64
        });
        // Every slice ran, in order.
        assert_eq!(ranges.len(), 4);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        // H2D of later chunks overlapped compute of earlier ones.
        let st = rt.timeline_stats();
        assert!(st.makespan < st.serialized, "pipeline must overlap: {st}");
        assert!(st.overlap_ratio > 0.0);
    }

    #[test]
    #[should_panic(expected = "different devices")]
    fn pipelined_to_compute_rejects_mismatched_devices() {
        let rt = crate::HostRuntime::with_archs(vec![
            gpu_sim::DeviceArch::a100(),
            gpu_sim::DeviceArch::a100(),
        ]);
        let copy = rt.stream(0);
        let compute = rt.stream(1);
        pipelined_to_compute(&copy, &compute, &[0.0f64; 8], 2, |_, _, _| 0);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn map_from_unmapped_panics() {
        let mut md = dev();
        let mut host = vec![0.0f64; 2];
        md.map_from(&mut host);
    }

    #[test]
    #[should_panic(expected = "different element type")]
    fn remap_with_wrong_type_panics() {
        let mut md = dev();
        let host: Vec<u64> = vec![0; 4];
        md.map_to(&host);
        // Same address, viewed as f64.
        let alias = unsafe { std::slice::from_raw_parts(host.as_ptr() as *const f64, 4) };
        md.map_to(alias);
    }
}
