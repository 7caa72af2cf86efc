//! The virtual timeline: a deterministic clock that places each recorded
//! stream/event op in *simulated* device time once, when it is logged.
//!
//! The old stream accounting summed op cycles into one counter, so a
//! transfer could never overlap a kernel no matter how the host structured
//! the work. Here every enqueued operation becomes a record in a shared
//! log — `(stream, seq, device, resource, cost, deps)` — placed as it is
//! appended:
//!
//! ```text
//! ready(op)  = max( finish(stream predecessor),        // in-order queue
//!                   finish(every dependence prefix) )  // wait_event edges
//! start(op)  = earliest t >= ready(op) such that [t, t + cost) is idle
//!              on the op's device resource            // H2D | D2H | Compute
//! finish(op) = start(op) + cost(op)
//! ```
//!
//! Each device exposes **three resources** ([`Resource`]): the host→device
//! DMA link, the device→host DMA link, and the compute core. PCIe is full
//! duplex and DMA engines run asynchronously to the SMs, so an H2D chunk,
//! a D2H copy-back, and a kernel can all occupy the same simulated
//! interval — which is exactly the overlap `target nowait` pipelines buy
//! on real hardware, and what the serialized counter could never show.
//! An op may also fill an idle gap that an earlier-logged op left on its
//! resource while it waited for a dependence.
//!
//! **Determinism.** An op is logged with its cost right after it ran,
//! under its device's lock, so every dependence it names is already
//! placed. Placement reads only earlier ops, and a placed op never moves:
//! a time `sync` has returned stays true. Each device's schedule therefore
//! follows the order its ops were logged, which is program order whenever
//! one host thread drives the device; ops on different devices never
//! share a resource, so threads driving separate devices cannot perturb
//! each other. Repeated runs of the same program report identical
//! simulated totals, which the stress suite asserts.

use std::sync::Arc;

use gpu_sim::{Resource, ResourceCycles};

use crate::sync::Mutex;

/// Identifier of an operation in the timeline log.
pub type OpId = usize;

struct OpRec {
    stream: u32,
    seq: u32,
    device: u32,
    /// `None` marks a `wait_event` edge (zero cost, no resource).
    resource: Option<Resource>,
    /// Simulated cycles.
    cost: u64,
    /// Dependences: `(producer stream, watermark)` pairs from events.
    deps: Vec<(u32, u32)>,
    /// Thread blocks the op launched (kernel launches only; 0 otherwise).
    blocks: u32,
    /// Simulated start, fixed when the op is logged.
    start: u64,
    /// Longest dependence-only path (stream order + event edges) ending at
    /// this op.
    cp: u64,
}

struct StreamRec {
    device: u32,
    ops: Vec<OpId>,
}

struct TlInner {
    streams: Vec<StreamRec>,
    ops: Vec<OpRec>,
    /// Busy intervals `[start, finish)` per device and [`Resource::index`]:
    /// sorted, disjoint, and merged where they touch.
    engines: Vec<[Vec<(u64, u64)>; 3]>,
    /// Running totals over the log (`overlap_ratio` is derived on read).
    stats: TimelineStats,
}

/// Shared, cloneable handle to one timeline (one per [`crate::HostRuntime`],
/// or private to a standalone [`crate::Stream`]).
#[derive(Clone)]
pub struct Timeline {
    inner: Arc<Mutex<TlInner>>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

/// One scheduled operation, as the tests and tools observe it.
#[derive(Clone, Debug)]
pub struct OpView {
    /// Log id.
    pub id: OpId,
    /// Owning stream.
    pub stream: u32,
    /// Position within the stream (jobs, waits included).
    pub seq: u32,
    /// Device the stream is bound to.
    pub device: u32,
    /// Consumed resource; `None` for wait markers.
    pub resource: Option<Resource>,
    /// Simulated cycles consumed.
    pub cost: u64,
    /// Simulated start time.
    pub start: u64,
    /// Simulated finish time (`start + cost`).
    pub finish: u64,
    /// Dependence edges `(producer stream, watermark)`.
    pub deps: Vec<(u32, u32)>,
    /// Thread blocks launched by this op (kernel launches enqueued via
    /// [`crate::Stream::enqueue_launch`]; 0 for transfers and waits).
    pub blocks: u32,
}

/// Per-device busy cycles, one counter per resource.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceBusy {
    /// Device index within the timeline.
    pub device: u32,
    /// Busy cycles per resource.
    pub busy: ResourceCycles,
}

/// Aggregate view of the scheduled timeline.
#[derive(Clone, Debug, Default)]
pub struct TimelineStats {
    /// Simulated end-to-end cycles: the latest finish over all ops.
    pub makespan: u64,
    /// Sum of every op's cost — what a fully serialized execution would
    /// take, and what the old single-counter accounting reported.
    pub serialized: u64,
    /// Longest dependence chain (stream order + event edges, resource
    /// contention ignored): the floor no scheduler could beat.
    pub critical_path: u64,
    /// `1 − makespan/serialized`: 0 for fully serial execution, →1 as
    /// overlap across resources/devices grows.
    pub overlap_ratio: f64,
    /// Scheduled real operations.
    pub ops: u64,
    /// Scheduled wait markers.
    pub waits: u64,
    /// Busy cycles per device and resource.
    pub per_device: Vec<DeviceBusy>,
}

impl std::fmt::Display for TimelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops in {} simulated cycles (serialized {}, critical path {}, overlap {:.1}%)",
            self.ops,
            self.makespan,
            self.serialized,
            self.critical_path,
            self.overlap_ratio * 100.0
        )?;
        for d in &self.per_device {
            write!(
                f,
                "\n  device {}: h2d {} / d2h {} / compute {} busy cycles",
                d.device, d.busy.h2d, d.busy.d2h, d.busy.compute
            )?;
        }
        Ok(())
    }
}

impl Timeline {
    /// Create an empty timeline.
    pub fn new() -> Timeline {
        Timeline {
            inner: Arc::new(Mutex::new(TlInner {
                streams: Vec::new(),
                ops: Vec::new(),
                engines: Vec::new(),
                stats: TimelineStats::default(),
            })),
        }
    }

    /// Register a stream bound to `device`; returns its timeline id.
    pub(crate) fn register_stream(&self, device: u32) -> u32 {
        let mut tl = self.inner.lock();
        let devices = tl.engines.len().max(device as usize + 1);
        tl.engines.resize_with(devices, Default::default);
        let known = tl.stats.per_device.len();
        tl.stats.per_device.extend(
            (known..devices).map(|d| DeviceBusy { device: d as u32, busy: Default::default() }),
        );
        tl.streams.push(StreamRec { device, ops: Vec::new() });
        (tl.streams.len() - 1) as u32
    }

    /// Append an operation that ran on `resource` of `stream`'s device,
    /// consuming `cost` simulated cycles and launching `blocks` thread
    /// blocks (kernel launches report their grid size; 0 otherwise).
    pub(crate) fn push_op(&self, stream: u32, resource: Resource, cost: u64, blocks: u32) {
        self.push(stream, Some(resource), cost, Vec::new(), blocks);
    }

    /// Append a wait marker: a zero-cost op depending on
    /// `(producer stream, watermark)`.
    pub(crate) fn push_wait(&self, stream: u32, dep: (u32, u32)) {
        self.push(stream, None, 0, vec![dep], 0);
    }

    /// Log an op and place it: it starts at the earliest idle gap of its
    /// resource, at or after every op it depends on has finished, and
    /// keeps that start for good.
    fn push(
        &self,
        stream: u32,
        resource: Option<Resource>,
        cost: u64,
        deps: Vec<(u32, u32)>,
        blocks: u32,
    ) {
        let mut guard = self.inner.lock();
        let tl = &mut *guard;
        let srec = &tl.streams[stream as usize];
        let (seq, device) = (srec.ops.len() as u32, srec.device);
        // `(finish, cp)` of a stream's first `w` ops. Neither decreases
        // along a stream, so the prefix's are its last op's.
        let prefix = |s: u32, w: u32| match w.checked_sub(1) {
            Some(q) => {
                let op = &tl.ops[tl.streams[s as usize].ops[q as usize]];
                (op.start + op.cost, op.cp)
            }
            None => (0, 0),
        };
        let (mut ready, mut cp) = prefix(stream, seq);
        for &(ps, w) in &deps {
            let (f, c) = prefix(ps, w);
            ready = ready.max(f);
            cp = cp.max(c);
        }
        let start = match resource {
            Some(r) => {
                tl.stats.ops += 1;
                tl.stats.per_device[device as usize].busy.add(r, cost);
                place(&mut tl.engines[device as usize][r.index()], ready, cost)
            }
            None => {
                tl.stats.waits += 1;
                ready
            }
        };
        let cp = cp + cost;
        tl.stats.serialized += cost;
        tl.stats.makespan = tl.stats.makespan.max(start + cost);
        tl.stats.critical_path = tl.stats.critical_path.max(cp);
        let id = tl.ops.len();
        tl.streams[stream as usize].ops.push(id);
        tl.ops.push(OpRec { stream, seq, device, resource, cost, deps, blocks, start, cp });
    }

    /// `true` if `self` and `other` are handles to the same timeline.
    pub(crate) fn same_as(&self, other: &Timeline) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Jobs enqueued on `stream` so far — the watermark an event recorded
    /// now would capture.
    pub(crate) fn watermark(&self, stream: u32) -> u32 {
        self.inner.lock().streams[stream as usize].ops.len() as u32
    }

    /// Aggregate statistics over the whole log.
    pub fn stats(&self) -> TimelineStats {
        let mut stats = self.inner.lock().stats.clone();
        if stats.serialized > 0 {
            stats.overlap_ratio = 1.0 - stats.makespan as f64 / stats.serialized as f64;
        }
        stats
    }

    /// The scheduled operations, in log order. Primarily for tests and
    /// tooling.
    pub fn scheduled_ops(&self) -> Vec<OpView> {
        let tl = self.inner.lock();
        tl.ops
            .iter()
            .enumerate()
            .map(|(id, op)| OpView {
                id,
                stream: op.stream,
                seq: op.seq,
                device: op.device,
                resource: op.resource,
                cost: op.cost,
                start: op.start,
                finish: op.start + op.cost,
                deps: op.deps.clone(),
                blocks: op.blocks,
            })
            .collect()
    }

    /// Simulated time at which `stream`'s last op finishes (0 for an empty
    /// stream): the stream's completion point on the shared timeline.
    pub(crate) fn stream_finish(&self, stream: u32) -> u64 {
        let tl = self.inner.lock();
        tl.streams[stream as usize].ops.last().map_or(0, |&id| tl.ops[id].start + tl.ops[id].cost)
    }
}

/// Start `cost` cycles on one engine's busy list at the earliest gap at or
/// after `ready` that holds them, and mark them busy.
fn place(busy: &mut Vec<(u64, u64)>, ready: u64, cost: u64) -> u64 {
    let mut i = busy.partition_point(|&(_, end)| end <= ready);
    let mut start = ready;
    while let Some(&(s, e)) = busy.get(i) {
        if start + cost <= s {
            break;
        }
        start = e;
        i += 1;
    }
    let finish = start + cost;
    let joins_prev = i > 0 && busy[i - 1].1 == start;
    let joins_next = busy.get(i).is_some_and(|&(s, _)| s == finish);
    match (joins_prev, joins_next) {
        _ if cost == 0 => {}
        (true, true) => busy[i - 1].1 = busy.remove(i).1,
        (true, false) => busy[i - 1].1 = finish,
        (false, true) => busy[i].0 = start,
        (false, false) => busy.insert(i, (start, finish)),
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the timeline directly, without a device.
    fn op(tl: &Timeline, s: u32, r: Resource, cost: u64) {
        tl.push_op(s, r, cost, 0);
    }

    #[test]
    fn single_stream_serializes_to_the_sum() {
        let tl = Timeline::new();
        let s = tl.register_stream(0);
        op(&tl, s, Resource::Compute, 10);
        op(&tl, s, Resource::H2D, 20); // different resource, same stream: still in order
        op(&tl, s, Resource::Compute, 5);
        let st = tl.stats();
        assert_eq!(st.makespan, 35);
        assert_eq!(st.serialized, 35);
        assert_eq!(st.critical_path, 35);
        assert_eq!(st.overlap_ratio, 0.0);
        assert_eq!(st.ops, 3);
        assert_eq!(st.per_device[0].busy, ResourceCycles { h2d: 20, d2h: 0, compute: 15 });
    }

    #[test]
    fn different_resources_overlap_across_streams() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(0);
        op(&tl, a, Resource::Compute, 100);
        op(&tl, b, Resource::H2D, 80);
        let st = tl.stats();
        // No dependence, disjoint resources: full overlap.
        assert_eq!(st.makespan, 100);
        assert_eq!(st.serialized, 180);
        assert!(st.overlap_ratio > 0.4);
    }

    #[test]
    fn same_resource_serializes_across_streams() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(0);
        op(&tl, a, Resource::Compute, 100);
        op(&tl, b, Resource::Compute, 50);
        let st = tl.stats();
        assert_eq!(st.makespan, 150);
        // Dependence-only critical path is just the longer op.
        assert_eq!(st.critical_path, 100);
    }

    #[test]
    fn distinct_devices_do_not_contend() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(1);
        op(&tl, a, Resource::Compute, 100);
        op(&tl, b, Resource::Compute, 70);
        let st = tl.stats();
        assert_eq!(st.makespan, 100);
        assert_eq!(st.per_device.len(), 2);
        assert_eq!(st.per_device[1].busy.compute, 70);
    }

    #[test]
    fn wait_edges_delay_the_consumer() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(0);
        op(&tl, a, Resource::H2D, 100);
        let w = tl.watermark(a);
        assert_eq!(w, 1);
        tl.push_wait(b, (a, w));
        op(&tl, b, Resource::Compute, 50);
        let st = tl.stats();
        // Compute can only start once the H2D below the event finished.
        assert_eq!(st.makespan, 150);
        assert_eq!(st.critical_path, 150);
        assert_eq!(st.waits, 1);
        let views = tl.scheduled_ops();
        let k = views.iter().find(|v| v.resource == Some(Resource::Compute)).unwrap();
        assert_eq!(k.start, 100);
        assert_eq!(k.finish, 150);
    }

    #[test]
    fn earliest_start_first_lets_ready_work_jump_a_blocked_head() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(0);
        let c = tl.register_stream(0);
        // Stream a: long H2D; stream b waits for it then computes; stream c
        // computes immediately. b's compute is logged first and waits for
        // the H2D, leaving compute idle over [0, 1000); c's compute, logged
        // later, must take that gap instead of queueing behind b's.
        op(&tl, a, Resource::H2D, 1000);
        tl.push_wait(b, (a, tl.watermark(a)));
        op(&tl, b, Resource::Compute, 100);
        op(&tl, c, Resource::Compute, 300);
        let views = tl.scheduled_ops();
        let c_op = views.iter().find(|v| v.stream == c).unwrap();
        assert_eq!(c_op.start, 0);
        let b_op = views.iter().find(|v| v.stream == b && v.resource.is_some()).unwrap();
        assert_eq!(b_op.start, 1000);
        assert_eq!(tl.stats().makespan, 1100);
    }

    #[test]
    fn stream_finish_reports_per_stream_completion() {
        let tl = Timeline::new();
        let a = tl.register_stream(0);
        let b = tl.register_stream(0);
        op(&tl, a, Resource::Compute, 100);
        op(&tl, b, Resource::H2D, 30);
        assert_eq!(tl.stream_finish(a), 100);
        assert_eq!(tl.stream_finish(b), 30);
    }

    #[test]
    fn empty_timeline_is_all_zeroes() {
        let tl = Timeline::new();
        let st = tl.stats();
        assert_eq!(st.makespan, 0);
        assert_eq!(st.overlap_ratio, 0.0);
        assert!(st.per_device.is_empty());
        assert!(tl.scheduled_ops().is_empty());
    }
}
