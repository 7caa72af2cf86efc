//! The virtual timeline: a deterministic scheduler that replays the
//! recorded stream/event DAG in *simulated* device time.
//!
//! The old stream accounting summed op cycles into one counter, so a
//! transfer could never overlap a kernel no matter how the host structured
//! the work. Here every enqueued operation becomes a record in a shared
//! log — `(stream, seq, device, resource, cost, deps)` — and simulated
//! time is computed from the log alone:
//!
//! ```text
//! start(op) = max( finish(stream predecessor),        // in-order queue
//!                  finish(every dependence event),    // wait_event edges
//!                  ready(device resource) )           // H2D | D2H | Compute
//! finish(op) = start(op) + cost(op)
//! ```
//!
//! Each device exposes **three resources** ([`Resource`]): the host→device
//! DMA link, the device→host DMA link, and the compute core. PCIe is full
//! duplex and DMA engines run asynchronously to the SMs, so an H2D chunk,
//! a D2H copy-back, and a kernel can all occupy the same simulated
//! interval — which is exactly the overlap `target nowait` pipelines buy
//! on real hardware, and what the serialized counter could never show.
//!
//! **Determinism.** An op is logged with its cost right after it ran, so
//! the log is fixed by program order of the enqueues and every logged op is
//! schedulable. Scheduling is a pure function of the log: ops are admitted
//! earliest-start-first (ties broken by stream id). Repeated runs of the
//! same program therefore report identical simulated totals, which the
//! stress suite asserts.

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
}

struct StreamRec {
    device: u32,
    ops: Vec<OpId>,
}

struct TlInner {
    streams: Vec<StreamRec>,
    ops: Vec<OpRec>,
    /// The last [`schedule`] of the log, with the [`TlInner::key`] it was
    /// computed at.
    cached: Option<(SchedKey, Arc<Sched>)>,
}

/// `(ops, streams)`: every change to the log changes it. An enqueue or a
/// wait appends an op, and a new stream appends a stream.
type SchedKey = (usize, usize);

impl TlInner {
    fn key(&self) -> SchedKey {
        (self.ops.len(), self.streams.len())
    }

    /// The schedule of the log as it is now. Queries between two changes
    /// share one [`schedule`] pass, so a sync storm costs one pass per
    /// logged op instead of one per query.
    fn sched(&mut self) -> Arc<Sched> {
        let key = self.key();
        if let Some((k, s)) = &self.cached {
            if *k == key {
                return Arc::clone(s);
            }
        }
        let s = Arc::new(schedule(self));
        self.cached = Some((key, Arc::clone(&s)));
        s
    }
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

/// Result of one scheduling pass.
struct Sched {
    /// `(start, finish)` per op id.
    times: Vec<(u64, u64)>,
    stats: TimelineStats,
}

impl Timeline {
    /// Create an empty timeline.
    pub fn new() -> Timeline {
        Timeline {
            inner: Arc::new(Mutex::new(TlInner {
                streams: Vec::new(),
                ops: Vec::new(),
                cached: None,
            })),
        }
    }

    /// Register a stream bound to `device`; returns its timeline id.
    pub(crate) fn register_stream(&self, device: u32) -> u32 {
        let mut tl = self.inner.lock();
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

    fn push(
        &self,
        stream: u32,
        resource: Option<Resource>,
        cost: u64,
        deps: Vec<(u32, u32)>,
        blocks: u32,
    ) {
        let mut tl = self.inner.lock();
        let id = tl.ops.len();
        let srec = &mut tl.streams[stream as usize];
        let (seq, device) = (srec.ops.len() as u32, srec.device);
        srec.ops.push(id);
        tl.ops.push(OpRec { stream, seq, device, resource, cost, deps, blocks });
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
        self.inner.lock().sched().stats.clone()
    }

    /// The scheduled operations, in log order. Primarily for tests and
    /// tooling.
    pub fn scheduled_ops(&self) -> Vec<OpView> {
        let mut tl = self.inner.lock();
        let sched = tl.sched();
        tl.ops
            .iter()
            .zip(&sched.times)
            .enumerate()
            .map(|(id, (op, &(start, finish)))| OpView {
                id,
                stream: op.stream,
                seq: op.seq,
                device: op.device,
                resource: op.resource,
                cost: op.cost,
                start,
                finish,
                deps: op.deps.clone(),
                blocks: op.blocks,
            })
            .collect()
    }

    /// Simulated time at which `stream`'s last op finishes (0 for an empty
    /// stream): the stream's completion point on the shared timeline.
    pub(crate) fn stream_finish(&self, stream: u32) -> u64 {
        let mut tl = self.inner.lock();
        let sched = tl.sched();
        tl.streams[stream as usize].ops.iter().map(|&id| sched.times[id].1).max().unwrap_or(0)
    }
}

/// Deterministic list scheduling over the whole log.
fn schedule(tl: &TlInner) -> Sched {
    let nstreams = tl.streams.len();
    let mut times: Vec<(u64, u64)> = vec![(0, 0); tl.ops.len()];
    // Longest dependence-only path ending at each op (resource edges
    // excluded) — the critical path accumulator.
    let mut cp: Vec<u64> = vec![0; tl.ops.len()];
    // Per-stream scheduling cursor and running prefix maxima.
    let mut next: Vec<usize> = vec![0; nstreams];
    let mut stream_ready: Vec<u64> = vec![0; nstreams];
    let mut stream_cp: Vec<u64> = vec![0; nstreams];
    // finish/cp prefix maxima per stream, indexed by job count.
    let mut prefix_fin: Vec<Vec<u64>> = vec![vec![0]; nstreams];
    let mut prefix_cp: Vec<Vec<u64>> = vec![vec![0]; nstreams];
    let max_dev = tl.streams.iter().map(|s| s.device).max().map(|d| d as usize + 1).unwrap_or(0);
    let mut res_ready: Vec<[u64; 3]> = vec![[0; 3]; max_dev];
    let mut busy: Vec<ResourceCycles> = vec![ResourceCycles::default(); max_dev];

    let mut stats = TimelineStats::default();

    loop {
        // Earliest-start-first among the streams' head ops; ties go to the
        // lower stream id (fixed, so the schedule is deterministic).
        let mut best: Option<(u64, u32, OpId, u64)> = None; // (start, stream, op, dep_cp)
        'streams: for (s, srec) in tl.streams.iter().enumerate() {
            let Some(&id) = srec.ops.get(next[s]) else { continue };
            let op = &tl.ops[id];
            let mut dep_ready = 0u64;
            let mut dep_cp = 0u64;
            for &(ps, w) in &op.deps {
                let (ps, w) = (ps as usize, w as usize);
                if next[ps] < w {
                    continue 'streams; // producer prefix not yet scheduled
                }
                dep_ready = dep_ready.max(prefix_fin[ps][w]);
                dep_cp = dep_cp.max(prefix_cp[ps][w]);
            }
            let mut start = stream_ready[s].max(dep_ready);
            if let Some(r) = op.resource {
                start = start.max(res_ready[op.device as usize][r.index()]);
            }
            if best.is_none_or(|(bs, bsid, ..)| (start, s as u32) < (bs, bsid)) {
                best = Some((start, s as u32, id, dep_cp));
            }
        }
        let Some((start, s, id, dep_cp)) = best else { break };
        let s = s as usize;
        let op = &tl.ops[id];
        let cost = op.cost;
        let finish = start + cost;
        times[id] = (start, finish);
        cp[id] = stream_cp[s].max(dep_cp) + cost;
        if let Some(r) = op.resource {
            res_ready[op.device as usize][r.index()] = finish;
            busy[op.device as usize].add(r, cost);
            stats.ops += 1;
        } else {
            stats.waits += 1;
        }
        stats.serialized += cost;
        stats.makespan = stats.makespan.max(finish);
        stats.critical_path = stats.critical_path.max(cp[id]);
        stream_ready[s] = stream_ready[s].max(finish);
        stream_cp[s] = stream_cp[s].max(cp[id]);
        next[s] += 1;
        prefix_fin[s].push(stream_ready[s]);
        prefix_cp[s].push(stream_cp[s]);
    }

    debug_assert_eq!(
        next.iter().sum::<usize>(),
        tl.ops.len(),
        "events only cover logged ops, so the log is a DAG"
    );
    stats.overlap_ratio = if stats.serialized > 0 {
        1.0 - stats.makespan as f64 / stats.serialized as f64
    } else {
        0.0
    };
    stats.per_device = busy
        .into_iter()
        .enumerate()
        .map(|(d, b)| DeviceBusy { device: d as u32, busy: b })
        .collect();
    Sched { times, stats }
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
        // computes immediately. Stream-id-order arbitration would admit b's
        // compute (start 1000) before c's (start 0); earliest-start-first
        // must let c run in the gap.
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

    /// The cached schedule is exact: after every kind of change to the
    /// log, in a seeded random order, each query answers what a fresh
    /// `schedule` pass over the same log does.
    #[test]
    fn cached_schedule_matches_a_fresh_pass_after_every_change() {
        let tl = Timeline::new();
        let mut rng = testkit::SimRng::seed_from_u64(9);
        let resources = [Resource::H2D, Resource::D2H, Resource::Compute];
        tl.register_stream(0);
        for step in 0..400 {
            let streams = tl.inner.lock().streams.len() as u32;
            let s = rng.range_u32(0, streams);
            match rng.range_u32(0, 4) {
                0 => {
                    tl.register_stream(rng.range_u32(0, 3));
                }
                1 => {
                    let producer = rng.range_u32(0, streams);
                    tl.push_wait(s, (producer, tl.watermark(producer)));
                }
                _ => op(&tl, s, *rng.pick(&resources), rng.range_u64(1, 50)),
            }
            let fresh = schedule(&tl.inner.lock());
            for _ in 0..2 {
                let times: Vec<_> =
                    tl.scheduled_ops().iter().map(|v| (v.start, v.finish)).collect();
                assert_eq!(times, fresh.times, "step {step}");
                assert_eq!(
                    format!("{:?}", tl.stats()),
                    format!("{:?}", fresh.stats),
                    "step {step}"
                );
            }
            let finish = |s: u32| {
                let tl = tl.inner.lock();
                let ops = &tl.streams[s as usize].ops;
                ops.iter().map(|&id| fresh.times[id].1).max().unwrap_or(0)
            };
            assert_eq!(tl.stream_finish(s), finish(s), "step {step}");
        }
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
