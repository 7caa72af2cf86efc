//! Streams: in-order per-device work queues, the host-side abstraction
//! CUDA calls a *stream* and OpenMP reaches through `nowait` + dependences.
//! An enqueued op runs at once on the caller's thread, under the device
//! lock; the host only schedules kernels and moves data, so nothing is
//! gained by running ops on threads of their own.
//!
//! Simulated time is what streams model: every op is logged on a
//! [`Timeline`] with its cost and the device resource it occupies
//! ([`Resource::H2D`], [`Resource::D2H`], [`Resource::Compute`]), and
//! [`Event`]s recorded here / waited there add cross-stream dependence
//! edges. The timeline then lets transfers overlap kernels (and
//! each other) in simulated cycles — see [`crate::timeline`] for the model.
//!
//! An op holds its device's lock while it runs, so it must not enqueue on a
//! stream bound to that same device.

use std::sync::Arc;

use gpu_sim::Resource;

use crate::event::Event;
use crate::map::ManagedDevice;
use crate::sync::Mutex;
use crate::timeline::Timeline;

/// An in-order queue of device operations on the virtual timeline.
pub struct Stream {
    dev: Arc<Mutex<ManagedDevice>>,
    timeline: Timeline,
    /// This stream's id on the timeline.
    id: u32,
}

impl Stream {
    /// Create a stream bound to a device, on a private timeline (device
    /// index 0). Use [`crate::HostRuntime::stream`] to put several streams
    /// on one shared timeline so their overlap is modeled jointly.
    pub fn new(dev: Arc<Mutex<ManagedDevice>>) -> Stream {
        Stream::on_timeline(dev, &Timeline::new(), 0)
    }

    /// Create a stream bound to a device, recording on `timeline` as
    /// `device` (the index the timeline attributes resource busy-time to).
    pub fn on_timeline(dev: Arc<Mutex<ManagedDevice>>, timeline: &Timeline, device: u32) -> Stream {
        let timeline = timeline.clone();
        let id = timeline.register_stream(device);
        Stream { dev, timeline, id }
    }

    /// Run `op` on the locked device and log it on `resource` with the
    /// `(cycles, blocks)` it returns. The log entry is appended under the
    /// device lock, so the log order is the execution order.
    fn run(&self, resource: Resource, op: impl FnOnce(&mut ManagedDevice) -> (u64, u32)) {
        let mut md = self.dev.lock();
        let (cost, blocks) = op(&mut md);
        self.timeline.push_op(self.id, resource, cost, blocks);
    }

    /// Enqueue an operation occupying `resource`. `op` runs at once on the
    /// locked device and returns the simulated cycles it consumed (kernel
    /// launches return `stats.cycles`; transfers return link cycles). A
    /// panic in `op` reaches the caller and logs nothing.
    pub fn enqueue_on(&self, resource: Resource, op: impl FnOnce(&mut ManagedDevice) -> u64) {
        self.run(resource, |md| (op(md), 0));
    }

    /// Enqueue a compute operation (kernel launch). Equivalent to
    /// [`Stream::enqueue_on`] with [`Resource::Compute`].
    pub fn enqueue(&self, op: impl FnOnce(&mut ManagedDevice) -> u64) {
        self.enqueue_on(Resource::Compute, op);
    }

    /// Enqueue a kernel launch whose `op` returns the full
    /// [`gpu_sim::LaunchStats`]: the timeline's compute op records the
    /// launch's real block count alongside its simulated cycles, so
    /// per-launch grid sizes are visible in [`crate::timeline::OpView`].
    pub fn enqueue_launch(&self, op: impl FnOnce(&mut ManagedDevice) -> gpu_sim::LaunchStats) {
        self.run(Resource::Compute, |md| {
            let stats = op(md);
            (stats.cycles, stats.blocks)
        });
    }

    /// Enqueue a host→device transfer (occupies the H2D DMA link).
    pub fn enqueue_h2d(&self, op: impl FnOnce(&mut ManagedDevice) -> u64) {
        self.enqueue_on(Resource::H2D, op);
    }

    /// Enqueue a device→host transfer (occupies the D2H DMA link).
    pub fn enqueue_d2h(&self, op: impl FnOnce(&mut ManagedDevice) -> u64) {
        self.enqueue_on(Resource::D2H, op);
    }

    /// Record an event capturing everything enqueued on this stream so far
    /// (`cudaEventRecord`).
    pub fn record_event(&self) -> Event {
        Event {
            timeline: self.timeline.clone(),
            stream: self.id,
            watermark: self.timeline.watermark(self.id),
        }
    }

    /// Make every operation enqueued on this stream *after* this call wait
    /// for `event` on the simulated timeline (`cudaStreamWaitEvent`). The
    /// ops below the event have already run, so only the dependence edge
    /// is logged. Panics if `event` was recorded on another timeline.
    pub fn wait_event(&self, event: &Event) {
        assert!(
            self.timeline.same_as(&event.timeline),
            "wait_event: event recorded on another timeline"
        );
        self.timeline.push_wait(self.id, (event.stream, event.watermark));
    }

    /// The stream's finish time on the simulated timeline (for a lone
    /// stream starting at zero this equals the sum of its op cycles).
    pub fn sync(&self) -> u64 {
        self.timeline.stream_finish(self.id)
    }

    /// The timeline this stream records on.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// This stream's id on its timeline.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The device handle this stream is bound to.
    pub fn device(&self) -> &Arc<Mutex<ManagedDevice>> {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HostRuntime;
    use gpu_sim::LaunchConfig;
    use testkit::{Cell, CELLS};

    /// Set `dev`'s sim threads and sanitizer as `cell` says.
    fn apply(cell: &Cell, dev: &mut gpu_sim::Device) {
        dev.set_sim_threads(cell.threads);
        if cell.sanitize {
            dev.enable_sanitizer();
        }
    }

    #[test]
    fn stream_executes_in_order() {
        let rt = HostRuntime::new();
        let dev = rt.device(0);
        let p = dev.lock().dev.global.alloc_zeroed::<f64>(4);
        let s = Stream::new(rt.device(0));
        // Three dependent ops: each reads the previous value.
        for k in 0..3u64 {
            s.enqueue(move |md| {
                let prev = md.dev.global.read(p, k);
                md.dev.global.write(p, k + 1, prev + 1.0);
                10
            });
        }
        let cycles = s.sync();
        assert_eq!(cycles, 30);
        assert_eq!(s.timeline().stats().ops, 3);
        assert_eq!(dev.lock().dev.global.read_slice(p, 4), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn stream_runs_kernels_and_transfers() {
        for cell in &CELLS {
            let rt = HostRuntime::new();
            apply(cell, &mut rt.device(0).lock().dev);
            let s = Stream::new(rt.device(0));
            let host: Vec<f64> = (0..256).map(|i| i as f64).collect();
            let dev = rt.device(0);
            let p = dev.lock().dev.global.alloc_zeroed::<f64>(256);

            s.enqueue_h2d(|md| {
                md.dev.global.write_slice(p, &host);
                let model = md.model;
                md.xfer.record_h2d(&model, 256 * 8);
                model.cycles_for(256 * 8)
            });
            s.enqueue(|md| {
                let cfg = LaunchConfig { num_blocks: 2, threads_per_block: 32, smem_bytes: 0 };
                md.dev
                    .launch(&cfg, |team| {
                        let lanes: Vec<u32> = (0..32).collect();
                        let bid = team.block_id as u64;
                        team.run_lanes(0, &lanes, move |lane, id| {
                            let i = bid * 128 + id as u64;
                            let v = lane.read(p, i);
                            lane.write(p, i, v * 2.0);
                        });
                    })
                    .unwrap()
                    .cycles
            });
            let total = s.sync();
            assert!(total > 0);
            let got = dev.lock().dev.global.read_slice(p, 4);
            assert_eq!(got, vec![0.0, 2.0, 4.0, 6.0]);
            // Same stream: the kernel queued behind the transfer, no overlap.
            let st = s.timeline().stats();
            assert_eq!(st.makespan, st.serialized);
            assert_eq!(st.overlap_ratio, 0.0);
        }
    }

    #[test]
    fn two_streams_share_a_device_safely() {
        let rt = HostRuntime::new();
        let p = rt.device(0).lock().dev.global.alloc_zeroed::<f64>(1);
        let s1 = Stream::new(rt.device(0));
        let s2 = Stream::new(rt.device(0));
        for _ in 0..50 {
            s1.enqueue(move |md| {
                let v = md.dev.global.read(p, 0);
                md.dev.global.write(p, 0, v + 1.0);
                1
            });
            s2.enqueue(move |md| {
                let v = md.dev.global.read(p, 0);
                md.dev.global.write(p, 0, v + 1.0);
                1
            });
        }
        s1.sync();
        s2.sync();
        assert_eq!(rt.device(0).lock().dev.global.read(p, 0), 100.0);
    }

    #[test]
    fn wait_event_orders_execution_across_streams() {
        let rt = HostRuntime::new();
        let p = rt.device(0).lock().dev.global.alloc_zeroed::<f64>(1);
        let producer = rt.stream(0);
        let consumer = rt.stream(0);
        producer.enqueue(|md| {
            md.dev.global.write(p, 0, 42.0);
            100
        });
        let ev = producer.record_event();
        assert_eq!((ev.stream_id(), ev.watermark()), (producer.id(), 1));
        consumer.wait_event(&ev);
        let mut seen = 0.0;
        consumer.enqueue(|md| {
            seen = md.dev.global.read(p, 0);
            50
        });
        assert_eq!(seen, 42.0);
        // Virtual time: the consumer op starts at the producer's finish.
        assert_eq!(producer.sync(), 100);
        assert_eq!(consumer.sync(), 150);
    }

    #[test]
    fn one_event_gates_many_consumers() {
        let rt = HostRuntime::new();
        let producer = rt.stream(0);
        producer.enqueue_h2d(|_| 200);
        let ev = producer.record_event();
        let consumers: Vec<Stream> = (0..3).map(|_| rt.stream(0)).collect();
        for c in &consumers {
            c.wait_event(&ev);
            c.enqueue(|_| 100);
        }
        let finishes: Vec<u64> = consumers.iter().map(|c| c.sync()).collect();
        // All computes start at 200 and serialize on the compute engine.
        assert_eq!(finishes.iter().min(), Some(&300));
        assert_eq!(finishes.iter().max(), Some(&500));
        assert_eq!(rt.timeline_stats().makespan, 500);
    }

    #[test]
    fn enqueue_launch_records_block_count_on_timeline() {
        for cell in &CELLS {
            let rt = HostRuntime::new();
            apply(cell, &mut rt.device(0).lock().dev);
            let s = rt.stream(0);
            s.enqueue_h2d(|_| 50);
            s.enqueue_launch(|md| {
                let cfg = LaunchConfig { num_blocks: 6, threads_per_block: 64, smem_bytes: 0 };
                md.dev.launch(&cfg, |team| team.charge_alu(0, 100)).unwrap()
            });
            s.sync();
            let ops = s.timeline().scheduled_ops();
            assert_eq!(ops.len(), 2);
            assert_eq!(ops[0].blocks, 0, "transfers carry no block count");
            assert_eq!(ops[1].blocks, 6, "launch op must carry the real grid size");
            assert_eq!(ops[1].resource, Some(Resource::Compute));
            assert!(ops[1].cost > 0);
        }
    }

    #[test]
    fn a_panicking_op_reaches_the_caller() {
        testkit::with_deadline("panicking-op", std::time::Duration::from_secs(30), || {
            let rt = HostRuntime::new();
            let s = rt.stream(0);
            s.enqueue(|_| 5);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.enqueue(|_| panic!("op failed"));
            }));
            assert!(caught.is_err(), "the op's panic must reach the caller");
            // The stream and its device stay usable; the failed op logged
            // nothing.
            s.enqueue(|md| {
                md.dev.global.alloc_zeroed::<f64>(1);
                7
            });
            assert_eq!(s.sync(), 12);
            assert_eq!(rt.timeline_stats().ops, 2);
        });
    }

    #[test]
    #[should_panic(expected = "event recorded on another timeline")]
    fn wait_event_rejects_an_event_from_another_timeline() {
        let rt = HostRuntime::new();
        let a = Stream::new(rt.device(0));
        let b = Stream::new(rt.device(0));
        a.enqueue(|_| 10);
        b.wait_event(&a.record_event());
    }

    /// Names of this process's threads, as the kernel reports them.
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|n| n.trim_end().to_string())
            .collect()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn streams_start_no_threads() {
        let rt = HostRuntime::new();
        let streams: Vec<Stream> =
            (0..4).map(|_| rt.stream(0)).chain([Stream::new(rt.device(0))]).collect();
        // A spawned thread sets its own name once it runs, so run an op on
        // each stream before looking.
        for s in &streams {
            s.enqueue(|_| 1);
            s.sync();
        }
        // The kernel truncates thread names to 15 bytes.
        let helpers: Vec<String> =
            thread_names().into_iter().filter(|n| n.starts_with("omp-hidden-")).collect();
        assert!(helpers.is_empty(), "streams started helper threads: {helpers:?}");
    }
}
