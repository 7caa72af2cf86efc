//! Streams: in-order asynchronous work queues per device, the host-side
//! abstraction CUDA calls a *stream* and OpenMP reaches through `nowait` +
//! dependences. Each stream owns one hidden helper thread, so enqueued
//! operations execute in order but asynchronously to the host; operations
//! on the same device serialize on the device lock exactly like same-device
//! kernels do on real hardware.
//!
//! Simulated time is *not* what the helper threads measure: every enqueue
//! is also recorded on a [`Timeline`], ops are tagged with the device
//! resource they occupy ([`Resource::H2D`], [`Resource::D2H`],
//! [`Resource::Compute`]), and [`Event`]s recorded here / waited there add
//! cross-stream dependence edges. The timeline's scheduler then lets
//! transfers overlap kernels (and each other) in simulated cycles — see
//! [`crate::timeline`] for the model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::Resource;

use crate::event::{Event, StreamDone};
use crate::map::ManagedDevice;
use crate::sync::Mutex;
use crate::task::HelperPool;
use crate::timeline::Timeline;

/// An in-order asynchronous queue of device operations.
pub struct Stream {
    dev: Arc<Mutex<ManagedDevice>>,
    pool: HelperPool,
    timeline: Timeline,
    /// This stream's id on the timeline.
    id: u32,
    /// Real-completion tracker events wait on.
    done: Arc<StreamDone>,
    /// Real operations enqueued so far (wait markers excluded).
    enqueued: AtomicU64,
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
        Stream {
            dev,
            pool: HelperPool::new(1), // one thread ⇒ in-order execution
            timeline,
            id,
            done: StreamDone::new(),
            enqueued: AtomicU64::new(0),
        }
    }

    /// Enqueue an operation occupying `resource`. `op` receives the locked
    /// device and returns the simulated cycles it consumed (kernel launches
    /// return `stats.cycles`; transfers return link cycles).
    pub fn enqueue_on(
        &self,
        resource: Resource,
        op: impl FnOnce(&mut ManagedDevice) -> u64 + Send + 'static,
    ) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let op_id = self.timeline.begin_op(self.id, resource);
        let dev = Arc::clone(&self.dev);
        let timeline = self.timeline.clone();
        let done = Arc::clone(&self.done);
        self.pool.submit(move || {
            let cycles = {
                let mut md = dev.lock();
                op(&mut md)
            };
            timeline.finish_op(op_id, cycles);
            done.bump();
        });
    }

    /// Enqueue a compute operation (kernel launch). Equivalent to
    /// [`Stream::enqueue_on`] with [`Resource::Compute`].
    pub fn enqueue(&self, op: impl FnOnce(&mut ManagedDevice) -> u64 + Send + 'static) {
        self.enqueue_on(Resource::Compute, op);
    }

    /// Enqueue a kernel launch whose `op` returns the full
    /// [`gpu_sim::LaunchStats`]: the timeline's compute op records the
    /// launch's real block count alongside its simulated cycles, so
    /// per-launch grid sizes are visible in [`crate::timeline::OpView`].
    pub fn enqueue_launch(
        &self,
        op: impl FnOnce(&mut ManagedDevice) -> gpu_sim::LaunchStats + Send + 'static,
    ) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let op_id = self.timeline.begin_op(self.id, Resource::Compute);
        let dev = Arc::clone(&self.dev);
        let timeline = self.timeline.clone();
        let done = Arc::clone(&self.done);
        self.pool.submit(move || {
            let stats = {
                let mut md = dev.lock();
                op(&mut md)
            };
            timeline.finish_op_with_blocks(op_id, stats.cycles, stats.blocks);
            done.bump();
        });
    }

    /// Enqueue a host→device transfer (occupies the H2D DMA link).
    pub fn enqueue_h2d(&self, op: impl FnOnce(&mut ManagedDevice) -> u64 + Send + 'static) {
        self.enqueue_on(Resource::H2D, op);
    }

    /// Enqueue a device→host transfer (occupies the D2H DMA link).
    pub fn enqueue_d2h(&self, op: impl FnOnce(&mut ManagedDevice) -> u64 + Send + 'static) {
        self.enqueue_on(Resource::D2H, op);
    }

    /// Record an event capturing everything enqueued on this stream so far
    /// (`cudaEventRecord`).
    pub fn record_event(&self) -> Event {
        Event {
            stream: self.id,
            watermark: self.timeline.watermark(self.id),
            done: Arc::clone(&self.done),
        }
    }

    /// Make every operation enqueued on this stream *after* this call wait
    /// for `event` (`cudaStreamWaitEvent`): the helper thread really blocks
    /// until the producer's covered ops completed, and the timeline gains
    /// the dependence edge. Waiting on an event recorded later on this very
    /// stream (or any event cycle) deadlocks, as on real hardware; with a
    /// single enqueueing host thread program order makes cycles impossible.
    pub fn wait_event(&self, event: &Event) {
        let op_id = self.timeline.begin_wait(self.id, (event.stream, event.watermark));
        let ev = event.clone();
        let timeline = self.timeline.clone();
        let done = Arc::clone(&self.done);
        self.pool.submit(move || {
            ev.synchronize();
            timeline.finish_op(op_id, 0);
            done.bump();
        });
    }

    /// Block until every enqueued operation completed; returns the stream's
    /// finish time on the simulated timeline (for a lone stream starting at
    /// zero this equals the sum of its op cycles).
    pub fn sync(&self) -> u64 {
        self.pool.wait_all();
        self.timeline.stream_finish(self.id)
    }

    /// Number of real operations enqueued over the stream's lifetime (wait
    /// markers are not counted).
    pub fn ops_enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
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
        assert_eq!(s.ops_enqueued(), 3);
        assert_eq!(dev.lock().dev.global.read_slice(p, 4), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn stream_runs_kernels_and_transfers() {
        for cell in &CELLS {
            let rt = HostRuntime::new();
            apply(cell, &mut rt.device(0).lock().dev);
            let s = Stream::new(rt.device(0));
            let host: Vec<f64> = (0..256).map(|i| i as f64).collect();
            let host2 = host.clone();
            let dev = rt.device(0);
            let p = dev.lock().dev.global.alloc_zeroed::<f64>(256);

            s.enqueue_h2d(move |md| {
                md.dev.global.write_slice(p, &host2);
                let model = md.model;
                md.xfer.record_h2d(&model, 256 * 8);
                model.cycles_for(256 * 8)
            });
            s.enqueue(move |md| {
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
    fn wait_event_orders_real_execution_across_streams() {
        let rt = HostRuntime::new();
        let p = rt.device(0).lock().dev.global.alloc_zeroed::<f64>(1);
        let producer = rt.stream(0);
        let consumer = rt.stream(0);
        producer.enqueue(move |md| {
            // Slow producer: the consumer must still see its write.
            std::thread::sleep(std::time::Duration::from_millis(10));
            md.dev.global.write(p, 0, 42.0);
            100
        });
        let ev = producer.record_event();
        consumer.wait_event(&ev);
        let seen = Arc::new(Mutex::new(0.0f64));
        let seen2 = Arc::clone(&seen);
        consumer.enqueue(move |md| {
            *seen2.lock() = md.dev.global.read(p, 0);
            50
        });
        consumer.sync();
        producer.sync();
        assert_eq!(*seen.lock(), 42.0);
        // Virtual time: the consumer op starts at the producer's finish.
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
    fn event_synchronize_blocks_the_host() {
        let rt = HostRuntime::new();
        let s = rt.stream(0);
        let flag = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        s.enqueue(move |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            f2.store(7, Ordering::SeqCst);
            10
        });
        let ev = s.record_event();
        ev.synchronize();
        assert_eq!(flag.load(Ordering::SeqCst), 7);
        assert!(ev.is_ready());
    }
}
