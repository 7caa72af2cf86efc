//! Concurrency stress: N streams × M ops with cross-stream `wait_event`
//! edges, while observer threads call `sync`/`stats` on the shared
//! timeline. Each seed runs under a watchdog (bounded wall-clock — a
//! deadlock fails, not hangs) and twice end to end: the simulated totals
//! must be identical because the virtual timeline is a pure function of
//! the recorded DAG, never of how the observers interleave with it.
//!
//! The seed matrix is fixed for CI; `STRESS_SEEDS=1,2,3` overrides it.

use std::time::Duration;

use gpu_sim::DeviceArch;
use omp_host::{DeviceBusy, Event, HostRuntime, Stream};
use testkit::{with_deadline, SimRng};

const DEFAULT_SEEDS: [u64; 5] = [1, 2, 42, 1337, 0xC0FFEE];
const STREAMS: usize = 6;
const OPS_PER_STREAM: usize = 40;

fn seed_matrix() -> Vec<u64> {
    match std::env::var("STRESS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("STRESS_SEEDS: comma-separated u64 list"))
            .collect(),
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// Everything the timeline must reproduce exactly across runs.
#[derive(Debug, PartialEq)]
struct Summary {
    makespan: u64,
    serialized: u64,
    critical_path: u64,
    ops: u64,
    waits: u64,
    per_device: Vec<DeviceBusy>,
}

/// Enqueue `OPS_PER_STREAM` rounds of seeded random ops on `streams`, with
/// `wait_event` edges only among them and a host-side sync now and then.
fn drive(rng: &mut SimRng, streams: &[Stream]) {
    let resources = [gpu_sim::Resource::H2D, gpu_sim::Resource::D2H, gpu_sim::Resource::Compute];
    let mut events: Vec<Event> = Vec::new();
    for round in 0..OPS_PER_STREAM {
        for s in streams {
            if !events.is_empty() && rng.flip() {
                s.wait_event(rng.pick(&events));
            }
            let resource = *rng.pick(&resources);
            let cost = rng.range_u64(1, 2_000);
            s.enqueue_on(resource, move |_| cost);
            // Keep the event pool bounded but fresh.
            if rng.flip() {
                events.push(s.record_event());
                if events.len() > 64 {
                    events.remove(0);
                }
            }
        }
        if round % 8 == 0 {
            streams[round % streams.len()].sync();
        }
    }
}

fn scenario(seed: u64) -> Summary {
    let rng = &mut SimRng::seed_from_u64(seed);
    let rt = HostRuntime::with_archs(vec![DeviceArch::a100(), DeviceArch::a100()]);
    let streams: Vec<Stream> = (0..STREAMS).map(|s| rt.stream(s % 2)).collect();

    // Aggressive concurrent observers: sync random streams and take stats
    // snapshots while the main thread is still enqueueing. They must never
    // deadlock or panic; their snapshots are unasserted (the log is still
    // growing).
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        let streams_ref = &streams;
        let rt_ref = &rt;
        let observers: Vec<_> = (0..4)
            .map(|o| {
                scope.spawn(move || {
                    let mut i = o;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        streams_ref[i % STREAMS].sync();
                        let _ = rt_ref.timeline_stats();
                        i += 1;
                    }
                })
            })
            .collect();

        // Host-side syncs mid-construction race the observers.
        drive(rng, streams_ref);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in observers {
            h.join().expect("observer thread panicked");
        }
    });

    let stats = rt.timeline_stats();
    assert_eq!(
        stats.ops,
        (STREAMS * OPS_PER_STREAM) as u64,
        "every enqueued op must be scheduled exactly once"
    );
    Summary {
        makespan: stats.makespan,
        serialized: stats.serialized,
        critical_path: stats.critical_path,
        ops: stats.ops,
        waits: stats.waits,
        per_device: stats.per_device,
    }
}

#[test]
fn stress_no_deadlock_and_deterministic_cycles() {
    for seed in seed_matrix() {
        with_deadline(&format!("stress seed {seed}"), Duration::from_secs(120), move || {
            let first = scenario(seed);
            let second = scenario(seed);
            assert_eq!(
                first, second,
                "seed {seed}: simulated totals depend on real thread interleaving"
            );
            assert!(first.makespan <= first.serialized);
            assert!(first.critical_path <= first.makespan);
        });
    }
}

#[test]
fn stress_sync_storm_on_one_stream() {
    // Many host threads hammering sync() on the same stream: every caller
    // must return the same final cycle count.
    with_deadline("sync storm", Duration::from_secs(60), || {
        let rt = HostRuntime::new();
        let s = rt.stream(0);
        for _ in 0..200 {
            s.enqueue(|_| 7);
        }
        let finals: Vec<u64> = std::thread::scope(|scope| {
            let s = &s;
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(move || s.sync())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All 200 ops ran before the callers started, so the stream's finish
        // is total and identical for every caller.
        assert!(finals.iter().all(|&f| f == 1400), "{finals:?}");
    });
}

#[test]
fn host_threads_on_separate_devices_get_identical_timelines() {
    // Two host threads share one runtime, and each drives only its own
    // device's streams. However their appends interleave in the shared log,
    // every op's interval and the stats must come out the same.
    fn run() -> (String, Vec<(u32, u32, u64, u64)>) {
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(), DeviceArch::a100()]);
        let per_device: Vec<Vec<Stream>> =
            (0..2).map(|d| (0..STREAMS / 2).map(|_| rt.stream(d)).collect()).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (d, streams) in per_device.iter().enumerate() {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    drive(&mut SimRng::seed_from_u64(d as u64 + 1), streams);
                });
            }
        });
        let mut intervals: Vec<_> = rt
            .timeline()
            .scheduled_ops()
            .iter()
            .map(|v| (v.stream, v.seq, v.start, v.finish))
            .collect();
        intervals.sort_unstable();
        (format!("{:?}", rt.timeline_stats()), intervals)
    }
    with_deadline("two host threads", Duration::from_secs(120), || {
        let first = run();
        for round in 0..20 {
            assert!(run() == first, "round {round}: simulated times depend on thread interleaving");
        }
    });
}
