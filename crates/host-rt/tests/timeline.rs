//! Property tests for the virtual timeline: random stream/event DAGs must
//! schedule consistently with every dependence edge, match an independent
//! longest-path computation of the makespan, and be logged in a
//! topological order of the DAG.

use std::collections::HashMap;

use gpu_sim::{DeviceArch, Resource};
use omp_host::{Event, HostRuntime, OpView, Stream};
use testkit::{cases, SimRng};

const RESOURCES: [Resource; 3] = [Resource::H2D, Resource::D2H, Resource::Compute];

/// Build a random stream/event program on `rt`, returning the streams and
/// (for reference) the total number of real ops enqueued.
fn random_program(rng: &mut SimRng, rt: &HostRuntime) -> (Vec<Stream>, u64) {
    let nstreams = rng.range_usize(1, 5);
    let streams: Vec<Stream> = (0..nstreams).map(|s| rt.stream(s % rt.num_devices())).collect();
    let rounds = rng.range_usize(2, 8);
    let mut events: Vec<Event> = Vec::new();
    let mut real_ops = 0u64;
    for _ in 0..rounds {
        for s in &streams {
            // Sometimes pull in a dependence on work recorded earlier —
            // possibly on another stream, possibly on this one.
            if !events.is_empty() && rng.flip() {
                s.wait_event(rng.pick(&events));
            }
            let resource = *rng.pick(&RESOURCES);
            let cost = rng.range_u64(1, 500);
            s.enqueue_on(resource, move |_| cost);
            real_ops += 1;
            if rng.flip() {
                events.push(s.record_event());
            }
        }
    }
    (streams, real_ops)
}

/// Index the scheduled ops by (stream, seq) for edge lookups.
fn by_position(views: &[OpView]) -> HashMap<(u32, u32), &OpView> {
    views.iter().map(|v| ((v.stream, v.seq), v)).collect()
}

/// Finish time of the dependence prefix `(stream, watermark)`.
fn prefix_finish(pos: &HashMap<(u32, u32), &OpView>, stream: u32, watermark: u32) -> u64 {
    (0..watermark).map(|q| pos[&(stream, q)].finish).max().unwrap_or(0)
}

/// Independent makespan reference: longest path (by summed cost) over the
/// *augmented* DAG — stream-order edges, event dependence edges, and the
/// realized per-resource execution order. The scheduler's recurrence
/// `start = max(preds' finish)` has no other slack, so its makespan must
/// equal this longest path exactly.
fn longest_path_makespan(views: &[OpView]) -> u64 {
    let pos = by_position(views);
    // preds[id] = op ids that must finish before id starts.
    let mut preds: HashMap<usize, Vec<usize>> = HashMap::new();
    for v in views {
        let e = preds.entry(v.id).or_default();
        if v.seq > 0 {
            e.push(pos[&(v.stream, v.seq - 1)].id);
        }
        for &(ps, w) in &v.deps {
            for q in 0..w {
                e.push(pos[&(ps, q)].id);
            }
        }
    }
    // Resource edges from the realized schedule: ops on one (device,
    // resource) engine execute back to back in start order.
    let mut engines: HashMap<(u32, Resource), Vec<&OpView>> = HashMap::new();
    for v in views {
        if let Some(r) = v.resource {
            engines.entry((v.device, r)).or_default().push(v);
        }
    }
    for queue in engines.values_mut() {
        queue.sort_by_key(|v| (v.start, v.stream, v.seq));
        for pair in queue.windows(2) {
            preds.entry(pair[1].id).or_default().push(pair[0].id);
        }
    }
    let cost: HashMap<usize, u64> = views.iter().map(|v| (v.id, v.cost)).collect();
    // Memoized longest path ending at each node (explicit stack: the DAG is
    // small but recursion depth is unbounded in theory).
    let mut memo: HashMap<usize, u64> = HashMap::new();
    let mut total = 0u64;
    for v in views {
        let mut stack = vec![v.id];
        while let Some(&id) = stack.last() {
            if memo.contains_key(&id) {
                stack.pop();
                continue;
            }
            let unresolved: Vec<usize> =
                preds[&id].iter().copied().filter(|p| !memo.contains_key(p)).collect();
            if unresolved.is_empty() {
                let best = preds[&id].iter().map(|p| memo[p]).max().unwrap_or(0);
                memo.insert(id, best + cost[&id]);
                stack.pop();
            } else {
                stack.extend(unresolved);
            }
        }
        total = total.max(memo[&v.id]);
    }
    total
}

#[test]
fn timeline_respects_every_dependence_edge() {
    cases("timeline-edges", 48, |rng| {
        let ndev = rng.range_usize(1, 3);
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(); ndev]);
        let (_, real_ops) = random_program(rng, &rt);
        let stats = rt.timeline_stats();
        assert_eq!(stats.ops, real_ops, "every enqueued op must be scheduled");

        let views = rt.timeline().scheduled_ops();
        let pos = by_position(&views);
        for v in &views {
            // In-order stream queue: start after the predecessor's finish.
            if v.seq > 0 {
                let pred = pos[&(v.stream, v.seq - 1)];
                assert!(
                    v.start >= pred.finish,
                    "stream {} op {} starts {} before predecessor finish {}",
                    v.stream,
                    v.seq,
                    v.start,
                    pred.finish
                );
            }
            // Event edges: start after every op below the watermark.
            for &(ps, w) in &v.deps {
                let ready = prefix_finish(&pos, ps, w);
                assert!(
                    v.start >= ready,
                    "op ({},{}) starts {} before dep ({ps},<{w}) ready {ready}",
                    v.stream,
                    v.seq,
                    v.start
                );
            }
            assert_eq!(v.finish, v.start + v.cost);
        }
        // Per-resource busy totals are exactly the op costs.
        for d in &stats.per_device {
            for r in RESOURCES {
                let want: u64 = views
                    .iter()
                    .filter(|v| v.device == d.device && v.resource == Some(r))
                    .map(|v| v.cost)
                    .sum();
                assert_eq!(d.busy.get(r), want, "device {} {}", d.device, r.label());
            }
        }
    });
}

#[test]
fn timeline_makespan_matches_longest_path_reference() {
    cases("timeline-longest-path", 48, |rng| {
        let ndev = rng.range_usize(1, 3);
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(); ndev]);
        random_program(rng, &rt);
        let stats = rt.timeline_stats();
        let views = rt.timeline().scheduled_ops();
        let reference = longest_path_makespan(&views);
        assert_eq!(
            stats.makespan, reference,
            "scheduler makespan diverged from longest-path reference"
        );
        // Resource contention can only lengthen the dependence-only bound,
        // and nothing can beat full serialization.
        assert!(stats.critical_path <= stats.makespan);
        assert!(stats.makespan <= stats.serialized);
        let cost_sum: u64 = views.iter().map(|v| v.cost).sum();
        assert_eq!(stats.serialized, cost_sum);
    });
}

#[test]
fn real_completion_order_is_a_topological_order_of_the_dag() {
    // Ops are logged as they complete, so log ids are the completion order.
    cases("timeline-completion-topo", 32, |rng| {
        let ndev = rng.range_usize(1, 3);
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(); ndev]);
        random_program(rng, &rt);
        let views = rt.timeline().scheduled_ops();
        let pos = by_position(&views);
        for v in &views {
            if v.seq > 0 {
                let pred = pos[&(v.stream, v.seq - 1)].id;
                assert!(v.id > pred, "op logged before its stream predecessor");
            }
            // Every op a wait covers was logged before the wait.
            for &(ps, w) in &v.deps {
                for q in 0..w {
                    let dep = pos[&(ps, q)].id;
                    assert!(
                        v.id > dep,
                        "wait ({},{}) has id {} not above covered op ({ps},{q}) id {dep}",
                        v.stream,
                        v.seq,
                        v.id
                    );
                }
            }
        }
    });
}

#[test]
fn no_logged_time_moves_after_a_later_append() {
    // One step at a time: after every enqueue or wait, each earlier op
    // keeps its (start, finish), and each value an earlier `sync` returned
    // is still the finish of the stream prefix it covered.
    cases("timeline-no-moves", 64, |rng| {
        let ndev = rng.range_usize(1, 3);
        let rt = HostRuntime::with_archs(vec![DeviceArch::a100(); ndev]);
        let streams: Vec<Stream> =
            (0..rng.range_usize(1, 5)).map(|s| rt.stream(s % ndev)).collect();
        let mut events: Vec<Event> = Vec::new();
        let mut placed: Vec<(u64, u64)> = Vec::new();
        // (stream, ops covered, value returned)
        let mut synced: Vec<(u32, u32, u64)> = Vec::new();
        for step in 0..rng.range_usize(2, 30) {
            let s = rng.pick(&streams);
            if !events.is_empty() && rng.flip() {
                s.wait_event(rng.pick(&events));
            } else {
                let (resource, cost) = (*rng.pick(&RESOURCES), rng.range_u64(1, 2_000));
                s.enqueue_on(resource, move |_| cost);
            }
            if rng.flip() {
                events.push(s.record_event());
            }
            let views = rt.timeline().scheduled_ops();
            let times: Vec<(u64, u64)> = views.iter().map(|v| (v.start, v.finish)).collect();
            assert_eq!(times[..placed.len()], placed[..], "step {step}: a logged op moved");
            placed = times;
            let pos = by_position(&views);
            for &(st, n, value) in &synced {
                assert_eq!(prefix_finish(&pos, st, n), value, "step {step}: a synced time moved");
            }
            let t = rng.pick(&streams);
            let n = views.iter().filter(|v| v.stream == t.id()).count() as u32;
            synced.push((t.id(), n, t.sync()));
        }
    });
}

#[test]
fn a_synced_finish_stays_put_when_a_later_op_fills_the_resource() {
    let rt = HostRuntime::new();
    let (a, b, c) = (rt.stream(0), rt.stream(0), rt.stream(0));
    a.enqueue_h2d(|_| 1_000);
    b.wait_event(&a.record_event());
    b.enqueue(|_| 100);
    assert_eq!(b.sync(), 1_100);
    // Compute is idle over [0, 1,000) but 1,500 cycles do not fit there,
    // so c's compute queues behind b's instead of pushing it back.
    c.enqueue(|_| 1_500);
    assert_eq!(b.sync(), 1_100);
    let views = rt.timeline().scheduled_ops();
    let k = views.iter().find(|v| v.stream == c.id()).unwrap();
    assert_eq!((k.start, k.finish), (1_100, 2_600));
    assert_eq!(rt.timeline_stats().makespan, 2_600);
}
