//! Overlap regression: a fixed two-stream copy/compute pipeline whose
//! virtual schedule is computed by hand below. Any scheduler change that
//! shifts an interval, the makespan, the critical path, or a busy counter
//! fails this test with the exact expected numbers.
//!
//! Program (one device; `copy` stream carries the DMA work, `compute` the
//! kernels; two chunks a/b, double buffered):
//!
//! ```text
//! copy:    H2D_a(100)  H2D_b(100)        wait(e_ka) D2H_a(80) wait(e_kb) D2H_b(80)
//! compute: wait(e_a) K_a(150)  wait(e_b) K_b(150)
//! ```
//!
//! Hand schedule — `start = max(stream ready, dep ready, engine ready)`:
//!
//! ```text
//! H2D_a [  0,100)   H2D_b [100,200)            (h2d link, back to back)
//! K_a   [100,250)   K_b   [250,400)            (compute, gated by e_a/e_b)
//! D2H_a [250,330)   D2H_b [400,480)            (d2h link, gated by e_ka/e_kb)
//! ```
//!
//! makespan 480; serialized 100+100+150+150+80+80 = 660;
//! overlap_ratio 1 − 480/660 = 3/11 ≈ 0.2727; critical path (dependence
//! edges only, no engine contention on this program) is also 480;
//! busy: h2d 200, compute 300, d2h 160.

use gpu_sim::Resource;
use omp_host::HostRuntime;

#[test]
fn two_stream_pipeline_matches_the_hand_computed_schedule() {
    let rt = HostRuntime::new();
    let copy = rt.stream(0);
    let compute = rt.stream(0);

    copy.enqueue_h2d(|_| 100); // H2D_a
    let e_a = copy.record_event();
    copy.enqueue_h2d(|_| 100); // H2D_b
    let e_b = copy.record_event();

    compute.wait_event(&e_a);
    compute.enqueue(|_| 150); // K_a
    let e_ka = compute.record_event();
    compute.wait_event(&e_b);
    compute.enqueue(|_| 150); // K_b
    let e_kb = compute.record_event();

    copy.wait_event(&e_ka);
    copy.enqueue_d2h(|_| 80); // D2H_a
    copy.wait_event(&e_kb);
    copy.enqueue_d2h(|_| 80); // D2H_b

    assert_eq!(copy.sync(), 480);
    assert_eq!(compute.sync(), 400);

    let stats = rt.timeline_stats();
    assert_eq!(stats.ops, 6);
    assert_eq!(stats.waits, 4);
    assert_eq!(stats.makespan, 480, "pipelined makespan");
    assert_eq!(stats.serialized, 660, "fully serialized reference");
    assert_eq!(stats.critical_path, 480, "dependence-only longest chain");
    assert!(stats.makespan < stats.serialized, "pipeline must beat serialization");
    assert!((stats.overlap_ratio - 3.0 / 11.0).abs() < 1e-12, "{}", stats.overlap_ratio);
    assert!(stats.overlap_ratio > 0.0);

    assert_eq!(stats.per_device.len(), 1);
    let busy = &stats.per_device[0].busy;
    assert_eq!(busy.h2d, 200);
    assert_eq!(busy.compute, 300);
    assert_eq!(busy.d2h, 160);
    assert_eq!(busy.total(), 660);

    // Exact per-op intervals, engine by engine.
    let views = rt.timeline().scheduled_ops();
    let mut spans: Vec<(Resource, u64, u64)> =
        views.iter().filter_map(|v| v.resource.map(|r| (r, v.start, v.finish))).collect();
    spans.sort_by_key(|&(r, s, _)| (r.index(), s));
    assert_eq!(
        spans,
        vec![
            (Resource::H2D, 0, 100),
            (Resource::H2D, 100, 200),
            (Resource::D2H, 250, 330),
            (Resource::D2H, 400, 480),
            (Resource::Compute, 100, 250),
            (Resource::Compute, 250, 400),
        ]
    );
}

#[test]
fn serializing_the_same_work_on_one_stream_erases_the_overlap() {
    // The same six ops on a single stream: makespan == serialized, ratio 0.
    let rt = HostRuntime::new();
    let s = rt.stream(0);
    for (r, c) in [
        (Resource::H2D, 100),
        (Resource::Compute, 150),
        (Resource::D2H, 80),
        (Resource::H2D, 100),
        (Resource::Compute, 150),
        (Resource::D2H, 80),
    ] {
        s.enqueue_on(r, move |_| c);
    }
    assert_eq!(s.sync(), 660);
    let stats = rt.timeline_stats();
    assert_eq!(stats.makespan, 660);
    assert_eq!(stats.serialized, 660);
    assert_eq!(stats.overlap_ratio, 0.0);
    // In-order queue: the critical path is the whole chain.
    assert_eq!(stats.critical_path, 660);
}
