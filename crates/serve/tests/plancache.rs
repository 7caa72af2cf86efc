//! The plan-cache differential (ISSUE satellite): the warm-plan cache is a
//! pure memoization. One fixed schedule is run three ways — cache on,
//! cache disabled (full rebuild per launch), and cache on with mid-stream
//! `flush_plan_cache` evictions forcing rebuilds while traffic is in
//! flight — and all three must fold to bit-identical reports, verified
//! outputs included.

use std::time::Duration;

use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, ServiceReport};
use testkit::{with_deadline, SimRng};

const TENANTS: usize = 2;
const JOBS_PER_TENANT: usize = 240;

fn schedule() -> Vec<(usize, JobSpec)> {
    let mut rng = SimRng::seed_from_u64(0xCACE);
    let mut arrival = [0u64; TENANTS];
    let mut plan = Vec::new();
    for _ in 0..JOBS_PER_TENANT {
        for (t, arrival_t) in arrival.iter_mut().enumerate() {
            *arrival_t += rng.range_u64(1, 64);
            let kind = match rng.range_u32(0, 4) {
                0 => JobKind::Micro { rows: 1, inner: 8 },
                1 => JobKind::Micro { rows: 2, inner: 8 },
                2 => JobKind::Ideal {
                    teams: 1,
                    threads: 32,
                    simdlen: 8,
                    outer: 1 + rng.range_usize(0, 2),
                    seed: rng.next_u64(),
                },
                _ => JobKind::Ideal {
                    teams: 1,
                    threads: 64,
                    simdlen: 16,
                    outer: 2,
                    seed: rng.next_u64(),
                },
            };
            plan.push((t, JobSpec { kind, arrival_vt: *arrival_t, affinity: None }));
        }
    }
    plan
}

/// Run the schedule; `flush_every` = Some(n) flushes the plan cache after
/// every n-th submission, racing evictions against in-flight lookups.
fn run(plan: &[(usize, JobSpec)], warm_cache: bool, flush_every: Option<usize>) -> ServiceReport {
    let svc = LaunchService::start(ServiceConfig {
        devices: 2,
        workers: 2,
        warm_cache,
        verify: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("t{t}"))).collect();
    for (i, (t, spec)) in plan.iter().enumerate() {
        clients[*t].submit(spec).unwrap();
        if flush_every.is_some_and(|n| (i + 1) % n == 0) {
            // Wait until the workers have actually populated the cache so
            // the flush evicts live entries mid-stream (submission is much
            // faster than execution; an instant flush could win the race
            // and evict nothing).
            while svc.cached_plans() == 0 {
                std::thread::yield_now();
            }
            svc.flush_plan_cache();
        }
    }
    svc.shutdown()
}

#[test]
fn evict_and_rebuild_mid_stream_is_bit_identical() {
    with_deadline("serve-plancache", Duration::from_secs(300), || {
        let plan = schedule();
        let warm = run(&plan, true, None);
        let cold = run(&plan, false, None);
        let churned = run(&plan, true, Some(60));

        assert_eq!(warm.jobs.len(), plan.len());
        for j in &warm.jobs {
            assert_eq!(j.max_abs_err, Some(0.0), "job {:#x} diverged from reference", j.job_id);
        }

        // The cache is pure memoization: presence, absence, and mid-stream
        // churn of cached plans must be invisible to every folded output.
        assert_eq!(warm.digest(), cold.digest(), "warm vs cold rebuild diverged");
        assert_eq!(warm.digest(), churned.digest(), "mid-stream eviction diverged");
        assert_eq!(warm.launches, cold.launches);
        assert_eq!(warm.timeline.makespan, cold.timeline.makespan);

        // The three legs really took the three different plan paths:
        // - warm: one compile per distinct plan, everything else a hit;
        // - cold: bypasses the cache entirely;
        // - churned: flushes forced strictly more compiles than warm.
        assert!(warm.plan_hits > warm.plan_misses);
        assert_eq!((cold.plan_hits, cold.plan_misses), (0, 0));
        assert!(churned.plan_misses > warm.plan_misses);
        assert_eq!(warm.plan_hits + warm.plan_misses, warm.launches);
    });
}
