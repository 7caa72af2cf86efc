//! The determinism stress suite: one fixed submission schedule of 10⁵+
//! launches, replayed at worker counts {1, 2, 8}, must fold to
//! **bit-identical** per-job reports — same ids, same batch composition,
//! same `LaunchStats`, same virtual start/finish — regardless of how the
//! OS interleaved the workers or who stole what (the ISSUE's acceptance
//! bar and DESIGN §16's contract).
//!
//! The traffic mix is mostly single-block micro/ideal jobs (the coalesced
//! inline path the service optimizes for) with a sprinkle of multi-block
//! launches, and each worker count runs its scratch devices at its own sim
//! thread count, so the replay also exercises in-device parallelism
//! underneath the service.

use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, ServiceReport, SubmitError};
use testkit::{with_deadline, SimRng};

const TENANTS: usize = 4;
const JOBS_PER_TENANT: usize = 8_400;
const DEVICES: u32 = 3;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
/// The scratch devices' sim threads at each worker count: every
/// `testkit::CELLS` thread count but one.
const SIM_THREADS: [Option<usize>; 3] = [Some(1), Some(4), None];

/// The fixed schedule: for each submission slot, which tenant submits
/// what. Pure function of the seed — every run replays it exactly.
fn schedule() -> Vec<(usize, JobSpec)> {
    let mut rng = SimRng::seed_from_u64(0x5EED_5E27E);
    let mut arrival = [0u64; TENANTS];
    let mut plan = Vec::with_capacity(TENANTS * JOBS_PER_TENANT);
    for _ in 0..JOBS_PER_TENANT {
        for (t, arrival_t) in arrival.iter_mut().enumerate() {
            *arrival_t += rng.range_u64(0, 48);
            let roll = rng.range_u32(0, 100);
            let kind = if roll < 70 {
                // Tiny coalescable panels; two shapes so seals also happen
                // on shape changes, not just on batch_max.
                JobKind::Micro { rows: 1 + rng.range_usize(0, 2), inner: 8 }
            } else if roll < 98 {
                // Small single-block ideal launches.
                JobKind::Ideal {
                    teams: 1,
                    threads: 32,
                    simdlen: 8,
                    outer: 1 + rng.range_usize(0, 2),
                    seed: rng.next_u64(),
                }
            } else {
                // Rare multi-block launches (per-block threads when the
                // scratch devices run more than one sim thread).
                JobKind::Ideal { teams: 2, threads: 64, simdlen: 8, outer: 4, seed: rng.next_u64() }
            };
            let affinity = (rng.range_u32(0, 4) == 0).then(|| rng.range_u32(0, DEVICES));
            plan.push((t, JobSpec { kind, arrival_vt: *arrival_t, affinity }));
        }
    }
    plan
}

/// Submit with retry-on-full: backpressure timing is scheduling-dependent,
/// but ids are allocated only on success, so the admitted sequence — and
/// with it every digest input — is identical on every run.
fn submit_blocking(client: &omp_serve::Client, spec: &JobSpec) -> u64 {
    loop {
        match client.submit(spec) {
            Ok(id) => return id,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

fn run(workers: usize, sim_threads: Option<usize>, plan: &[(usize, JobSpec)]) -> ServiceReport {
    let svc = LaunchService::start(ServiceConfig {
        devices: DEVICES,
        workers,
        sim_threads,
        tenant_queue_cap: 2048,
        ..ServiceConfig::default()
    });
    let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("tenant-{t}"))).collect();
    for (t, spec) in plan {
        submit_blocking(&clients[*t], spec);
    }
    svc.shutdown()
}

#[test]
fn replayed_schedule_is_bit_identical_across_worker_counts() {
    with_deadline("serve-stress", std::time::Duration::from_secs(900), || {
        let plan = schedule();
        let total_jobs = plan.len() * WORKER_COUNTS.len();
        assert!(
            total_jobs >= 100_000,
            "stress must drive >= 1e5 launches through the service (got {total_jobs})"
        );

        let reports: Vec<ServiceReport> =
            WORKER_COUNTS.iter().zip(SIM_THREADS).map(|(&w, t)| run(w, t, &plan)).collect();
        let baseline = &reports[0];
        // Every job was admitted (retries absorb backpressure; `rejected`
        // counts the timing-dependent QueueFull events themselves and is
        // deliberately outside the digest).
        assert_eq!(baseline.jobs.len(), plan.len());

        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(r.jobs.len(), baseline.jobs.len());
            assert_eq!(
                r.digest(),
                baseline.digest(),
                "digest diverged between workers={} and workers={}",
                WORKER_COUNTS[0],
                WORKER_COUNTS[i]
            );
            assert_eq!(r.launches, baseline.launches, "batch composition diverged");
            assert_eq!(r.timeline.makespan, baseline.timeline.makespan);
        }

        // The digest already covers every field; spot-check a sample with
        // direct comparisons so a failure names the diverging field.
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..200 {
            let i = rng.range_usize(0, baseline.jobs.len());
            for r in &reports[1..] {
                let (a, b) = (&baseline.jobs[i], &r.jobs[i]);
                assert_eq!(a.job_id, b.job_id);
                assert_eq!(a.stats, b.stats, "LaunchStats diverged for job {:#x}", a.job_id);
                assert_eq!((a.start_vt, a.finish_vt), (b.start_vt, b.finish_vt));
                assert_eq!((a.batch_size, a.batch_index), (b.batch_size, b.batch_index));
                assert_eq!(a.plan_hash, b.plan_hash);
            }
        }

        // The mix genuinely exercises the machinery: coalesced batches,
        // warm-plan reuse, and multi-device spread.
        assert!(baseline.jobs.iter().any(|j| j.batch_size > 1));
        assert!(baseline.plan_hits > baseline.plan_misses * 10, "the cache must be warm");
        for d in 0..DEVICES {
            assert!(baseline.jobs.iter().any(|j| j.device == d), "device {d} saw no work");
        }
    });
}
