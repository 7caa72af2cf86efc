//! Pins the launch service's fold: the canonical replay of a fixed
//! session, as every job's report and the fleet timeline it aggregates
//! into, must stay bit-identical to the recorded values.
//!
//! `start_paused` queues the whole backlog before the one worker starts.
//! The fleet is heterogeneous (a100, mi100, a100) and every job is pinned
//! to devices 0 and 1, so device 2 stays idle: the fold must still report
//! it, with zero busy cycles.

use std::time::Duration;

use gpu_sim::ArchId;
use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, ServiceReport};
use testkit::{with_deadline, SimRng};

const TENANTS: u32 = 3;
const JOBS: usize = 720;

/// `ServiceReport::timeline` of the pinned session.
const TIMELINE: &str = "TimelineStats { makespan: 2630879, serialized: 2764850, \
    critical_path: 1399720, overlap_ratio: 0.04845506989529269, ops: 639, waits: 0, \
    per_device: [\
    DeviceBusy { device: 0, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 1399720 } }, \
    DeviceBusy { device: 1, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 1365130 } }, \
    DeviceBusy { device: 2, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 0 } }] }";

/// `ServiceReport::timeline` of a session that admitted no job.
const EMPTY_TIMELINE: &str = "TimelineStats { makespan: 0, serialized: 0, critical_path: 0, \
    overlap_ratio: 0.0, ops: 0, waits: 0, per_device: [\
    DeviceBusy { device: 0, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 0 } }, \
    DeviceBusy { device: 1, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 0 } }, \
    DeviceBusy { device: 2, busy: ResourceCycles { h2d: 0, d2h: 0, compute: 0 } }] }";

/// The fixed submission plan: `(tenant, spec)` in submission order.
fn plan() -> Vec<(u32, JobSpec)> {
    let mut rng = SimRng::seed_from_u64(0xF01D);
    let mut arrival = [0u64; TENANTS as usize];
    (0..JOBS)
        .map(|i| {
            let t = i as u32 % TENANTS;
            // Mostly back-to-back arrivals (units queue behind each other),
            // with occasional long gaps (a device idles until the arrival).
            let gap = if rng.range_u32(0, 10) == 0 { 100_000 } else { rng.range_u64(0, 200) };
            arrival[t as usize] += gap;
            let kind = if rng.range_u32(0, 3) == 0 {
                let outer = 1 + rng.range_usize(0, 2);
                JobKind::Ideal { teams: 1, threads: 64, simdlen: 8, outer, seed: rng.next_u64() }
            } else {
                JobKind::Micro { rows: 1 + rng.range_usize(0, 2), inner: 8 }
            };
            let affinity = Some(rng.range_u32(0, 2));
            (t, JobSpec { kind, arrival_vt: arrival[t as usize], affinity })
        })
        .collect()
}

fn session(plan: &[(u32, JobSpec)]) -> ServiceReport {
    let svc = LaunchService::start(ServiceConfig {
        device_archs: vec![ArchId::A100, ArchId::Mi100, ArchId::A100],
        devices: 3,
        workers: 1,
        tenant_queue_cap: JOBS,
        start_paused: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("tenant-{t}"))).collect();
    for (t, spec) in plan {
        clients[*t as usize].submit(spec).unwrap();
    }
    // Closing admission releases the pause; the one worker then drains the
    // whole backlog.
    svc.shutdown()
}

#[test]
fn fold_matches_the_pinned_replay() {
    with_deadline("serve-fold", Duration::from_secs(300), || {
        let report = session(&plan());
        assert_eq!(report.jobs.len(), JOBS);
        assert!(report.jobs.iter().all(|j| j.device < 2), "device 2 must stay idle");
        assert!(report.jobs.iter().any(|j| j.batch_size > 1), "micro jobs should coalesce");
        assert!(report.jobs.iter().any(|j| j.start_vt > j.arrival_vt), "some unit must queue");
        assert_eq!(report.digest(), 0x7d4f01faf16d4cf0);
        assert_eq!(format!("{:?}", report.timeline), TIMELINE);
    });
}

#[test]
fn empty_session_folds_to_an_idle_fleet() {
    with_deadline("serve-fold-empty", Duration::from_secs(300), || {
        let report = session(&[]);
        assert!(report.jobs.is_empty());
        assert_eq!(report.launches, 0);
        assert_eq!(report.digest(), 0xcbf29ce484222325, "the digest of no jobs is the FNV basis");
        assert_eq!(format!("{:?}", report.timeline), EMPTY_TIMELINE);
    });
}
