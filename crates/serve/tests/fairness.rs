//! The fairness property, tested where it is decided: two tenants with a
//! 100× offered-load imbalance — under deficit-round-robin the light
//! tenant's p99 position in the drain order stays within a constant factor
//! of its solo run, while a drain without per-tenant quanta (simulated by
//! an effectively infinite quantum) starves it behind the whole heavy
//! backlog.
//!
//! The drain order is a pure function of the queued backlog and the
//! quantum: [`Admission::drain_round`] appends units in the order it
//! releases them. So the test queues the whole backlog, drains admission
//! directly and asserts on each light-tenant unit's *position* in that
//! sequence — no fleet, no launch. Every job is one ideal unit, so a
//! position is also the number of launches the unit waits behind.
//!
//! One service-level check remains: fairness moves only the drain order,
//! which the fold's canonical replay ignores, so a fair and a starved
//! session fold to the same digest.

use std::time::Duration;

use gpu_sim::ArchId;
use omp_serve::queue::Admission;
use omp_serve::{percentile, JobKind, JobSpec, LaunchService, ServiceConfig, ServiceReport};
use testkit::with_deadline;

const HEAVY_JOBS: usize = 2_000;
const LIGHT_JOBS: usize = 20; // 100x imbalance
/// One ideal job's DRR weight: one job per tenant per round.
const FAIR: u64 = 32;
/// A quantum no backlog exhausts: round 1 drains every tenant's whole queue.
const STARVED: u64 = u64::MAX / 4;

fn job() -> JobSpec {
    // outer=1 => weight 32 == one ideal job per DRR quantum of 32.
    JobSpec {
        kind: JobKind::Ideal { teams: 1, threads: 32, simdlen: 8, outer: 1, seed: 11 },
        arrival_vt: 0,
        affinity: None,
    }
}

/// Queue `jobs[t]` jobs for tenant `t` (registered in index order) on one
/// device, close admission and drain it. Returns the positions of the
/// last tenant's units in the drain order, ascending.
fn last_tenant_positions(jobs: &[usize], quantum: u64) -> Vec<u64> {
    let total = jobs.iter().sum();
    let mut adm = Admission::new(vec![ArchId::A100], true, total, 8, quantum);
    let lanes: Vec<u32> = (0..jobs.len()).map(|t| adm.register(&format!("tenant-{t}"))).collect();
    for (&lane, &n) in lanes.iter().zip(jobs) {
        for _ in 0..n {
            adm.submit(lane, &job()).unwrap();
        }
    }
    adm.close();
    let mut order = Vec::new();
    while adm.drain_round(&mut order) > 0 {}
    assert!(adm.is_drained());
    assert_eq!(order.len(), total, "every job is its own unit");
    let light = *lanes.last().unwrap();
    (0..).zip(&order).filter(|(_, u)| u.tenant == light).map(|(pos, _)| pos).collect()
}

#[test]
fn drr_bounds_the_light_tenants_tail_under_100x_imbalance() {
    // Heavy registers first — the adversarial position: an unfair drain
    // serves it to exhaustion before the light tenant's turn.
    let p99_fair = percentile(&last_tenant_positions(&[HEAVY_JOBS, LIGHT_JOBS], FAIR), 99.0);
    let p99_starved = percentile(&last_tenant_positions(&[HEAVY_JOBS, LIGHT_JOBS], STARVED), 99.0);
    let p99_solo = percentile(&last_tenant_positions(&[LIGHT_JOBS], FAIR), 99.0);

    // Fair drain alternates heavy/light while light has work: light job k
    // drains at position ~2k+1 instead of solo's k, so its tail is within a
    // small constant factor of the solo tail (factor ~2, asserted with
    // headroom; the +1 covers a solo tail of a single position).
    assert!(
        p99_fair <= 4 * (p99_solo + 1),
        "DRR light-tenant p99 position {p99_fair} exceeds 4x (solo p99 {p99_solo} + 1)"
    );

    // Without per-tenant quanta the light tenant waits behind the heavy
    // tenant's entire backlog — orders of magnitude worse.
    assert!(
        p99_starved >= 8 * p99_fair.max(1),
        "starved p99 position {p99_starved} should dwarf fair p99 {p99_fair}"
    );
    // And the starved delay really is the whole heavy backlog deep.
    assert!(p99_starved >= HEAVY_JOBS as u64 / 2);
}

/// A one-device, one-worker session of the heavy and light backlogs at
/// `quantum`.
fn session(quantum: u64) -> ServiceReport {
    let svc = LaunchService::start(ServiceConfig {
        devices: 1,
        workers: 1,
        drr_quantum: quantum,
        tenant_queue_cap: HEAVY_JOBS + LIGHT_JOBS,
        start_paused: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    for (name, n) in [("heavy", HEAVY_JOBS), ("light", LIGHT_JOBS)] {
        let client = svc.client(name);
        for _ in 0..n {
            client.submit(&job()).unwrap();
        }
    }
    // Closing admission releases the pause and drains the whole backlog.
    svc.shutdown()
}

#[test]
fn fair_and_starved_quanta_fold_to_the_same_digest() {
    with_deadline("serve-fairness", Duration::from_secs(300), || {
        let fair = session(FAIR);
        let starved = session(STARVED);
        assert_eq!(fair.jobs.len(), HEAVY_JOBS + LIGHT_JOBS);
        assert_eq!(fair.digest(), starved.digest(), "the quantum must not reach the report");
    });
}
