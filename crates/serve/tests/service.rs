//! End-to-end launch-service basics: mixed traffic verifies against host
//! references, typed backpressure and shutdown behave, stealing happens
//! under skewed affinity without perturbing the deterministic report.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use gpu_sim::ArchId;
use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, SubmitError};

fn ideal(outer: usize, seed: u64, arrival_vt: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Ideal { teams: 1, threads: 32, simdlen: 8, outer, seed },
        arrival_vt,
        affinity: None,
    }
}

fn micro(rows: usize, inner: usize, arrival_vt: u64) -> JobSpec {
    JobSpec { kind: JobKind::Micro { rows, inner }, arrival_vt, affinity: None }
}

#[test]
fn mixed_traffic_end_to_end_verifies() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 2,
        workers: 2,
        verify: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let a = svc.client("tenant-a");
    let b = svc.client("tenant-b");

    let mut submitted = Vec::new();
    for i in 0..24u64 {
        submitted.push(a.submit(&ideal(1 + (i as usize % 3), i, i * 10)).unwrap());
        // Runs of 6 same-shape micros so coalescing has something to seal.
        submitted.push(b.submit(&micro(1 + (i as usize / 6) % 2, 8, i * 10)).unwrap());
    }
    let report = svc.shutdown();

    assert_eq!(report.jobs.len(), submitted.len());
    let mut ids: Vec<u64> = report.jobs.iter().map(|j| j.job_id).collect();
    submitted.sort_unstable();
    ids.sort_unstable();
    assert_eq!(ids, submitted, "every admitted job must be reported exactly once");

    for j in &report.jobs {
        assert_eq!(
            j.max_abs_err,
            Some(0.0),
            "job {:#x} diverged from its host reference",
            j.job_id
        );
        assert!(j.finish_vt > j.start_vt);
        assert!(j.start_vt >= j.arrival_vt, "virtual start honors the arrival release");
        assert!(j.stats.cycles > 0);
    }

    // Coalescing: tenant-b's micro stream must have produced multi-member
    // launches, so there are strictly fewer launches than jobs.
    assert!(report.launches < report.jobs.len() as u64);
    assert!(report.jobs.iter().any(|j| j.batch_size > 1), "micro jobs should coalesce");
    assert_eq!(report.rejected, 0);
    // Warm cache: far fewer compiles than launches.
    assert!(report.plan_misses < report.launches);
    assert!(report.plan_hits > 0);
}

#[test]
fn paused_service_exerts_backpressure_then_drains() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 1,
        workers: 1,
        tenant_queue_cap: 4,
        start_paused: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let c = svc.client("bursty");
    for i in 0..4u64 {
        c.submit(&ideal(1, i, 0)).unwrap();
    }
    // Fifth job: the bounded queue is full and nothing drains while paused.
    let err = c.submit(&ideal(1, 4, 0)).unwrap_err();
    assert_eq!(err, SubmitError::QueueFull { tenant: 0, cap: 4 });

    svc.resume();
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.rejected, 1);
}

#[test]
fn closed_service_rejects_submissions() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 1,
        workers: 1,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let c = svc.client("late");
    c.submit(&micro(1, 8, 0)).unwrap();
    let survivor = c.clone();
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(survivor.submit(&micro(1, 8, 9)).unwrap_err(), SubmitError::Closed);
}

#[test]
fn skewed_affinity_steals_without_changing_the_digest() {
    let run = |workers: usize| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 4,
            workers,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let c = svc.client("hot-device");
        for i in 0..240u64 {
            // Everything lands on device 0; workers homed on 1..3 must
            // steal to help.
            c.submit(&JobSpec {
                kind: JobKind::Micro { rows: 1, inner: 8 },
                arrival_vt: i,
                affinity: Some(0),
            })
            .unwrap();
        }
        svc.shutdown()
    };
    let wide = run(4);
    let solo = run(1);
    assert!(wide.jobs.iter().all(|j| j.device == 0));
    assert_eq!(
        wide.digest(),
        solo.digest(),
        "stealing moves host work only; the folded report must not see it"
    );
    // `steals` is scheduling-dependent by design (and hence outside the
    // digest) — but with one worker homed per device and every unit on
    // device 0, a 4-worker fleet cannot finish without stealing unless
    // worker 0 wins every race; just require the counter is consistent.
    assert_eq!(solo.steals, 0, "a single worker homed on device 0 never steals");
    assert!(wide.steals <= wide.launches);
}

#[test]
fn heterogeneous_fleet_verifies_on_both_backends() {
    // One fleet, two backends: device 0 is an a100, device 1 an mi100.
    // Launch geometry must suit both (wave64 needs whole 64-lane warps),
    // so use 64 threads; micro batches already use MICRO_THREADS = 64.
    let svc = LaunchService::start(ServiceConfig {
        devices: 2,
        device_archs: vec![ArchId::A100, ArchId::Mi100],
        workers: 2,
        verify: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let c = svc.client("mixed");
    let mut submitted = 0usize;
    for dev in 0..2u32 {
        for i in 0..6u64 {
            c.submit(&JobSpec {
                kind: JobKind::Ideal { teams: 1, threads: 64, simdlen: 8, outer: 2, seed: i },
                arrival_vt: i,
                affinity: Some(dev),
            })
            .unwrap();
            c.submit(&JobSpec {
                kind: JobKind::Micro { rows: 1, inner: 8 },
                arrival_vt: i,
                affinity: Some(dev),
            })
            .unwrap();
            submitted += 2;
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), submitted);
    for j in &report.jobs {
        assert_eq!(
            j.max_abs_err,
            Some(0.0),
            "job {:#x} on device {} diverged from its host reference",
            j.job_id,
            j.device
        );
    }
    // The generic micro kernel legalizes on the wave64 device only.
    let fallbacks = |dev: u32| {
        report
            .jobs
            .iter()
            .filter(|j| j.device == dev)
            .map(|j| j.stats.counters.sequential_simd_fallbacks)
            .sum::<u64>()
    };
    assert_eq!(fallbacks(0), 0, "a100 runs the warp-synchronous state machine");
    assert!(fallbacks(1) > 0, "mi100 must take the sequential-simd path");
    // Same kernels, two backends → two plan entries per shared geometry.
    assert!(report.plan_misses >= 2);
}

#[test]
fn job_its_home_backend_cannot_run_is_refused_without_a_trace() {
    // Device 1 is an mi100: a 32-thread team is half a wavefront, which
    // the runtime's SIMD mapping cannot split into warps.
    let half_wave = JobSpec {
        kind: JobKind::Ideal { teams: 1, threads: 32, simdlen: 8, outer: 1, seed: 0 },
        arrival_vt: 25,
        affinity: Some(1),
    };
    let run = move |with_half_wave: bool| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 2,
            device_archs: vec![ArchId::A100, ArchId::Mi100],
            workers: 2,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let c = svc.client("mixed");
        for i in 0..8u64 {
            if with_half_wave && i == 3 {
                let err = c.submit(&half_wave).unwrap_err();
                assert_eq!(err, SubmitError::Unsupported { tenant: 0, arch: ArchId::Mi100 });
            }
            c.submit(&JobSpec {
                kind: JobKind::Ideal { teams: 1, threads: 64, simdlen: 8, outer: 1, seed: i },
                arrival_vt: i * 10,
                affinity: Some(i as u32 % 2),
            })
            .unwrap();
            c.submit(&micro(1, 8, i * 10)).unwrap();
        }
        let report = svc.shutdown();
        assert_eq!(report.jobs.len(), 16);
        assert_eq!(report.rejected, 0, "an unsupported job is not backpressure");
        report.digest()
    };
    testkit::with_deadline("serve-unsupported", std::time::Duration::from_secs(120), move || {
        assert_eq!(run(true), run(false), "the refused job must leave the session unchanged");
    });
}

#[test]
fn warm_cache_compiles_once_per_geometry() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 1,
        workers: 1,
        start_paused: true,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let c = svc.client("t");
    for i in 0..8u64 {
        c.submit(&ideal(1, i, i)).unwrap();
    }
    // Nothing has executed yet, so nothing is cached.
    assert_eq!(svc.cached_plans(), 0);
    svc.resume();
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), 8);
    assert_eq!(report.plan_misses, 1, "one geometry, one compile");
    assert_eq!(report.plan_hits, 7);
}

#[test]
fn quiesce_parks_until_idle_and_leaves_the_report_unchanged() {
    let run = |quiesce: bool| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 2,
            workers: 2,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let a = svc.client("a");
        let b = svc.client("b");
        for i in 0..60u64 {
            a.submit(&ideal(1 + i as usize % 2, i, i * 7)).unwrap();
            b.submit(&micro(1, 8, i * 7)).unwrap();
        }
        if quiesce {
            svc.quiesce();
            // Everything admitted has run, so every plan is resident; a
            // second call finds the fleet idle and returns at once.
            assert_eq!(svc.cached_plans(), 3);
            svc.quiesce();
        }
        svc.shutdown().digest()
    };
    testkit::with_deadline("serve-quiesce", std::time::Duration::from_secs(120), move || {
        assert_eq!(run(true), run(false), "quiescing must not change the folded report");
    });
}

#[test]
fn quiesce_returns_at_once_on_an_empty_fleet() {
    testkit::with_deadline("serve-quiesce-empty", std::time::Duration::from_secs(60), || {
        let svc = LaunchService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        svc.quiesce();
        assert!(svc.shutdown().jobs.is_empty());
    });
}

#[test]
fn a_running_fleet_drains_the_units_an_ideal_submit_queues() {
    // Five micro jobs stay below `batch_max` (8), so they only fill an open
    // batch and their submits wake nobody. The ideal job seals the batch
    // and queues itself; its submit must get both units run before
    // shutdown, and the session must fold as if it had been submitted
    // paused and then resumed.
    let run = |paused: bool| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 1,
            workers: 1,
            start_paused: paused,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let c = svc.client("t");
        for i in 0..5u64 {
            c.submit(&micro(1, 8, i)).unwrap();
        }
        c.submit(&ideal(1, 7, 5)).unwrap();
        if paused {
            svc.resume();
        }
        // A worker builds each unit's plan as it takes the unit.
        while svc.cached_plans() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = svc.shutdown();
        assert_eq!((report.jobs.len(), report.launches), (6, 2));
        report.digest()
    };
    testkit::with_deadline("serve-wake", Duration::from_secs(60), move || {
        assert_eq!(run(false), run(true), "waking on submit must not change the fold");
    });
}

#[test]
fn batch_members_share_their_launch_stats() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 2,
        workers: 2,
        sim_threads: Some(1),
        ..ServiceConfig::default()
    });
    let a = svc.client("a");
    let b = svc.client("b");
    for i in 0..40u64 {
        // Runs of 10 same-shape micros: full batches of 8 and partial ones.
        a.submit(&micro(1 + (i as usize / 10) % 2, 8, i)).unwrap();
        b.submit(&ideal(1, i, i)).unwrap();
    }
    let report = svc.shutdown();
    assert!(report.jobs.iter().any(|j| j.batch_size > 1), "micro jobs should coalesce");

    // A launch's members have consecutive job ids and batch indices 0.. in
    // order, so each launch is one run of the id-sorted reports.
    let runs: Vec<_> = report.jobs.chunk_by(|x, y| y.batch_index == x.batch_index + 1).collect();
    assert_eq!(runs.len() as u64, report.launches);
    for run in &runs {
        assert_eq!(run.len(), run[0].batch_size as usize);
        assert!(
            run.iter().all(|j| Arc::ptr_eq(&j.stats, &run[0].stats)),
            "launch of job {:#x}: members hold different stats",
            run[0].job_id
        );
    }
    let distinct: HashSet<_> = report.jobs.iter().map(|j| Arc::as_ptr(&j.stats)).collect();
    assert_eq!(distinct.len() as u64, report.launches, "one shared stats value per launch");
}

#[test]
fn a_batch_reports_each_jobs_own_arrival_and_releases_at_the_latest() {
    let svc = LaunchService::start(ServiceConfig {
        devices: 1,
        workers: 1,
        batch_max: 4,
        sim_threads: Some(1),
        start_paused: true,
        ..ServiceConfig::default()
    });
    let c = svc.client("t");
    let arrivals = [300, 100, 400, 200];
    for &vt in &arrivals {
        c.submit(&micro(1, 8, vt)).unwrap();
    }
    svc.resume();
    let report = svc.shutdown();
    assert_eq!(report.launches, 1);
    let got: Vec<u64> = report.jobs.iter().map(|j| j.arrival_vt).collect();
    assert_eq!(got, arrivals, "each job keeps its own arrival, in id order");
    let ids: Vec<u64> = report.jobs.iter().map(|j| j.job_id).collect();
    assert_eq!(ids, [0, 1, 2, 3]);
    assert!(
        report.jobs.iter().all(|j| j.start_vt == 400),
        "the batch starts once its last job has arrived"
    );
}
