//! End-to-end launch-service basics: mixed traffic verifies against host
//! references, typed backpressure and shutdown behave, and neither which
//! worker runs a unit nor how the workers wake perturbs the deterministic
//! report. Every session runs under a deadline: a lost wakeup parks a
//! worker for good, and the deadline turns that hang into a failure.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use gpu_sim::ArchId;
use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, SubmitError};
use testkit::with_deadline;

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
    with_deadline("serve-mixed", Duration::from_secs(120), || {
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
    });
}

#[test]
fn paused_service_exerts_backpressure_then_drains() {
    with_deadline("serve-backpressure", Duration::from_secs(120), || {
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
    });
}

#[test]
fn closed_service_rejects_submissions() {
    with_deadline("serve-closed", Duration::from_secs(120), || {
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
    });
}

#[test]
fn skewed_affinity_runs_on_every_worker_without_changing_the_digest() {
    with_deadline("serve-skew", Duration::from_secs(120), || {
        let run = |workers: usize| {
            let svc = LaunchService::start(ServiceConfig {
                devices: 4,
                workers,
                sim_threads: Some(1),
                ..ServiceConfig::default()
            });
            let c = svc.client("hot-device");
            for i in 0..240u64 {
                // Everything lands on device 0; every worker takes its
                // units from the one run queue.
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
            "which worker runs a unit is host work only; the folded report must not see it"
        );
        // Workers share one queue, so nothing is ever stolen.
        assert_eq!(solo.steals, 0);
        assert_eq!(wide.steals, 0);
    });
}

#[test]
fn heterogeneous_fleet_verifies_on_both_backends() {
    with_deadline("serve-heterogeneous", Duration::from_secs(120), || {
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
    });
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
    with_deadline("serve-unsupported", Duration::from_secs(120), move || {
        assert_eq!(run(true), run(false), "the refused job must leave the session unchanged");
    });
}

#[test]
fn warm_cache_compiles_once_per_geometry() {
    with_deadline("serve-warm-cache", Duration::from_secs(120), || {
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
    });
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
    with_deadline("serve-quiesce", Duration::from_secs(120), move || {
        assert_eq!(run(true), run(false), "quiescing must not change the folded report");
    });
}

#[test]
fn quiesce_returns_at_once_on_an_empty_fleet() {
    with_deadline("serve-quiesce-empty", Duration::from_secs(60), || {
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
    with_deadline("serve-wake", Duration::from_secs(60), move || {
        assert_eq!(run(false), run(true), "waking on submit must not change the fold");
    });
}

#[test]
fn a_parked_worker_wakes_for_a_submit_and_for_quiesce() {
    // `quiesce` returns only once the one worker has run every unit and
    // released the queue lock by parking. So only the second submit's own
    // wakeup can get its unit run: no poll, quiesce or shutdown follows.
    with_deadline("serve-parked-wake", Duration::from_secs(60), || {
        let svc = LaunchService::start(ServiceConfig {
            devices: 1,
            workers: 1,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let c = svc.client("t");
        c.submit(&ideal(1, 0, 0)).unwrap();
        svc.quiesce();
        assert_eq!(svc.cached_plans(), 1);
        // Another simd length is another plan, built when the unit is taken.
        c.submit(&JobSpec {
            kind: JobKind::Ideal { teams: 1, threads: 32, simdlen: 16, outer: 1, seed: 1 },
            arrival_vt: 1,
            affinity: None,
        })
        .unwrap();
        while svc.cached_plans() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A micro job only opens a batch, so its submit wakes nobody; the
        // parked worker runs it only if `quiesce`, sealing it, wakes it.
        svc.quiesce();
        c.submit(&micro(1, 8, 2)).unwrap();
        svc.quiesce();
        assert_eq!(svc.cached_plans(), 3);
        assert_eq!(svc.shutdown().jobs.len(), 3);
    });
}

#[test]
fn batch_members_share_their_launch_stats() {
    with_deadline("serve-shared-stats", Duration::from_secs(120), || {
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
        let runs: Vec<_> =
            report.jobs.chunk_by(|x, y| y.batch_index == x.batch_index + 1).collect();
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
    });
}

#[test]
fn a_batch_reports_each_jobs_own_arrival_and_releases_at_the_latest() {
    with_deadline("serve-batch-arrivals", Duration::from_secs(120), || {
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
    });
}

#[test]
fn a_quantum_below_a_units_weight_does_not_park_between_rounds() {
    // An `outer: 4` ideal job weighs 128, so at a quantum of 1 a unit
    // leaves admission only on every 128th DRR round. A worker that parked
    // after each round releasing nothing would not finish in time.
    let run = |drr_quantum: u64| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 1,
            workers: 1,
            drr_quantum,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let c = svc.client("heavy-units");
        for i in 0..500u64 {
            c.submit(&ideal(4, i, i)).unwrap();
        }
        svc.quiesce();
        svc.shutdown().digest()
    };
    with_deadline("serve-small-quantum", Duration::from_secs(30), move || {
        let default = ServiceConfig::default().drr_quantum;
        assert_eq!(run(1), run(default), "the quantum must not reach the report");
    });
}

#[test]
fn concurrent_submitters_in_waves_fold_like_one_worker() {
    // One submitting thread per tenant races the others and eight workers
    // on a running fleet; each wave ends with the submitters joined and the
    // fleet quiesced. Nothing but the wakeups moves work along, so a lost
    // one hangs the session past its deadline.
    const TENANTS: u32 = 4;
    const WAVES: u64 = 3;
    // Each wave ends in an open micro batch that only `quiesce` seals.
    const JOBS_PER_WAVE: u64 = 88;
    let run = |workers: usize| {
        let svc = LaunchService::start(ServiceConfig {
            devices: 2,
            workers,
            sim_threads: Some(1),
            ..ServiceConfig::default()
        });
        let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("t{t}"))).collect();
        for wave in 0..WAVES {
            std::thread::scope(|s| {
                for c in &clients {
                    s.spawn(move || {
                        for i in 0..JOBS_PER_WAVE {
                            let vt = wave * 100_000 + i * 11;
                            // Runs of micro jobs, sealed by the ideal job
                            // that follows them or by `quiesce`.
                            let spec = if i % 5 == 4 {
                                ideal(1 + (i as usize / 5) % 2, i, vt)
                            } else {
                                micro(1 + c.tenant() as usize % 2, 8, vt)
                            };
                            c.submit(&spec).unwrap();
                        }
                    });
                }
            });
            svc.quiesce();
        }
        svc.shutdown()
    };
    with_deadline("serve-waves", Duration::from_secs(120), move || {
        let wide = run(8);
        let solo = run(1);
        assert_eq!(wide.jobs.len() as u64, TENANTS as u64 * WAVES * JOBS_PER_WAVE);
        assert_eq!(wide.rejected, 0);
        assert_eq!(wide.digest(), solo.digest(), "eight racing workers must fold like one");
    });
}
