//! Isolated per-unit execution.
//!
//! **Why the worker cannot perturb stats.** A unit executes on a **fresh
//! scratch [`Device`]** whose architecture comes from the unit's own plan
//! key (`unit.key.arch`) — never from the worker that runs it. Device
//! construction is cheap in this simulator, so a unit's [`LaunchStats`]
//! is a pure function of (plan, workload, key arch, sim thread count)
//! no matter which worker runs it, in which order, concurrently with
//! what — so any worker may take any device's unit, even on a
//! **heterogeneous fleet** mixing backends. The fleet's *devices* exist
//! only as in-order queues in the fold's virtual-time replay (see
//! `service.rs`); they own no mutable execution state a worker could
//! disturb. This is DESIGN §11's isolate-then-fold discipline lifted to
//! the service layer.

use gpu_sim::{Device, LaunchStats};
use omp_codegen::launch_flat;
use omp_kernels::harness::max_abs_err;
use omp_kernels::{batched, ideal};

use crate::plan::WarmPlan;
use crate::queue::Unit;
use crate::spec::JobKind;

/// Execute one unit on a fresh scratch device of the unit's keyed
/// architecture and return its outcome fields (stats + optional
/// verification).
pub fn execute_unit(
    unit: &Unit,
    plan: &WarmPlan,
    sim_threads: Option<usize>,
    verify: bool,
) -> (LaunchStats, Option<f64>) {
    let mut dev = Device::new(unit.key.arch.arch());
    dev.set_sim_threads(sim_threads);
    execute_unit_on(&mut dev, unit, plan, verify)
}

/// Execute one unit on `dev`, which must be a fresh device of the unit's
/// keyed architecture: upload the unit's workload, launch the warm plan,
/// and verify when asked. The caller picks the device's settings, so a
/// sanitized device checks exactly the launch the service makes.
pub fn execute_unit_on(
    dev: &mut Device,
    unit: &Unit,
    plan: &WarmPlan,
    verify: bool,
) -> (LaunchStats, Option<f64>) {
    match unit.kind {
        JobKind::Ideal { outer, seed, .. } => {
            let w = ideal::IdealWorkload::generate(outer, seed);
            let ops = ideal::IdealDev::upload(dev, &w);
            let stats = launch_flat(
                dev,
                &plan.kernel.config,
                &plan.flat,
                &plan.kernel.registry,
                &ops.args(),
            )
            .expect("service launch failed");
            let err = verify.then(|| max_abs_err(&ops.read_out(dev), &w.reference()));
            (stats, err)
        }
        JobKind::Micro { rows, inner } => {
            let w = batched::BatchedWorkload::generate(unit.count as usize, rows, inner);
            let ops = batched::BatchedDev::upload(dev, &w);
            let stats = launch_flat(
                dev,
                &plan.kernel.config,
                &plan.flat,
                &plan.kernel.registry,
                &ops.args(),
            )
            .expect("service launch failed");
            let err = verify.then(|| max_abs_err(&ops.read_out(dev), &w.reference()));
            (stats, err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_warm_plan;
    use crate::spec::{PlanKernel, PlanKey};
    use gpu_sim::ArchId;

    /// A unit of `count` jobs of `kind`, keyed as admission keys it.
    fn unit_on(kind: JobKind, count: u32, arch: ArchId) -> Unit {
        let kernel = match kind {
            JobKind::Ideal { teams, threads, simdlen, .. } => {
                PlanKernel::Ideal { teams, threads, simdlen }
            }
            JobKind::Micro { .. } => PlanKernel::MicroBatch { k: count as usize },
        };
        Unit {
            device: 0,
            tenant: 0,
            kind,
            key: PlanKey { kernel, arch, lint: true },
            first_seq: 0,
            count,
            arrival_vt: 0,
        }
    }

    fn unit(kind: JobKind, count: u32) -> Unit {
        unit_on(kind, count, ArchId::A100)
    }

    fn ideal(teams: u32, threads: u32, outer: usize, seed: u64) -> JobKind {
        JobKind::Ideal { teams, threads, simdlen: 8, outer, seed }
    }

    const MICRO: JobKind = JobKind::Micro { rows: 2, inner: 8 };

    #[test]
    fn ideal_unit_executes_and_verifies() {
        let u = unit(ideal(1, 32, 4, 3), 1);
        let plan = build_warm_plan(&u.key);
        let (stats, err) = execute_unit(&u, &plan, Some(1), true);
        assert!(stats.cycles > 0);
        assert_eq!(err, Some(0.0));
    }

    #[test]
    fn micro_batch_executes_all_members_in_one_launch() {
        let u = unit(MICRO, 3);
        let plan = build_warm_plan(&u.key);
        let (stats, err) = execute_unit(&u, &plan, Some(1), true);
        assert!(stats.cycles > 0);
        assert_eq!(err, Some(0.0));
        // One launch dispatched all three bodies.
        assert!(stats.counters.cascade_dispatches >= 3);
    }

    #[test]
    fn repeated_execution_is_bit_identical() {
        let u = unit(ideal(1, 32, 2, 9), 1);
        let plan = build_warm_plan(&u.key);
        let (a, _) = execute_unit(&u, &plan, Some(1), false);
        let (b, _) = execute_unit(&u, &plan, Some(1), false);
        assert_eq!(a, b);
    }

    #[test]
    fn service_launches_are_clean_and_unchanged_under_simtcheck() {
        // The launch a worker makes, rerun on a sanitized device: an ideal
        // unit and a three-panel micro batch on each backend.
        for arch in [ArchId::A100, ArchId::Mi100] {
            let units = [unit_on(ideal(2, 64, 3, 5), 1, arch), unit_on(MICRO, 3, arch)];
            for u in &units {
                let plan = build_warm_plan(&u.key);
                let (stats, _) = execute_unit(u, &plan, Some(1), false);
                let mut dev = Device::new(arch.arch());
                dev.set_sim_threads(Some(1));
                dev.enable_sanitizer();
                let (checked, err) = execute_unit_on(&mut dev, u, &plan, true);
                assert!(
                    checked.violations.is_empty(),
                    "{arch:?} {:?}: {:?}",
                    u.kind,
                    checked.violations
                );
                assert_eq!(checked, stats, "{arch:?} {:?}: simtcheck changed the stats", u.kind);
                assert_eq!(err, Some(0.0));
            }
        }
    }

    #[test]
    fn wave64_unit_legalizes_and_verifies() {
        // A micro batch keyed to the mi100 backend. The batched kernel's
        // parallel region stays generic (its seq step declares no
        // footprint), so the wave64 lowering bakes in sequential-simd
        // legalization; execution on a wave64 scratch device must still
        // match the host reference.
        let u = unit_on(MICRO, 3, ArchId::Mi100);
        let plan = build_warm_plan(&u.key);
        let (stats, err) = execute_unit(&u, &plan, Some(1), true);
        assert!(stats.cycles > 0);
        assert_eq!(err, Some(0.0));
        assert!(
            stats.counters.sequential_simd_fallbacks > 0,
            "mi100 generic simd must run through the legalized path"
        );
    }
}
