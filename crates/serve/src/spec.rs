//! Job specifications: what a tenant submits, and how it maps onto the
//! warm-plan cache's content addressing.

use gpu_sim::ArchId;
use omp_codegen::CompiledKernel;
use omp_kernels::{batched, ideal};

/// Number of kernel-argument slots every in-tree service kernel takes
/// (input, output, and two scalar shape arguments).
pub const NARGS: usize = 4;

/// Launch geometry for micro-job batches: one team keeps the batch on the
/// simulator's inline (no thread spawn) path, which is what makes
/// coalescing thousands of tiny jobs cheap on the host side too.
pub const MICRO_TEAMS: u32 = 1;
/// Threads per team for micro-job batches.
pub const MICRO_THREADS: u32 = 64;
/// SIMD group size for micro-job batches.
pub const MICRO_SIMDLEN: u32 = 8;

/// Largest batch still dispatched through the if-cascade; bigger batches
/// use extern (indirect-call) dispatch. Mirrors the §5.5 crossover the
/// `dispatch` bench locates: a cascade's per-body cost grows with registry
/// depth, an indirect call's does not.
pub const CASCADE_MAX_BODIES: usize = 8;

/// What a job asks the fleet to run.
///
/// Two kernel families cover the service's traffic mix:
///
/// * [`JobKind::Ideal`] — the paper's "ideal scenario" kernel, one launch
///   per job, geometry chosen by the client;
/// * [`JobKind::Micro`] — a tiny panel kernel that the admission layer
///   **coalesces**: consecutive micro jobs from the same tenant with the
///   same shape are sealed into one `kernels::batched` launch
///   (`n_bodies` = batch size), amortizing per-launch overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One `ideal` launch: `outer × 32` elements through a permuted-offset
    /// indirection. `seed` varies the input data, not the plan.
    Ideal {
        /// Number of teams (thread blocks).
        teams: u32,
        /// Threads per team.
        threads: u32,
        /// SIMD group size.
        simdlen: u32,
        /// Outer loop iterations (32 elements each).
        outer: usize,
        /// Input-data seed.
        seed: u64,
    },
    /// One panel of a batched micro kernel: `rows × inner` elements.
    /// Batchable with same-shape micro jobs from the same tenant.
    Micro {
        /// Rows in the panel.
        rows: usize,
        /// Elements per row.
        inner: usize,
    },
}

impl JobKind {
    /// Deficit-round-robin weight: estimated elements of work. The drain
    /// algorithm charges each tenant for the work it dequeues, so a tenant
    /// of few large jobs and a tenant of many small ones get comparable
    /// shares of the fleet.
    pub fn weight(&self) -> u64 {
        match *self {
            JobKind::Ideal { outer, .. } => outer as u64 * ideal::INNER,
            JobKind::Micro { rows, inner } => (rows * inner) as u64,
        }
    }

    /// Whether `arch` can launch this job. An ideal job needs teams, a
    /// thread count that is a whole number of warps within the block
    /// limit, and a SIMD length dividing the warp size. Micro jobs use the
    /// fixed micro geometry, which every backend runs.
    pub(crate) fn runs_on(&self, arch: ArchId) -> bool {
        match *self {
            JobKind::Ideal { teams, threads, simdlen, .. } => {
                let ws = arch.warp_size();
                teams > 0
                    && threads > 0
                    && threads.is_multiple_of(ws)
                    && threads <= arch.arch().max_threads_per_block
                    && simdlen > 0
                    && ws.is_multiple_of(simdlen)
            }
            JobKind::Micro { .. } => true,
        }
    }
}

/// One submitted job: the kernel, its virtual arrival time, and an
/// optional device affinity.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Kernel and shape.
    pub kind: JobKind,
    /// Virtual (simulated-cycle) arrival time — the open-loop release
    /// constraint the fold replays on the fleet timeline; queueing delay is
    /// measured from here.
    pub arrival_vt: u64,
    /// Home device; defaults to `tenant index % devices` (tenant sharding).
    pub affinity: Option<u32>,
}

/// The *plan* side of a job — everything that affects compile + lint +
/// bytecode lowering, and nothing that doesn't. Input data (`seed`),
/// shapes passed as kernel arguments (`outer`, `rows`, `inner`) and
/// arrival times are excluded: jobs differing only in those share one
/// cached plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanKernel {
    /// The ideal kernel at a given launch geometry.
    Ideal {
        /// Number of teams.
        teams: u32,
        /// Threads per team.
        threads: u32,
        /// SIMD group size.
        simdlen: u32,
    },
    /// A micro-job batch of `k` panels (the registry registers `k` outlined
    /// bodies, so the batch size is part of the plan).
    MicroBatch {
        /// Panels per launch.
        k: usize,
    },
}

impl PlanKernel {
    /// Compile the kernel this plan key names (deterministic: the builder
    /// has no hidden state, so equal keys always produce equal plans —
    /// which is what makes the cache a pure memoization).
    pub fn build(&self) -> CompiledKernel {
        match *self {
            PlanKernel::Ideal { teams, threads, simdlen } => ideal::build(teams, threads, simdlen),
            PlanKernel::MicroBatch { k } => batched::build(
                MICRO_TEAMS,
                MICRO_THREADS,
                MICRO_SIMDLEN,
                k,
                if k <= CASCADE_MAX_BODIES {
                    batched::DispatchMode::Cascade
                } else {
                    batched::DispatchMode::Extern
                },
            ),
        }
    }
}

/// Content address of one warm plan: the kernel identity plus the target
/// architecture and lint configuration the lowering bakes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Which kernel, at which plan-level geometry.
    pub kernel: PlanKernel,
    /// Target architecture (registry id). The flat lowering bakes in the
    /// warp width *and* the sequential-simd legalization decision
    /// (§5.4.1), so plans for different backends never alias even at
    /// equal warp width — this is what lets one fleet serve a
    /// heterogeneous device mix from a single cache.
    pub arch: ArchId,
    /// Argument-slot count the lowering was specialized for.
    pub nargs: usize,
    /// Whether the simtlint gate ran as part of plan preparation.
    pub lint: bool,
}

/// Why a submission was not admitted: typed backpressure, a closed
/// service, or a job its home backend cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's bounded admission queue is at capacity; retry after
    /// the fleet drains (admission control, not a fatal error).
    QueueFull {
        /// Rejecting tenant's lane index.
        tenant: u32,
        /// The configured per-tenant capacity.
        cap: usize,
    },
    /// The service is shutting down; no further jobs are accepted.
    Closed,
    /// The job's home device cannot launch its geometry (see
    /// [`JobKind::Ideal`]); resubmitting it will never succeed.
    Unsupported {
        /// Submitting tenant's lane index.
        tenant: u32,
        /// Backend of the job's home device.
        arch: ArchId,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { tenant, cap } => {
                write!(f, "tenant {tenant}: admission queue full (cap {cap})")
            }
            SubmitError::Closed => write!(f, "service is closed"),
            SubmitError::Unsupported { tenant, arch } => {
                write!(f, "tenant {tenant}: job geometry cannot run on {arch}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_scale_with_work() {
        let small = JobKind::Micro { rows: 1, inner: 8 };
        let big = JobKind::Ideal { teams: 1, threads: 32, simdlen: 8, outer: 4, seed: 0 };
        assert_eq!(small.weight(), 8);
        assert_eq!(big.weight(), 4 * ideal::INNER);
        assert!(big.weight() > small.weight());
    }

    #[test]
    fn plan_keys_ignore_data_but_not_geometry() {
        let k = |simdlen| PlanKey {
            kernel: PlanKernel::Ideal { teams: 1, threads: 32, simdlen },
            arch: ArchId::A100,
            nargs: NARGS,
            lint: true,
        };
        assert_eq!(k(8), k(8));
        assert_ne!(k(8), k(16));
    }

    #[test]
    fn plan_keys_separate_backends() {
        let k = |arch| PlanKey {
            kernel: PlanKernel::Ideal { teams: 1, threads: 64, simdlen: 8 },
            arch,
            nargs: NARGS,
            lint: true,
        };
        assert_ne!(k(ArchId::A100), k(ArchId::Mi100));
    }

    #[test]
    fn batch_size_is_part_of_the_plan() {
        // A batch of k micro jobs registers k outlined bodies.
        assert_eq!(PlanKernel::MicroBatch { k: 3 }.build().registry.num_bodies(), 3);
        assert_ne!(PlanKernel::MicroBatch { k: 3 }, PlanKernel::MicroBatch { k: 4 });
    }
}
