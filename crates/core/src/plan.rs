//! The execution-plan IR the runtime interprets.
//!
//! The paper's compiler work (§4) lowers OpenMP worksharing loops into
//! *loop tasks*: the loop body is outlined into a separate function, the
//! trip count is produced by a callback, captured variables are packed into
//! a pointer payload, and the runtime schedules the tasks onto threads.
//!
//! Our "compiled kernel" is exactly that, as data: a [`TargetPlan`] tree of
//! team-level and thread-level operations whose leaves are outlined
//! functions registered in a [`crate::dispatch::Registry`]. The codegen
//! crate builds plans from a directive-style builder; the runtime
//! interpreter in [`crate::exec`] executes them with the paper's generic /
//! SPMD semantics.
//!
//! ## Variable scopes
//!
//! * `args` — the kernel's `void**`-style payload ([`gpu_sim::Slot`]s),
//!   constant for the whole target region;
//! * `outer` — snapshot of the enclosing scope's registers (team-level
//!   values visible inside a `parallel` region — what the real runtime
//!   shares through the team's sharing space);
//! * `regs` — the current scope's private registers (loop induction
//!   variables, thread-sequential temporaries). In generic SIMD mode these
//!   are what must be *staged* through the group sharing space before a
//!   `simd` loop can read them (§4.3 globalization / §5.3.1 sharing).

use gpu_sim::Slot;

/// Read-only view of the variable scopes available to trip-count and loop
/// body functions.
pub struct Vars<'e> {
    /// Kernel argument payload.
    pub args: &'e [Slot],
    /// Enclosing-scope registers (empty at team level).
    pub outer: &'e [Slot],
    /// Current-scope private registers.
    pub regs: &'e [Slot],
}

/// Read-only scopes of a warp-form simd body's active lanes (see
/// [`crate::dispatch::WarpBodyFn`]). The payload and the enclosing scope
/// are the same for every lane; the private registers are the lane's SIMD
/// group's, and one warp holds several groups.
pub struct WarpVars<'e> {
    /// Kernel argument payload.
    pub args: &'e [Slot],
    /// Enclosing-scope registers.
    pub outer: &'e [Slot],
    /// Every group's private registers.
    regs: &'e [Vec<Slot>],
    /// The group of each active lane (an index into `regs`).
    groups: &'e [u32],
}

impl<'e> WarpVars<'e> {
    /// Scopes of lanes whose groups are `groups`, over every group's
    /// registers `regs`.
    pub fn new(
        args: &'e [Slot],
        outer: &'e [Slot],
        regs: &'e [Vec<Slot>],
        groups: &'e [u32],
    ) -> WarpVars<'e> {
        WarpVars { args, outer, regs, groups }
    }

    /// The private registers of active lane `l`.
    #[inline(always)]
    pub fn regs(&self, l: usize) -> &'e [Slot] {
        &self.regs[self.groups[l] as usize]
    }
}

/// Mutable view for thread-sequential chunks (may write private registers).
pub struct VarsMut<'e> {
    /// Kernel argument payload.
    pub args: &'e [Slot],
    /// Enclosing-scope registers.
    pub outer: &'e [Slot],
    /// Current-scope private registers, writable.
    pub regs: &'e mut [Slot],
}

/// Index of a registered thread-sequential function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqId(pub u32);
/// Index of a registered trip-count function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripId(pub u32);
/// Index of a registered loop-body function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BodyId(pub u32);
/// Index of a registered reducing loop-body function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RedId(pub u32);

/// Worksharing schedule of a `for` / `distribute` loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Blocked static schedule: contiguous chunks of `ceil(trip/n)`.
    Static,
    /// Cyclic static schedule with the given chunk size
    /// (`schedule(static, c)`).
    Cyclic(u32),
    /// Dynamic self-scheduling with the given chunk size; grabs cost an
    /// atomic operation each.
    Dynamic(u32),
}

/// Team-level operations (the code the team main thread runs).
pub enum TeamOp {
    /// Sequential code at team scope. In generic mode only the team main
    /// thread executes it; in SPMD mode every thread executes it
    /// redundantly (which is only legal when it is side-effect free —
    /// the §3.2 SPMD-ness criterion, checked by the codegen analysis).
    Seq(SeqId),
    /// `distribute`: split the iteration space across teams. The current
    /// iteration is written to team register `iv_reg`.
    Distribute {
        /// Trip-count callback.
        trip: TripId,
        /// Worksharing schedule across teams.
        sched: Schedule,
        /// Team register receiving the iteration index.
        iv_reg: usize,
        /// Loop body operations.
        ops: Vec<TeamOp>,
    },
    /// A `parallel` region.
    Parallel(ParallelOp),
}

/// A `parallel` region: mode + SIMD geometry + outlined thread-level plan.
pub struct ParallelOp {
    /// Mode and SIMD group size (normalized by the builder).
    pub desc: crate::config::ParallelDesc,
    /// Whether the outlined region is in the compiler's if-cascade of known
    /// functions (§5.5) — unknown regions pay the indirect-call cost.
    pub known: bool,
    /// Number of private thread-level registers to allocate per group.
    pub nregs: usize,
    /// Number of leading registers generic-mode staging must actually post
    /// to SIMD workers (`≤ nregs`). Starts equal to `nregs`; the codegen
    /// dead-stage shrink pass lowers it when no `simd` body reads the
    /// trailing registers. Staging is positional, so only a suffix can be
    /// dropped.
    pub stage_regs: usize,
    /// Thread-level operations.
    pub ops: Vec<ThreadOp>,
}

/// Thread-level operations (the code an OpenMP thread — a SIMD group main —
/// runs inside a `parallel` region).
pub enum ThreadOp {
    /// Thread-sequential code. Generic mode: leaders only; SPMD mode: all
    /// lanes redundantly.
    Seq(SeqId),
    /// `for`: split iterations across the OpenMP threads (SIMD groups) of
    /// the team — or across *all* teams' groups for a combined
    /// `teams distribute parallel for` (the paper's 3-level pattern in
    /// §6.3, e.g. sparse_matvec).
    For {
        /// Trip-count callback (uniform across threads).
        trip: TripId,
        /// Worksharing schedule across groups.
        sched: Schedule,
        /// Thread register receiving the iteration index.
        iv_reg: usize,
        /// `true` lowers a combined `teams distribute parallel for`:
        /// iterations are shared among `num_teams × num_groups` workers.
        across_teams: bool,
        /// Loop body operations.
        ops: Vec<ThreadOp>,
    },
    /// `simd`: split iterations across the lanes of each SIMD group
    /// (Fig 8's `__simd_loop`).
    Simd {
        /// Trip-count callback (evaluated at thread scope; may differ per
        /// group, e.g. per-row lengths in sparse_matvec).
        trip: TripId,
        /// Outlined loop body.
        body: BodyId,
        /// Whether the body is dispatchable through the if-cascade (§5.5).
        known: bool,
    },
    /// `simd` with a `+`-reduction (the paper lists reductions as missing
    /// from its prototype, §6.2/§7; implemented here as the planned
    /// extension). Lane partials combine within the group via a
    /// log₂(group size) shuffle tree; the result is written to thread
    /// register `dst_reg`.
    SimdReduce {
        /// Trip-count callback.
        trip: TripId,
        /// Outlined reducing body: returns the iteration's contribution.
        body: RedId,
        /// Whether the body is dispatchable through the if-cascade.
        known: bool,
        /// Thread register receiving the reduced value.
        dst_reg: usize,
    },
    /// `parallel for reduction(+)` finalization (§7 extension): combine
    /// each SIMD group's private partial (thread register `src_reg`,
    /// interpreted as `f64` bits) across the whole team — leaders stage
    /// partials through shared memory, a block barrier joins, one warp
    /// tree-combines — and atomically add the team total into element
    /// `dst_idx` of the `DPtr<f64>` stored in kernel-arg slot `dst_arg`.
    ReduceAcross {
        /// Thread register holding each group's partial sum.
        src_reg: usize,
        /// Kernel-arg slot holding the destination pointer.
        dst_arg: usize,
        /// Element index within the destination buffer.
        dst_idx: u64,
    },
}

/// A complete target region: team-level plan plus scope sizes.
pub struct TargetPlan {
    /// Team-level operations, in program order.
    pub ops: Vec<TeamOp>,
    /// Number of team-scope registers.
    pub team_regs: usize,
}

impl TargetPlan {
    /// Count the `parallel` regions in the plan (diagnostics/tests).
    pub fn num_parallel_regions(&self) -> usize {
        fn walk(ops: &[TeamOp]) -> usize {
            ops.iter()
                .map(|op| match op {
                    TeamOp::Parallel(_) => 1,
                    TeamOp::Distribute { ops, .. } => walk(ops),
                    TeamOp::Seq(_) => 0,
                })
                .sum()
        }
        walk(&self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelDesc;

    #[test]
    fn count_parallel_regions_recurses() {
        let par = |ops| {
            TeamOp::Parallel(ParallelOp {
                desc: ParallelDesc::spmd(8),
                known: true,
                nregs: 0,
                stage_regs: 0,
                ops,
            })
        };
        let plan = TargetPlan {
            ops: vec![
                TeamOp::Seq(SeqId(0)),
                par(vec![]),
                TeamOp::Distribute {
                    trip: TripId(0),
                    sched: Schedule::Static,
                    iv_reg: 0,
                    ops: vec![par(vec![]), par(vec![])],
                },
            ],
            team_regs: 1,
        };
        assert_eq!(plan.num_parallel_regions(), 3);
    }
}
