//! The directive-tree builder — our analog of the OpenMP IR Builder (§4.1).
//!
//! A kernel author describes a target region with nested directive scopes
//! (`teams` → `distribute` / `parallel` → `for` / `simd`), supplying exactly
//! the two callbacks the paper's interface requires per worksharing loop:
//! a **trip-count** generator and a **loop body** (§4.1–4.2). The builder
//! performs the compiler-side work:
//!
//! * **outlining** — loop bodies and sequential chunks become registered
//!   functions in the module [`Registry`] (dispatched through the
//!   if-cascade, or as indirect calls for "extern" bodies, §5.5);
//! * **payload packing** — scope-private values get register slots assigned
//!   (the 8-byte [`gpu_sim::Slot`]s the runtime stages through the sharing
//!   space in generic mode, §5.3.1);
//! * **execution-mode analysis** — SPMD-ness is inferred from tight nesting
//!   and trip-count uniformity (see [`crate::analysis`]), with explicit
//!   overrides for experiments.

use gpu_sim::{Device, DeviceArch, LaunchError, LaunchStats, Slot};
use omp_core::config::{ExecMode, KernelConfig, ParallelDesc};
use omp_core::dispatch::{BodyForm, Footprint, Registry};
use omp_core::exec::launch_target;
pub use omp_core::plan::Schedule;
use omp_core::plan::{ParallelOp, TargetPlan, TeamOp, ThreadOp, TripId, Vars, VarsMut, WarpVars};

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::analysis::{infer_parallel_mode, infer_teams_mode, Analysis, ParallelInfo};
use crate::bytecode::{launch_flat, Engine, FlatProgram};
use crate::diag::LintReport;

/// Handle to a trip-count callback plus its uniformity classification
/// (uniform trip counts keep a region SPMD-eligible; varying ones — e.g.
/// per-row lengths — force the generic model, §3.2/§5.4).
#[derive(Clone, Copy, Debug)]
pub struct TripH {
    pub(crate) id: TripId,
    pub(crate) uniform: bool,
}

/// Handle to a scope-private register slot (read back as `v.regs[h.0]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegH(pub usize);

/// Launch-geometry parameters chosen by the kernel author.
#[derive(Clone, Debug)]
pub struct KernelParams {
    /// Number of teams (thread blocks).
    pub num_teams: u32,
    /// Worker threads per team.
    pub threads_per_team: u32,
    /// Variable sharing space size, bytes (paper default 2048, §5.3.1).
    pub sharing_space_bytes: u32,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            num_teams: 108,
            threads_per_team: 128,
            sharing_space_bytes: KernelConfig::SHARING_SPACE_DEFAULT,
        }
    }
}

/// Builder for one `target` region.
pub struct TargetBuilder {
    reg: Registry,
    params: KernelParams,
    teams_override: Option<ExecMode>,
}

impl Default for TargetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TargetBuilder {
    /// Fresh builder with default launch parameters.
    pub fn new() -> TargetBuilder {
        TargetBuilder {
            reg: Registry::new(),
            params: KernelParams::default(),
            teams_override: None,
        }
    }

    /// Set the number of teams.
    pub fn num_teams(mut self, n: u32) -> Self {
        self.params.num_teams = n;
        self
    }

    /// Set worker threads per team.
    pub fn threads(mut self, n: u32) -> Self {
        self.params.threads_per_team = n;
        self
    }

    /// Set the sharing-space size in bytes (2048 = paper default, 1024 =
    /// pre-paper legacy; both are exercised by the ablation benches).
    pub fn sharing_space(mut self, bytes: u32) -> Self {
        self.params.sharing_space_bytes = bytes;
        self
    }

    /// Force the teams execution mode instead of inferring it.
    pub fn force_teams_mode(mut self, mode: ExecMode) -> Self {
        self.teams_override = Some(mode);
        self
    }

    /// Register a constant trip count (uniform).
    pub fn trip_const(&mut self, n: u64) -> TripH {
        TripH { id: self.reg.trip_const(n), uniform: true }
    }

    /// Register a trip count that is the same for every worker (keeps the
    /// region SPMD-eligible), e.g. a loop bound computed from the kernel
    /// args. The callback is *lane-free*: it sees only the variable scopes,
    /// so it cannot touch device memory or charge cycles — which lets the
    /// bytecode executor evaluate it directly while the tree-walk
    /// interpreter keeps charging it through the (zero-cost) lane path.
    /// Bounds that must be **read from device memory** use
    /// [`Self::trip_uniform_lane`] instead.
    pub fn trip_uniform(&mut self, f: impl Fn(&Vars<'_>) -> u64 + Send + Sync + 'static) -> TripH {
        TripH { id: self.reg.trip_pure(f, true), uniform: true }
    }

    /// Register a uniform trip count that needs a lane — e.g. a bound
    /// loaded from device memory (charged as real traffic by both
    /// engines). Prefer [`Self::trip_uniform`] when no device access is
    /// required.
    pub fn trip_uniform_lane(
        &mut self,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &Vars<'_>) -> u64 + Send + Sync + 'static,
    ) -> TripH {
        TripH { id: self.reg.trip_with(f, true), uniform: true }
    }

    /// Register a trip count that varies per worker (e.g. CSR row lengths);
    /// forces the enclosing parallel region into generic mode and blocks
    /// SPMD-ization (the registry records the non-uniformity, so
    /// [`crate::lint`] sees it too).
    pub fn trip_varying(
        &mut self,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &Vars<'_>) -> u64 + Send + Sync + 'static,
    ) -> TripH {
        TripH { id: self.reg.trip_with(f, false), uniform: false }
    }

    /// Build the target region: `f` populates the teams scope. Returns the
    /// compiled kernel (plan + registry + config + analysis).
    pub fn build(mut self, f: impl FnOnce(&mut TeamsScope<'_>)) -> CompiledKernel {
        let mut scope = TeamsScope {
            reg: &mut self.reg,
            ops: Vec::new(),
            nregs: 0,
            saw_seq: false,
            dist_with_parallel: false,
            parallels: Vec::new(),
        };
        f(&mut scope);
        let teams_mode = self
            .teams_override
            .unwrap_or_else(|| infer_teams_mode(scope.saw_seq, scope.dist_with_parallel));
        let mut plan = TargetPlan { ops: scope.ops, team_regs: scope.nregs };
        let mut analysis = Analysis {
            teams_mode,
            teams_forced: self.teams_override.is_some(),
            parallels: scope.parallels,
            promotions: Vec::new(),
        };
        let mut config = KernelConfig {
            teams_mode,
            num_teams: self.params.num_teams,
            threads_per_team: self.params.threads_per_team,
            sharing_space_bytes: self.params.sharing_space_bytes,
        };
        // OpenMPOpt-style SPMD-ization: declared-pure footprints can prove
        // an inferred-generic region safe to promote (see crate::lint).
        crate::lint::spmdize(&mut plan, &mut analysis, &mut config, &self.reg);
        // Dead-stage shrink: stage only the register prefix some simd body
        // declares it reads (see crate::dataflow).
        crate::dataflow::shrink_dead_stages(&mut plan, &mut analysis, &self.reg);
        CompiledKernel {
            plan,
            registry: self.reg,
            config,
            analysis,
            flat: RwLock::new(HashMap::new()),
        }
    }
}

/// The `teams` scope: team-level directives.
pub struct TeamsScope<'b> {
    reg: &'b mut Registry,
    ops: Vec<TeamOp>,
    nregs: usize,
    saw_seq: bool,
    dist_with_parallel: bool,
    parallels: Vec<ParallelInfo>,
}

impl<'b> TeamsScope<'b> {
    /// Allocate a team-scope register.
    pub fn alloc_reg(&mut self) -> RegH {
        let h = RegH(self.nregs);
        self.nregs += 1;
        h
    }

    /// Team-level sequential code. Its presence makes the teams region
    /// generic (side effects cannot be executed redundantly, §3.1).
    pub fn seq(
        &mut self,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) {
        self.saw_seq = true;
        let id = self.reg.seq(f);
        self.ops.push(TeamOp::Seq(id));
    }

    /// Team-level sequential code with a declared effect [`Footprint`].
    /// Still makes the teams region infer generic, but a *pure* declaration
    /// lets the SPMD-ization pass promote the region (and drop the extra
    /// main-thread warp) — simtcheck validates the claim at runtime.
    pub fn seq_footprint(
        &mut self,
        fp: Footprint,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) {
        self.saw_seq = true;
        let id = self.reg.seq_with_footprint(fp, f);
        self.ops.push(TeamOp::Seq(id));
    }

    /// `distribute`: split iterations across teams. The body closure
    /// receives the register holding the current iteration.
    pub fn distribute(
        &mut self,
        trip: TripH,
        sched: Schedule,
        f: impl FnOnce(&mut TeamsScope<'_>, RegH),
    ) {
        let iv = self.alloc_reg();
        let saved = std::mem::take(&mut self.ops);
        let had_parallel = self.parallels.len();
        f(self, iv);
        let body = std::mem::replace(&mut self.ops, saved);
        if self.parallels.len() > had_parallel {
            // `teams distribute { ... parallel ... }`: the team main runs
            // sequential distribute iterations between parallel regions —
            // the classic generic-teams pattern (the paper's 2-level
            // sparse_matvec baseline runs this way, §6.3).
            self.dist_with_parallel = true;
        }
        self.ops.push(TeamOp::Distribute { trip: trip.id, sched, iv_reg: iv.0, ops: body });
    }

    /// A `parallel` region with the given SIMD group size; the mode is
    /// inferred from the body structure.
    pub fn parallel(&mut self, simdlen: u32, f: impl FnOnce(&mut ParScope<'_>)) {
        self.parallel_inner(simdlen, None, true, false, None, f);
    }

    /// A `parallel` region with an explicit mode override.
    pub fn parallel_with_mode(
        &mut self,
        simdlen: u32,
        mode: ExecMode,
        f: impl FnOnce(&mut ParScope<'_>),
    ) {
        self.parallel_inner(simdlen, Some(mode), true, false, None, f);
    }

    /// Combined `teams distribute parallel for [simd]` (the paper's 3-level
    /// pattern): the `for` iterations are shared across *all* teams'
    /// groups, and no team-level sequential code is generated — which is
    /// what keeps the teams region SPMD (§6.3).
    pub fn distribute_parallel_for(
        &mut self,
        trip: TripH,
        sched: Schedule,
        simdlen: u32,
        f: impl FnOnce(&mut ParScope<'_>, RegH),
    ) {
        self.parallel_inner(simdlen, None, true, true, Some((trip, sched)), |p| {
            // The iv register is allocated by parallel_inner's For wrapper;
            // recover it: it is always register 0 of the parallel scope.
            f(p, RegH(0));
        });
    }

    /// [`Self::distribute_parallel_for`] with an explicit mode override
    /// (for mode ablations: a forced mode is never SPMD-ized away).
    pub fn distribute_parallel_for_with_mode(
        &mut self,
        trip: TripH,
        sched: Schedule,
        simdlen: u32,
        mode: ExecMode,
        f: impl FnOnce(&mut ParScope<'_>, RegH),
    ) {
        self.parallel_inner(simdlen, Some(mode), true, true, Some((trip, sched)), |p| {
            f(p, RegH(0));
        });
    }

    /// Combined `teams distribute parallel for collapse(2)` (§7 extension:
    /// "loop collapsing"): the `n1 × n2` iteration space is fused and
    /// shared across all teams' groups; the two original induction
    /// variables are recovered into registers by a pure index decode, so
    /// tight nesting — and SPMD eligibility — is preserved.
    pub fn distribute_parallel_for_collapse2(
        &mut self,
        n1: u64,
        n2: u64,
        sched: Schedule,
        simdlen: u32,
        f: impl FnOnce(&mut ParScope<'_>, RegH, RegH),
    ) {
        let fused = TripH { id: self.reg.trip_const(n1 * n2), uniform: true };
        self.parallel_inner(simdlen, None, true, true, Some((fused, sched)), |p| {
            // Register 0 is the fused induction variable.
            let i = p.alloc_reg();
            let j = p.alloc_reg();
            p.seq_pure(move |lane, v| {
                let fv = v.regs[0].as_u64();
                lane.work(4); // div/mod index decomposition
                v.regs[i.0] = gpu_sim::Slot::from_u64(fv / n2);
                v.regs[j.0] = gpu_sim::Slot::from_u64(fv % n2);
            });
            f(p, i, j);
        });
    }

    fn parallel_inner(
        &mut self,
        simdlen: u32,
        mode_override: Option<ExecMode>,
        known: bool,
        across_teams: bool,
        wrap_for: Option<(TripH, Schedule)>,
        f: impl FnOnce(&mut ParScope<'_>),
    ) {
        let mut p = ParScope {
            reg: self.reg,
            ops: Vec::new(),
            nregs: 0,
            saw_seq: false,
            nonuniform_trip: false,
        };
        let body_ops = if let Some((trip, sched)) = wrap_for {
            let iv = p.alloc_reg();
            debug_assert_eq!(iv, RegH(0));
            if !trip.uniform {
                p.nonuniform_trip = true;
            }
            f(&mut p);
            let inner = std::mem::take(&mut p.ops);
            vec![ThreadOp::For { trip: trip.id, sched, iv_reg: iv.0, across_teams, ops: inner }]
        } else {
            f(&mut p);
            std::mem::take(&mut p.ops)
        };
        let inferred = infer_parallel_mode(simdlen, p.saw_seq, p.nonuniform_trip);
        let mode = if simdlen == 1 { inferred } else { mode_override.unwrap_or(inferred) };
        let desc = ParallelDesc { mode, simdlen };
        self.parallels.push(ParallelInfo {
            desc,
            inferred,
            forced: mode_override.is_some(),
            promoted: false,
            nregs: p.nregs,
            stage_regs: p.nregs,
        });
        self.ops.push(TeamOp::Parallel(ParallelOp {
            desc,
            known,
            nregs: p.nregs,
            stage_regs: p.nregs,
            ops: body_ops,
        }));
    }
}

/// The `parallel` scope: thread-level directives.
pub struct ParScope<'b> {
    reg: &'b mut Registry,
    ops: Vec<ThreadOp>,
    nregs: usize,
    saw_seq: bool,
    nonuniform_trip: bool,
}

impl<'b> ParScope<'b> {
    /// Allocate a thread-scope register (a payload slot the runtime stages
    /// through the sharing space in generic mode).
    pub fn alloc_reg(&mut self) -> RegH {
        let h = RegH(self.nregs);
        self.nregs += 1;
        h
    }

    /// Thread-sequential code between worksharing loops. Its presence
    /// breaks tight nesting, so the parallel region becomes generic
    /// (§5.4: SPMD requires no sequential side effects).
    pub fn seq(
        &mut self,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) {
        self.saw_seq = true;
        let id = self.reg.seq(f);
        self.ops.push(ThreadOp::Seq(id));
    }

    /// Thread-sequential *pure* code: side-effect-free address or index
    /// computation that every thread may safely execute redundantly. Does
    /// NOT break tight nesting (the \[16\]-style SPMDization analysis the
    /// paper builds on treats guarded pure code as SPMD-compatible), so the
    /// region can stay SPMD.
    pub fn seq_pure(
        &mut self,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) {
        let id = self.reg.seq(f);
        self.ops.push(ThreadOp::Seq(id));
    }

    /// Thread-sequential code with a declared effect [`Footprint`]. Like
    /// [`Self::seq`] it breaks tight nesting (the region infers generic),
    /// but a *pure* declaration lets the SPMD-ization pass prove the state
    /// machine unnecessary and promote the region back to SPMD. simtcheck
    /// validates the declaration at runtime.
    pub fn seq_footprint(
        &mut self,
        fp: Footprint,
        f: impl Fn(&mut gpu_sim::Lane<'_, '_>, &mut VarsMut<'_>) + Send + Sync + 'static,
    ) {
        self.saw_seq = true;
        let id = self.reg.seq_with_footprint(fp, f);
        self.ops.push(ThreadOp::Seq(id));
    }

    /// `parallel for reduction(+)` finalization (§7 extension): combine the
    /// per-group partial held in `src` across the team and atomically add
    /// the team total into element `dst_idx` of the `DPtr<f64>` stored in
    /// kernel-arg slot `dst_arg`.
    pub fn reduce_across(&mut self, src: RegH, dst_arg: usize, dst_idx: u64) {
        self.saw_seq = true; // the combining phase is sequential-ish code
        self.ops.push(ThreadOp::ReduceAcross { src_reg: src.0, dst_arg, dst_idx });
    }

    /// `for`: split iterations across this team's SIMD groups.
    pub fn for_loop(
        &mut self,
        trip: TripH,
        sched: Schedule,
        f: impl FnOnce(&mut ParScope<'_>, RegH),
    ) {
        let iv = self.alloc_reg();
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let saved = std::mem::take(&mut self.ops);
        f(self, iv);
        let body = std::mem::replace(&mut self.ops, saved);
        self.ops.push(ThreadOp::For {
            trip: trip.id,
            sched,
            iv_reg: iv.0,
            across_teams: false,
            ops: body,
        });
    }

    /// `simd`: split iterations across the lanes of each SIMD group.
    pub fn simd(
        &mut self,
        trip: TripH,
        body: impl Fn(&mut gpu_sim::Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let id = self.reg.body(body);
        self.ops.push(ThreadOp::Simd { trip: trip.id, body: id, known: true });
    }

    /// `simd` with a warp-form body: `body` runs once per round of the
    /// loop for the round's active lanes, `|w, ivs, v|`, where `ivs[l]` is
    /// active lane `l`'s iteration and `v.regs(l)` its registers, and each
    /// `w.read` / `w.write` is one warp instruction (see
    /// [`omp_core::dispatch::WarpBodyFn`]). It costs exactly what the same
    /// body written per lane costs; the engine just no longer has to
    /// gather each instruction's addresses lane by lane.
    pub fn simd_warp(
        &mut self,
        trip: TripH,
        body: impl Fn(&mut gpu_sim::Warp<'_, '_>, &[u64], &WarpVars<'_>) + Send + Sync + 'static,
    ) {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let id = self.reg.body_warp(body);
        self.ops.push(ThreadOp::Simd { trip: trip.id, body: id, known: true });
    }

    /// `simd` with a declared effect [`Footprint`] on the body: simtlint
    /// checks the declared register reads against what is actually staged,
    /// and simtcheck validates the global-memory claims at runtime.
    pub fn simd_footprint(
        &mut self,
        trip: TripH,
        fp: Footprint,
        body: impl Fn(&mut gpu_sim::Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let id = self.reg.body_with_footprint(fp, body);
        self.ops.push(ThreadOp::Simd { trip: trip.id, body: id, known: true });
    }

    /// `simd` whose body lives in another translation unit: dispatched via
    /// indirect call instead of the if-cascade (§5.5).
    pub fn simd_extern(
        &mut self,
        trip: TripH,
        body: impl Fn(&mut gpu_sim::Lane<'_, '_>, u64, &Vars<'_>) + Send + Sync + 'static,
    ) {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let id = self.reg.body_extern(body);
        self.ops.push(ThreadOp::Simd { trip: trip.id, body: id, known: false });
    }

    /// `simd reduction(+)`: the paper's §7 extension. Returns the register
    /// that receives the group-reduced value.
    pub fn simd_reduce(
        &mut self,
        trip: TripH,
        body: impl Fn(&mut gpu_sim::Lane<'_, '_>, u64, &Vars<'_>) -> f64 + Send + Sync + 'static,
    ) -> RegH {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let dst = self.alloc_reg();
        let id = self.reg.red(body);
        self.ops.push(ThreadOp::SimdReduce {
            trip: trip.id,
            body: id,
            known: true,
            dst_reg: dst.0,
        });
        dst
    }

    /// [`Self::simd_reduce`] with a declared effect [`Footprint`] on the
    /// reducing body.
    pub fn simd_reduce_footprint(
        &mut self,
        trip: TripH,
        fp: Footprint,
        body: impl Fn(&mut gpu_sim::Lane<'_, '_>, u64, &Vars<'_>) -> f64 + Send + Sync + 'static,
    ) -> RegH {
        if !trip.uniform {
            self.nonuniform_trip = true;
        }
        let dst = self.alloc_reg();
        let id = self.reg.red_with_footprint(fp, body);
        self.ops.push(ThreadOp::SimdReduce {
            trip: trip.id,
            body: id,
            known: true,
            dst_reg: dst.0,
        });
        dst
    }
}

/// Cached flat-bytecode lowerings, keyed by launch geometry
/// (warp size, argument count). Read-mostly: warm launches take the read
/// lock, clone the `Arc`, and never serialize against each other; a miss
/// lowers *outside* any lock and publishes under a brief write section
/// (first writer wins, so concurrent misses converge on one shared
/// program). The old single-slot `Mutex<Option<..>>` both serialized every
/// warm launch on one lock and thrashed when two geometries alternated.
type FlatCache = RwLock<HashMap<(u32, bool, usize), Arc<FlatProgram>>>;

/// A compiled target region, ready to launch.
pub struct CompiledKernel {
    /// The lowered execution plan.
    pub plan: TargetPlan,
    /// The outlined-function table.
    pub registry: Registry,
    /// Launch configuration (mode, teams, threads, shared memory).
    pub config: KernelConfig,
    /// What the mode analysis decided and why.
    pub analysis: Analysis,
    /// Cached flat-bytecode lowering, keyed by (warp size, warp-sync
    /// capability, argument count) — the launch-geometry and legalization
    /// inputs the lowering bakes in.
    flat: FlatCache,
}

impl CompiledKernel {
    /// Run the simtlint static verifier against this kernel (see
    /// [`crate::lint::lint_kernel`]). `nargs` is the number of argument
    /// slots the launch will pass.
    pub fn lint(&self, arch: &DeviceArch, nargs: usize) -> LintReport {
        crate::lint::lint_kernel(self, arch, nargs)
    }

    /// Launch on a device with the given argument payload. Does **not**
    /// run the lint gate — the escape hatch for deliberately-broken plans
    /// (negative tests, sanitizer demos).
    ///
    /// Runs the flat-bytecode executor. [`Self::launch_with_engine`] picks
    /// an engine explicitly, and [`Self::launch_oracle`] runs both.
    pub fn launch(&self, dev: &mut Device, args: &[Slot]) -> Result<LaunchStats, LaunchError> {
        self.launch_with_engine(dev, args, Engine::Bytecode)
    }

    /// Launch with an explicit engine choice. Both engines run sanitized
    /// and traced launches themselves: each makes the same simtcheck calls
    /// and records the same event trace. The launch is validated before
    /// either engine sees it, so a device the lowering cannot serve (say,
    /// warps wider than [`gpu_sim::MAX_LANES`]) is a [`LaunchError`], not a
    /// panic.
    pub fn launch_with_engine(
        &self,
        dev: &mut Device,
        args: &[Slot],
        engine: Engine,
    ) -> Result<LaunchStats, LaunchError> {
        dev.validate(&self.config.launch_config(&dev.arch))?;
        match engine {
            Engine::Tree => launch_target(dev, &self.config, &self.plan, &self.registry, args),
            Engine::Bytecode => {
                let prog = self.flat_program(&dev.arch, args.len());
                launch_flat(dev, &self.config, &prog, &self.registry, args)
            }
        }
    }

    /// The flat-bytecode lowering of this kernel for one launch geometry,
    /// compiled on first use and cached. Every lowering is checked by the
    /// [`FlatProgram::verify`] invariant walker before it is published —
    /// a side table inconsistent with the plan is a compiler bug, not a
    /// launch error, so divergence panics here.
    pub fn flat_program(&self, arch: &DeviceArch, nargs: usize) -> Arc<FlatProgram> {
        // The warp-sync capability is part of the key: sequential-simd
        // legalization (§5.4.1) is baked into the lowered [`ParMeta`], so
        // a wave64 program and an equally-wide warp-barrier program are
        // different bytecode.
        let key = (arch.warp_size, arch.warp_sync_supported, nargs);
        if let Some(prog) = self.flat.read().unwrap().get(&key) {
            return Arc::clone(prog);
        }
        // Miss: lower and verify with no lock held, so warm launches on
        // other geometries keep streaming through the read path meanwhile.
        let prog =
            Arc::new(FlatProgram::lower(&self.plan, &self.registry, &self.config, arch, nargs));
        if let Err(e) = prog.verify(&self.plan, &self.registry, &self.config, arch, nargs) {
            panic!("flat-bytecode verifier rejected the lowering: {e}");
        }
        Arc::clone(self.flat.write().unwrap().entry(key).or_insert(prog))
    }

    /// A content fingerprint of the compiled kernel: an FNV-1a walk over
    /// the launch configuration, the plan tree (op discriminants,
    /// schedules, register indices, outlined-function ids and body forms,
    /// dispatch classes), and the registry's cascade length. Two kernels with equal
    /// hashes lower to the same bytecode for any given launch geometry, so
    /// a launch service can content-address its warm-plan cache on
    /// `(plan_hash, warp_size, nargs)` instead of trusting caller-supplied
    /// kernel names.
    pub fn plan_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        struct Fnv(u64);
        impl Fnv {
            fn u64(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
                }
            }
            fn u32(&mut self, v: u32) {
                self.u64(v as u64);
            }
        }
        fn mode_tag(mode: ExecMode) -> u64 {
            match mode {
                ExecMode::Spmd => 1,
                ExecMode::Generic => 2,
            }
        }
        fn sched_tag(h: &mut Fnv, s: Schedule) {
            match s {
                Schedule::Static => h.u64(1),
                Schedule::Cyclic(c) => {
                    h.u64(2);
                    h.u32(c);
                }
                Schedule::Dynamic(c) => {
                    h.u64(3);
                    h.u32(c);
                }
            }
        }
        fn thread_ops(h: &mut Fnv, ops: &[ThreadOp], reg: &Registry) {
            for op in ops {
                match op {
                    ThreadOp::Seq(id) => {
                        h.u64(10);
                        h.u32(id.0);
                    }
                    ThreadOp::For { trip, sched, iv_reg, across_teams, ops } => {
                        h.u64(11);
                        h.u32(trip.0);
                        sched_tag(h, *sched);
                        h.u64(*iv_reg as u64);
                        h.u64(*across_teams as u64);
                        thread_ops(h, ops, reg);
                        h.u64(12); // close marker: nesting is part of the shape
                    }
                    ThreadOp::Simd { trip, body, known } => {
                        h.u64(13);
                        h.u32(trip.0);
                        h.u32(body.0);
                        h.u64(*known as u64);
                        // The form is baked into the lowering. Only the warp
                        // form adds a word, so per-lane kernels keep the
                        // hashes (and service digests) they always had.
                        if reg.body_form(*body) == BodyForm::Warp {
                            h.u64(16);
                        }
                    }
                    ThreadOp::SimdReduce { trip, body, known, dst_reg } => {
                        h.u64(14);
                        h.u32(trip.0);
                        h.u32(body.0);
                        h.u64(*known as u64);
                        h.u64(*dst_reg as u64);
                    }
                    ThreadOp::ReduceAcross { src_reg, dst_arg, dst_idx } => {
                        h.u64(15);
                        h.u64(*src_reg as u64);
                        h.u64(*dst_arg as u64);
                        h.u64(*dst_idx);
                    }
                }
            }
        }
        fn team_ops(h: &mut Fnv, ops: &[TeamOp], reg: &Registry) {
            for op in ops {
                match op {
                    TeamOp::Seq(id) => {
                        h.u64(20);
                        h.u32(id.0);
                    }
                    TeamOp::Distribute { trip, sched, iv_reg, ops } => {
                        h.u64(21);
                        h.u32(trip.0);
                        sched_tag(h, *sched);
                        h.u64(*iv_reg as u64);
                        team_ops(h, ops, reg);
                        h.u64(22);
                    }
                    TeamOp::Parallel(p) => {
                        h.u64(23);
                        h.u64(mode_tag(p.desc.mode));
                        h.u32(p.desc.simdlen);
                        h.u64(p.known as u64);
                        h.u64(p.nregs as u64);
                        h.u64(p.stage_regs as u64);
                        thread_ops(h, &p.ops, reg);
                        h.u64(24);
                    }
                }
            }
        }
        let mut h = Fnv(OFFSET);
        h.u64(mode_tag(self.config.teams_mode));
        h.u32(self.config.num_teams);
        h.u32(self.config.threads_per_team);
        h.u32(self.config.sharing_space_bytes);
        // A constant word that keeps every plan hash, and the service
        // digests built on them, at their pinned values.
        h.u32(0);
        h.u64(self.plan.team_regs as u64);
        team_ops(&mut h, &self.plan.ops, &self.registry);
        h.u32(self.registry.cascade_len());
        h.0
    }

    /// Differential-oracle launch: run the tree walker, snapshot the memory
    /// image, rewind, run the bytecode engine, and assert both produced
    /// bit-identical [`LaunchStats`] (simtcheck violations included, in
    /// order), host-visible memory and, on a traced device, event traces.
    /// Panics on any divergence; returns the bytecode engine's result.
    pub fn launch_oracle(
        &self,
        dev: &mut Device,
        args: &[Slot],
    ) -> Result<LaunchStats, LaunchError> {
        let pre = dev.global.checkpoint();
        let tree = launch_target(dev, &self.config, &self.plan, &self.registry, args);
        let tree_trace = std::mem::take(&mut dev.trace);
        let post_tree = dev.global.checkpoint();
        dev.global.restore(&pre);
        let flat = self.launch_with_engine(dev, args, Engine::Bytecode);
        let post_flat = dev.global.checkpoint();
        match (&tree, &flat) {
            (Ok(t), Ok(f)) => {
                assert_eq!(t, f, "oracle: engines disagree on LaunchStats");
                assert_eq!(
                    (tree_trace.events(), tree_trace.dropped()),
                    (dev.trace.events(), dev.trace.dropped()),
                    "oracle: engines disagree on the event trace"
                );
                if let Some(diff) = post_tree.host_mismatch(&post_flat) {
                    panic!("oracle: engines disagree on memory image:\n{diff}");
                }
            }
            (Err(_), Err(_)) => {}
            _ => panic!(
                "oracle: engines disagree on launch outcome (tree: {tree:?}, bytecode: {flat:?})"
            ),
        }
        flat
    }

    /// Lint, then launch; panics with the rendered report if simtlint
    /// found `Error`-severity diagnostics, and panics on configuration
    /// errors (convenience for examples and benches). [`Self::launch`] is
    /// the ungated entry point.
    pub fn run(&self, dev: &mut Device, args: &[Slot]) -> LaunchStats {
        let report = self.lint(&dev.arch, args.len());
        if report.has_errors() {
            panic!("simtlint rejected the launch:\n{}", report.render("kernel"));
        }
        self.launch(dev, args).expect("kernel launch failed")
    }
}
