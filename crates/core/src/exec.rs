//! The runtime interpreter: executes a [`TargetPlan`] on a simulated team
//! with the paper's generic / SPMD semantics.
//!
//! This is the Rust analog of the paper's modified DeviceRTL:
//!
//! * `__target_init` / `__target_deinit` (§5.2) — team setup, the generic
//!   team state machine (workers parked on a block barrier until the team
//!   main posts an outlined parallel region; a null post terminates);
//! * `__parallel` (Fig 3) — SPMD: every thread invokes the microtask;
//!   generic: the team main posts function + payload through the sharing
//!   space and releases the workers with a block barrier;
//! * `__simd` (Fig 4) — SPMD: each SIMD group's lanes run the workshare
//!   loop directly, one warp sync; generic: the SIMD main stages function,
//!   trip count and arguments into its group's sharing-space slice (global
//!   fallback when the slice is too small, §5.3.1), synchronizes the warp,
//!   the whole group runs the loop, and synchronizes again;
//! * `simdStateMachine` (Fig 6) — folded into the generic `__simd` path:
//!   workers fetch the posted state (charged shared-memory reads) before
//!   executing, and exit on the null post at the end of the parallel region;
//! * `__simd_loop` (Fig 8) — each lane starts at its `getSimdGroupId()` and
//!   strides by `getSimdGroupSize()`;
//! * the AMD fallback (§5.4.1) — on devices without warp-level barriers a
//!   generic-mode `simd` loop runs sequentially on the SIMD main.
//!
//! Loops execute in lockstep *rounds*: in round `r` every SIMD group of a
//! warp executes its `r`-th assigned iteration together, so a warp is busy
//! for the **longest** of its groups' iterations — short rows finish early
//! but their lanes stay occupied, which is exactly the idle-thread waste
//! the paper's group-size experiments (Fig 9) trade against parallelism.

use gpu_sim::mem::ptr::DPtr;
use gpu_sim::{Device, DispatchKind, LaunchConfig, LaunchError, LaunchStats, Slot, TeamCtx};

use crate::config::{ExecMode, KernelConfig, ParallelDesc};
use crate::dispatch::{
    validate_observed, validate_reg_writes, warp_body_on_lane, Registry, SimdFn,
};
use crate::mapping::SimdMapping;
use crate::plan::{
    ParallelOp, SeqId, TargetPlan, TeamOp, ThreadOp, TripId, Vars, VarsMut, WarpVars,
};
use crate::sharing::SharingSpace;
use crate::workshare::{assign, is_chunk_start};

/// Cycles charged to every warp by `__target_init` (team-state setup).
/// Public because the bytecode engine (`omp_codegen::bytecode`) must charge
/// the exact same constants to stay bit-identical with this interpreter.
pub const TARGET_INIT_CYCLES: u64 = 32;
/// Per-iteration loop bookkeeping (induction update + bounds check).
pub const LOOP_OVERHEAD_CYCLES: u64 = 2;
/// Per-level cost of the group reduction tree (shuffle + add).
pub const REDUCE_STEP_CYCLES: u64 = 4;

/// Launch a compiled target region on a device: builds the launch geometry
/// from `cfg` (extra team-main warp in generic mode, sharing space in
/// shared memory) and runs every team through the runtime interpreter.
pub fn launch_target(
    dev: &mut Device,
    cfg: &KernelConfig,
    plan: &TargetPlan,
    reg: &Registry,
    args: &[Slot],
) -> Result<LaunchStats, LaunchError> {
    let lcfg: LaunchConfig = cfg.launch_config(&dev.arch);
    dev.launch(&lcfg, |tc| run_target_block(tc, cfg, plan, reg, args))
}

/// Execute one team (thread block) of a target region. Exposed so tests can
/// drive single blocks directly.
pub fn run_target_block(
    tc: &mut TeamCtx<'_>,
    cfg: &KernelConfig,
    plan: &TargetPlan,
    reg: &Registry,
    args: &[Slot],
) {
    let ws = tc.warp_size();
    assert!(
        cfg.threads_per_team.is_multiple_of(ws),
        "threads per team must be a whole number of warps"
    );
    let worker_warps = cfg.threads_per_team / ws;
    let main_warp = match cfg.teams_mode {
        ExecMode::Generic => Some(worker_warps),
        ExecMode::Spmd => None,
    };
    assert_eq!(
        tc.nwarps(),
        worker_warps + main_warp.map_or(0, |_| 1),
        "launch geometry does not match the kernel config"
    );
    let sharing = SharingSpace::reserve(&mut tc.smem, cfg.sharing_space_bytes);

    // __target_init: every thread starts here (§5.2). In generic mode the
    // workers enter the team state machine (they will wait at the block
    // barrier of the first post); the main thread returns to user code.
    for w in 0..tc.nwarps() {
        tc.charge_alu(w, TARGET_INIT_CYCLES);
    }

    let mut interp = Interp { tc, cfg, reg, args, sharing, worker_warps, main_warp };
    let mut team_regs = vec![Slot(0); plan.team_regs];
    interp.run_team_ops(&plan.ops, &mut team_regs);

    // __target_deinit: in generic mode the main thread posts the
    // termination signal (null function pointer) and completes the final
    // barrier so workers exit their state machine.
    if let Some(mw) = interp.main_warp {
        interp.tc.charge_smem_ops(mw, 1);
        interp.arrive_all();
        interp.tc.block_barrier();
    }
}

struct Interp<'a, 'g> {
    tc: &'a mut TeamCtx<'g>,
    cfg: &'a KernelConfig,
    reg: &'a Registry,
    args: &'a [Slot],
    sharing: SharingSpace,
    worker_warps: u32,
    main_warp: Option<u32>,
}

impl<'a, 'g> Interp<'a, 'g> {
    fn ws(&self) -> u32 {
        self.tc.warp_size()
    }

    /// Sanitizer metadata: every warp of the block reaches the next block
    /// barrier (the runtime's barriers are always block-wide).
    fn arrive_all(&mut self) {
        for w in 0..self.tc.nwarps() {
            self.tc.barrier_arrive(w);
        }
    }

    /// The lane mask a warp's masked sync waits for: the union of the
    /// simdmasks of the given groups (all resident in one warp).
    fn simd_sync_mask(&self, m: &SimdMapping, wg: &[u32]) -> gpu_sim::LaneMask {
        wg.iter().fold(gpu_sim::LaneMask::EMPTY, |acc, &g| acc.or(m.simdmask(m.leader_tid(g))))
    }

    // ----- team level ------------------------------------------------

    fn run_team_ops(&mut self, ops: &[TeamOp], team_regs: &mut Vec<Slot>) {
        for op in ops {
            match op {
                TeamOp::Seq(id) => self.team_seq(*id, team_regs),
                TeamOp::Distribute { trip, sched, iv_reg, ops } => {
                    let trip = self.team_trip(*trip, team_regs);
                    let (who, n_who) = (self.tc.block_id as u64, self.tc.num_blocks as u64);
                    let mut r = 0u64;
                    while let Some(iv) = assign(*sched, trip, who, n_who, r) {
                        if is_chunk_start(*sched, r) {
                            let c = self.tc.cost().atomic_cycles;
                            self.charge_team_cohort(c);
                        }
                        self.charge_team_cohort(LOOP_OVERHEAD_CYCLES);
                        team_regs[*iv_reg] = Slot::from_u64(iv);
                        self.run_team_ops(ops, team_regs);
                        r += 1;
                    }
                }
                TeamOp::Parallel(p) => self.run_parallel(p, team_regs),
            }
        }
    }

    /// Charge the warps executing team-sequential code: only the main warp
    /// in generic mode, every worker warp (redundantly) in SPMD mode.
    fn charge_team_cohort(&mut self, cycles: u64) {
        match self.main_warp {
            Some(mw) => self.tc.charge_alu(mw, cycles),
            None => {
                for w in 0..self.worker_warps {
                    self.tc.charge_alu(w, cycles);
                }
            }
        }
    }

    fn team_seq(&mut self, id: SeqId, team_regs: &mut Vec<Slot>) {
        let fp = if self.tc.sanitizing() { self.reg.seq_footprint(id).cloned() } else { None };
        let before = fp.as_ref().map(|_| team_regs.clone());
        if fp.is_some() {
            let _ = self.tc.take_observed();
        }
        let f = self.reg.get_seq(id);
        let args = self.args;
        match self.main_warp {
            Some(mw) => {
                self.tc.run_lanes(mw, &[0], |lane, _| {
                    let mut vm = VarsMut { args, outer: &[], regs: team_regs };
                    f(lane, &mut vm);
                });
            }
            None => {
                // SPMD: every thread executes the sequential chunk
                // redundantly (legal only when side-effect free, which the
                // codegen analysis guarantees). Thread (0,0) commits the
                // register updates; the rest compute into scratch.
                let snap = team_regs.clone();
                let mut scratch = snap.clone();
                let lanes: Vec<u32> = (0..self.ws()).collect();
                for w in 0..self.worker_warps {
                    self.tc.run_lanes(w, &lanes, |lane, l| {
                        if w == 0 && l == 0 {
                            let mut vm = VarsMut { args, outer: &[], regs: team_regs };
                            f(lane, &mut vm);
                        } else {
                            scratch.copy_from_slice(&snap);
                            let mut vm = VarsMut { args, outer: &[], regs: &mut scratch };
                            f(lane, &mut vm);
                        }
                    });
                }
            }
        }
        if let (Some(fp), Some(before)) = (fp, before) {
            let obs = self.tc.take_observed();
            let func = format!("team seq #{}", id.0);
            validate_reg_writes(self.tc, &func, &fp, &before, team_regs);
            validate_observed(self.tc, &func, &fp, obs);
        }
    }

    fn team_trip(&mut self, id: TripId, team_regs: &[Slot]) -> u64 {
        let f = self.reg.get_trip(id);
        let args = self.args;
        let mut out = 0u64;
        match self.main_warp {
            Some(mw) => {
                self.tc.run_lanes(mw, &[0], |lane, _| {
                    out = f(lane, &Vars { args, outer: &[], regs: team_regs });
                });
            }
            None => {
                let lanes: Vec<u32> = (0..self.ws()).collect();
                for w in 0..self.worker_warps {
                    self.tc.run_lanes(w, &lanes, |lane, _| {
                        out = f(lane, &Vars { args, outer: &[], regs: team_regs });
                    });
                }
            }
        }
        out
    }

    // ----- parallel regions (Fig 3) -----------------------------------

    fn run_parallel(&mut self, op: &ParallelOp, team_regs: &[Slot]) {
        let desc = op.desc.normalized(self.tc.arch());
        let m = SimdMapping::new(self.cfg.threads_per_team, desc.simdlen, self.ws());
        self.sharing.configure_groups(m.num_groups());
        self.tc.counters.parallel_regions += 1;
        if self.tc.sanitizing() {
            self.tc.declare_sharing(self.sharing.declared_layout(desc.simdlen));
        }

        // Reaching __parallel (§5.2): in generic team mode only the main
        // thread arrives; it posts the outlined function and payload, then
        // the block barrier releases the workers, which fetch and dispatch.
        // In SPMD mode every thread arrives and dispatches locally.
        let post_slots = crate::sharing::post_slots(self.args.len(), team_regs.len()) as u64;
        // The parallel-region outline itself is not a registry entry; when
        // the front end knows it, it compiles to the *first* compare of the
        // region's dispatch cascade (position 0), otherwise to an indirect
        // call (§5.5).
        let region_kind =
            if op.known { DispatchKind::Cascade { position: 0 } } else { DispatchKind::Indirect };
        match self.main_warp {
            Some(mw) => {
                self.tc.counters.state_machine_posts += 1;
                if self.sharing.team_fits(post_slots as u32) {
                    self.tc.charge_smem_ops(mw, post_slots);
                } else {
                    // Team payload overflow: global allocation, coarse
                    // per-slot traffic charge.
                    self.tc.charge_global_alloc(mw);
                    self.tc.charge_alu(mw, post_slots * 8);
                }
                self.arrive_all();
                self.tc.block_barrier();
                for w in 0..self.worker_warps {
                    self.tc.charge_alu(w, 2 * self.tc.cost().handshake_cycles);
                    self.tc.charge_smem_ops(w, post_slots);
                    self.tc.charge_dispatch(w, region_kind);
                }
            }
            None => {
                for w in 0..self.worker_warps {
                    self.tc.charge_dispatch(w, region_kind);
                }
            }
        }

        let ng = m.num_groups() as usize;
        let mut regs: Vec<Vec<Slot>> = vec![vec![Slot(0); op.nregs]; ng];
        let active: Vec<u32> = (0..m.num_groups()).collect();
        let mut fallback: Vec<Option<DPtr<u64>>> = vec![None; ng];

        self.run_thread_ops(
            &op.ops,
            &desc,
            &m,
            &mut regs,
            &active,
            team_regs,
            &mut fallback,
            op.stage_regs,
        );

        // End of the parallel region. Generic SIMD mode: every SIMD main
        // posts the termination signal (null function pointer) and
        // synchronizes its group so workers exit the SIMD state machine
        // (Fig 3 / Fig 6). Legalized regions never started the state
        // machine, so there is nothing to terminate.
        if desc.mode == ExecMode::Generic && !desc.sequential_simd(self.tc.arch()) {
            for w in 0..self.worker_warps {
                self.tc.charge_smem_ops(w, 1);
                self.tc.warp_sync(w);
            }
        }
        // Sharing-space global fallbacks are "deallocated at the end of the
        // parallel region" (§5.3.1).
        for f in fallback.into_iter().flatten() {
            self.tc.free_shared_fallback(f);
        }
        // Implicit join barrier at the end of a parallel region; in generic
        // team mode this is also where workers re-enter the team state
        // machine (Fig 5).
        self.arrive_all();
        self.tc.block_barrier();
    }

    // ----- thread level ------------------------------------------------

    /// Warp → active groups in that warp.
    fn groups_by_warp(&self, m: &SimdMapping, active: &[u32]) -> Vec<(u32, Vec<u32>)> {
        let gpw = m.groups_per_warp();
        let mut per: Vec<Vec<u32>> = vec![Vec::new(); m.num_warps() as usize];
        for &g in active {
            per[(g / gpw) as usize].push(g);
        }
        per.into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(w, v)| (w as u32, v))
            .collect()
    }

    /// Lane ids (within the warp) of the cohort that executes thread-level
    /// code: SIMD mains in generic mode, all group lanes in SPMD mode.
    fn cohort_lanes(&self, m: &SimdMapping, desc: &ParallelDesc, wg: &[u32]) -> Vec<u32> {
        let mut lanes = Vec::new();
        for &g in wg {
            let leader = m.lane_of(m.leader_tid(g));
            match desc.mode {
                ExecMode::Generic => lanes.push(leader),
                ExecMode::Spmd => lanes.extend(leader..leader + m.simd_group_size()),
            }
        }
        lanes
    }

    /// All lanes of the given groups (for simd loop execution).
    fn group_lanes(&self, m: &SimdMapping, wg: &[u32]) -> Vec<u32> {
        let mut lanes = Vec::new();
        for &g in wg {
            let leader = m.lane_of(m.leader_tid(g));
            lanes.extend(leader..leader + m.simd_group_size());
        }
        lanes
    }

    #[allow(clippy::too_many_arguments)]
    fn run_thread_ops(
        &mut self,
        ops: &[ThreadOp],
        desc: &ParallelDesc,
        m: &SimdMapping,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
        fallback: &mut [Option<DPtr<u64>>],
        stage_regs: usize,
    ) {
        for op in ops {
            match op {
                ThreadOp::Seq(id) => self.thread_seq(*id, desc, m, regs, active, team_regs),
                ThreadOp::For { trip, sched, iv_reg, across_teams, ops } => {
                    let trips = self.thread_trips(*trip, desc, m, regs, active, team_regs);
                    // A combined `teams distribute parallel for` shares the
                    // iteration space across every team's groups; a plain
                    // `for` is team-local (each team covers all iterations).
                    let (who_base, n_who) = if *across_teams {
                        (
                            self.tc.block_id as u64 * m.num_groups() as u64,
                            m.num_groups() as u64 * self.tc.num_blocks as u64,
                        )
                    } else {
                        (0, m.num_groups() as u64)
                    };
                    let mut r = 0u64;
                    let mut sub: Vec<u32> = Vec::new();
                    loop {
                        sub.clear();
                        for &g in active {
                            if let Some(iv) =
                                assign(*sched, trips[g as usize], who_base + g as u64, n_who, r)
                            {
                                regs[g as usize][*iv_reg] = Slot::from_u64(iv);
                                sub.push(g);
                            }
                        }
                        if sub.is_empty() {
                            break;
                        }
                        // Loop bookkeeping on the warps that continue.
                        let atomic = if is_chunk_start(*sched, r) {
                            self.tc.cost().atomic_cycles
                        } else {
                            0
                        };
                        for (w, _) in self.groups_by_warp(m, &sub) {
                            self.tc.charge_alu(w, LOOP_OVERHEAD_CYCLES + atomic);
                        }
                        let sub_now = std::mem::take(&mut sub);
                        self.run_thread_ops(
                            ops, desc, m, regs, &sub_now, team_regs, fallback, stage_regs,
                        );
                        sub = sub_now;
                        r += 1;
                    }
                }
                ThreadOp::Simd { trip, body, known } => {
                    let trips = self.thread_trips(*trip, desc, m, regs, active, team_regs);
                    self.run_simd(
                        &trips,
                        desc,
                        m,
                        regs,
                        active,
                        team_regs,
                        fallback,
                        SimdBody::Plain(*body),
                        *known,
                        0,
                        stage_regs,
                    );
                }
                ThreadOp::SimdReduce { trip, body, known, dst_reg } => {
                    let trips = self.thread_trips(*trip, desc, m, regs, active, team_regs);
                    self.run_simd(
                        &trips,
                        desc,
                        m,
                        regs,
                        active,
                        team_regs,
                        fallback,
                        SimdBody::Reduce(*body),
                        *known,
                        *dst_reg,
                        stage_regs,
                    );
                }
                ThreadOp::ReduceAcross { src_reg, dst_arg, dst_idx } => {
                    self.reduce_across(m, regs, active, *src_reg, *dst_arg, *dst_idx);
                }
            }
        }
    }

    fn thread_seq(
        &mut self,
        id: SeqId,
        desc: &ParallelDesc,
        m: &SimdMapping,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
    ) {
        let fp = if self.tc.sanitizing() { self.reg.seq_footprint(id).cloned() } else { None };
        let before: Option<Vec<Vec<Slot>>> =
            fp.as_ref().map(|_| active.iter().map(|&g| regs[g as usize].clone()).collect());
        if fp.is_some() {
            let _ = self.tc.take_observed();
        }
        let f = self.reg.get_seq(id);
        let args = self.args;
        let ws = self.ws();
        let mut scratch: Vec<Slot> = Vec::new();
        for (w, wg) in self.groups_by_warp(m, active) {
            let lanes = self.cohort_lanes(m, desc, &wg);
            self.tc.run_lanes(w, &lanes, |lane, l| {
                let tid = w * ws + l;
                let g = m.simd_group(tid) as usize;
                if m.is_simd_group_leader(tid) {
                    let mut vm = VarsMut { args, outer: team_regs, regs: &mut regs[g] };
                    f(lane, &mut vm);
                } else {
                    scratch.clear();
                    scratch.extend_from_slice(&regs[g]);
                    let mut vm = VarsMut { args, outer: team_regs, regs: &mut scratch };
                    f(lane, &mut vm);
                }
            });
        }
        if let (Some(fp), Some(before)) = (fp, before) {
            let obs = self.tc.take_observed();
            let func = format!("seq #{}", id.0);
            for (k, &g) in active.iter().enumerate() {
                validate_reg_writes(self.tc, &func, &fp, &before[k], &regs[g as usize]);
            }
            validate_observed(self.tc, &func, &fp, obs);
        }
    }

    /// Evaluate a thread-scope trip count for every active group; the
    /// cohort (mains or whole groups) is charged for the evaluation.
    fn thread_trips(
        &mut self,
        id: TripId,
        desc: &ParallelDesc,
        m: &SimdMapping,
        regs: &[Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
    ) -> Vec<u64> {
        let f = self.reg.get_trip(id);
        let args = self.args;
        let ws = self.ws();
        let mut trips = vec![0u64; m.num_groups() as usize];
        for (w, wg) in self.groups_by_warp(m, active) {
            let lanes = self.cohort_lanes(m, desc, &wg);
            self.tc.run_lanes(w, &lanes, |lane, l| {
                let tid = w * ws + l;
                let g = m.simd_group(tid) as usize;
                let v = f(lane, &Vars { args, outer: team_regs, regs: &regs[g] });
                if m.is_simd_group_leader(tid) {
                    trips[g] = v;
                }
            });
        }
        trips
    }

    /// §7 extension: combine per-group partials across the team and
    /// atomically accumulate the team total into global memory.
    ///
    /// Cost model: every SIMD main writes its partial into the team slice
    /// of the sharing space (one shared-memory op per warp, lockstep), a
    /// block barrier joins the team, warp 0 tree-combines the partials
    /// (log₂(groups) shuffle steps) and its lane 0 performs one atomic add.
    fn reduce_across(
        &mut self,
        m: &SimdMapping,
        regs: &[Vec<Slot>],
        active: &[u32],
        src_reg: usize,
        dst_arg: usize,
        dst_idx: u64,
    ) {
        // Only *active* groups contribute: in the ragged final round of an
        // enclosing `for`, exhausted groups hold stale partials.
        let total: f64 = active.iter().map(|&g| regs[g as usize][src_reg].as_f64()).sum();
        let _ = m;
        // Leaders stage their partials (lockstep per warp).
        for w in 0..self.worker_warps {
            self.tc.charge_smem_ops(w, 1);
        }
        self.arrive_all();
        self.tc.block_barrier();
        // Warp 0 combines: read partials + log2(groups) combine steps.
        let ng = m.num_groups() as u64;
        self.tc.charge_smem_ops(0, ng.div_ceil(self.ws() as u64));
        let levels = 64 - ng.saturating_sub(1).leading_zeros() as u64;
        self.tc.charge_alu(0, levels * REDUCE_STEP_CYCLES);
        // Lane 0 publishes the team total with a single atomic.
        let args = self.args;
        self.tc.run_lanes(0, &[0], |lane, _| {
            let dst = args[dst_arg].as_ptr::<f64>();
            lane.atomic_add_f64(dst, dst_idx, total);
        });
        self.arrive_all();
        self.tc.block_barrier();
    }

    // ----- simd loops (Fig 4 / Fig 6 / Fig 8) --------------------------

    #[allow(clippy::too_many_arguments)]
    fn run_simd(
        &mut self,
        trips: &[u64],
        desc: &ParallelDesc,
        m: &SimdMapping,
        regs: &mut [Vec<Slot>],
        active: &[u32],
        team_regs: &[Slot],
        fallback: &mut [Option<DPtr<u64>>],
        body: SimdBody,
        known: bool,
        dst_reg: usize,
        stage_regs: usize,
    ) {
        let args = self.args;
        let ws = self.ws();
        let gs = m.simd_group_size() as u64;
        let body_tag = match body {
            SimdBody::Plain(b) => b.0,
            SimdBody::Reduce(b) => b.0,
        };
        let is_reduce = matches!(body, SimdBody::Reduce(_));
        let mut partials = vec![0.0f64; m.num_groups() as usize];
        // §5.5: a known region dispatches through the module's if-cascade
        // and pays for its position in the linear compare chain; everything
        // else (plan marked unknown, or an extern registry entry) takes the
        // indirect-call fallback.
        let registry_pos = match body {
            SimdBody::Plain(b) => self.reg.get_body(b).1,
            SimdBody::Reduce(b) => self.reg.get_red(b).1,
        };
        let kind = match registry_pos {
            Some(position) if known => DispatchKind::Cascade { position },
            _ => DispatchKind::Indirect,
        };

        for (w, wg) in self.groups_by_warp(m, active) {
            self.tc.counters.simd_loops += wg.len() as u64;

            // Group size 1: the simd level is unused — the loop compiles to
            // a plain sequential loop in each thread with no SIMD state
            // machine, no dispatch and no warp synchronization (§5.3.1/§5.4:
            // "all simd loops would execute sequentially" and the runtime
            // "behaves identically to the current implementation").
            if gs == 1 {
                let lanes = self.group_lanes(m, &wg);
                self.exec_loop_lanes(
                    w,
                    &lanes,
                    m,
                    trips,
                    regs,
                    team_regs,
                    &mut partials,
                    body,
                    gs,
                    Fetch::None,
                );
                if is_reduce {
                    // Single-lane groups: the "reduction" is the lane's own
                    // accumulator; no tree needed.
                }
                continue;
            }

            match desc.mode {
                ExecMode::Spmd => {
                    // Fig 4, SPMD branch: everything is thread-local; the
                    // group's lanes run the workshare loop, then one warp
                    // sync.
                    self.tc.charge_dispatch(w, kind);
                    let lanes = self.group_lanes(m, &wg);
                    self.exec_loop_lanes(
                        w,
                        &lanes,
                        m,
                        trips,
                        regs,
                        team_regs,
                        &mut partials,
                        body,
                        gs,
                        Fetch::None,
                    );
                    let mask = self.simd_sync_mask(m, &wg);
                    self.tc.warp_sync_masked(w, mask, mask);
                }
                ExecMode::Generic if desc.sequential_simd(self.tc.arch()) => {
                    // Sequential-simd legalization (§5.4.1): no
                    // wavefront-level barrier on this arch, so the simd
                    // loop runs sequentially on each SIMD main.
                    self.tc.counters.sequential_simd_fallbacks += wg.len() as u64;
                    let leaders: Vec<u32> =
                        wg.iter().map(|&g| m.lane_of(m.leader_tid(g))).collect();
                    // A body that declares its own barrier can never
                    // complete it here: the legalization runs leaders only,
                    // so the rest of the group never arrives. This is the
                    // runtime counterpart of simtlint's E-ARCH.
                    let declares_barriers = match body {
                        SimdBody::Plain(b) => {
                            self.reg.body_footprint(b).is_some_and(|fp| fp.barriers)
                        }
                        SimdBody::Reduce(b) => {
                            self.reg.red_footprint(b).is_some_and(|fp| fp.barriers)
                        }
                    };
                    if declares_barriers && self.tc.sanitizing() {
                        let missing: Vec<u32> = self
                            .group_lanes(m, &wg)
                            .into_iter()
                            .filter(|l| !leaders.contains(l))
                            .collect();
                        self.tc.report_violation(gpu_sim::Violation::BarrierDivergence {
                            block: self.tc.block_id,
                            kind: gpu_sim::sanitize::BarrierKind::WarpSync { warp: w },
                            missing,
                        });
                    }
                    // The leader replays the iterations in the order the
                    // state machine would have issued them (each virtual
                    // lane's strided walk, lanes in ascending order), so
                    // floating-point accumulation — and therefore the
                    // host-visible bits — match the warp-synchronous
                    // backends exactly.
                    match body {
                        SimdBody::Plain(b) => {
                            let (f, _) = self.reg.get_body(b);
                            self.tc.run_lanes(w, &leaders, |lane, l| {
                                let g = m.simd_group(w * ws + l) as usize;
                                for gid in 0..gs {
                                    run_body_lane(
                                        f,
                                        lane,
                                        gid..trips[g],
                                        gs,
                                        args,
                                        team_regs,
                                        regs,
                                        g,
                                    );
                                }
                            });
                        }
                        SimdBody::Reduce(b) => {
                            let (f, _) = self.reg.get_red(b);
                            self.tc.run_lanes(w, &leaders, |lane, l| {
                                let g = m.simd_group(w * ws + l) as usize;
                                let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                                for gid in 0..gs {
                                    let mut iv = gid;
                                    while iv < trips[g] {
                                        partials[g] += f(lane, iv, &vars);
                                        iv += gs;
                                    }
                                }
                            });
                        }
                    }
                }
                ExecMode::Generic => {
                    // Fig 4, generic branch: the SIMD main stages the
                    // function pointer, trip count and every argument into
                    // its group's sharing slice (or a global fallback,
                    // §5.3.1), synchronizes the warp (releasing Fig 6's
                    // state machine), the whole group runs the loop, and a
                    // final warp sync joins it.
                    let stage_slots = crate::sharing::stage_slots(stage_regs);
                    self.tc.counters.state_machine_posts += wg.len() as u64;
                    self.tc.counters.staged_slots += wg.len() as u64 * stage_slots as u64;
                    let fits = self.sharing.group_fits(stage_slots);
                    let leaders: Vec<u32> =
                        wg.iter().map(|&g| m.lane_of(m.leader_tid(g))).collect();

                    if fits {
                        // setSimdFn + __begin_sharing_simd_args (Fig 4):
                        // leaders of all groups in the warp post in
                        // lockstep through shared memory.
                        let sharing = &self.sharing;
                        self.tc.run_lanes(w, &leaders, |lane, l| {
                            let g = m.simd_group(w * ws + l);
                            let (off, _) = sharing.group_slice(g);
                            lane.smem_write_slot(off, 0, Slot::from_u32(body_tag));
                            lane.smem_write_slot(off, 1, Slot::from_u64(trips[g as usize]));
                            for (k, s) in regs[g as usize][..stage_regs].iter().enumerate() {
                                lane.smem_write_slot(off, 2 + k as u32, *s);
                            }
                        });
                    } else {
                        // Global fallback: one allocation per group per
                        // parallel region, then staged through global
                        // memory (fully charged loads/stores).
                        for &g in &wg {
                            if fallback[g as usize].is_none() {
                                let seg =
                                    self.tc.alloc_shared_fallback::<u64>(w, stage_slots as usize);
                                fallback[g as usize] = Some(seg);
                            }
                        }
                        self.tc.run_lanes(w, &leaders, |lane, l| {
                            let g = m.simd_group(w * ws + l) as usize;
                            let seg = fallback[g].expect("fallback allocated");
                            lane.write(seg, 0, body_tag as u64);
                            lane.write(seg, 1, trips[g]);
                            for (k, s) in regs[g][..stage_regs].iter().enumerate() {
                                lane.write(seg, 2 + k as u64, s.0);
                            }
                        });
                    }

                    let mask = self.simd_sync_mask(m, &wg);
                    self.tc.charge_alu(w, self.tc.cost().handshake_cycles);
                    self.tc.warp_sync_masked(w, mask, mask);
                    self.tc.charge_dispatch(w, kind);
                    let lanes = self.group_lanes(m, &wg);
                    let fetch = if fits {
                        Fetch::Smem(stage_slots)
                    } else {
                        Fetch::Global(stage_slots, fallback)
                    };
                    self.exec_loop_lanes(
                        w,
                        &lanes,
                        m,
                        trips,
                        regs,
                        team_regs,
                        &mut partials,
                        body,
                        gs,
                        fetch,
                    );
                    self.tc.warp_sync_masked(w, mask, mask);
                }
            }

            // Group reduction tree: log2(group size) shuffle+add steps.
            if is_reduce && gs > 1 {
                let levels = 64 - (gs - 1).leading_zeros() as u64;
                self.tc.charge_alu(w, levels * REDUCE_STEP_CYCLES);
            }
        }

        if is_reduce {
            for &g in active {
                regs[g as usize][dst_reg] = Slot::from_f64(partials[g as usize]);
            }
        }
    }

    /// Execute the `__simd_loop` of Fig 8 for all `lanes` of warp `w`:
    /// every lane starts at its group id and strides by the group size.
    /// Workers in generic mode first fetch the staged state (Fig 6:
    /// `getSimdFn` + `getSimdArgs`), which is charged as real traffic.
    #[allow(clippy::too_many_arguments)]
    fn exec_loop_lanes(
        &mut self,
        w: u32,
        lanes: &[u32],
        m: &SimdMapping,
        trips: &[u64],
        regs: &[Vec<Slot>],
        team_regs: &[Slot],
        partials: &mut [f64],
        body: SimdBody,
        gs: u64,
        fetch: Fetch<'_>,
    ) {
        let fp = if self.tc.sanitizing() {
            match body {
                SimdBody::Plain(b) => self.reg.body_footprint(b).cloned(),
                SimdBody::Reduce(b) => self.reg.red_footprint(b).cloned(),
            }
        } else {
            None
        };
        if fp.is_some() {
            let _ = self.tc.take_observed();
        }
        let args = self.args;
        let ws = self.ws();
        let sharing = &self.sharing;
        match body {
            SimdBody::Plain(b) => {
                let (f, _) = self.reg.get_body(b);
                self.tc.run_lanes(w, lanes, |lane, l| {
                    let tid = w * ws + l;
                    let g = m.simd_group(tid) as usize;
                    let gid = m.simd_group_id(tid) as u64;
                    if gid != 0 {
                        fetch.fetch(lane, sharing, g as u32);
                    }
                    run_body_lane(f, lane, gid..trips[g], gs, args, team_regs, regs, g);
                });
            }
            SimdBody::Reduce(b) => {
                let (f, _) = self.reg.get_red(b);
                self.tc.run_lanes(w, lanes, |lane, l| {
                    let tid = w * ws + l;
                    let g = m.simd_group(tid) as usize;
                    let gid = m.simd_group_id(tid) as u64;
                    if gid != 0 {
                        fetch.fetch(lane, sharing, g as u32);
                    }
                    let vars = Vars { args, outer: team_regs, regs: &regs[g] };
                    let mut iv = gid;
                    while iv < trips[g] {
                        partials[g] += f(lane, iv, &vars);
                        iv += gs;
                    }
                });
            }
        }
        if let Some(fp) = fp {
            let obs = self.tc.take_observed();
            let func = match body {
                SimdBody::Plain(b) => format!("simd body #{}", b.0),
                SimdBody::Reduce(b) => format!("reduce body #{}", b.0),
            };
            validate_observed(self.tc, &func, &fp, obs);
        }
    }
}

/// Run iterations `ivs` (stepping by `stride`) of a simd body on one lane
/// of group `g`. A warp-form body runs in lane mode: the tree walker never
/// issues warp instructions, which keeps it an independent oracle for the
/// bytecode engine's warp mode.
#[allow(clippy::too_many_arguments)]
fn run_body_lane(
    f: &SimdFn,
    lane: &mut gpu_sim::Lane<'_, '_>,
    ivs: std::ops::Range<u64>,
    stride: u64,
    args: &[Slot],
    outer: &[Slot],
    regs: &[Vec<Slot>],
    g: usize,
) {
    match f {
        SimdFn::Lane(f) => {
            let vars = Vars { args, outer, regs: &regs[g] };
            let mut iv = ivs.start;
            while iv < ivs.end {
                f(lane, iv, &vars);
                iv += stride;
            }
        }
        SimdFn::Warp(f) => {
            let group = [g as u32];
            let vars = WarpVars::new(args, outer, regs, &group);
            let mut iv = ivs.start;
            while iv < ivs.end {
                warp_body_on_lane(f, lane, iv, &vars);
                iv += stride;
            }
        }
    }
}

/// Which flavor of simd body is executing.
#[derive(Clone, Copy)]
enum SimdBody {
    Plain(crate::plan::BodyId),
    Reduce(crate::plan::RedId),
}

/// How simd workers fetch the staged loop state (Fig 6).
enum Fetch<'f> {
    /// SPMD mode: state is thread-local, nothing to fetch.
    None,
    /// Generic mode, staged in the group's sharing slice: read that many
    /// shared-memory slots.
    Smem(u32),
    /// Generic mode, sharing slice overflowed: read from the group's
    /// global fallback allocation.
    Global(u32, &'f [Option<DPtr<u64>>]),
}

impl Fetch<'_> {
    fn fetch(&self, lane: &mut gpu_sim::Lane<'_, '_>, sharing: &SharingSpace, g: u32) {
        match self {
            Fetch::None => {}
            Fetch::Smem(slots) => {
                let (off, _) = sharing.group_slice(g);
                for k in 0..*slots {
                    lane.smem_read_slot(off, k);
                }
            }
            Fetch::Global(slots, fallback) => {
                if let Some(seg) = fallback[g as usize] {
                    for k in 0..*slots {
                        lane.read(seg, k as u64);
                    }
                }
            }
        }
    }
}
