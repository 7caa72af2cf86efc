//! Spans recorded from outside the program, around the public calls into
//! each layer.
//!
//! A [`Tracer`] is either off (every helper just calls through) or on, in
//! which case each call is bracketed by a [`Span`]: layer, start, end,
//! parent span, op id and host thread. Spans stay in memory and are
//! written at exit as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` load. A layer's self time is its span's duration
//! minus the union of its children, so block spans that overlap on two
//! simulator threads are not counted twice.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use simt_omp_bench::report::{save_json, JsonRow, JsonValue};

/// The layers the traced pass attributes time to. Each is one public call
/// (or family of calls) of a library crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `*Workload::generate`, `*Dev::upload`.
    KernelsSetup,
    /// `ManagedDevice::map_to` / `map_from`.
    HostMap,
    /// Kernel builders (`spmv::build_three_level`, ...).
    CodegenBuild,
    /// `FlatProgram::lower`.
    CodegenLower,
    /// `FlatProgram::verify`.
    CodegenVerify,
    /// `CompiledKernel::lint`.
    CodegenLint,
    /// `omp_codegen::run_flat_block`.
    CodegenExecBlock,
    /// `omp_core::exec::run_target_block`.
    CoreExecBlock,
    /// `Device::launch`, self time only: validation, sanitizer attach and
    /// finish, merge, visit replay, makespan.
    SimLaunch,
    /// `Client::submit`.
    ServeSubmit,
    /// `queue::Admission::{submit, drain_round}` in the serial replay.
    ServeAdmit,
    /// `PlanCache::get_or_build` in the serial replay.
    ServePlan,
    /// `dispatch::execute_unit` in the serial replay.
    ServeExec,
    /// `LaunchService::shutdown` after `quiesce`.
    ServeFold,
    /// `resume` through `shutdown` of a live session.
    ServeRun,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::KernelsSetup,
        Layer::HostMap,
        Layer::CodegenBuild,
        Layer::CodegenLower,
        Layer::CodegenVerify,
        Layer::CodegenLint,
        Layer::CodegenExecBlock,
        Layer::CoreExecBlock,
        Layer::SimLaunch,
        Layer::ServeSubmit,
        Layer::ServeAdmit,
        Layer::ServePlan,
        Layer::ServeExec,
        Layer::ServeFold,
        Layer::ServeRun,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::KernelsSetup => "omp_kernels.setup",
            Layer::HostMap => "omp_host.map",
            Layer::CodegenBuild => "omp_codegen.build",
            Layer::CodegenLower => "omp_codegen.lower",
            Layer::CodegenVerify => "omp_codegen.verify",
            Layer::CodegenLint => "omp_codegen.lint",
            Layer::CodegenExecBlock => "omp_codegen.exec_block",
            Layer::CoreExecBlock => "omp_core.exec_block",
            Layer::SimLaunch => "gpu_sim.launch",
            Layer::ServeSubmit => "omp_serve.submit",
            Layer::ServeAdmit => "omp_serve.admit",
            Layer::ServePlan => "omp_serve.plan",
            Layer::ServeExec => "omp_serve.exec",
            Layer::ServeFold => "omp_serve.fold",
            Layer::ServeRun => "omp_serve.run",
        }
    }

    /// Dense index into per-layer tables.
    pub fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("every layer is listed in ALL")
    }
}

/// One recorded call. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<u32>,
    /// Operation the call served (a launch, a job, a set-up step).
    pub op: u32,
    /// Small host-thread id (see [`thread_id`]).
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Host-thread ids for the trace: the smallest id no live thread holds,
/// released when the thread exits. The simulator spawns fresh block
/// workers for every launch, so this keeps one track per concurrently
/// running thread instead of one per spawned thread.
struct TidSlot(u32);

static TID_SLOTS: Mutex<Vec<bool>> = Mutex::new(Vec::new());

impl Drop for TidSlot {
    fn drop(&mut self) {
        if let Ok(mut slots) = TID_SLOTS.lock() {
            slots[self.0 as usize] = false;
        }
    }
}

thread_local! {
    static TID: TidSlot = {
        let mut slots = TID_SLOTS.lock().expect("tid table poisoned by a panicking thread");
        let id = slots.iter().position(|used| !used).unwrap_or(slots.len());
        if id == slots.len() {
            slots.push(true);
        } else {
            slots[id] = true;
        }
        TidSlot(id as u32)
    };
}

/// The calling thread's trace id.
pub fn thread_id() -> u32 {
    TID.with(|t| t.0)
}

/// Records spans when on; calls straight through when off.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
    next_op: AtomicU32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, spans: Mutex::new(Vec::new()), next_op: AtomicU32::new(0) }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        epoch();
        Tracer { on: true, ..Tracer::off() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A fresh op id.
    pub fn next_op(&self) -> u32 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span list poisoned by a panicking thread");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Open a span now; `None` when off. Close it with [`Tracer::close`].
    pub fn open(&self, layer: Layer, op: u32) -> Option<u32> {
        self.on.then(|| {
            let t = now_ns();
            self.push(Span { layer, start: t, end: t, parent: None, op, tid: thread_id() })
        })
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, idx: Option<u32>) {
        if let Some(i) = idx {
            let t = now_ns();
            self.spans.lock().expect("span list poisoned by a panicking thread")[i as usize].end =
                t;
        }
    }

    /// Run `f` inside a span of `layer` whose parent is `parent`.
    pub fn child<R>(&self, layer: Layer, op: u32, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.push(Span { layer, start, end, parent, op, tid: thread_id() });
        r
    }

    /// Run `f` inside a top-level span of `layer`.
    pub fn span<R>(&self, layer: Layer, op: u32, f: impl FnOnce() -> R) -> R {
        self.child(layer, op, None, f)
    }

    /// Take every recorded span, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned by a panicking thread"))
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
/// Sorts `intervals` in place.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-span self time: duration minus the union of the span's children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start, s.end));
        }
    }
    spans.iter().zip(kids.iter_mut()).map(|(s, k)| s.dur() - union_len(k, s.start, s.end)).collect()
}

/// Calls and summed self time per layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls per layer, indexed by [`Layer::index`].
    pub calls: [u64; 15],
    /// Self time per layer, ns.
    pub self_ns: [u64; 15],
}

impl LayerTotals {
    /// Fold a span list in.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let i = s.layer.index();
            self.calls[i] += 1;
            self.self_ns[i] += own;
        }
    }
}

/// Most events written to one trace file; later spans are dropped from
/// the file (they still count in every metric).
pub const TRACE_FILE_CAP: usize = 50_000;

struct ChromeEvent<'a> {
    span: &'a Span,
}

impl JsonRow for ChromeEvent<'_> {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        let s = self.span;
        let name = s.layer.name();
        vec![
            ("name", JsonValue::Str(name.to_string())),
            ("cat", JsonValue::Str(name.split('.').next().unwrap_or(name).to_string())),
            ("ph", JsonValue::Str("X".to_string())),
            ("ts", JsonValue::F64(s.start as f64 / 1e3)),
            ("dur", JsonValue::F64(s.dur() as f64 / 1e3)),
            ("pid", JsonValue::U64(1)),
            ("tid", JsonValue::U64(s.tid as u64)),
            ("op", JsonValue::U64(s.op as u64)),
        ]
    }
}

/// Write spans as a Chrome trace-event array (`ph: "X"`, one `tid` per
/// host thread) to `<figures>/simbench_trace_<workload>.json`.
pub fn write_chrome_trace(workload: &str, spans: &[Span]) {
    let events: Vec<ChromeEvent<'_>> =
        spans.iter().take(TRACE_FILE_CAP).map(|span| ChromeEvent { span }).collect();
    save_json(&format!("simbench_trace_{workload}"), &events);
    if spans.len() > TRACE_FILE_CAP {
        eprintln!("simbench: trace file keeps the first {TRACE_FILE_CAP} of {} spans", spans.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { layer, start, end, parent, op: 0, tid: 0 }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 8), (0, 3), (2, 4), (10, 20)];
        assert_eq!(union_len(&mut v, 0, 100), 4 + 3 + 10);
        let mut v = vec![(0, 50), (40, 120)];
        assert_eq!(union_len(&mut v, 10, 100), 90);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // launch [0,100) with blocks [10,30) and [40,70); a grandchild
        // under the first block does not reduce the launch further.
        let spans = vec![
            span(Layer::SimLaunch, 0, 100, None),
            span(Layer::CodegenExecBlock, 10, 30, Some(0)),
            span(Layer::CodegenExecBlock, 40, 70, Some(0)),
            span(Layer::CodegenLint, 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_two_thread_children_once() {
        // Two sim threads: blocks [10,60) and [20,80) overlap on [20,60).
        let spans = vec![
            span(Layer::SimLaunch, 0, 100, None),
            span(Layer::CodegenExecBlock, 10, 60, Some(0)),
            span(Layer::CodegenExecBlock, 20, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 60]);
        let mut t = LayerTotals::default();
        t.add(&spans);
        assert_eq!(t.calls[Layer::SimLaunch.index()], 1);
        assert_eq!(t.self_ns[Layer::CodegenExecBlock.index()], 110);
        assert_eq!(t.self_ns[Layer::SimLaunch.index()], 30);
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let off = Tracer::off();
        assert_eq!(off.span(Layer::CodegenLint, 0, || 7), 7);
        assert!(off.open(Layer::SimLaunch, 0).is_none());
        assert!(off.take().is_empty());

        let on = Tracer::on();
        let l = on.open(Layer::SimLaunch, 3);
        on.child(Layer::CodegenExecBlock, 3, l, || ());
        on.close(l);
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end && spans[0].start <= spans[1].start);
        assert!(on.take().is_empty());
    }

    #[test]
    fn layer_names_are_unique() {
        for (i, a) in Layer::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            for b in &Layer::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
