//! Turn measured passes into metric rows.

use simt_omp_bench::report::{JsonRow, JsonValue};

use crate::stats::{median, nearest_rank, tail_percentile, Better, E2E};
use crate::trace::{union_len, Layer, Span};
use crate::work::{Pass, Round};

/// What a row is: an end-to-end metric, a per-layer metric (both listed in
/// `BENCHMARK.json`), or information printed beside them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end, measured untraced.
    E2e,
    /// Per layer, from the traced pass.
    Layer,
    /// Printed and saved, not listed in `BENCHMARK.json`.
    Info,
}

impl Kind {
    /// Protocol tag.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
            Kind::Info => "info",
        }
    }

    /// Parse a protocol tag.
    pub fn from_tag(tag: &str) -> Option<Kind> {
        [Kind::E2e, Kind::Layer, Kind::Info].into_iter().find(|k| k.tag() == tag)
    }
}

/// One `{workload, metric, value, unit}` row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name (`header` for run configuration).
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Row kind.
    pub kind: Kind,
}

impl JsonRow for Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("workload", JsonValue::Str(self.workload.clone())),
            ("metric", JsonValue::Str(self.metric.clone())),
            ("value", JsonValue::F64(self.value)),
            ("unit", JsonValue::Str(self.unit.clone())),
        ]
    }
}

/// Rows of one workload, built up metric by metric.
pub struct Rows {
    workload: String,
    /// The rows so far.
    pub rows: Vec<Row>,
}

impl Rows {
    /// Empty row set for `workload`.
    pub fn new(workload: &str) -> Rows {
        Rows { workload: workload.to_string(), rows: Vec::new() }
    }

    /// Append a row.
    pub fn push(&mut self, kind: Kind, metric: impl Into<String>, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push(Row {
            workload: self.workload.clone(),
            metric: metric.into(),
            value,
            unit: unit.to_string(),
            kind,
        });
    }
}

fn rate(num: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        num as f64 / secs
    } else {
        0.0
    }
}

/// Median of a per-round extra, if any round set it.
fn extra(rounds: &[Round], name: &str) -> Option<f64> {
    let v: Vec<f64> = rounds.iter().filter_map(|r| r.extra(name)).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// Timed-phase seconds of a round assembled from each op's fastest time
/// over `rounds`, which all run the same ops; the fastest whole round if
/// their op counts differ.
pub fn fastest_timed_s(rounds: &[Round]) -> f64 {
    let n = rounds[0].op_s.len();
    let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    if rounds.iter().any(|r| r.op_s.len() != n) {
        return fastest(&mut rounds.iter().map(Round::timed_s));
    }
    (0..n).map(|i| fastest(&mut rounds.iter().map(|r| r.op_s[i]))).sum()
}

/// The end-to-end metrics of an untraced pass, plus information rows.
/// Rates divide one round's work (identical in every round) by
/// [`fastest_timed_s`]; `setup_s` is the median over rounds.
pub fn e2e_rows(out: &mut Rows, rounds: &[Round]) {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (work, timed) = (&rounds[0], fastest_timed_s(rounds));
    let mut vt = work.vt.clone();
    vt.sort_unstable();
    let pct = |p| if vt.is_empty() { 0.0 } else { nearest_rank(&vt, p) as f64 };
    for m in E2E {
        let value = match m.name {
            "setup_s" => per_round(&|r| r.setup_s),
            "sim_cycles_per_s" => rate(work.cycles, timed),
            "launches_per_s" => rate(work.launches, timed),
            "jobs_per_s" => rate(work.jobs, timed),
            "p50_vt" => pct(50.0),
            "p99_vt" => pct(99.0),
            "peak_rss_mb" => per_round(&|r| r.peak_rss_mb),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        out.push(Kind::E2e, m.name, value, m.unit);
    }
    out.push(Kind::Info, "rounds", rounds.len() as f64, "count");
    out.push(Kind::Info, "timed_s", per_round(&Round::timed_s), "s");
    out.push(Kind::Info, "fastest_timed_s", timed, "s");
    let info = ["paper_err", "a100_load", "mi100_load", "fallback_growth"];
    for (name, unit) in info.into_iter().zip(["ratio"; 4]) {
        if let Some(v) = extra(rounds, name) {
            out.push(Kind::Info, name, v, unit);
        }
    }
}

/// Names, units and directions of the per-layer metrics, in report
/// order. Every workload reports all of them; a layer a workload never
/// calls reads 0.
pub fn layer_metric_names() -> Vec<(String, &'static str, Better)> {
    let mut v = Vec::new();
    for l in Layer::ALL {
        v.push((format!("{}.calls", l.name()), "count", Better::Lower));
        v.push((format!("{}.self_s", l.name()), "s", Better::Lower));
        v.push((format!("{}.share", l.name()), "ratio", Better::Lower));
    }
    for (name, unit, better) in [
        ("unattributed.share", "ratio", Better::Lower),
        ("trace_overhead", "ratio", Better::Lower),
        ("gpu_sim.launch_us_p50", "us", Better::Lower),
        ("gpu_sim.launch_us_p99", "us", Better::Lower),
        ("gpu_sim.launch_samples", "count", Better::Higher),
        ("gpu_sim.parallel_eff", "ratio", Better::Higher),
        ("gpu_sim.fallbacks_per_launch", "count", Better::Lower),
        ("gpu_sim.fallback_growth", "ratio", Better::Lower),
        ("omp_serve.plan_hit_ratio", "ratio", Better::Higher),
        ("omp_serve.jobs_per_launch", "ratio", Better::Higher),
        ("omp_serve.steal_ratio", "ratio", Better::Lower),
        ("omp_serve.submit_us_p99", "us", Better::Lower),
        ("omp_serve.rejected", "count", Better::Lower),
        ("omp_serve.replay_attributed", "ratio", Better::Higher),
    ] {
        v.push((name.to_string(), unit, better));
    }
    v
}

/// Sorted durations of `layer`'s spans, ns.
fn durations(spans: &[Span], layer: Layer) -> Vec<u64> {
    let mut d: Vec<u64> = spans.iter().filter(|s| s.layer == layer).map(Span::dur).collect();
    d.sort_unstable();
    d
}

/// Wall during which at least one span of `layer` ran, summed over
/// parents: blocks on two simulator threads overlap, so this is their
/// share of the wall, where their self time counts each thread.
fn cover_ns(spans: &[Span], layer: Layer) -> u64 {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| s.layer == layer) {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start, s.end));
        }
    }
    spans.iter().zip(kids.iter_mut()).map(|(s, k)| union_len(k, s.start, s.end)).sum()
}

/// The per-layer metrics of a traced pass, against the untraced pass run
/// just before it in the same process. A layer's share is its self time
/// over the pass's wall (set-up plus timed phase of every round), except
/// for block execution, whose share is the wall its blocks covered.
pub fn layer_rows(out: &mut Rows, untraced: &Pass, traced: &Pass, sim_threads: usize) {
    let rounds = &traced.rounds;
    let wall: f64 = rounds.iter().map(Round::wall_s).sum();
    let t = &traced.layers;
    let self_s = |l: Layer| t.self_ns[l.index()] as f64 / 1e9;
    let mut share: Vec<f64> = Layer::ALL.iter().map(|&l| self_s(l) / wall).collect();
    let blocks = [Layer::CodegenExecBlock, Layer::CoreExecBlock];
    let cover: Vec<u64> = blocks.iter().map(|&l| cover_ns(&traced.spans, l)).collect();
    for (&l, &c) in blocks.iter().zip(&cover) {
        share[l.index()] = c as f64 / 1e9 / wall;
    }
    let replay: f64 = rounds.iter().filter_map(|r| r.extra("replay_s")).sum();
    let split = [Layer::ServeAdmit, Layer::ServePlan, Layer::ServeExec];
    let replay_attributed = if replay > 0.0 {
        // The live sessions' run (less the fold, timed separately) is
        // split in the proportions the serial replay measured.
        let run = (self_s(Layer::ServeRun) - self_s(Layer::ServeFold)).max(0.0) / wall;
        let parts: Vec<f64> = split.iter().map(|&l| self_s(l) / replay).collect();
        for (&l, p) in split.iter().zip(&parts) {
            share[l.index()] = run * p;
        }
        let attributed: f64 = parts.iter().sum();
        share[Layer::ServeRun.index()] = run * (1.0 - attributed).max(0.0);
        attributed
    } else {
        0.0
    };
    for l in Layer::ALL {
        out.push(Kind::Layer, format!("{}.calls", l.name()), t.calls[l.index()] as f64, "count");
        out.push(Kind::Layer, format!("{}.self_s", l.name()), self_s(l), "s");
        out.push(Kind::Layer, format!("{}.share", l.name()), share[l.index()], "ratio");
    }
    out.push(
        Kind::Layer,
        "unattributed.share",
        (1.0 - share.iter().sum::<f64>()).max(0.0),
        "ratio",
    );
    let med_wall = |p: &Pass| median(&p.rounds.iter().map(Round::wall_s).collect::<Vec<_>>());
    out.push(Kind::Layer, "trace_overhead", med_wall(traced) / med_wall(untraced) - 1.0, "ratio");

    let launches = durations(&traced.spans, Layer::SimLaunch);
    let (p50, p99) = if launches.is_empty() {
        (0, 0)
    } else {
        (nearest_rank(&launches, 50.0), tail_percentile(&launches, 99.0).1)
    };
    out.push(Kind::Layer, "gpu_sim.launch_us_p50", p50 as f64 / 1e3, "us");
    out.push(Kind::Layer, "gpu_sim.launch_us_p99", p99 as f64 / 1e3, "us");
    out.push(Kind::Layer, "gpu_sim.launch_samples", launches.len() as f64, "count");
    let busy: u64 = blocks.iter().map(|l| t.self_ns[l.index()]).sum();
    let cover: u64 = cover.iter().sum();
    let eff = busy as f64 / (cover as f64 * sim_threads as f64);
    out.push(Kind::Layer, "gpu_sim.parallel_eff", eff, "ratio");
    let n_launch: u64 = rounds.iter().map(|r| r.launches).sum();
    let fallbacks: u64 = rounds.iter().map(|r| r.fallbacks).sum();
    out.push(
        Kind::Layer,
        "gpu_sim.fallbacks_per_launch",
        rate(fallbacks, n_launch as f64),
        "count",
    );
    let ex = |name| extra(rounds, name).unwrap_or(0.0);
    out.push(Kind::Layer, "gpu_sim.fallback_growth", ex("fallback_growth"), "ratio");
    out.push(Kind::Layer, "omp_serve.plan_hit_ratio", ex("plan_hit_ratio"), "ratio");
    out.push(Kind::Layer, "omp_serve.jobs_per_launch", ex("jobs_per_launch"), "ratio");
    out.push(Kind::Layer, "omp_serve.steal_ratio", ex("steal_ratio"), "ratio");
    let submits = durations(&traced.spans, Layer::ServeSubmit);
    let submit_p99 = if submits.is_empty() { 0 } else { tail_percentile(&submits, 99.0).1 };
    out.push(Kind::Layer, "omp_serve.submit_us_p99", submit_p99 as f64 / 1e3, "us");
    out.push(Kind::Layer, "omp_serve.rejected", ex("rejected"), "count");
    out.push(Kind::Layer, "omp_serve.replay_attributed", replay_attributed, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(op_s: Vec<f64>) -> Round {
        Round {
            setup_s: 0.0,
            op_s,
            cycles: 0,
            launches: 0,
            jobs: 0,
            vt: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
            fallbacks: 0,
            extras: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    #[test]
    fn fastest_timed_takes_each_ops_minimum() {
        let rounds = [round(vec![1.0, 5.0, 2.0]), round(vec![3.0, 4.0, 2.5])];
        assert_eq!(fastest_timed_s(&rounds), 1.0 + 4.0 + 2.0);
        // Rounds with different op counts fall back to the fastest round.
        let rounds = [round(vec![1.0, 5.0]), round(vec![3.0])];
        assert_eq!(fastest_timed_s(&rounds), 3.0);
    }

    #[test]
    fn layer_rows_cover_every_declared_name() {
        let round = Round {
            setup_s: 0.5,
            op_s: vec![0.2, 0.3],
            cycles: 10,
            launches: 1,
            jobs: 1,
            vt: vec![10],
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
            fallbacks: 0,
            extras: Vec::new(),
            peak_rss_mb: 0.0,
        };
        let span = |layer, start, end, parent| Span { layer, start, end, parent, op: 0, tid: 0 };
        let spans = vec![
            span(Layer::SimLaunch, 0, 400_000_000, None),
            span(Layer::CodegenExecBlock, 0, 300_000_000, Some(0)),
        ];
        let mut layers = crate::trace::LayerTotals::default();
        layers.add(&spans);
        let traced = Pass { rounds: vec![round.clone()], layers, spans };
        let untraced = Pass { rounds: vec![round], layers: Default::default(), spans: Vec::new() };
        let mut rows = Rows::new("w");
        layer_rows(&mut rows, &untraced, &traced, 1);
        let names: Vec<&str> = rows.rows.iter().map(|r| r.metric.as_str()).collect();
        let want = layer_metric_names();
        assert_eq!(names, want.iter().map(|(n, ..)| n.as_str()).collect::<Vec<_>>());
        let get = |m: &str| rows.rows.iter().find(|r| r.metric == m).unwrap().value;
        assert!((get("gpu_sim.launch.share") - 0.1).abs() < 1e-9);
        assert!((get("omp_codegen.exec_block.share") - 0.3).abs() < 1e-9);
        assert!((get("unattributed.share") - 0.6).abs() < 1e-9);
        assert!((get("gpu_sim.parallel_eff") - 1.0).abs() < 1e-9);
        assert_eq!(get("trace_overhead"), 0.0);
    }
}
