//! simbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/simbench/Cargo.toml -- \
//!     [--workload fig-sweep|timestep|sanitize|serve-mix|all] [--seed N] [--seconds S]
//!     [--trace [0|1]] [--repeat N] [--smoke]
//! ```
//!
//! Each workload runs in a child process of this binary, so its peak RSS
//! is its own and a crash fails only that workload. The child repeats the
//! workload's round a fixed number of times (`--seconds` over the
//! workload's nominal round time), checks every output, and reports its
//! metrics over a line protocol on stdout; the parent prints every metric
//! with its unit, saves the rows to `<target>/figures/BENCH_simbench.json`
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace` runs the workload untraced and then traced and
//! reports per-layer metrics instead of the end-to-end ones. `--repeat N`
//! runs the untraced pass N times and prints each metric's median,
//! quartiles and spread against its bound. See README.md beside this file.

mod fig_sweep;
mod pins;
mod sanitize;
mod serve_mix;
mod stats;
mod summary;
mod timestep;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use simt_omp_bench::report::{figures_dir, print_table, save_json, JsonRow, JsonValue};

use crate::stats::{median, quartiles, repeat_flag, spread, E2E};
use crate::summary::{e2e_rows, layer_metric_names, layer_rows, Kind, Row, Rows};
use crate::work::{round_count, run_pass, Pass, Workload};

/// Every workload, in run order.
const WORKLOADS: [&str; 4] = ["fig-sweep", "timestep", "sanitize", "serve-mix"];

/// Information rows that, like the exact end-to-end metrics, must not
/// change between runs at one seed.
const EXACT_INFO: [&str; 2] = ["paper_err", "fail_frac"];

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: simbench [--workload fig-sweep|timestep|sanitize|serve-mix|all] \
[--seed N] [--seconds S] [--trace [0|1]] [--repeat N] [--smoke]";

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: pins::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 0,
        smoke: false,
        child: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--repeat" => {
                a.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        a.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.repeat > 0 && a.trace {
        return Err("--repeat measures the untraced pass; drop --trace".into());
    }
    Ok(a)
}

/// Simulator threads (and service workers) the benchmark may keep
/// runnable at once: `min(2, nproc)`.
fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn make_workload(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        "fig-sweep" => Box::new(fig_sweep::FigSweep::new(seed, smoke)),
        "timestep" => Box::new(timestep::Timestep::new(seed, smoke)),
        "sanitize" => Box::new(sanitize::Sanitize::new(seed, smoke)),
        "serve-mix" => Box::new(serve_mix::ServeMix::new(seed, smoke)),
        other => unreachable!("workload names are validated at parse time: {other}"),
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
struct Outcome {
    header: Vec<(String, f64)>,
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<u64>,
}

/// Determinism and pin checks over every round: each must reproduce the
/// first round's digest, and at the default seed the first must match
/// its pin. A mismatching round fails all of its ops.
fn check_digests(w: &dyn Workload, passes: &[&Pass], out: &mut Outcome) {
    let first = passes[0].rounds[0].digest;
    out.digest = Some(first);
    for (i, r) in passes.iter().flat_map(|p| &p.rounds).enumerate() {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
        if r.digest != first {
            out.failed += r.attempted - r.failed;
            out.failures
                .push(format!("round {i} digest {:016x} != round 0 {first:016x}", r.digest));
        }
    }
    if let Some(pin) = w.pinned_digest() {
        if pin != first {
            let r = &passes[0].rounds[0];
            out.failed += r.attempted - r.failed;
            out.failures.push(format!("digest {first:016x} differs from the pinned {pin:016x}"));
        }
    }
    out.failed = out.failed.min(out.attempted);
}

/// Run one workload in this process.
fn measure(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Outcome {
    let w = make_workload(name, seed, smoke);
    let threads = thread_budget();
    let mut out = Outcome { header: w.header(), ..Outcome::default() };
    out.header.push(("sim_threads".into(), w.sim_threads(threads) as f64));
    let mut rows = Rows::new(name);
    let rounds = |secs, min| if smoke { 1 } else { round_count(w.as_ref(), secs, min) };
    if traced {
        let rounds = rounds(seconds / 2.0, 1);
        let untraced = run_pass(w.as_ref(), false, threads, rounds);
        let traced = run_pass(w.as_ref(), true, threads, rounds);
        layer_rows(&mut rows, &untraced, &traced, w.sim_threads(threads));
        trace::write_chrome_trace(name, &traced.spans);
        check_digests(w.as_ref(), &[&untraced, &traced], &mut out);
    } else {
        let pass = run_pass(w.as_ref(), false, threads, rounds(seconds, 3));
        e2e_rows(&mut rows, &pass.rounds);
        check_digests(w.as_ref(), &[&pass], &mut out);
    }
    rows.push(Kind::Info, "fail_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    out.rows = rows.rows;
    out
}

/// The child side: measure and report over the line protocol.
fn child_main(a: &Args) -> ExitCode {
    let out = measure(&a.workload, a.seed, a.seconds, a.trace, a.smoke);
    for (k, v) in &out.header {
        println!("header\t{k}\t{v:?}");
    }
    for r in &out.rows {
        println!("row\t{}\t{}\t{:?}\t{}", r.kind.tag(), r.metric, r.value, r.unit);
    }
    for f in &out.failures {
        println!("fail\t{}", f.replace(['\t', '\n'], " "));
    }
    if let Some(d) = out.digest {
        println!("digest\t{d:016x}");
    }
    println!("ops\t{}\t{}", out.attempted, out.failed);
    ExitCode::SUCCESS
}

/// Parse the child's protocol lines; `None` when the `ops` line is
/// missing (the child died before reporting).
fn parse_child(workload: &str, stdout: &str) -> Option<Outcome> {
    let mut out = Outcome::default();
    let mut done = false;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["header", k, v] => out.header.push((k.to_string(), v.parse().ok()?)),
            ["row", kind, metric, value, unit] => out.rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                value: value.parse().ok()?,
                unit: unit.to_string(),
                kind: Kind::from_tag(kind)?,
            }),
            ["fail", why] => out.failures.push(why.to_string()),
            ["digest", d] => out.digest = u64::from_str_radix(d, 16).ok(),
            ["ops", att, fail] => {
                out.attempted = att.parse().ok()?;
                out.failed = fail.parse().ok()?;
                done = true;
            }
            _ => {}
        }
    }
    done.then_some(out)
}

/// Run one workload in a child process of this binary, with every
/// `SIMT_*` setting removed so the environment cannot change what runs.
/// A child that crashes, hangs or reports nothing fails all its ops.
fn run_child(workload: &str, a: &Args, traced: bool) -> Outcome {
    let crashed = |why: String| Outcome {
        attempted: 1,
        failed: 1,
        failures: vec![format!("{workload}: {why}")],
        ..Outcome::default()
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return crashed(format!("cannot locate the simbench binary: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SIMT_") {
            cmd.env_remove(k);
        }
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return crashed(format!("cannot start the child: {e}")),
    };
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    // A hung child is killed well inside the 180 s a run may take.
    let limit = Duration::from_secs_f64(150.0f64.max(a.seconds * 4.0));
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {:.0} s", limit.as_secs_f64()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("cannot wait for the child: {e}")),
        }
    };
    let stdout = reader.join().unwrap_or_default();
    match status {
        Ok(s) if s.success() => {
            parse_child(workload, &stdout).unwrap_or_else(|| crashed("no report".into()))
        }
        Ok(s) => crashed(format!("child exited with {s}")),
        Err(why) => crashed(why),
    }
}

fn selection(a: &Args) -> Vec<&'static str> {
    WORKLOADS.iter().copied().filter(|w| a.workload == "all" || a.workload == *w).collect()
}

fn header_rows(a: &Args) -> Vec<Row> {
    let row = |metric: &str, value: f64, unit: &str| Row {
        workload: "header".into(),
        metric: metric.into(),
        value,
        unit: unit.into(),
        kind: Kind::Info,
    };
    vec![
        row("host_cores", host_cores() as f64, "count"),
        row("sim_threads", thread_budget() as f64, "count"),
        row("service_workers", thread_budget() as f64, "count"),
        row("seed", a.seed as f64, "count"),
        row("seconds", a.seconds, "s"),
        row("trace", a.trace as u8 as f64, "count"),
        row("smoke", a.smoke as u8 as f64, "count"),
    ]
}

/// Format a JSON number with every digit (`Display` never uses an
/// exponent and round-trips).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn final_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, String)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_rows(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.workload.clone(), r.metric.clone(), format!("{}", r.value), r.unit.clone()])
        .collect();
    print_table("simbench", &["workload", "metric", "value", "unit"], &table);
}

/// One untraced or traced run of the selected workloads.
fn run_main(a: &Args) -> ExitCode {
    let selected = selection(a);
    let mut rows = header_rows(a);
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut correct = true;
    let want = if a.trace { Kind::Layer } else { Kind::E2e };
    for w in &selected {
        let out = run_child(w, a, a.trace);
        for (k, v) in &out.header {
            rows.push(Row {
                workload: w.to_string(),
                metric: format!("size.{k}"),
                value: *v,
                unit: "count".into(),
                kind: Kind::Info,
            });
        }
        for f in &out.failures {
            eprintln!("simbench: {w}: FAILED: {f}");
        }
        if let Some(d) = out.digest {
            eprintln!("simbench: {w}: round digest {d:016x}");
        }
        let expected: Vec<String> = if a.trace {
            layer_metric_names().into_iter().map(|(n, ..)| n).collect()
        } else {
            E2E.iter().map(|m| m.name.to_string()).collect()
        };
        let got: Vec<&Row> = out.rows.iter().filter(|r| r.kind == want).collect();
        let complete = expected.iter().all(|n| got.iter().any(|r| &r.metric == n));
        correct &= out.failed == 0 && out.attempted > 0 && complete;
        attempted += out.attempted;
        failed += out.failed;
        for r in got {
            let name =
                if selected.len() == 1 { r.metric.clone() } else { format!("{w}/{}", r.metric) };
            metrics.push((name, r.value, r.unit.clone()));
        }
        rows.extend(out.rows);
    }
    print_rows(&rows);
    save_json("BENCH_simbench", &rows);
    final_line(correct, attempted.max(1), failed.min(attempted.max(1)), &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Median, quartiles and spread of one metric over repeated runs.
struct RepeatRow {
    workload: String,
    metric: String,
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    unit: String,
}

impl JsonRow for RepeatRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("workload", JsonValue::Str(self.workload.clone())),
            ("metric", JsonValue::Str(self.metric.clone())),
            ("median", JsonValue::F64(self.median)),
            ("q1", JsonValue::F64(self.q1)),
            ("q3", JsonValue::F64(self.q3)),
            ("spread", JsonValue::F64(self.spread)),
            ("unit", JsonValue::Str(self.unit.clone())),
        ]
    }
}

/// `--repeat N`: the untraced pass N times, alternating the workload
/// order, then median, quartiles and spread per metric.
fn repeat_main(a: &Args) -> ExitCode {
    let selected = selection(a);
    let mut values: BTreeMap<(usize, String), (Vec<f64>, String)> = BTreeMap::new();
    let mut digests: BTreeMap<usize, Vec<Option<u64>>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in 0..a.repeat {
        let mut order: Vec<(usize, &str)> = selected.iter().copied().enumerate().collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for (i, w) in order {
            let out = run_child(w, a, false);
            eprintln!(
                "simbench: repeat {}/{} {w}: {} failed of {}",
                r + 1,
                a.repeat,
                out.failed,
                out.attempted
            );
            for f in &out.failures {
                eprintln!("simbench: {w}: FAILED: {f}");
            }
            attempted += out.attempted;
            failed += out.failed;
            digests.entry(i).or_default().push(out.digest);
            for row in out.rows.into_iter().filter(|r| r.kind != Kind::Layer) {
                let e = values.entry((i, row.metric)).or_insert((Vec::new(), row.unit));
                e.0.push(row.value);
            }
        }
    }
    let mut ok = failed == 0;
    let mut table = Vec::new();
    let mut saved = Vec::new();
    let mut metrics = Vec::new();
    for ((i, metric), (v, unit)) in &values {
        let w = selected[*i];
        let (med, (q1, q3), sp) = (median(v), quartiles(v), spread(v));
        let m = stats::e2e(metric);
        let exact = m.map_or(EXACT_INFO.contains(&metric.as_str()), |m| m.exact);
        let flag = repeat_flag(v, exact, m.map_or(f64::INFINITY, |m| m.bound));
        ok &= flag.is_none();
        if m.is_some() {
            metrics.push((format!("{w}/{metric}"), med, unit.clone()));
        }
        let bound = m.map_or("-".to_string(), |m| {
            let exact = if m.exact { ", exact" } else { "" };
            format!("{} {:.3}{exact}", m.better.label(), m.bound)
        });
        table.push(vec![
            w.to_string(),
            metric.clone(),
            format!("{med}"),
            format!("{q1}"),
            format!("{q3}"),
            format!("{sp:.4}"),
            bound,
            unit.clone(),
            flag.unwrap_or("").to_string(),
        ]);
        saved.push(RepeatRow {
            workload: w.to_string(),
            metric: metric.clone(),
            median: med,
            q1,
            q3,
            spread: sp,
            unit: unit.clone(),
        });
    }
    for (i, ds) in &digests {
        if ds.iter().any(|d| *d != ds[0]) {
            eprintln!("simbench: {}: digests differ across repeats: {ds:x?}", selected[*i]);
            ok = false;
        }
    }
    print_table(
        &format!("simbench --repeat {} (seed {})", a.repeat, a.seed),
        &["workload", "metric", "median", "q1", "q3", "spread", "bound", "unit", "verdict"],
        &table,
    );
    save_json("BENCH_simbench_repeat", &saved);
    eprintln!(
        "simbench: repeat summary in {}",
        figures_dir().join("BENCH_simbench_repeat.json").display()
    );
    final_line(ok, attempted.max(1), failed.min(attempted.max(1)), &metrics);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("simbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.child {
        if a.workload == "all" {
            eprintln!("simbench: --child needs one --workload");
            return ExitCode::from(2);
        }
        return child_main(&a);
    }
    if a.repeat > 0 {
        repeat_main(&a)
    } else {
        run_main(&a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_valued_and_bare_trace_flags() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, false)
        );
        let a = args("--trace --workload timestep").unwrap();
        assert!(a.trace);
        assert_eq!(a.workload, "timestep");
        assert!(args("--trace 1").unwrap().trace);
        assert_eq!(args("").unwrap().workload, "all");
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--repeat 3 --trace").is_err());
    }

    #[test]
    fn child_protocol_round_trips() {
        let text = "header\tn\t3.0\nrow\te2e\tsetup_s\t0.125\ts\nfail\tboom\n\
                    digest\t00000000000000ff\nops\t10\t1\n";
        let out = parse_child("w", text).unwrap();
        assert_eq!(out.header, vec![("n".to_string(), 3.0)]);
        assert_eq!(out.rows[0].metric, "setup_s");
        assert_eq!(out.rows[0].value, 0.125);
        assert_eq!((out.attempted, out.failed, out.digest), (10, 1, Some(255)));
        assert!(parse_child("w", "row\te2e\tsetup_s\t0.1\ts\n").is_none(), "no ops line");
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(1.5e-7), "0.00000015");
        assert_eq!(json_num(f64::NAN), "0");
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this binary reports, with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
        };
        let entry = |name: &str, unit: &str, better: stats::Better| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                better.label()
            )
        };
        for m in E2E {
            let line = format!("{}, \"bound\": {}}}", entry(m.name, m.unit, m.better), m.bound);
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let layers = layer_metric_names();
        for (name, unit, better) in &layers {
            let line = format!("{}}}", entry(name, unit, *better));
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
        }
        let names = WORKLOADS.len() + E2E.len() + layers.len();
        assert_eq!(text.matches("\"name\":").count(), names, "BENCHMARK.json lists extra names");
    }

    /// Every workload at tiny sizes, untraced and traced, so `cargo test`
    /// catches bit-rot in the benchmark.
    #[test]
    fn smoke_runs_every_workload() {
        for name in WORKLOADS {
            let out = measure(name, 3, 0.0, false, true);
            assert!(out.attempted > 0, "{name}");
            assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
            for m in E2E {
                assert!(out.rows.iter().any(|r| r.kind == Kind::E2e && r.metric == m.name));
            }
            let out = measure(name, 3, 0.0, true, true);
            assert_eq!(out.failed, 0, "{name} traced: {:?}", out.failures);
            let layer = out.rows.iter().filter(|r| r.kind == Kind::Layer).count();
            assert_eq!(layer, layer_metric_names().len(), "{name}");
        }
    }
}
