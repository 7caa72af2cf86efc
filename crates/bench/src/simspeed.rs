//! simspeed — throughput of the simulator itself.
//!
//! Every other harness in this crate reports *simulated* cycles; this one
//! measures how fast the host produces them, on the two questions simbench
//! (which measures simulated-cycle rates per workload, multi-threaded
//! included) does not answer.
//!
//! The sanitizer leg asks what the simtcheck sanitizer, with its adaptive
//! epoch representation, costs. It runs {ideal, spmv, laplace3d} ×
//! sanitizer {off, adaptive} on 1 host thread and emits
//! `target/figures/BENCH_simspeed.json` with wall-clock,
//! simulated-cycles-per-second and the sanitizer overhead relative to the
//! unsanitized run.
//!
//! A second leg compares the two execution engines — the flat-bytecode
//! interpreter (the default) against the tree-walk oracle — on
//! strong-scaling configurations: a small problem launched on the full
//! 108-team A100 grid, where per-construct interpretation overhead (not
//! the shared memory-access model) dominates host time. Both engines
//! produce bit-identical `LaunchStats`; the leg asserts the cycle counts
//! match and reports the wall-clock ratio as `vs_tree`.
//!
//! The launch-floor leg measures what a launch costs outside its blocks:
//! an empty 108×128 A100 launch, and the same two strong-scaling launches,
//! repeated on a long-lived device at 1 and 2 sim threads with the
//! sanitizer off and on. It reports microseconds per launch
//! (`us_per_launch`); every other row reports its single launch's time
//! there too.
//!
//! The warp-form leg runs su3 twice per configuration: its per-lane
//! reference twin and its warp-form body (`form` `lane` / `warp`), at
//! 108×128 with group sizes {1, 8, 32} on a100 and mi100, at 1 sim
//! thread. The twins must produce identical `LaunchStats` (asserted);
//! `vs_lane` is the per-lane twin's wall-clock over this row's.

use std::time::Instant;

use gpu_sim::Device;
use omp_codegen::bytecode::Engine;
use omp_codegen::CompiledKernel;
use omp_kernels::harness::Fig10Variant;
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::{ideal, laplace3d, spmv, stencil2d, su3};

use crate::report::{print_table, save_json, JsonRow, JsonValue};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct SimspeedRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Sanitizer mode: `off` or `adaptive`.
    pub sanitizer: &'static str,
    /// Wall-clock milliseconds for the launch (best of the repetitions).
    pub wall_ms: f64,
    /// Simulated cycles the launch produced (identical across sanitizer
    /// modes and engines).
    pub cycles: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock relative to the unsanitized run of the same kernel (1.0
    /// for unsanitized rows).
    pub overhead_vs_off: f64,
    /// Execution engine that produced the row: `bytecode` (the default
    /// flat interpreter) or `tree` (the tree-walk oracle).
    pub engine: &'static str,
    /// Wall-clock of the tree-walk run at the same configuration divided
    /// by this run's wall-clock. `NaN` (serialized as `null`) for
    /// sanitizer-leg and launch-floor rows, which only run the default
    /// engine.
    pub vs_tree: f64,
    /// Host threads that executed blocks (1 outside the launch-floor leg).
    pub sim_threads: usize,
    /// Wall-clock microseconds per launch.
    pub us_per_launch: f64,
    /// Form of the kernel's simd body: `lane` (per lane) or `warp`.
    pub form: &'static str,
    /// Wall-clock of the per-lane twin at the same configuration divided
    /// by this run's wall-clock. `NaN` outside the warp-form leg.
    pub vs_lane: f64,
}

impl JsonRow for SimspeedRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("kernel", JsonValue::Str(self.kernel.to_string())),
            ("sanitizer", JsonValue::Str(self.sanitizer.to_string())),
            ("wall_ms", JsonValue::F64(self.wall_ms)),
            ("cycles", JsonValue::U64(self.cycles)),
            ("cycles_per_sec", JsonValue::F64(self.cycles_per_sec)),
            ("overhead_vs_off", JsonValue::F64(self.overhead_vs_off)),
            ("engine", JsonValue::Str(self.engine.to_string())),
            ("vs_tree", JsonValue::F64(self.vs_tree)),
            ("sim_threads", JsonValue::U64(self.sim_threads as u64)),
            ("us_per_launch", JsonValue::F64(self.us_per_launch)),
            ("form", JsonValue::Str(self.form.to_string())),
            ("vs_lane", JsonValue::F64(self.vs_lane)),
        ]
    }
}

struct Sizes {
    ideal_outer: usize,
    spmv_rows: usize,
    laplace_n: usize,
    su3_sites: usize,
    teams: u32,
    threads_per_team: u32,
    reps: u32,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            ideal_outer: 13_824,
            spmv_rows: 16_384,
            laplace_n: 24,
            su3_sites: 1_728,
            teams: 108,
            threads_per_team: 128,
            reps: 1,
        }
    } else {
        Sizes {
            ideal_outer: 55_296,
            spmv_rows: 65_536,
            laplace_n: 48,
            su3_sites: 13_824,
            teams: 216,
            threads_per_team: 512,
            reps: 3,
        }
    }
}

/// A launch runner: given whether the sanitizer is on, returns the
/// simulated cycle count and wall-clock milliseconds of one full launch on
/// a freshly prepared device (setup excluded from timing).
type Runner<'a> = Box<dyn FnMut(bool) -> (u64, f64) + 'a>;

fn time_one(dev: &mut Device, san: bool, mut launch: impl FnMut(&mut Device) -> u64) -> (u64, f64) {
    dev.set_sim_threads(Some(1));
    if san {
        dev.enable_sanitizer();
    } else {
        dev.disable_sanitizer();
    }
    let t0 = Instant::now();
    let cycles = launch(dev);
    (cycles, t0.elapsed().as_secs_f64() * 1e3)
}

/// Run both legs. `quick` shrinks problem sizes and repetitions.
pub fn run(quick: bool) -> Vec<SimspeedRow> {
    let sz = sizes(quick);

    // --- per-kernel runners, each timing exactly one launch ------------
    let ideal_w = ideal::IdealWorkload::generate(sz.ideal_outer, 7);
    let ideal_k = ideal::build(sz.teams, sz.threads_per_team, 8);

    let mat =
        CsrMatrix::generate(sz.spmv_rows, sz.spmv_rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let spmv_k = spmv::build_three_level(sz.teams, sz.threads_per_team, 8);

    let lap_w = laplace3d::Laplace3dWorkload::generate(sz.laplace_n);
    let lap_k = laplace3d::build(sz.teams, sz.threads_per_team, Fig10Variant::SpmdSimd);

    let mut runners: Vec<(&'static str, Runner<'_>)> = vec![
        (
            "ideal",
            Box::new(|san| {
                let mut dev = Device::a100();
                let ops = ideal::IdealDev::upload(&mut dev, &ideal_w);
                time_one(&mut dev, san, |d| ideal::run(d, &ideal_k, &ops).1.cycles)
            }),
        ),
        (
            "spmv",
            Box::new(|san| {
                let mut dev = Device::a100();
                let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
                time_one(&mut dev, san, |d| spmv::run(d, &spmv_k, &ops).1.cycles)
            }),
        ),
        (
            "laplace3d",
            Box::new(|san| {
                let mut dev = Device::a100();
                let ops = laplace3d::Laplace3dDev::upload(&mut dev, &lap_w);
                time_one(&mut dev, san, |d| laplace3d::run(d, &lap_k, &ops).1.cycles)
            }),
        ),
    ];

    // --- the sanitizer leg ------------------------------------------------
    let mut rows = Vec::new();
    for (kernel, runner) in &mut runners {
        // Warm-up: populate code/data caches before any timed run.
        let _ = runner(false);
        // One cell per sanitizer mode: (on, best wall, cycles).
        let mut cells = [false, true].map(|san| (san, f64::INFINITY, 0));
        // Measure the cells round-robin (not cell-by-cell) so slow host
        // minutes penalize every sanitizer mode equally instead of biasing
        // whichever cell happened to be up; best-of per cell across rounds.
        let mut spent_ms = 0.0;
        let mut rounds = 0u32;
        while rounds < sz.reps || (spent_ms < 4000.0 && rounds < 8 * sz.reps) {
            for cell in &mut cells {
                let (c, ms) = runner(cell.0);
                assert!(cell.2 == 0 || cell.2 == c, "cycles must not depend on the run");
                cell.2 = c;
                cell.1 = cell.1.min(ms);
                spent_ms += ms;
            }
            rounds += 1;
        }
        let off_ms = cells[0].1;
        for (san, wall_ms, cycles) in cells {
            rows.push(SimspeedRow {
                kernel,
                sanitizer: if san { "adaptive" } else { "off" },
                wall_ms,
                cycles,
                cycles_per_sec: cycles as f64 / (wall_ms / 1e3),
                overhead_vs_off: wall_ms / off_ms,
                engine: "bytecode",
                vs_tree: f64::NAN,
                sim_threads: 1,
                us_per_launch: wall_ms * 1e3,
                form: "lane",
                vs_lane: f64::NAN,
            });
        }
    }
    rows.extend(engine_leg(sz.reps));
    rows.extend(launch_floor_leg(quick));
    rows.extend(warp_form_leg(sz.su3_sites, sz.reps));
    rows
}

/// The engine-comparison leg: tree-walk vs flat bytecode, 1 host thread,
/// sanitizer off, on strong-scaling configurations (small problem, full
/// 108-team grid). The problem sizes are deliberately interpreter-bound:
/// most teams draw few or no chunks, so the per-construct walking cost —
/// the thing the bytecode lowering removes — is the dominant term. Large
/// access-bound problems land at 1.4–2× instead (the memory-access model
/// is shared by both engines); the sanitizer-leg rows cover that regime.
fn engine_leg(reps: u32) -> Vec<SimspeedRow> {
    let lap_w = laplace3d::Laplace3dWorkload::generate(6);
    let lap_k = laplace3d::build(108, 128, Fig10Variant::SpmdSimd);
    let st_w = stencil2d::Stencil2dWorkload::generate(26, 14);
    // SpmdRef reads the grid in place (no halo staging), so no sharing
    // space is reserved.
    let st_k = stencil2d::build(108, 128, 8, 0, stencil2d::Stencil2dVariant::SpmdRef);

    type Prep<'a> = Box<dyn FnMut(&mut Device) -> Vec<gpu_sim::Slot> + 'a>;
    let legs: [(&'static str, &CompiledKernel, Prep<'_>); 2] = [
        (
            "laplace3d-n6",
            &lap_k,
            Box::new(|dev| laplace3d::Laplace3dDev::upload(dev, &lap_w).args().to_vec()),
        ),
        (
            "stencil2d-26x14",
            &st_k,
            Box::new(|dev| stencil2d::Stencil2dDev::upload(dev, &st_w, 8).args().to_vec()),
        ),
    ];

    let mut rows = Vec::new();
    for (kernel, k, mut prep) in legs {
        let mut walls = [f64::INFINITY; 2];
        let mut cycles = [0u64; 2];
        // Launches here are sub-millisecond; interleave the engines over
        // several rounds and keep the best so host-scheduler noise hits
        // both sides equally.
        for round in 0..(4 + 2 * reps) {
            for (i, eng) in [Engine::Tree, Engine::Bytecode].into_iter().enumerate() {
                let mut dev = Device::a100();
                dev.set_sim_threads(Some(1));
                let args = prep(&mut dev);
                if round == 0 {
                    // Warm-up: populate caches (and the compiled flat
                    // program) before any timed run.
                    k.launch_with_engine(&mut dev, &args, eng).unwrap();
                }
                let t0 = Instant::now();
                let stats = k.launch_with_engine(&mut dev, &args, eng).unwrap();
                walls[i] = walls[i].min(t0.elapsed().as_secs_f64() * 1e3);
                assert!(cycles[i] == 0 || cycles[i] == stats.cycles);
                cycles[i] = stats.cycles;
            }
        }
        assert_eq!(cycles[0], cycles[1], "{kernel}: engines must agree on simulated cycles");
        for (i, engine) in ["tree", "bytecode"].into_iter().enumerate() {
            rows.push(SimspeedRow {
                kernel,
                sanitizer: "off",
                wall_ms: walls[i],
                cycles: cycles[i],
                cycles_per_sec: cycles[i] as f64 / (walls[i] / 1e3),
                overhead_vs_off: 1.0,
                engine,
                vs_tree: walls[0] / walls[i],
                sim_threads: 1,
                us_per_launch: walls[i] * 1e3,
                form: "lane",
                vs_lane: f64::NAN,
            });
        }
    }
    rows
}

/// The strong-scaling laplace3d (6³) and stencil2d (26×14) kernels on the
/// full 108×128 A100 grid, as the engine leg builds them.
fn strong_kernels() -> [(&'static str, CompiledKernel, Vec<gpu_sim::Slot>, Device); 2] {
    let lap_w = laplace3d::Laplace3dWorkload::generate(6);
    let lap_k = laplace3d::build(108, 128, Fig10Variant::SpmdSimd);
    let mut lap_dev = Device::a100();
    let lap_args = laplace3d::Laplace3dDev::upload(&mut lap_dev, &lap_w).args().to_vec();
    let st_w = stencil2d::Stencil2dWorkload::generate(26, 14);
    let st_k = stencil2d::build(108, 128, 8, 0, stencil2d::Stencil2dVariant::SpmdRef);
    let mut st_dev = Device::a100();
    let st_args = stencil2d::Stencil2dDev::upload(&mut st_dev, &st_w, 8).args().to_vec();
    [("laplace3d-n6", lap_k, lap_args, lap_dev), ("stencil2d-26x14", st_k, st_args, st_dev)]
}

/// The launch-floor leg: microseconds per launch of an empty 108×128 A100
/// grid and of the two strong-scaling kernels, each on one long-lived
/// device (as a time-stepping host loop keeps it), at sim threads {1, 2}
/// × sanitizer {off, on}. Cells run round-robin, a batch of launches per
/// cell per round, and each keeps its fastest batch.
fn launch_floor_leg(quick: bool) -> Vec<SimspeedRow> {
    let (rounds, batch) = if quick { (3, 20) } else { (8, 200) };
    let empty = gpu_sim::LaunchConfig { num_blocks: 108, threads_per_block: 128, smem_bytes: 0 };
    type Launch<'a> = Box<dyn FnMut(&mut Device) -> u64 + 'a>;
    let mut kernels: Vec<(&'static str, Launch<'_>, Device)> = vec![(
        "empty-108x128",
        Box::new(|d| d.launch(&empty, |_| {}).unwrap().cycles),
        Device::a100(),
    )];
    for (name, k, args, dev) in strong_kernels() {
        let launch =
            move |d: &mut Device| k.launch_with_engine(d, &args, Engine::Bytecode).unwrap().cycles;
        kernels.push((name, Box::new(launch), dev));
    }
    // (kernel, threads, sanitizer) → (best µs per launch, cycles).
    let mut cells = Vec::new();
    for k in 0..kernels.len() {
        for threads in [1, 2] {
            for san in [false, true] {
                cells.push((k, threads, san, f64::INFINITY, 0u64));
            }
        }
    }
    for round in 0..=rounds {
        for (k, threads, san, best, cycles) in &mut cells {
            let (_, launch, dev) = &mut kernels[*k];
            dev.set_sim_threads(Some(*threads));
            if *san {
                dev.enable_sanitizer();
            } else {
                dev.disable_sanitizer();
            }
            let t0 = Instant::now();
            for _ in 0..batch {
                let c = launch(dev);
                assert!(*cycles == 0 || *cycles == c, "cycles must not depend on the run");
                *cycles = c;
            }
            // Round 0 warms each cell up: pool, caches, compiled program.
            if round > 0 {
                *best = best.min(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
            }
        }
    }
    let us_of = |k: usize, threads: usize| {
        cells.iter().find(|c| c.0 == k && c.1 == threads && !c.2).map_or(f64::NAN, |c| c.3)
    };
    cells
        .iter()
        .map(|&(k, threads, san, us, cycles)| SimspeedRow {
            kernel: kernels[k].0,
            sanitizer: if san { "adaptive" } else { "off" },
            wall_ms: us / 1e3,
            cycles,
            cycles_per_sec: cycles as f64 / (us / 1e6),
            overhead_vs_off: us / us_of(k, threads),
            engine: "bytecode",
            vs_tree: f64::NAN,
            sim_threads: threads,
            us_per_launch: us,
            form: "lane",
            vs_lane: f64::NAN,
        })
        .collect()
}

/// The warp-form leg: su3's per-lane twin against its warp-form body on
/// a 108×128 grid, group sizes {1, 8, 32}, a100 and mi100, 1 sim thread,
/// sanitizer off. The two forms run alternately over several rounds and
/// each keeps its fastest launch; their stats must be identical.
fn warp_form_leg(sites: usize, reps: u32) -> Vec<SimspeedRow> {
    let w = su3::Su3Workload::generate(sites, 7);
    let mut rows = Vec::new();
    for (arch, names) in [
        (gpu_sim::DeviceArch::a100(), ["su3-a100-gs1", "su3-a100-gs8", "su3-a100-gs32"]),
        (gpu_sim::DeviceArch::mi100(), ["su3-mi100-gs1", "su3-mi100-gs8", "su3-mi100-gs32"]),
    ] {
        for (gs, kernel) in [1, 8, 32].into_iter().zip(names) {
            let forms = [su3::build_per_lane(108, 128, gs), su3::build(108, 128, gs)];
            let mut walls = [f64::INFINITY; 2];
            let mut stats = [None, None];
            for round in 0..(2 + 2 * reps) {
                for (i, k) in forms.iter().enumerate() {
                    let mut dev = Device::new(arch.clone());
                    dev.set_sim_threads(Some(1));
                    dev.disable_sanitizer();
                    let ops = su3::Su3Dev::upload(&mut dev, &w);
                    if round == 0 {
                        // Warm-up: caches and the compiled flat program.
                        k.launch_with_engine(&mut dev, &ops.args(), Engine::Bytecode).unwrap();
                    }
                    let t0 = Instant::now();
                    let s = k.launch_with_engine(&mut dev, &ops.args(), Engine::Bytecode).unwrap();
                    walls[i] = walls[i].min(t0.elapsed().as_secs_f64() * 1e3);
                    stats[i] = Some(s);
                }
            }
            let [lane, warp] = stats.map(|s| s.expect("every round launches both forms"));
            assert_eq!(lane, warp, "{kernel}: the twins' LaunchStats differ");
            for (i, form) in ["lane", "warp"].into_iter().enumerate() {
                rows.push(SimspeedRow {
                    kernel,
                    sanitizer: "off",
                    wall_ms: walls[i],
                    cycles: lane.cycles,
                    cycles_per_sec: lane.cycles as f64 / (walls[i] / 1e3),
                    overhead_vs_off: 1.0,
                    engine: "bytecode",
                    vs_tree: f64::NAN,
                    sim_threads: 1,
                    us_per_launch: walls[i] * 1e3,
                    form,
                    vs_lane: walls[0] / walls[i],
                });
            }
        }
    }
    rows
}

/// Print the table and persist `BENCH_simspeed.json`.
pub fn report(rows: &[SimspeedRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.engine.to_string(),
                r.sanitizer.to_string(),
                r.sim_threads.to_string(),
                r.form.to_string(),
                format!("{:.1}", r.us_per_launch),
                format!("{:.2e}", r.cycles_per_sec),
                format!("{:.2}x", r.overhead_vs_off),
                if r.vs_tree.is_finite() { format!("{:.2}x", r.vs_tree) } else { "-".to_string() },
            ]
        })
        .collect();
    print_table(
        "simspeed: simulator throughput (wall-clock)",
        &[
            "kernel",
            "engine",
            "sanitizer",
            "threads",
            "form",
            "us/launch",
            "sim_cycles/s",
            "san_overhead",
            "vs_tree",
        ],
        &table,
    );
    for r in rows.iter().filter(|r| r.engine == "bytecode" && r.vs_tree.is_finite()) {
        println!(
            "bytecode engine on {}: {:.2}x over tree-walk (1 thread, identical cycles)",
            r.kernel, r.vs_tree
        );
    }
    for r in rows.iter().filter(|r| r.form == "warp") {
        println!(
            "warp form on {}: {:.2}x over its per-lane twin (1 thread, identical stats)",
            r.kernel, r.vs_lane
        );
    }
    for r in rows.iter().filter(|r| r.sanitizer != "off" && r.sim_threads == 1) {
        println!(
            "sanitizer {} on {}: {:.2}x overhead at 1 thread",
            r.sanitizer, r.kernel, r.overhead_vs_off
        );
    }
    save_json("BENCH_simspeed", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick run goes end to end, cycles are invariant across
    /// sanitizer modes, engines and sim threads, and every (kernel,
    /// sanitizer) cell is present.
    #[test]
    fn quick_sweep_is_complete_and_consistent() {
        let rows = run(true);
        // 3 kernels × {off, adaptive} + 2 engine-leg kernels ×
        // {tree, bytecode} + 3 launch-floor kernels × threads {1, 2} ×
        // {off, adaptive} + 2 archs × 3 su3 group sizes × {lane, warp}.
        assert_eq!(rows.len(), 3 * 2 + 2 * 2 + 3 * 2 * 2 + 2 * 3 * 2);
        assert_eq!(rows.iter().filter(|r| r.kernel == "empty-108x128").count(), 4);
        assert_eq!(rows.iter().filter(|r| r.form == "warp").count(), 6);
        for r in rows.iter().filter(|r| r.kernel.starts_with("su3-")) {
            assert!(r.vs_lane.is_finite() && r.vs_lane > 0.0, "{}", r.kernel);
        }
        for kernel in
            ["ideal", "spmv", "laplace3d", "laplace3d-n6", "stencil2d-26x14", "empty-108x128"]
        {
            let cycles: Vec<u64> =
                rows.iter().filter(|r| r.kernel == kernel).map(|r| r.cycles).collect();
            assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{kernel}: {cycles:?}");
        }
        for r in &rows {
            assert!(r.wall_ms >= 0.0 && r.cycles > 0);
            assert!(r.us_per_launch.is_finite() && r.us_per_launch > 0.0);
            if r.sanitizer == "off" && r.vs_tree.is_nan() {
                assert!((r.overhead_vs_off - 1.0).abs() < 1e-9);
            }
        }
        // Engine-leg rows: the ratio is well-formed (tree rows pin 1.0);
        // the headline ≥5× is a benchmark result, not a unit-test assert —
        // wall-clock ratios on a loaded CI host are not deterministic.
        for r in rows.iter().filter(|r| !r.vs_tree.is_nan()) {
            assert!(r.vs_tree.is_finite() && r.vs_tree > 0.0);
            if r.engine == "tree" {
                assert!((r.vs_tree - 1.0).abs() < 1e-9);
            }
        }
    }
}
