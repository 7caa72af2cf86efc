//! Fig 9 — SIMD benefit: speedup of the 3-level (`simd`) versions over the
//! 2-level baselines for `sparse_matvec`, `SU3_bench` and the ideal
//! kernel, across all SIMD group sizes (paper §6.3).
//!
//! Paper shapes to reproduce:
//! * sparse_matvec peaks around **3.5×**, best at group size **8**;
//! * SU3_bench peaks around **1.3×**, best at group size **4** (2 and 8
//!   close behind — 36 iterations divide evenly by 2 and 4, not by 8+);
//! * the ideal kernel reaches about **2.15×** at group size **32**, with
//!   16 very close.

use gpu_sim::{ArchId, Device, LaunchStats};
use omp_codegen::CompiledKernel;
use omp_kernels::harness::{max_abs_err, speedup};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::{ideal, spmv, su3};

use crate::report::{print_table, save_json, JsonRow, JsonValue};
use crate::{with_base, Point, Sizes};

/// SIMD group sizes swept by the figure. Every entry divides both 32 and
/// 64, so one kernel shape serves every backend.
pub const GROUP_SIZES: [u32; 5] = [2, 4, 8, 16, 32];

/// One bar of Fig 9.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// SIMD group size of the 3-level version.
    pub group_size: u32,
    /// Simulated cycles of the 2-level baseline.
    pub base_cycles: u64,
    /// Simulated cycles of the 3-level version.
    pub simd_cycles: u64,
    /// `base_cycles / simd_cycles`.
    pub speedup: f64,
    /// Max abs error of the simd version against the host reference.
    pub max_err: f64,
}

impl JsonRow for Fig9Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("kernel", JsonValue::Str(self.kernel.to_string())),
            ("group_size", JsonValue::U64(self.group_size as u64)),
            ("base_cycles", JsonValue::U64(self.base_cycles)),
            ("simd_cycles", JsonValue::U64(self.simd_cycles)),
            ("speedup", JsonValue::F64(self.speedup)),
            ("max_err", JsonValue::F64(self.max_err)),
        ]
    }
}

/// The figure's launches on `arch`: per kernel, the 2-level baseline
/// (group size 0) and then every group size, each on a fresh device.
pub fn sweep(arch: ArchId, quick: bool) -> Vec<Point<u32>> {
    let sz = Sizes::of(quick);
    let mut points = Vec::new();
    let mut push = |kernel, config, (stats, max_err)| {
        points.push(Point { kernel, config, stats, max_err });
    };

    // --- sparse_matvec -------------------------------------------------
    // The paper's 32-thread baseline team is half a wavefront on mi100,
    // which the launch validator rejects; each backend gets a whole-warp
    // baseline team of its native width.
    let mat =
        CsrMatrix::generate(sz.spmv_rows, sz.spmv_rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let want = mat.spmv_ref(&x);
    let launch = |k: &CompiledKernel| -> (LaunchStats, f64) {
        let mut dev = Device::new(arch.arch());
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let (y, stats) = spmv::run(&mut dev, k, &ops);
        (stats, max_abs_err(&y, &want))
    };
    let base = launch(&spmv::build_two_level_on(sz.base_teams_spmv, arch.arch().warp_size));
    assert!(base.1 < 1e-9, "spmv baseline wrong");
    push("sparse_matvec", 0, base);
    for gs in GROUP_SIZES {
        push("sparse_matvec", gs, launch(&spmv::build_three_level(sz.teams, sz.threads, gs)));
    }

    // --- SU3_bench (baseline = group size 1) ----------------------------
    let w = su3::Su3Workload::generate(sz.su3_sites, 7);
    let want = w.reference();
    let launch = |gs| -> (LaunchStats, f64) {
        let mut dev = Device::new(arch.arch());
        let ops = su3::Su3Dev::upload(&mut dev, &w);
        let (c, stats) = su3::run(&mut dev, &su3::build(sz.teams, sz.threads, gs), &ops);
        (stats, max_abs_err(&c, &want))
    };
    let base = launch(1);
    assert!(base.1 < 1e-9, "su3 baseline wrong");
    push("su3_bench", 0, base);
    for gs in GROUP_SIZES {
        push("su3_bench", gs, launch(gs));
    }

    // --- ideal kernel (baseline = group size 1) -------------------------
    let w = ideal::IdealWorkload::generate(sz.ideal_outer, 3);
    let want = w.reference();
    let launch = |gs| -> (LaunchStats, f64) {
        let mut dev = Device::new(arch.arch());
        let ops = ideal::IdealDev::upload(&mut dev, &w);
        let (o, stats) = ideal::run(&mut dev, &ideal::build(sz.teams, sz.threads, gs), &ops);
        (stats, max_abs_err(&o, &want))
    };
    let base = launch(1);
    assert!(base.1 == 0.0, "ideal baseline wrong");
    push("ideal", 0, base);
    for gs in GROUP_SIZES {
        push("ideal", gs, launch(gs));
    }

    points
}

/// Run the figure: the a100 sweep's simd bars against their baselines.
pub fn run(quick: bool) -> Vec<Fig9Row> {
    let points = sweep(ArchId::A100, quick);
    with_base(&points)
        .filter(|(_, p)| p.config != 0)
        .map(|(base_cycles, p)| Fig9Row {
            kernel: p.kernel,
            group_size: p.config,
            base_cycles,
            simd_cycles: p.stats.cycles,
            speedup: speedup(base_cycles, p.stats.cycles),
            max_err: p.max_err,
        })
        .collect()
}

/// Print the paper-style table and persist JSON.
pub fn report(rows: &[Fig9Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.group_size.to_string(),
                r.base_cycles.to_string(),
                r.simd_cycles.to_string(),
                format!("{:.2}x", r.speedup),
                format!("{:.1e}", r.max_err),
            ]
        })
        .collect();
    print_table(
        "Fig 9: speedup of 3-level simd over the 2-level baseline",
        &["kernel", "group", "base_cycles", "simd_cycles", "speedup", "max_err"],
        &table,
    );
    for kernel in ["sparse_matvec", "su3_bench", "ideal"] {
        if let Some(best) = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        {
            println!("best {kernel}: {:.2}x at group size {}", best.speedup, best.group_size);
        }
    }
    save_json("fig9", rows);
}
