//! Fig 10 — performance cost of the implementation: relative speedup of
//! {No SIMD, SPMD SIMD, Generic SIMD} for `laplace3d`, `muram_transpose`
//! and `muram_interpol` (paper §6.4).
//!
//! Paper shapes to reproduce: SPMD SIMD performs like No SIMD (laplace3d
//! and interpol marginally better); Generic SIMD pays roughly a 15 %
//! state-machine penalty. Teams are always SPMD; teams/threads constant;
//! SIMD group size 32.

use gpu_sim::{ArchId, Device};
use omp_kernels::harness::{max_abs_err, speedup, Fig10Variant};
use omp_kernels::laplace3d;
use omp_kernels::muram::{self, MuramKernel};

use crate::report::{print_table, save_json, JsonRow, JsonValue};
use crate::{with_base, Point, Sizes};

/// One bar of Fig 10.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Execution-mode variant.
    pub variant: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup relative to the kernel's "No SIMD" bar (1.0 for the bar
    /// itself).
    pub relative: f64,
    /// Max abs error against the host reference.
    pub max_err: f64,
}

impl JsonRow for Fig10Row {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("kernel", JsonValue::Str(self.kernel.to_string())),
            ("variant", JsonValue::Str(self.variant.to_string())),
            ("cycles", JsonValue::U64(self.cycles)),
            ("relative", JsonValue::F64(self.relative)),
            ("max_err", JsonValue::F64(self.max_err)),
        ]
    }
}

/// The figure's launches on `arch`: per kernel, every execution-mode
/// variant in [`Fig10Variant::ALL`] order ("No SIMD", the baseline, first),
/// each on a fresh device.
pub fn sweep(arch: ArchId, quick: bool) -> Vec<Point<Fig10Variant>> {
    let sz = Sizes::of(quick);
    let mut points = Vec::new();

    let w = laplace3d::Laplace3dWorkload::generate(sz.fig10_n);
    let want = w.reference();
    for variant in Fig10Variant::ALL {
        let mut dev = Device::new(arch.arch());
        let ops = laplace3d::Laplace3dDev::upload(&mut dev, &w);
        let k = laplace3d::build(sz.teams, sz.threads, variant);
        let (out, stats) = laplace3d::run(&mut dev, &k, &ops);
        points.push(Point {
            kernel: "laplace3d",
            config: variant,
            stats,
            max_err: max_abs_err(&out, &want),
        });
    }

    for (name, which) in
        [("muram_transpose", MuramKernel::Transpose), ("muram_interpol", MuramKernel::Interpol)]
    {
        let w = muram::MuramWorkload::generate(sz.fig10_n);
        let want = w.reference(which);
        for variant in Fig10Variant::ALL {
            let mut dev = Device::new(arch.arch());
            let ops = muram::MuramDev::upload(&mut dev, &w);
            let k = muram::build(which, sz.teams, sz.threads, variant);
            let (out, stats) = muram::run(&mut dev, &k, &ops);
            points.push(Point {
                kernel: name,
                config: variant,
                stats,
                max_err: max_abs_err(&out, &want),
            });
        }
    }

    points
}

/// Run the figure: the a100 sweep, relative to each kernel's "No SIMD" bar.
pub fn run(quick: bool) -> Vec<Fig10Row> {
    let points = sweep(ArchId::A100, quick);
    with_base(&points)
        .map(|(base, p)| Fig10Row {
            kernel: p.kernel,
            variant: p.config.label(),
            cycles: p.stats.cycles,
            relative: speedup(base, p.stats.cycles),
            max_err: p.max_err,
        })
        .collect()
}

/// Print the paper-style table and persist JSON.
pub fn report(rows: &[Fig10Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.variant.to_string(),
                r.cycles.to_string(),
                format!("{:.3}x", r.relative),
                format!("{:.1e}", r.max_err),
            ]
        })
        .collect();
    print_table(
        "Fig 10: relative speedup of SIMD execution modes (vs No SIMD)",
        &["kernel", "variant", "cycles", "relative", "max_err"],
        &table,
    );
    save_json("fig10", rows);
}
