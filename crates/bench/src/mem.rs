//! mem — memory-traffic counter sweep over the Fig 9 kernels.
//!
//! Runs every Fig 9 configuration (`sparse_matvec`, `SU3_bench`, ideal ×
//! all SIMD group sizes plus the 2-level baselines) and reports, per row,
//! the cycle count, the speedup over the baseline, and the traffic
//! counters the memory model's makespan consumes: compulsory DRAM
//! sectors, 64-byte burst atoms (with the effective sector count after the
//! burst-granularity wall), L1 hits, and MLP stall cycles.
//!
//! The counters explain the speedup column: the model separates
//! issue-bound from DRAM-wall-bound configurations, which is what holds
//! `SU3_bench`'s benefit at the paper's ≤ 2× plateau while leaving
//! `sparse_matvec`'s interior peak intact (see `tests/memmodel.rs` for the
//! pinned shape contract).
//!
//! Emits `target/figures/BENCH_mem.json`.

use gpu_sim::{Device, LaunchStats};
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::{ideal, spmv, su3};

use crate::report::{print_table, save_json, JsonRow, JsonValue};

/// SIMD group sizes swept (0 stands for the 2-level baseline row).
pub const GROUP_SIZES: [u32; 5] = [2, 4, 8, 16, 32];

/// One (kernel, group size) measurement.
#[derive(Clone, Debug)]
pub struct MemRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// SIMD group size (0 = the 2-level baseline).
    pub group_size: u32,
    /// Simulated cycles.
    pub cycles: u64,
    /// Baseline cycles divided by `cycles`.
    pub speedup: f64,
    /// Compulsory (first-touch) DRAM sectors.
    pub dram_sectors: u64,
    /// 64-byte DRAM burst atoms of the compulsory traffic.
    pub dram_atoms: u64,
    /// Effective DRAM sectors after the burst-granularity wall:
    /// `max(dram_sectors, 2 × dram_atoms)`.
    pub dram_effective: u64,
    /// L1 hit transactions (temporal reuse inside a warp's window).
    pub l1_hits: u64,
    /// Cycles the DRAM roof lost to the memory-level-parallelism cap.
    pub mlp_stalls: u64,
}

impl JsonRow for MemRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("kernel", JsonValue::Str(self.kernel.to_string())),
            ("group_size", JsonValue::U64(self.group_size as u64)),
            ("cycles", JsonValue::U64(self.cycles)),
            ("speedup", JsonValue::F64(self.speedup)),
            ("dram_sectors", JsonValue::U64(self.dram_sectors)),
            ("dram_atoms", JsonValue::U64(self.dram_atoms)),
            ("dram_effective", JsonValue::U64(self.dram_effective)),
            ("l1_hits", JsonValue::U64(self.l1_hits)),
            ("mlp_stalls", JsonValue::U64(self.mlp_stalls)),
        ]
    }
}

struct Sizes {
    spmv_rows: usize,
    su3_sites: usize,
    ideal_outer: usize,
    teams: u32,
    threads: u32,
    base_teams_spmv: u32,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            spmv_rows: 32_768,
            su3_sites: 27_648,
            ideal_outer: 27_648,
            teams: 108,
            threads: 128,
            base_teams_spmv: 1_728,
        }
    } else {
        Sizes {
            spmv_rows: 65_536,
            su3_sites: 55_296,
            ideal_outer: 55_296,
            teams: 108,
            threads: 128,
            base_teams_spmv: 3_456,
        }
    }
}

fn row(kernel: &'static str, group_size: u32, base_cycles: u64, s: &LaunchStats) -> MemRow {
    MemRow {
        kernel,
        group_size,
        cycles: s.cycles,
        speedup: base_cycles as f64 / s.cycles as f64,
        dram_sectors: s.mem.dram_sectors,
        dram_atoms: s.mem.dram_atoms,
        dram_effective: s.mem.dram_sectors.max(2 * s.mem.dram_atoms),
        l1_hits: s.mem.l1_hits,
        mlp_stalls: s.mem.mlp_stalls,
    }
}

/// Run the sweep: every Fig 9 configuration.
pub fn run(quick: bool) -> Vec<MemRow> {
    let sz = sizes(quick);
    let mut rows = Vec::new();

    let mat =
        CsrMatrix::generate(sz.spmv_rows, sz.spmv_rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..mat.ncols).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    let su3_w = su3::Su3Workload::generate(sz.su3_sites, 7);
    let ideal_w = ideal::IdealWorkload::generate(sz.ideal_outer, 3);

    // --- sparse_matvec ---------------------------------------------
    let base = {
        let mut dev = Device::a100();
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let (_, s) = spmv::run(&mut dev, &spmv::build_two_level(sz.base_teams_spmv), &ops);
        rows.push(row("sparse_matvec", 0, s.cycles, &s));
        s.cycles
    };
    for gs in GROUP_SIZES {
        let mut dev = Device::a100();
        let ops = spmv::SpmvDev::upload(&mut dev, &mat, &x);
        let (_, s) = spmv::run(&mut dev, &spmv::build_three_level(sz.teams, sz.threads, gs), &ops);
        rows.push(row("sparse_matvec", gs, base, &s));
    }

    // --- SU3_bench (baseline = group size 1) ------------------------
    let base = {
        let mut dev = Device::a100();
        let ops = su3::Su3Dev::upload(&mut dev, &su3_w);
        let (_, s) = su3::run(&mut dev, &su3::build(sz.teams, sz.threads, 1), &ops);
        rows.push(row("su3_bench", 0, s.cycles, &s));
        s.cycles
    };
    for gs in GROUP_SIZES {
        let mut dev = Device::a100();
        let ops = su3::Su3Dev::upload(&mut dev, &su3_w);
        let (_, s) = su3::run(&mut dev, &su3::build(sz.teams, sz.threads, gs), &ops);
        rows.push(row("su3_bench", gs, base, &s));
    }

    // --- ideal (baseline = group size 1) ----------------------------
    let base = {
        let mut dev = Device::a100();
        let ops = ideal::IdealDev::upload(&mut dev, &ideal_w);
        let (_, s) = ideal::run(&mut dev, &ideal::build(sz.teams, sz.threads, 1), &ops);
        rows.push(row("ideal", 0, s.cycles, &s));
        s.cycles
    };
    for gs in GROUP_SIZES {
        let mut dev = Device::a100();
        let ops = ideal::IdealDev::upload(&mut dev, &ideal_w);
        let (_, s) = ideal::run(&mut dev, &ideal::build(sz.teams, sz.threads, gs), &ops);
        rows.push(row("ideal", gs, base, &s));
    }
    rows
}

/// Print the sweep table and persist `BENCH_mem.json`.
pub fn report(rows: &[MemRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                if r.group_size == 0 { "base".to_string() } else { r.group_size.to_string() },
                r.cycles.to_string(),
                format!("{:.2}x", r.speedup),
                r.dram_sectors.to_string(),
                r.dram_atoms.to_string(),
                r.dram_effective.to_string(),
                r.l1_hits.to_string(),
                r.mlp_stalls.to_string(),
            ]
        })
        .collect();
    print_table(
        "mem: memory-traffic counters across the Fig 9 sweep",
        &[
            "kernel",
            "group",
            "cycles",
            "speedup",
            "dram_sect",
            "dram_atoms",
            "effective",
            "l1_hits",
            "mlp_stalls",
        ],
        &table,
    );
    for kernel in ["sparse_matvec", "su3_bench", "ideal"] {
        if let Some(best) = rows
            .iter()
            .filter(|r| r.kernel == kernel && r.group_size != 0)
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        {
            println!("best {kernel}: {:.2}x at group size {}", best.speedup, best.group_size);
        }
    }
    save_json("BENCH_mem", rows);
}
