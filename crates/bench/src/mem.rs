//! mem — memory-traffic counters of the Fig 9 sweep.
//!
//! Projects every point of the a100 [`fig9::sweep`] (`sparse_matvec`,
//! `SU3_bench`, ideal × all SIMD group sizes plus the 2-level baselines)
//! and reports, per row, the cycle count, the speedup over the baseline,
//! and the traffic counters the memory model's makespan consumes:
//! compulsory DRAM sectors, 64-byte burst atoms (with the effective sector
//! count after the burst-granularity wall), L1 hits, and MLP stall cycles.
//!
//! The counters explain the speedup column: the model separates
//! issue-bound from DRAM-wall-bound configurations, which is what holds
//! `SU3_bench`'s benefit at the paper's ≤ 2× plateau while leaving
//! `sparse_matvec`'s interior peak intact (see `tests/memmodel.rs` for the
//! pinned shape contract).
//!
//! Emits `target/figures/BENCH_mem.json`.

use gpu_sim::ArchId;

use crate::fig9;
use crate::report::{print_table, save_json, JsonRow, JsonValue};
use crate::with_base;

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

/// Run the sweep: every Fig 9 configuration.
pub fn run(quick: bool) -> Vec<MemRow> {
    let points = fig9::sweep(ArchId::A100, quick);
    with_base(&points)
        .map(|(base_cycles, p)| {
            let s = &p.stats;
            MemRow {
                kernel: p.kernel,
                group_size: p.config,
                cycles: s.cycles,
                speedup: base_cycles as f64 / s.cycles as f64,
                dram_sectors: s.mem.dram_sectors,
                dram_atoms: s.mem.dram_atoms,
                dram_effective: s.mem.dram_sectors.max(2 * s.mem.dram_atoms),
                l1_hits: s.mem.l1_hits,
                mlp_stalls: s.mem.mlp_stalls,
            }
        })
        .collect()
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
