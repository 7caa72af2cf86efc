//! portability — the Fig 9 / Fig 10 sweeps ([`fig9::sweep`],
//! [`fig10::sweep`]) on every registered backend (`gpu_sim::ArchId`),
//! producing the per-backend numbers behind README's portability matrix.
//!
//! The a100 rows reproduce the paper's figures; the mi100 rows answer the
//! §5.4.1 question the paper leaves open: what do the same sweeps look
//! like on a wave64 part with **no wavefront-level barrier**, where every
//! generic-mode simd region executes through sequential-simd legalization
//! instead of the Fig 6 state machine? Each row therefore carries the
//! `sequential_simd_fallbacks` counter — nonzero exactly where the
//! legalized path ran — and each backend's relative speedups are computed
//! against *that backend's own* baseline, so the two columns are
//! independently self-consistent.
//!
//! Geometry notes: the sweeps use 128-thread teams (two wavefronts on
//! mi100) and group sizes {2,4,8,16,32}, all of which divide both warp
//! widths, so one kernel shape serves every backend. The one deviation is
//! the sparse_matvec 2-level baseline: the paper's 32-thread team is not
//! launchable on a wave64 device (blocks must be whole wavefronts), so
//! mi100's baseline uses one full 64-lane wavefront per team. The a100
//! rows are the fig9 / fig10 / mem numbers of the same sweeps.
//!
//! Emits `target/figures/BENCH_portability.json`.

use gpu_sim::{ArchId, LaunchStats};

use crate::report::{print_table, save_json, JsonRow, JsonValue};
use crate::{fig10, fig9, with_base};

/// The backends the matrix covers. `Tiny` is a test-only arch and stays
/// out of the figures.
pub const ARCHS: [ArchId; 2] = [ArchId::A100, ArchId::Mi100];

/// One (backend, figure, kernel, configuration) measurement.
#[derive(Clone, Debug)]
pub struct PortRow {
    /// Backend name (`ArchId::name`).
    pub arch: &'static str,
    /// Which figure's sweep the row belongs to (`fig9` or `fig10`).
    pub figure: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Configuration label: the group size for Fig 9 rows ("base" = the
    /// 2-level baseline), the execution-mode variant for Fig 10 rows.
    pub config: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup relative to the same backend's baseline row.
    pub relative: f64,
    /// Generic-simd groups that ran through sequential-simd legalization
    /// (§5.4.1) — zero on warp-synchronous backends.
    pub seq_fallbacks: u64,
    /// Max abs error against the host reference.
    pub max_err: f64,
}

impl JsonRow for PortRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("arch", JsonValue::Str(self.arch.to_string())),
            ("figure", JsonValue::Str(self.figure.to_string())),
            ("kernel", JsonValue::Str(self.kernel.to_string())),
            ("config", JsonValue::Str(self.config.clone())),
            ("cycles", JsonValue::U64(self.cycles)),
            ("relative", JsonValue::F64(self.relative)),
            ("seq_fallbacks", JsonValue::U64(self.seq_fallbacks)),
            ("max_err", JsonValue::F64(self.max_err)),
        ]
    }
}

fn row(
    arch: ArchId,
    figure: &'static str,
    kernel: &'static str,
    config: String,
    base_cycles: u64,
    s: &LaunchStats,
    max_err: f64,
) -> PortRow {
    PortRow {
        arch: arch.name(),
        figure,
        kernel,
        config,
        cycles: s.cycles,
        relative: base_cycles as f64 / s.cycles as f64,
        seq_fallbacks: s.counters.sequential_simd_fallbacks,
        max_err,
    }
}

/// Run the full matrix: both figures' sweeps on every backend.
pub fn run(quick: bool) -> Vec<PortRow> {
    let mut rows = Vec::new();
    for arch in ARCHS {
        let points = fig9::sweep(arch, quick);
        for (base, p) in with_base(&points) {
            let config = if p.config == 0 { "base".to_string() } else { p.config.to_string() };
            rows.push(row(arch, "fig9", p.kernel, config, base, &p.stats, p.max_err));
        }
        let points = fig10::sweep(arch, quick);
        for (base, p) in with_base(&points) {
            let config = p.config.label().to_string();
            rows.push(row(arch, "fig10", p.kernel, config, base, &p.stats, p.max_err));
        }
    }
    rows
}

/// Print the matrix table and persist `BENCH_portability.json`.
pub fn report(rows: &[PortRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.arch.to_string(),
                r.figure.to_string(),
                r.kernel.to_string(),
                r.config.clone(),
                r.cycles.to_string(),
                format!("{:.2}x", r.relative),
                r.seq_fallbacks.to_string(),
                format!("{:.1e}", r.max_err),
            ]
        })
        .collect();
    print_table(
        "portability: Fig 9 / Fig 10 sweeps per backend",
        &["arch", "figure", "kernel", "config", "cycles", "relative", "seq_fb", "max_err"],
        &table,
    );
    for arch in ARCHS {
        for kernel in ["sparse_matvec", "su3_bench", "ideal"] {
            if let Some(best) = rows
                .iter()
                .filter(|r| {
                    r.arch == arch.name()
                        && r.figure == "fig9"
                        && r.kernel == kernel
                        && r.config != "base"
                })
                .max_by(|a, b| a.relative.total_cmp(&b.relative))
            {
                println!(
                    "best {kernel} on {}: {:.2}x at group size {}",
                    arch.name(),
                    best.relative,
                    best.config
                );
            }
        }
    }
    save_json("BENCH_portability", rows);
}
