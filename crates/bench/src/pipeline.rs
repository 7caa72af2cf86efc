//! Pipeline ablation: double-buffered chunked offload vs the serialized
//! baseline, on the virtual timeline.
//!
//! The workload is the paper's `sparse_matvec` sharded by
//! [`CsrMatrix::row_slice`]. The **serialized** leg runs upload → kernel →
//! download for every chunk on one stream, so the DMA links and the compute
//! engine take strict turns. The **pipelined** leg puts transfers on a copy
//! stream and kernels on a compute stream with event edges between them
//! (the `target nowait` + `depend` pattern): on the virtual timeline, the
//! H2D link feeds chunk *k+1* and the D2H link drains chunk *k−1* while the
//! kernel chews chunk *k*. Both legs execute the identical op set — same
//! per-op cycle costs — so the makespan difference is pure overlap, and
//! `overlap_ratio = 1 − makespan/serialized` reports exactly the fraction
//! of the naive schedule the pipeline hides.

use gpu_sim::DeviceArch;
use omp_host::HostRuntime;
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::spmv;

use crate::report::{print_table, save_json, JsonRow, JsonValue};

/// One pipeline-ablation measurement.
#[derive(Clone, Debug)]
pub struct PipeRow {
    /// Leg label (`serialized` / `pipelined`).
    pub leg: &'static str,
    /// Number of row chunks the matrix was split into.
    pub chunks: u64,
    /// End-to-end simulated cycles on the virtual timeline.
    pub makespan: u64,
    /// Sum of all op costs (the no-overlap reference).
    pub serialized: u64,
    /// Longest dependence-only chain.
    pub critical_path: u64,
    /// `1 − makespan/serialized`.
    pub overlap_ratio: f64,
    /// Busy cycles on the H2D link.
    pub h2d_busy: u64,
    /// Busy cycles on the D2H link.
    pub d2h_busy: u64,
    /// Busy cycles on the compute engine.
    pub compute_busy: u64,
    /// Max |y − y_ref| over the assembled result (correctness guard).
    pub max_err: f64,
}

impl JsonRow for PipeRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("leg", JsonValue::Str(self.leg.to_string())),
            ("chunks", JsonValue::U64(self.chunks)),
            ("makespan", JsonValue::U64(self.makespan)),
            ("serialized", JsonValue::U64(self.serialized)),
            ("critical_path", JsonValue::U64(self.critical_path)),
            ("overlap_ratio", JsonValue::F64(self.overlap_ratio)),
            ("h2d_busy", JsonValue::U64(self.h2d_busy)),
            ("d2h_busy", JsonValue::U64(self.d2h_busy)),
            ("compute_busy", JsonValue::U64(self.compute_busy)),
            ("max_err", JsonValue::F64(self.max_err)),
        ]
    }
}

fn workload(rows: usize) -> (CsrMatrix, Vec<f64>) {
    let mat = CsrMatrix::generate(rows, rows, RowProfile::Banded { min: 4, max: 44 }, 42);
    let x: Vec<f64> = (0..rows).map(|i| ((i * 13) % 31) as f64 * 0.0625).collect();
    (mat, x)
}

/// Bytes on the H2D link for one chunk's CSR operand (values + columns +
/// rebased row pointers).
fn chunk_h2d_bytes(c: &CsrMatrix) -> u64 {
    (c.nnz() * (8 + 8) + (c.nrows + 1) * 8) as u64
}

/// Run one leg: split the matrix into `chunks` row slices and execute
/// upload → kernel → download per chunk. With `pipelined` the transfers
/// ride a copy stream and kernels a compute stream, chained by events;
/// otherwise everything queues on a single stream in program order.
pub fn run_leg(rows: usize, chunks: usize, pipelined: bool) -> PipeRow {
    let (mat, x) = workload(rows);
    let want = mat.spmv_ref(&x);
    let rt = HostRuntime::with_archs(vec![DeviceArch::a100()]);
    let copy = rt.stream(0);
    let compute = rt.stream(0);
    let down = rt.stream(0);
    // Pipelined leg: uploads, kernels, and downloads each get their own
    // in-order stream, chained per chunk by events — so h2d(k+1), kernel(k)
    // and d2h(k−1) overlap on the timeline (the DMA link is duplex).
    // Serialized leg: everything funnels through one stream.
    let (copy_q, compute_q, down_q) =
        if pipelined { (&copy, &compute, &down) } else { (&copy, &copy, &copy) };

    // The dense operand x is shared by every chunk: one up-front upload.
    let x_bytes = (x.len() * 8) as u64;
    copy_q.enqueue_h2d(move |md| {
        let model = md.model;
        md.xfer.record_h2d(&model, x_bytes);
        model.cycles_for(x_bytes)
    });
    let x_ready = copy_q.record_event();
    compute_q.wait_event(&x_ready);

    let per = rows.div_ceil(chunks);
    let k = spmv::build_three_level(108, 128, 8);
    let mut y = Vec::with_capacity(rows);
    for c in 0..chunks {
        let (lo, hi) = (c * per, ((c + 1) * per).min(rows));
        let slice = mat.row_slice(lo, hi);
        let bytes = chunk_h2d_bytes(&slice);
        let y_bytes = (slice.nrows * 8) as u64;
        // The H2D op lands the chunk's operand; the compute op (gated by
        // the chunk's event when pipelined) runs the kernel; the D2H op
        // (gated by the kernel's event) drains the chunk's y.
        let mut ops = None;
        copy_q.enqueue_h2d(|md| {
            ops = Some(spmv::SpmvDev::upload(&mut md.dev, &slice, &x));
            let model = md.model;
            md.xfer.record_h2d(&model, bytes);
            model.cycles_for(bytes)
        });
        let uploaded = copy_q.record_event();
        compute_q.wait_event(&uploaded);
        compute_q.enqueue(|md| {
            let ops = ops.expect("chunk uploaded before compute");
            let (chunk_y, stats) = spmv::run(&mut md.dev, &k, &ops);
            y.extend(chunk_y);
            stats.cycles
        });
        let computed = compute_q.record_event();
        down_q.wait_event(&computed);
        down_q.enqueue_d2h(|md| {
            let model = md.model;
            md.xfer.record_d2h(&model, y_bytes);
            model.cycles_for(y_bytes)
        });
    }

    let max_err = y.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);

    let stats = rt.timeline_stats();
    let busy = &stats.per_device[0].busy;
    PipeRow {
        leg: if pipelined { "pipelined" } else { "serialized" },
        chunks: chunks as u64,
        makespan: stats.makespan,
        serialized: stats.serialized,
        critical_path: stats.critical_path,
        overlap_ratio: stats.overlap_ratio,
        h2d_busy: busy.h2d,
        d2h_busy: busy.d2h,
        compute_busy: busy.compute,
        max_err,
    }
}

/// Run the ablation: serialized baseline plus pipelined legs over a chunk
/// sweep.
pub fn run_all(quick: bool) -> Vec<PipeRow> {
    let rows = if quick { 8_192 } else { 32_768 };
    let mut out = vec![run_leg(rows, 4, false)];
    for chunks in [2usize, 4, 8] {
        out.push(run_leg(rows, chunks, true));
    }
    out
}

/// Print the table and persist `target/figures/pipeline.json`.
pub fn report(rows: &[PipeRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.leg.to_string(),
                r.chunks.to_string(),
                r.makespan.to_string(),
                r.serialized.to_string(),
                format!("{:.3}", r.overlap_ratio),
                r.h2d_busy.to_string(),
                r.compute_busy.to_string(),
                r.d2h_busy.to_string(),
                format!("{:.1e}", r.max_err),
            ]
        })
        .collect();
    print_table(
        "Pipeline: double-buffered chunked offload vs serialized",
        &["leg", "chunks", "makespan", "serialized", "overlap", "h2d", "compute", "d2h", "err"],
        &table,
    );
    save_json("pipeline", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_leg_beats_the_serialized_baseline() {
        let base = run_leg(2_048, 4, false);
        let pipe = run_leg(2_048, 4, true);
        // Identical op set ⇒ identical serialized reference and busy totals.
        assert_eq!(base.serialized, pipe.serialized);
        assert_eq!(
            (base.h2d_busy, base.compute_busy, base.d2h_busy),
            (pipe.h2d_busy, pipe.compute_busy, pipe.d2h_busy)
        );
        // One stream cannot overlap anything.
        assert_eq!(base.makespan, base.serialized);
        assert_eq!(base.overlap_ratio, 0.0);
        // The pipeline must genuinely hide transfer time behind compute.
        assert!(
            pipe.makespan < base.makespan,
            "pipelined {} !< serialized {}",
            pipe.makespan,
            base.makespan
        );
        assert!(pipe.overlap_ratio > 0.0);
        assert!(pipe.critical_path <= pipe.makespan);
        // Both legs compute the right answer.
        assert!(base.max_err < 1e-9, "{}", base.max_err);
        assert!(pipe.max_err < 1e-9, "{}", pipe.max_err);
    }
}
