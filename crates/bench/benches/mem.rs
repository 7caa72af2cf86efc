//! `cargo bench -p simt-omp-bench --bench mem` — memory-traffic counter
//! sweep over the Fig 9 kernels.
fn main() {
    let quick = simt_omp_bench::quick_from_args();
    let rows = simt_omp_bench::mem::run(quick);
    simt_omp_bench::mem::report(&rows);
}
