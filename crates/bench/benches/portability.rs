//! `cargo bench -p simt-omp-bench --bench portability` — the Fig 9 /
//! Fig 10 sweeps on every registered backend.
fn main() {
    let quick = simt_omp_bench::quick_from_args();
    let rows = simt_omp_bench::portability::run(quick);
    simt_omp_bench::portability::report(&rows);
}
