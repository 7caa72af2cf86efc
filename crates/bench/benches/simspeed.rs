//! `cargo bench -p simt-omp-bench --bench simspeed` — the sanitizer's and
//! the tree walker's cost in simulator wall-clock.
fn main() {
    let quick = simt_omp_bench::quick_from_args();
    let rows = simt_omp_bench::simspeed::run(quick);
    simt_omp_bench::simspeed::report(&rows);
}
