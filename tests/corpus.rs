//! Guards on the kernel corpus (`omp_kernels::corpus`), the one list of
//! in-tree kernel configurations.
//!
//! The corpus is swept per kernel: `tests/archmatrix.rs` checks every
//! entry in every `testkit::CELLS` cell (host reference, oracle cells,
//! sanitizer, stats across a backend's cells, bits across all cells and
//! the pinned `tests/golden/launch_stats.txt`), and `tests/bytecode.rs`
//! runs every entry through the tree-vs-bytecode oracle in every cell.
//! This suite checks that those per-kernel sweeps leave no entry out, that
//! the golden pins exactly the corpus, and that no kernel builder is
//! missing from the corpus.

use std::path::Path;

use simt_omp::kernels::corpus;
use testkit::CELLS;

/// The kernels the per-kernel sweeps name, one test each.
const KERNELS: [&str; 7] = ["ideal", "su3", "spmv", "laplace3d", "muram", "batched", "stencil2d"];

const GOLDEN: &str = "tests/golden/launch_stats.txt";

/// Every entry belongs to a swept kernel, every swept kernel has an entry,
/// and the golden holds one line per entry and backend, in corpus order.
#[test]
fn every_entry_is_swept_and_pinned() {
    let entries = corpus::entries(4, 64);
    for e in &entries {
        assert!(KERNELS.contains(&e.kernel()), "{}: no per-kernel sweep runs it", e.name);
    }
    for k in KERNELS {
        assert!(entries.iter().any(|e| e.kernel() == k), "the corpus has no {k} entry");
    }
    let mut archs: Vec<&str> = Vec::new();
    for c in &CELLS {
        if !archs.contains(&c.arch) {
            archs.push(c.arch);
        }
    }
    let pinned = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
        .unwrap_or_default();
    let mut lines = pinned.lines();
    for e in &entries {
        for arch in &archs {
            let name = &e.name;
            let prefix = format!("{name:<46} {arch:<5} stats ");
            let line = lines.next().unwrap_or_default();
            assert!(line.starts_with(&prefix), "{GOLDEN}: want {prefix:?}..., got {line:?}");
        }
    }
    assert_eq!(lines.next(), None, "{GOLDEN} pins a line past the corpus");
}

/// Builders that are not corpus entries, and why.
const EXEMPT: [(&str, &str); 4] = [
    (
        "plangen",
        "the seeded random-plan generator; its plans are swept by the random-plan properties",
    ),
    (
        "stencil2d::build_halo_demo",
        "a hand-seeded 1x32 demo whose `sync = false` form is a deliberate race; \
         crates/codegen/tests/lint.rs and the stencil2d unit tests check both forms",
    ),
    (
        "stencil2d::build_default",
        "`build` at the default sharing space, which the halo-shared entries name",
    ),
    (
        "spmv::build_two_level",
        "the paper's 32-thread baseline cannot launch on the 64-wide mi100, so \
         `build_two_level_on` stands for it; tests/memmodel.rs runs it on both engines",
    ),
];

/// A `pub fn build*` in `crates/kernels/src/*.rs` must be named in
/// `corpus.rs`, so a new kernel configuration cannot skip the sweep.
#[test]
fn every_builder_is_in_the_corpus() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/kernels/src");
    let corpus = std::fs::read_to_string(src.join("corpus.rs")).unwrap();
    let mut missing = Vec::new();
    let mut builders = 0;
    for file in std::fs::read_dir(&src).unwrap() {
        let path = file.unwrap().path();
        let module = path.file_stem().unwrap().to_str().unwrap().to_string();
        if EXEMPT.iter().any(|(m, _)| *m == module) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines().filter_map(|l| l.trim_start().strip_prefix("pub fn build")) {
            let name = format!("{module}::build{}", line.split('(').next().unwrap());
            builders += 1;
            if !EXEMPT.iter().any(|(n, _)| *n == name) && !corpus.contains(&format!("{name}(")) {
                missing.push(name);
            }
        }
    }
    assert!(builders >= 12, "the scan found only {builders} builders");
    assert!(missing.is_empty(), "builders not in crates/kernels/src/corpus.rs: {missing:?}");
}
