//! Library code reads no environment. A launch depends only on its
//! arguments: the configurations a test runs in (sim threads, backend,
//! sanitizer, differential oracle) are `testkit::Cell`s the test names, not
//! process-wide variables. This suite scans every `crates/*/src` and `src`
//! file and fails on a `"SIMT_*"` knob literal or a `std::env::var*` call
//! outside the allow-list below, so a new reader is a deliberate change.

use std::path::{Path, PathBuf};

/// The readers that remain, each with the reason it is not a knob.
const ALLOWED: [(&str, &str); 2] = [
    (
        "crates/bench/src/report.rs",
        "`figures_dir` honours cargo's own `CARGO_TARGET_DIR`, so figure JSON lands in the \
         target directory the harness was built into",
    ),
    (
        "crates/bench/src/bin/simbench/main.rs",
        "the benchmark driver strips every variable with the bare `SIMT_` prefix from its \
         children's environment, so a stale shell setting cannot change what it measures",
    ),
];

/// Every `.rs` file under `dir`, skipping build output directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Knob names opened by a `"SIMT_` string literal in `src`. A bare
/// `"SIMT_"` prefix (an env scan, not a knob) is not a name.
fn knob_literals(src: &str) -> impl Iterator<Item = &str> {
    src.match_indices("\"SIMT_").filter_map(|(i, _)| {
        let rest = &src[i + 1..];
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..end];
        (name.len() > "SIMT_".len()).then_some(name)
    })
}

#[test]
fn library_code_reads_no_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "source scan found only {} files", files.len());

    let mut readers = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f).unwrap();
        let rel = f.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        let knobs: Vec<&str> = knob_literals(&src).collect();
        assert!(knobs.is_empty(), "{rel} names environment knobs {knobs:?}");
        if src.contains("env::var") {
            readers.push(rel);
        }
    }
    readers.sort();
    let mut allowed: Vec<String> = ALLOWED.iter().map(|(f, _)| f.to_string()).collect();
    allowed.sort();
    assert_eq!(readers, allowed, "files calling std::env::var* in crates/*/src and src");
}
