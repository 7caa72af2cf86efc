//! Environment-knob inventory. Every `SIMT_*` variable the workspace reads
//! appears as a string literal in some crate's `src`; this suite collects
//! those literals and pins the set, so adding a knob is a deliberate,
//! documented change rather than one more ad-hoc `std::env::var`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The knobs, each with exactly one reader.
const KNOBS: [&str; 4] = ["SIMT_SANITIZE", "SIMT_SIM_ARCH", "SIMT_SIM_ORACLE", "SIMT_SIM_THREADS"];

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
fn env_knobs_are_exactly_the_documented_four() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "source scan found only {} files", files.len());

    let mut found = BTreeSet::new();
    for f in &files {
        let src = std::fs::read_to_string(f).unwrap();
        found.extend(knob_literals(&src).map(str::to_string));
    }
    let want: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
    assert_eq!(found, want, "SIMT_* knobs in crates/*/src and src");

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    for k in KNOBS {
        assert!(readme.contains(k), "{k} is not documented in README.md");
    }
}
