//! EXPERIMENTS.md as a checked artifact: the ablation table quotes the
//! pinned full-size ablations run, so a number copied by hand cannot drift
//! from it silently.

use std::path::Path;

/// The integers of one table row written with space-grouped thousands
/// (`65 907`): the cycle counts and counters the table quotes. Percentages,
/// byte sizes and group sizes are derived or configuration, not results.
fn grouped_integers(line: &str) -> Vec<u64> {
    let words: Vec<&str> = line.split([' ', '\u{a0}']).collect();
    let digits = |w: &str| !w.is_empty() && w.bytes().all(|b| b.is_ascii_digit());
    let mut out = Vec::new();
    let mut i = 0;
    while i < words.len() {
        let lead = words[i];
        let mut j = i + 1;
        if digits(lead) && lead.len() <= 3 {
            let mut n = lead.to_string();
            while j < words.len() && digits(words[j]) && words[j].len() == 3 {
                n.push_str(words[j]);
                j += 1;
            }
            if j > i + 1 {
                out.push(n.parse().unwrap());
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Every integer value (`"key": 123`) in a pinned JSON report.
fn json_integers(json: &str) -> Vec<u64> {
    json.lines()
        .filter_map(|l| {
            l.split_once("\": ").and_then(|(_, v)| v.trim_end_matches(',').parse().ok())
        })
        .collect()
}

/// Every grouped integer in EXPERIMENTS.md's ablation table appears in
/// `tests/golden/ablations.json`, the full-size `ablations` bench output CI
/// byte-compares. The dispatch-sweep table below it is not checked here:
/// its 24-body row (`12 752` / `12 788`) comes from the full-size dispatch
/// run, and the pinned `dispatch_quick.json` has no 24-body size.
#[test]
fn ablation_table_quotes_the_pinned_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let golden = std::fs::read_to_string(root.join("tests/golden/ablations.json")).unwrap();
    let pinned = json_integers(&golden);

    let section =
        doc.split_once("## Ablations").expect("EXPERIMENTS.md has an Ablations section").1;
    let table = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2);
    let mut quoted: Vec<u64> = table.flat_map(grouped_integers).collect();
    quoted.sort_unstable();
    quoted.dedup();
    assert_eq!(quoted.len(), 16, "ablation table numbers found: {quoted:?}");
    let missing: Vec<u64> = quoted.into_iter().filter(|n| !pinned.contains(n)).collect();
    assert!(missing.is_empty(), "EXPERIMENTS.md quotes {missing:?}, absent from ablations.json");
}
