//! `simtlint` — run the static plan verifier over every in-tree kernel.
//!
//! Lints every entry of the kernel corpus (`omp_kernels::corpus`) at the
//! benchmark geometry (108 teams × 128 threads) on both registered
//! backends, and prints the human-readable report. Flags:
//!
//! * `--json`           also persist one row per diagnostic to
//!   `target/figures/simtlint.json` (schema documented in README §simtlint:
//!   one object per diagnostic with `kernel`, `arch`, `severity`, `code`,
//!   `region`, `message` string fields — stable across releases, new
//!   fields may be added but existing ones keep their names and meaning);
//! * `--deny-warnings`  exit non-zero if any entry not expected to warn
//!   (`Entry::warns`) has warnings (CI runs this so degenerate
//!   configurations cannot land silently);
//! * `--fuzz`           also lint 40 seeded random plans from the shared
//!   generator (`omp_kernels::plangen`) and force each through the
//!   flat-bytecode verifier gate; random plans deliberately include
//!   degenerate schedules, so their *warnings* do not count toward
//!   `--deny-warnings` — only errors fail the leg;
//! * `--quick`          no effect (accepted for harness symmetry).
//!
//! Exit status: 1 if any kernel has `Error`-severity diagnostics (always),
//! or any unexpected warnings under `--deny-warnings`; 0 otherwise.

use gpu_sim::ArchId;
use omp_codegen::Severity;
use omp_kernels::corpus;
use simt_omp_bench::report::{save_json, JsonRow, JsonValue};

struct LintRow {
    kernel: String,
    arch: &'static str,
    severity: String,
    code: &'static str,
    region: String,
    message: String,
}

impl JsonRow for LintRow {
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("kernel", JsonValue::Str(self.kernel.clone())),
            ("arch", JsonValue::Str(self.arch.to_string())),
            ("severity", JsonValue::Str(self.severity.clone())),
            ("code", JsonValue::Str(self.code.to_string())),
            ("region", JsonValue::Str(self.region.clone())),
            ("message", JsonValue::Str(self.message.clone())),
        ]
    }
}

/// The `--fuzz` leg: lint 40 seeded random plans and run each through the
/// flat-bytecode verifier (the `flat_program` compile gate panics if the
/// lowered side tables disagree with the plan). Returns the error count;
/// warnings are expected — the generator deliberately emits zero trips and
/// `Dynamic(0)` chunks — and are reported but never gate.
fn fuzz_random_plans() -> usize {
    use omp_kernels::plangen::{random_kernel, SimRng};
    const CASES: u64 = 40;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for case in 0..CASES {
        // Deterministic per-case stream, decorrelated by the seed scramble.
        let mut rng = SimRng::seed_from_u64(0x51A7_71A7 ^ case.wrapping_mul(0x9E37_79B9));
        let (k, arch) = random_kernel(&mut rng);
        let report = k.lint(&arch, 3);
        if report.count(Severity::Error) > 0 {
            print!("{}", report.render(&format!("fuzz case {case} ({})", arch.name)));
        }
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        // Verifier gate: panics (failing the leg loudly) on any side-table
        // inconsistency between the lowering and the plan.
        let _ = k.flat_program(&arch, 3);
    }
    println!(
        "simtlint --fuzz: {CASES} random plans linted + bytecode-verified, \
         {errors} error(s), {warnings} warning(s) (warnings expected, not gating)"
    );
    errors
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let fuzz = args.iter().any(|a| a == "--fuzz");

    let mut rows: Vec<LintRow> = Vec::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut expected_warnings = 0usize;
    let entries = corpus::entries(108, 128);
    for id in [ArchId::A100, ArchId::Mi100] {
        for e in &entries {
            let report = e.kernel.lint(&id.arch(), e.nargs);
            print!("{}", report.render(&format!("{} ({})", e.name, id.name())));
            errors += report.count(Severity::Error);
            let w = report.count(Severity::Warning);
            if e.warns {
                expected_warnings += w;
            } else {
                warnings += w;
            }
            for d in &report.diags {
                rows.push(LintRow {
                    kernel: e.name.clone(),
                    arch: id.name(),
                    severity: d.severity.to_string(),
                    code: d.code,
                    region: d.region.clone(),
                    message: d.message.clone(),
                });
            }
        }
    }
    println!(
        "\nsimtlint: {errors} error(s), {warnings} unexpected and {expected_warnings} expected \
         warning(s) across {} entries on 2 backends",
        entries.len()
    );
    if fuzz {
        errors += fuzz_random_plans();
    }
    if json {
        save_json("simtlint", &rows);
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
