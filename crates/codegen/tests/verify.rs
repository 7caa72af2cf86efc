//! Flat-bytecode verifier suite: every entry of the kernel corpus
//! (`omp_kernels::corpus`) on both backends and a seeded random stream
//! must verify unmutated, and every seeded single-fault mutant
//! (wrong cascade position, flipped body form, overlapping/truncated PC
//! ranges, off-by-one staging geometry, misclassified trip sources,
//! dropped mapping tables) must be rejected.

use std::collections::BTreeSet;

use gpu_sim::DeviceArch;
use omp_codegen::CompiledKernel;
use omp_kernels::plangen::random_kernel;
use omp_kernels::{corpus, su3};
use testkit::cases;

/// Verify the kernel's lowering clean, then assert every seeded mutant is
/// rejected. Returns the labels of the mutations that were applicable.
fn verify_and_mutate(
    k: &CompiledKernel,
    arch: &DeviceArch,
    nargs: usize,
    label: &str,
) -> Vec<&'static str> {
    // `flat_program` runs the verifier as a compile gate already; the
    // explicit call makes the clean-pass assertion independent of that
    // wiring.
    let prog = k.flat_program(arch, nargs);
    prog.verify(&k.plan, &k.registry, &k.config, arch, nargs)
        .unwrap_or_else(|e| panic!("{label}: verifier rejected an unmutated lowering: {e}"));
    let mut applied = Vec::new();
    for (mlabel, mutant) in prog.seeded_mutations() {
        assert!(
            mutant.verify(&k.plan, &k.registry, &k.config, arch, nargs).is_err(),
            "{label}: seeded mutation '{mlabel}' slipped past the verifier"
        );
        applied.push(mlabel);
    }
    applied
}

#[test]
fn in_tree_kernels_verify_and_reject_all_mutants() {
    for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
        for e in corpus::entries(2, 64) {
            let applied = verify_and_mutate(&e.kernel, &arch, e.nargs, &e.name);
            assert!(
                !applied.is_empty(),
                "{}: no mutation had an applicable site — generator regressed",
                e.name
            );
        }
    }
}

#[test]
fn random_plans_verify_and_reject_all_mutants() {
    // 40 seeded plans from the shared generator; detection must be 100%
    // (the acceptance bar is >= 95% of documented seeded mutations), and
    // between them the plans must exercise every documented mutation
    // class.
    let mut covered: BTreeSet<&'static str> = BTreeSet::new();
    cases("flat_verifier_fuzz", 40, |rng| {
        let (k, arch) = random_kernel(rng);
        covered.extend(verify_and_mutate(&k, &arch, 3, "random plan"));
    });
    for class in [
        "block-end-shrunk",
        "block-end-grown",
        "stage-slots-up",
        "stage-slots-down",
        "post-slots-up",
        "team-fit-flip",
        "group-fit-flip",
        "gs-shift-up",
        "leader-lanes-truncated",
        "num-groups-up",
        "stage-regs-up",
        "cascade-pos-up",
        "cascade-to-indirect",
        "indirect-to-cascade",
        "body-form-flip",
        "trip-const-up",
        "trip-pure-to-const",
        "trip-lane-to-const",
    ] {
        assert!(covered.contains(class), "mutation class '{class}' never had an applicable site");
    }
}

#[test]
fn plan_hash_folds_the_body_form() {
    // The twins share every plan shape and registry position; only the
    // body form, which the lowering bakes in, tells them apart.
    let warp = su3::build(4, 64, 8).plan_hash();
    assert_eq!(warp, su3::build(4, 64, 8).plan_hash(), "the hash is a pure function of the kernel");
    assert_ne!(warp, su3::build_per_lane(4, 64, 8).plan_hash());
}
