//! Flat-bytecode verifier suite: every in-tree kernel and a seeded random
//! stream must verify unmutated, and every seeded single-fault mutant
//! (wrong cascade position, flipped body form, overlapping/truncated PC
//! ranges, off-by-one staging geometry, misclassified trip sources,
//! dropped mapping tables) must be rejected.

use std::collections::BTreeSet;

use gpu_sim::DeviceArch;
use omp_codegen::CompiledKernel;
use omp_kernels::plangen::random_kernel;
use omp_kernels::{ideal, spmv, stencil2d, su3};
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
    let kernels: Vec<(&str, CompiledKernel)> = vec![
        ("ideal gs=1", ideal::build(4, 64, 1)),
        ("ideal gs=8", ideal::build(4, 64, 8)),
        ("ideal forced-generic", ideal::build_forced_generic(2, 64, 8)),
        ("su3 warp form", su3::build(4, 64, 8)),
        ("su3 per lane", su3::build_per_lane(4, 64, 8)),
        ("spmv two-level", spmv::build_two_level(8)),
        ("spmv three-level", spmv::build_three_level(8, 64, 8)),
        ("spmv three-level-reduce", spmv::build_three_level_reduce(8, 64, 8)),
        ("stencil2d default", stencil2d::build_default(2, 64, 8)),
        (
            "stencil2d tight-sharing",
            stencil2d::build(2, 64, 8, 64, stencil2d::Stencil2dVariant::HaloShared),
        ),
    ];
    for arch in [DeviceArch::a100(), DeviceArch::mi100()] {
        for (name, k) in &kernels {
            // Kernels narrower than a warp cannot lower for that arch
            // (e.g. 32-thread teams on the 64-wide mi100).
            if !k.config.threads_per_team.is_multiple_of(arch.warp_size) {
                continue;
            }
            let applied = verify_and_mutate(k, &arch, 4, name);
            assert!(
                !applied.is_empty(),
                "{name}: no mutation had an applicable site — generator regressed"
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
