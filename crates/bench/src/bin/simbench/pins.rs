//! Outputs pinned for the default seed: every `LaunchStats` of a round
//! (or each session's `ServiceReport::digest()`) folds to these digests,
//! and the seeded sanitizer negative reports exactly these violations.
//! A change that moves any of them changes simulated behaviour.

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Round digest pinned for `workload` at the default seed and full sizes.
pub fn digest(workload: &str, seed: u64, smoke: bool) -> Option<u64> {
    if seed != DEFAULT_SEED || smoke {
        return None;
    }
    match workload {
        "fig-sweep" => Some(0xb256_80a2_7177_fc33),
        "timestep" => Some(0x6915_2522_0606_6de6),
        "sanitize" => Some(0xe044_0c0a_f3e7_9af2),
        "serve-mix" => Some(0x2f89_e5ea_3832_6f18),
        _ => None,
    }
}

/// `stencil2d::demo_halo_staging(sync = false)` on an a100: each SIMD
/// group's edge lanes read the halo slots their main wrote with no warp
/// sync in between.
pub const HALO_DEMO_RACES: &[&str] = &[
    "block 0: read-write race on shared slot 33: thread 0 then thread 7 in epoch 0",
    "block 0: read-write race on shared slot 57: thread 8 then thread 15 in epoch 0",
    "block 0: read-write race on shared slot 81: thread 16 then thread 23 in epoch 0",
    "block 0: read-write race on shared slot 105: thread 24 then thread 31 in epoch 0",
];
