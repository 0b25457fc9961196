//! The serial-equivalence pins: `examples/serial_equivalence.json` runs
//! the whole algorithm portfolio against every serial-routed dynamics
//! class (static, scripted, generated and the proof adversaries) under
//! FSYNC and SSYNC — 1,728 units, none on the batch route. Its spec hash
//! and the chain head of its sealed store are pinned at the values the
//! recording scenario harness produced, so the serial first-cover kernel
//! must reproduce every stored record byte for byte.
//!
//! `examples/serial_equivalence_multiword.json` does the same on rings of
//! 65 and 130 edges, so every frame spans two or three words and the
//! word-level generators, repair step and blocker reach their partial
//! last word; it includes the boundary parameters (Markov and
//! `BernoulliRecurrent` probabilities 0 and 1, recurrence bound 1,
//! blocker budget 1). Its pins were taken from the per-edge generators.
//!
//! `examples/async_equivalence.json` pins the ASYNC route: the portfolio
//! on the phase-split simulator over static and Bernoulli schedules, on
//! rings of 5 (a dense team), 16 (sparse edge probes) and 65 nodes
//! (probes into a multi-word frame) — 432 units.
//! Its pins were taken from the simulator before the Look and Move
//! halves of its tick moved into `dynring_engine::round`.
//!
//! `just serial-equivalence` and CI also certify all three stores at
//! level 2.

use dynring_campaign::{route_unit, run_campaign, CampaignSpec, ResultStore, RunOptions};

/// Plans and runs the committed spec at `spec_path`, checking its hash,
/// unit count and sealed chain head.
fn assert_seals_to(spec_path: &str, spec_hash: &str, units: usize, chain_head: &str) {
    let json = std::fs::read_to_string(spec_path).expect("committed spec readable");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("committed spec parses");
    let plan = spec.plan().expect("valid spec");
    assert_eq!(plan.spec_hash, spec_hash);
    assert_eq!(plan.units.len(), units);
    assert!(plan.units.iter().all(|u| !route_unit(&u.unit).is_batch()));

    let path = std::env::temp_dir().join(format!("dynring_{}.jsonl", plan.name));
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::new(&path);
    run_campaign(&spec, &store, &RunOptions::default()).expect("campaign runs");
    let loaded = store.load().expect("store loads");
    let _ = std::fs::remove_file(&path);
    assert!(loaded.sealed, "a completed campaign must be sealed");
    assert_eq!(loaded.records.len(), units);
    assert_eq!(loaded.chain_head.as_deref(), Some(chain_head));
}

#[test]
fn serial_equivalence_spec_seals_to_the_pinned_chain_head() {
    assert_seals_to(
        "examples/serial_equivalence.json",
        "d7d5308dbdb4ef58",
        1728,
        "ea43531c5b3ab2aa",
    );
}

#[test]
fn multiword_serial_equivalence_spec_seals_to_the_pinned_chain_head() {
    assert_seals_to(
        "examples/serial_equivalence_multiword.json",
        "15b662a87a356378",
        2160,
        "623f2d1c47cfeefe",
    );
}

#[test]
fn async_equivalence_spec_seals_to_the_pinned_chain_head() {
    assert_seals_to(
        "examples/async_equivalence.json",
        "b49cf876245d9f72",
        432,
        "dab768da41e1d299",
    );
}
