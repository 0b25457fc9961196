//! The serial-equivalence pin: `examples/serial_equivalence.json` runs
//! the whole algorithm portfolio against every serial-routed dynamics
//! class (static, scripted, generated and the proof adversaries) under
//! FSYNC and SSYNC — 1,728 units, none on the batch route. Its spec hash
//! and the chain head of its sealed store are pinned at the values the
//! recording scenario harness produced, so the serial first-cover kernel
//! must reproduce every stored record byte for byte. `just
//! serial-equivalence` and CI also certify the store at level 2.

use dynring_campaign::{route_unit, run_campaign, CampaignSpec, ResultStore, RunOptions};

const SPEC_PATH: &str = "examples/serial_equivalence.json";

#[test]
fn serial_equivalence_spec_seals_to_the_pinned_chain_head() {
    let json = std::fs::read_to_string(SPEC_PATH).expect("committed spec readable");
    let spec: CampaignSpec = serde_json::from_str(&json).expect("committed spec parses");
    let plan = spec.plan().expect("valid spec");
    assert_eq!(plan.spec_hash, "d7d5308dbdb4ef58");
    assert_eq!(plan.units.len(), 1728);
    assert!(plan.units.iter().all(|u| !route_unit(&u.unit).is_batch()));

    let path = std::env::temp_dir().join("dynring_serial_equivalence.jsonl");
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::new(&path);
    run_campaign(&spec, &store, &RunOptions::default()).expect("campaign runs");
    let loaded = store.load().expect("store loads");
    let _ = std::fs::remove_file(&path);
    assert!(loaded.sealed, "a completed campaign must be sealed");
    assert_eq!(loaded.records.len(), 1728);
    assert_eq!(loaded.chain_head.as_deref(), Some("ea43531c5b3ab2aa"));
}
