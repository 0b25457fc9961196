//! The campaign-smoke acceptance pin, mirroring `just campaign-smoke`:
//! the committed 240-unit spec runs through the CLI path, survives an
//! interrupt/resume cycle byte-identically, and folds into exactly the
//! committed pinned report. A diff here means the execution semantics
//! (seed derivation, routing, measurement, aggregation or serialization)
//! changed — update `examples/campaign_smoke_report.json` only for a
//! deliberate change.

use dynring::cli;
use dynring_campaign::{load_report, CampaignReport, CampaignSpec, ResultStore};

const SPEC_PATH: &str = "examples/campaign_smoke.json";
const PINNED_REPORT_PATH: &str = "examples/campaign_smoke_report.json";

fn smoke_spec() -> CampaignSpec {
    let json = std::fs::read_to_string(SPEC_PATH).expect("committed spec readable");
    serde_json::from_str(&json).expect("committed spec parses")
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn cli_run(list: &[&str]) {
    let command = cli::parse(&args(list)).expect("CLI parses");
    cli::run(command).expect("CLI runs");
}

#[test]
fn smoke_spec_plans_at_least_200_units_across_both_routes() {
    let plan = smoke_spec().plan().expect("valid spec");
    assert!(plan.units.len() >= 200, "only {} units", plan.units.len());
    let batch = plan
        .units
        .iter()
        .filter(|u| dynring_campaign::route_unit(&u.unit).is_batch())
        .count();
    assert!(batch > 0, "the smoke must exercise the batch route");
    assert!(batch < plan.units.len(), "and the serial route");
    // The explicit-placement axis is present.
    assert!(plan
        .units
        .iter()
        .any(|u| matches!(u.unit.placement, dynring_analysis::PlacementSpec::Explicit(_))));
}

#[test]
fn cli_run_interrupt_resume_matches_the_pinned_report() {
    let dir = std::env::temp_dir();
    let store_a = dir.join("dynring_campaign_smoke_a.jsonl");
    let store_b = dir.join("dynring_campaign_smoke_b.jsonl");
    let report_path = dir.join("dynring_campaign_smoke_report.json");
    for p in [&store_a, &store_b, &report_path] {
        let _ = std::fs::remove_file(p);
    }
    let store_a_str = store_a.to_str().expect("utf-8 path");
    let store_b_str = store_b.to_str().expect("utf-8 path");
    let report_str = report_path.to_str().expect("utf-8 path");

    // Interrupted run + resume through the CLI…
    cli_run(&[
        "campaign", "run", "--spec", SPEC_PATH, "--store", store_a_str, "--max-units", "60",
    ]);
    cli_run(&["campaign", "resume", "--spec", SPEC_PATH, "--store", store_a_str]);
    // …equals an uninterrupted run byte for byte.
    cli_run(&["campaign", "run", "--spec", SPEC_PATH, "--store", store_b_str]);
    let a = std::fs::read(&store_a).expect("store a readable");
    let b = std::fs::read(&store_b).expect("store b readable");
    assert_eq!(a, b, "interrupt + resume must reproduce the uninterrupted store");

    // Resuming the finished store is a no-op.
    cli_run(&["campaign", "resume", "--spec", SPEC_PATH, "--store", store_a_str]);
    let a_again = std::fs::read(&store_a).expect("store a readable");
    assert_eq!(a, a_again, "a finished campaign must be a no-op");

    // The report equals the committed pin, bytes included.
    cli_run(&[
        "campaign", "report", "--spec", SPEC_PATH, "--store", store_a_str, "--out", report_str,
    ]);
    let produced = std::fs::read_to_string(&report_path).expect("report written");
    let pinned = std::fs::read_to_string(PINNED_REPORT_PATH).expect("pinned report readable");
    assert_eq!(
        produced, pinned,
        "campaign semantics drifted from examples/campaign_smoke_report.json"
    );

    // And the library view agrees with it structurally.
    let report = load_report(&smoke_spec(), &ResultStore::new(&store_a)).expect("report");
    let pinned_report: CampaignReport =
        serde_json::from_str(&pinned).expect("pinned report parses");
    assert_eq!(report, pinned_report);
    assert!(report.is_complete());
    // Bernoulli × {FSYNC, SSYNC} both batch-route since the SSYNC
    // widening; the smoke's 8-replica units all pick the 64-lane arity.
    assert_eq!(report.batch_units, 120);
    assert_eq!(report.serial_units, 120);
    assert_eq!(report.batch_units_by_arity.get(&64), Some(&120));
    assert!(report.sealed, "a completed campaign must be sealed");

    // The finished store certifies at level 1 and at level 2 (sampled
    // re-execution), through the CLI path.
    cli_run(&["certify", store_a_str, "--spec", SPEC_PATH]);
    cli_run(&[
        "certify", store_a_str, "--spec", SPEC_PATH, "--level", "2", "--sample", "6",
        "--seed", "7",
    ]);

    // A single flipped byte mid-file fails certification with a nonzero
    // exit (mirrored in CI with a grep for the CERTIFY-FAIL line).
    let mut corrupted = a.clone();
    corrupted[2048] ^= 0x01;
    std::fs::write(&store_a, &corrupted).expect("write corrupted store");
    let command = cli::parse(&args(&["certify", store_a_str, "--spec", SPEC_PATH]))
        .expect("CLI parses");
    let outcome = cli::run(command);
    assert!(outcome.is_err(), "a corrupted bundle must fail certification");
    let message = outcome.expect_err("is err").to_string();
    assert!(
        message.contains("certification failed"),
        "unexpected error: {message}"
    );

    for p in [&store_a, &store_b, &report_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn campaign_cli_rejects_malformed_invocations() {
    let refusal = |list: &[&str]| cli::parse(&args(list)).map_err(|e| e.to_string());
    let verbs = "run | resume | report | shard | work | merge | status";
    assert_eq!(refusal(&["campaign"]), Err(format!("campaign requires a verb: {verbs}")));
    assert_eq!(
        refusal(&["campaign", "frobnicate", "--spec", "s", "--store", "t"]),
        Err(format!("unknown campaign verb: frobnicate (expected {verbs})"))
    );
    assert_eq!(
        refusal(&["campaign", "run", "--spec", "s"]),
        Err("campaign requires --store FILE".into())
    );
    assert_eq!(
        refusal(&["campaign", "report", "--spec", "s", "--store", "t", "--max-units", "3"]),
        Err("unknown flag --max-units for campaign report".into())
    );
    assert_eq!(
        refusal(&["campaign", "run", "--spec", "s", "--store", "t", "--out", "o"]),
        Err("unknown flag --out for campaign run".into())
    );
}
