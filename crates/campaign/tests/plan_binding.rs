//! The plan binding, reader by reader: run and resume, report, merge and
//! certify each refuse a store that does not belong to the plan, through
//! one shared check and in its own rendering of the same token —
//! `spec-mismatch`, `plan-mismatch`, `foreign-unit` or `shard-membership`.
//! Records before the header are refused by the loader's
//! `chain-unseeded`, and the v1 store line and manifest are refused by
//! name.
//!
//! Forged stores are re-chained and re-sealed after the edit, so the
//! hash chain is intact and only the binding can catch them.

use std::path::PathBuf;

use dynring_analysis::AlgorithmChoice;
use dynring_campaign::trace::{chain_seed, ChainedRecord, StoreFooter};
use dynring_campaign::{
    certify, load_report, merge_manifest, run_campaign, CampaignError, CampaignSpec,
    CertifyOptions, PlacementAxis, ResultStore, RunOptions, ShardManifest, ShardSel, StoreHeader,
    StoreLine, UnitDynamics, UnitRecord, UnitScheduler, MANIFEST_SCHEMA,
};

/// Eight units over both routes.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "binding".into(),
        ring_sizes: vec![4, 5],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2],
        horizon: 100,
        replicas: 2,
    }
}

/// The same axes over a longer horizon: another spec hash, and another
/// hash for every unit.
fn other_spec() -> CampaignSpec {
    CampaignSpec {
        horizon: 107,
        ..spec()
    }
}

/// A fresh, empty directory for one case.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynring_plan_binding_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_whole(spec: &CampaignSpec, store: &ResultStore) {
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    run_campaign(spec, store, &opts).expect("campaign runs");
}

fn write_lines(store: &ResultStore, lines: &[StoreLine]) {
    let text: String = lines
        .iter()
        .map(|line| serde_json::to_string(line).expect("json") + "\n")
        .collect();
    std::fs::write(store.path(), text).expect("store written");
}

/// Rewrites a sealed store through `edit`, then re-chains every record
/// and re-seals it.
fn rechain(store: &ResultStore, edit: impl FnOnce(&mut StoreHeader, &mut Vec<UnitRecord>)) {
    let loaded = store.load().expect("store loads");
    let mut header = loaded.header.expect("store has a header");
    let mut records = loaded.records;
    edit(&mut header, &mut records);
    let mut head = chain_seed(&header);
    let mut lines = vec![StoreLine::Header(header.clone())];
    let units = records.len();
    for record in records {
        let chained = ChainedRecord::next(&head, record);
        head = chained.chain.clone();
        lines.push(StoreLine::Chained(chained));
    }
    lines.push(StoreLine::Seal(StoreFooter::new(&header, units, head)));
    write_lines(store, &lines);
}

fn foreign_spec(store: &ResultStore) {
    run_whole(&other_spec(), store);
}

fn renamed_header(store: &ResultStore) {
    run_whole(&spec(), store);
    rechain(store, |header, _| header.name = "renamed".into());
}

fn resized_header(store: &ResultStore) {
    run_whole(&spec(), store);
    rechain(store, |header, _| header.planned_units += 1);
}

/// Record 3 is replaced by record 3 of the other spec's store: same
/// index, a unit of another plan.
fn transplanted_record(store: &ResultStore) {
    let donor = ResultStore::new(store.path().with_extension("donor"));
    run_whole(&other_spec(), &donor);
    let foreign = donor.load().expect("donor loads").records[3].clone();
    run_whole(&spec(), store);
    rechain(store, |_, records| records[3] = foreign);
}

/// The whole plan, run into the store of shard 0 of 2.
fn shard_spill(store: &ResultStore) {
    run_whole(&spec(), store);
}

/// The header moved below the first record (no re-chaining needed: the
/// loader refuses before any link is checked).
fn records_before_header(store: &ResultStore) {
    run_whole(&spec(), store);
    let text = std::fs::read_to_string(store.path()).expect("store readable");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.swap(0, 1);
    std::fs::write(store.path(), lines.join("\n") + "\n").expect("store written");
}

/// One store that does not belong to the plan of [`spec`], and the token
/// each reader refuses it with, in the order run/resume, report, merge,
/// certify. `None`: the reader holds the store to the whole plan, which
/// it belongs to, and accepts it.
struct Case {
    name: &'static str,
    build: fn(&ResultStore),
    /// Shards of the manifest whose entry 0 owns the store.
    shards: usize,
    tokens: [Option<&'static str>; 4],
}

const CASES: [Case; 6] = [
    Case {
        name: "foreign spec",
        build: foreign_spec,
        shards: 1,
        tokens: [Some("spec-mismatch"); 4],
    },
    Case {
        name: "header with another name",
        build: renamed_header,
        shards: 1,
        tokens: [Some("plan-mismatch"); 4],
    },
    Case {
        name: "header with another unit count",
        build: resized_header,
        shards: 1,
        tokens: [Some("plan-mismatch"); 4],
    },
    Case {
        name: "record transplanted from another spec",
        build: transplanted_record,
        shards: 1,
        tokens: [Some("foreign-unit"); 4],
    },
    Case {
        name: "shard-store record outside its range",
        build: shard_spill,
        shards: 2,
        tokens: [
            Some("shard-membership"),
            None,
            Some("shard-membership"),
            None,
        ],
    },
    Case {
        name: "records before the header",
        build: records_before_header,
        shards: 1,
        tokens: [Some("chain-unseeded"); 4],
    },
];

const BINDING_TOKENS: [&str; 5] = [
    "spec-mismatch",
    "plan-mismatch",
    "foreign-unit",
    "shard-membership",
    "chain-unseeded",
];

/// Checks a fail-fast reader's answer: `SpecMismatch` for a foreign spec
/// (run, resume and report), otherwise one line carrying `reason=TOKEN`.
fn assert_refusal(
    case: &str,
    reader: &str,
    result: Result<(), CampaignError>,
    token: Option<&str>,
) {
    match (token, result) {
        (None, Ok(())) => {}
        (Some("spec-mismatch"), Err(CampaignError::SpecMismatch { .. })) if reader != "merge" => {}
        (Some(token), Err(e)) if e.to_string().contains(&format!("reason={token} ")) => {}
        (token, result) => panic!("{case}: {reader} answered {result:?}, expected {token:?}"),
    }
}

#[test]
fn every_reader_refuses_a_store_of_another_plan_with_its_token() {
    let spec = spec();
    let plan = spec.plan().expect("valid spec");
    for (i, case) in CASES.iter().enumerate() {
        let dir = fresh_dir(&format!("case{i}"));
        let manifest = ShardManifest::build(&plan, case.shards, &dir);
        let entry = &manifest.entries[0];
        let store = ResultStore::new(&entry.store);
        (case.build)(&store);
        let before = std::fs::read(store.path()).expect("store readable");
        let [run, report, merge, certified] = case.tokens;

        let opts = RunOptions {
            workers: 1,
            fresh: false,
            shard: (case.shards > 1).then_some(ShardSel::Range {
                start: entry.start,
                units: entry.units,
            }),
            ..RunOptions::default()
        };
        let resumed = run_campaign(&spec, &store, &opts).map(|_| ());
        assert_refusal(case.name, "resume", resumed, run);
        let reported = load_report(&spec, &store).map(|_| ());
        assert_refusal(case.name, "report", reported, report);
        let out = ResultStore::new(dir.join("merged.jsonl"));
        let merged = merge_manifest(&spec, &manifest, &out).map(|_| ());
        assert_refusal(case.name, "merge", merged, merge);

        let verdict = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
        let count = |token: &str| verdict.failures.iter().filter(|f| f.field == token).count();
        for token in BINDING_TOKENS {
            let expected = usize::from(certified == Some(token));
            assert_eq!(
                count(token),
                expected,
                "{}: certify {token}: {:?}",
                case.name,
                verdict
            );
        }
        assert_eq!(
            verdict.pass,
            certified.is_none(),
            "{}: {:?}",
            case.name,
            verdict.failures
        );

        let after = std::fs::read(store.path()).expect("store readable");
        assert_eq!(
            before, after,
            "{}: a refusing reader wrote to the store",
            case.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn headerless_stores_have_no_report() {
    let dir = fresh_dir("headerless");
    let store = ResultStore::new(dir.join("store.jsonl"));
    let missing = load_report(&spec(), &store).expect_err("a missing store has no report");
    std::fs::write(store.path(), "").expect("empty store written");
    let empty = load_report(&spec(), &store).expect_err("an empty store has no report");
    let named = format!("{} has no store header", store.path().display());
    for err in [missing, empty] {
        assert!(err.to_string().contains(&named), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_store_lines_and_manifests_are_refused_by_name() {
    let spec = spec();
    let dir = fresh_dir("v1");
    let store = ResultStore::new(dir.join("v1.jsonl"));
    run_whole(&spec, &store);
    let loaded = store.load().expect("loads");
    let header = StoreLine::Header(loaded.header.expect("header"));
    let mut text = serde_json::to_string(&header).expect("json") + "\n";
    let offset = text.len();
    for record in &loaded.records {
        let record = serde_json::to_string(record).expect("json");
        text.push_str(&format!("{{\"Unit\":{record}}}\n"));
    }
    std::fs::write(store.path(), text).expect("v1 store written");
    let refusal = format!("STORE-CORRUPT line=2 offset={offset} reason=unparseable-json");
    let resume = RunOptions {
        fresh: false,
        ..RunOptions::default()
    };
    for (reader, result) in [
        ("load", store.load().map(|_| ())),
        ("resume", run_campaign(&spec, &store, &resume).map(|_| ())),
        ("report", load_report(&spec, &store).map(|_| ())),
    ] {
        let msg = result.expect_err("a v1 store is refused").to_string();
        assert!(msg.contains(&refusal), "{reader}: {msg}");
    }

    let manifest = ShardManifest::build(&spec.plan().expect("valid spec"), 2, &dir);
    let v1 = serde_json::to_string(&manifest)
        .expect("json")
        .replace(MANIFEST_SCHEMA, "dynring-shard-manifest-v1")
        .replace(",\"generation\":0,\"parent\":null,\"retired\":false", "");
    let path = dir.join("manifest-v1.json");
    std::fs::write(&path, v1).expect("v1 manifest written");
    let msg = ShardManifest::load(&path)
        .expect_err("a v1 manifest is refused")
        .to_string();
    assert!(
        msg.contains("schema dynring-shard-manifest-v1 is not"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
