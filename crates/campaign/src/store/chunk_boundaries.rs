//! The bounded read against the whole-file split it replaced, at read
//! sizes from one byte to [`READ_CHUNK`], over a corpus of damaged
//! stores: every line boundary, torn tail and oversized line must land
//! the same whatever the size. On the same corpus, streaming
//! certification, report and resume must give what collecting the
//! records and then checking them gives.

use std::path::{Path, PathBuf};

use super::*;
use crate::aggregate::aggregate;
use crate::certify::{certify, CertifyFailure, CertifyOptions};
use crate::executor::{route_unit, UnitRecord};
use crate::fault::{FailPlan, FaultKind};
use crate::runner::{load_report, run_campaign, RunOptions};
use crate::shard::ShardSel;
use crate::spec::{CampaignSpec, PlacementAxis, UnitDynamics, UnitScheduler};
use dynring_analysis::seeds::sample_indices;
use dynring_analysis::AlgorithmChoice;

/// The read sizes every corpus file is scanned at.
const CHUNKS: [usize; 6] = [1, 2, 3, 7, 64, READ_CHUNK];

/// Eight units over both routes; the name's `é` puts a two-byte
/// character in the header for a cut to split.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "chunks-é".into(),
        ring_sizes: vec![4, 5],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.7 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2],
        horizon: 200,
        replicas: 2,
    }
}

fn dir(test: &str) -> PathBuf {
    let name = format!("dynring_chunk_boundaries_{test}_{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn with_chunk<T>(chunk: usize, f: impl FnOnce() -> T) -> T {
    let before = TEST_READ_CHUNK.with(|c| c.replace(chunk));
    let out = f();
    TEST_READ_CHUNK.with(|c| c.set(before));
    out
}

/// A clean run of `spec`, sealed, and the bytes a faulted run of it
/// leaves (`None` = no fault).
fn run_bytes(dir: &Path, tag: &str, fault: Option<FailPlan>) -> Vec<u8> {
    let store = ResultStore::new(dir.join(format!("{tag}.jsonl")));
    let _ = std::fs::remove_file(store.path());
    let opts = RunOptions {
        workers: 1,
        fault,
        ..RunOptions::default()
    };
    let _ = run_campaign(&spec(), &store, &opts);
    let bytes = std::fs::read(store.path()).expect("store written");
    let _ = std::fs::remove_file(store.path());
    bytes
}

/// Line starts of `bytes` (offsets just past each newline, and 0).
fn line_starts(bytes: &[u8]) -> Vec<usize> {
    std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .filter(|&at| at < bytes.len())
        .collect()
}

/// The corpus: named store files, each a damaged (or clean) store of
/// [`spec`].
fn corpus(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let sealed = run_bytes(dir, "sealed", None);
    let starts = line_starts(&sealed);
    let mut files = vec![("sealed".to_string(), sealed.clone())];
    for (record, keep) in [(0, 0), (0, 1), (2, 57), (3, 200), (7, 10_000)] {
        let fault = FaultKind::TornRecord { record, keep };
        files.push((
            format!("torn-{record}-{keep}"),
            run_bytes(dir, "torn", Some(FailPlan::new(fault))),
        ));
    }
    for (record, byte, xor) in [(0, 3, 0x01), (2, 40, 0x20), (4, 0, 0x7f), (7, 10_000, 0x0a)] {
        let fault = FaultKind::BitFlip { record, byte, xor };
        files.push((
            format!("flip-{record}-{byte}"),
            run_bytes(dir, "flip", Some(FailPlan::new(fault))),
        ));
    }
    for record in [0, 5, 7] {
        let fault = FaultKind::DuplicateAppend { record };
        files.push((
            format!("dup-{record}"),
            run_bytes(dir, "dup", Some(FailPlan::new(fault))),
        ));
    }
    // A kill at every byte of the header (the `é` included) and of the
    // last two lines leaves exactly that prefix of the file.
    let header_end = starts[1];
    let last_two = starts[starts.len() - 2];
    for cut in (0..header_end).chain(last_two..sealed.len()) {
        files.push((format!("kill-{cut}"), sealed[..cut].to_vec()));
    }
    // A torn record cut inside a two-byte character.
    let torn = "{\"Chained\":{\"record\":{\"hash\":\"café".as_bytes();
    let mut utf8 = sealed[..starts[3]].to_vec();
    utf8.extend_from_slice(&torn[..torn.len() - 1]);
    files.push(("torn-utf8".into(), utf8));
    // Lines longer than the production buffer: an interior one, and a
    // final one torn without and after its newline.
    let long = vec![b'x'; READ_CHUNK + 4_464];
    let mut interior = sealed[..starts[2]].to_vec();
    interior.extend_from_slice(&long);
    interior.push(b'\n');
    interior.extend_from_slice(&sealed[starts[2]..]);
    files.push(("long-interior".into(), interior));
    let mut tail = sealed[..starts[4]].to_vec();
    tail.extend_from_slice(&long);
    files.push(("long-torn".into(), tail.clone()));
    tail.push(b'\n');
    files.push(("long-final".into(), tail));
    // Forged records that parse: record 1 repeated at plan index 7 (a
    // duplicate outside its own plan slot), and a rewritten route and
    // hash (route, plan-binding and chain failures in one store).
    let line = |i: usize| std::str::from_utf8(&sealed[starts[i]..starts[i + 1]]).expect("utf-8");
    let mut moved = sealed[..starts[starts.len() - 1]].to_vec();
    moved.extend_from_slice(
        line(2)
            .replacen("\"index\":1,", "\"index\":7,", 1)
            .as_bytes(),
    );
    files.push(("forged-moved-duplicate".into(), moved));
    let batch = (1..starts.len() - 2).find(|&i| line(i).contains("\"route\":\"batch\""));
    let batch = batch.expect("a batch-routed record");
    let mut forged = sealed[..starts[batch]].to_vec();
    let route = line(batch).replacen("\"route\":\"batch\"", "\"route\":\"serial\"", 1);
    forged.extend_from_slice(route.as_bytes());
    forged.extend_from_slice(
        line(batch + 1)
            .replacen("{\"hash\":\"", "{\"hash\":\"0", 1)
            .as_bytes(),
    );
    forged.extend_from_slice(&sealed[starts[batch + 2]..]);
    files.push(("forged-route-hash".into(), forged));
    // An unparseable line whose newline ends a read of each size, once
    // with the store after it and once alone.
    for chunk in CHUNKS {
        let mut junk = vec![b'#'; chunk - 1];
        junk.push(b'\n');
        files.push((format!("junk-alone-{chunk}"), junk.clone()));
        junk.extend_from_slice(&sealed);
        files.push((format!("junk-first-{chunk}"), junk));
    }
    files
}

type Visit = (usize, u64, Result<StoreLine, &'static str>);

/// The whole-file split: the reference for every read size.
fn split_whole(bytes: &[u8]) -> (Vec<Visit>, u64, u64) {
    let (mut visits, mut offset, mut number) = (Vec::new(), 0usize, 0usize);
    while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
        number += 1;
        let parsed = match std::str::from_utf8(&bytes[offset..offset + nl]) {
            Err(_) => Err("invalid-utf8"),
            Ok(text) => serde_json::from_str::<StoreLine>(text).map_err(|_| "unparseable-json"),
        };
        if parsed.is_err() && offset + nl + 1 == bytes.len() {
            break;
        }
        visits.push((number, offset as u64, parsed));
        offset += nl + 1;
    }
    (visits, offset as u64, (bytes.len() - offset) as u64)
}

#[test]
fn every_read_size_splits_every_store_like_the_whole_file() {
    let dir = dir("scan");
    let path = dir.join("scan.jsonl");
    let store = ResultStore::new(&path);
    for (name, bytes) in corpus(&dir) {
        std::fs::write(&path, &bytes).expect("write");
        let expected = split_whole(&bytes);
        for chunk in CHUNKS {
            let mut visits = Vec::new();
            let end = with_chunk(chunk, || {
                store.scan(&mut |line, offset, parsed| {
                    visits.push((line, offset, parsed));
                    Ok(())
                })
            })
            .expect("scans");
            assert_eq!(
                (visits, end.valid_len, end.torn_bytes),
                expected,
                "{name} read {chunk} bytes at a time"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Certification as it ran before the bounded read: collect the records,
/// then check them.
fn collected_certify(
    spec: &CampaignSpec,
    store: &ResultStore,
    opts: &CertifyOptions,
) -> (Vec<CertifyFailure>, usize, Option<String>) {
    let plan = spec.plan().expect("plan");
    let mut failures = Vec::new();
    let mut verifier = StoreVerifier::new(None);
    let mut records: Vec<UnitRecord> = Vec::new();
    let (visits, _, torn_bytes) = split_whole(&std::fs::read(store.path()).unwrap_or_default());
    for (line, offset, parsed) in visits {
        match parsed {
            Err(reason) => failures.push(CertifyFailure {
                unit: "-".into(),
                field: "parse".into(),
                expected: "parseable-line".into(),
                got: format!("{reason}:line{line}:offset{offset}"),
            }),
            Ok(store_line) => {
                let (violations, record) = verifier.accept(store_line);
                failures.extend(violations.into_iter().map(CertifyFailure::from));
                records.extend(record);
            }
        }
    }
    let fail = |field: &str, expected: String, got: String| CertifyFailure {
        unit: "-".into(),
        field: field.into(),
        expected,
        got,
    };
    if torn_bytes > 0 {
        failures.push(fail(
            "tail",
            "newline-terminated-file".into(),
            format!("torn:{torn_bytes}bytes"),
        ));
    }
    if verifier.header.is_none() {
        failures.push(fail("header", "header-line".into(), "missing".into()));
    }
    let owned = 0..plan.units.len();
    let header = verifier.header.as_ref();
    failures.extend(
        plan_violations(&plan, owned, header, &records)
            .into_iter()
            .map(CertifyFailure::from),
    );
    for record in &records {
        let expected = route_unit(&record.unit).name();
        if record.route != expected {
            failures.push(CertifyFailure {
                unit: record.hash.clone(),
                field: "route".into(),
                expected: expected.into(),
                got: record.route.clone(),
            });
        }
    }
    if !verifier.sealed {
        failures.push(fail("seal", "sealed-footer".into(), "unsealed".into()));
    }
    if records.len() != plan.units.len() {
        failures.push(fail(
            "complete",
            plan.units.len().to_string(),
            records.len().to_string(),
        ));
    }
    let mut replayed = 0;
    if opts.level >= 2 {
        let mut chosen = sample_indices(opts.seed, records.len(), opts.sample);
        let mut replace_at = chosen.len();
        for route in ["batch", "serial"] {
            if let Some(first) = records.iter().position(|r| r.route == route) {
                if replace_at > 0 && !chosen.iter().any(|&i| records[i].route == route) {
                    replace_at -= 1;
                    chosen[replace_at] = first;
                }
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
        for i in chosen {
            replayed += 1;
            let record = &records[i];
            let planned = crate::spec::PlannedUnit {
                index: record.index,
                hash: record.hash.clone(),
                unit: record.unit.clone(),
            };
            let fresh = crate::executor::execute_unit(&planned).expect("replays");
            for (field, expected, got) in fresh.result.diff(&record.result) {
                failures.push(CertifyFailure {
                    unit: record.hash.clone(),
                    field: field.into(),
                    expected,
                    got,
                });
            }
        }
    }
    (failures, replayed, verifier.chain_head)
}

/// What `load` followed by the plan binding refuses for `spec` over `owned`
/// (and the missing header, which the report refuses in between).
fn collected_refusal(
    spec: &CampaignSpec,
    store: &ResultStore,
    owned: Option<Range<usize>>,
) -> Result<LoadedStore, String> {
    let plan = spec.plan().expect("plan");
    let loaded = store.load().map_err(|e| e.to_string())?;
    let path = store.path().display().to_string();
    if owned.is_none() && loaded.header.is_none() {
        return Err(CampaignError::CorruptStore(format!(
            "{path} has no store header (a missing or empty file; start it with \
             `campaign run`)"
        ))
        .to_string());
    }
    let owned = owned.unwrap_or(0..plan.units.len());
    match plan_violations(&plan, owned, loaded.header.as_ref(), &loaded.records)
        .into_iter()
        .next()
    {
        Some(v) => Err(v.refuse(&path).to_string()),
        None => Ok(loaded),
    }
}

#[test]
fn streaming_readers_match_collect_then_check_on_every_store() {
    let dir = dir("readers");
    let path = dir.join("readers.jsonl");
    let store = ResultStore::new(&path);
    let reference = run_bytes(&dir, "reference", None);
    let mut other = spec();
    other.horizon += 1;
    let files = corpus(&dir);
    for (name, bytes) in &files {
        for chunk in [7, READ_CHUNK] {
            for spec in [spec(), other.clone()] {
                std::fs::write(&path, bytes).expect("write");
                let context = format!(
                    "{name} read {chunk} bytes at a time, horizon {}",
                    spec.horizon
                );
                // Certify: every failure, in order.
                // Level 2 where a sample can land past a damaged line.
                let sampled = ["sealed", "flip", "dup", "long-interior"];
                let level = if sampled.iter().any(|s| name.starts_with(s)) {
                    2
                } else {
                    1
                };
                let opts = CertifyOptions {
                    level,
                    sample: 3,
                    seed: 5,
                };
                let verdict =
                    with_chunk(chunk, || certify(&spec, &store, &opts)).expect("certifies");
                let (failures, replayed, head) = collected_certify(&spec, &store, &opts);
                assert_eq!(verdict.failures, failures, "{context}");
                assert_eq!(
                    (verdict.replayed, verdict.chain_head),
                    (replayed, head),
                    "{context}"
                );
                // Report: the same refusal text, or the same report.
                let report = with_chunk(chunk, || load_report(&spec, &store));
                let expected = collected_refusal(&spec, &store, None).map(|loaded| {
                    let mut report = aggregate(&spec.plan().expect("plan"), &loaded.records);
                    report.torn_tail = loaded.torn_tail;
                    report.torn_bytes = loaded.torn_bytes;
                    report.sealed = loaded.sealed;
                    report
                });
                assert_eq!(report.map_err(|e| e.to_string()), expected, "{context}");
                // Resume, over the whole plan and over a shard of it that
                // the store's records overrun: the same refusal text, or a
                // store completed to the reference bytes.
                for shard in [None, Some(ShardSel::Range { start: 0, units: 3 })] {
                    std::fs::write(&path, bytes).expect("write");
                    let owned = shard.as_ref().map(|s| s.range(8));
                    let expected = collected_refusal(&spec, &store, owned.clone().or(Some(0..8)));
                    let opts = RunOptions {
                        workers: 1,
                        fresh: false,
                        shard,
                        ..RunOptions::default()
                    };
                    let resumed = with_chunk(chunk, || run_campaign(&spec, &store, &opts));
                    match (resumed, expected) {
                        (Err(e), Err(expected)) => assert_eq!(e.to_string(), expected, "{context}"),
                        (Ok(_), Ok(_)) if owned.is_none() && spec.horizon == 200 => {
                            let after = std::fs::read(&path).expect("read");
                            assert_eq!(after, reference, "{context}: resume completes the store");
                        }
                        (Ok(_), Ok(_)) => {}
                        (resumed, expected) => {
                            panic!(
                                "{context} {owned:?}: resumed {resumed:?}, expected {expected:?}"
                            )
                        }
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
