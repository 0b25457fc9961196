//! Telemetry is strictly out-of-band: a campaign run with the events
//! ledger and registry instrumentation enabled produces a result store
//! *byte-identical* to a plain run (and it still certifies at level 2),
//! the ledger narrates the run faithfully (RunStart → Unit… → Wave… →
//! RunEnd), an arbitrarily torn ledger tail heals on reopen without
//! losing intact events, and the `slow-unit` straggler injection shows
//! up in the recorded wall times — never in the bytes. The registry and
//! the ledger can never disagree: folding a reloaded ledger reproduces
//! the snapshot its events were emitted into.

use proptest::prelude::*;

use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    certify, run_campaign, summarize, CampaignSpec, CertifyOptions, Event, EventLedger,
    EventSink, PlacementAxis, ResultStore, RunOptions, UnitDynamics, UnitScheduler,
    EVENTS_SCHEMA,
};
use dynring_obs::{names, Registry};

/// A small spec family mixing batch-routed (bernoulli) and serial
/// (static) units, so both routes land in the ledger.
fn spec_for(ring: usize, robots: usize, seeds: usize) -> CampaignSpec {
    CampaignSpec {
        name: format!("telemetry-{ring}-{robots}-{seeds}"),
        ring_sizes: vec![ring],
        robots: vec![1, robots],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef3Plus, AlgorithmChoice::KeepDirection],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.7 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: (0..seeds as u64).collect(),
        horizon: 120,
        replicas: 8,
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let path = std::env::temp_dir().join(format!("dynring_telemetry_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{}.events.jsonl", path.display()));
    ResultStore::new(path)
}

fn cleanup(store: &ResultStore) {
    let _ = std::fs::remove_file(store.path());
    let _ = std::fs::remove_file(EventLedger::for_store(store.path()).path());
}

fn opts(events: Option<std::path::PathBuf>) -> RunOptions {
    RunOptions {
        workers: 2,
        max_units: None,
        fresh: true,
        fault: None,
        shard: None,
        poison: None,
        events,
        slow_unit: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn telemetered_run_is_byte_identical_and_certifies(
        ring in 4usize..7,
        robots in 2usize..4,
        seeds in 1usize..3,
    ) {
        let spec = spec_for(ring, robots, seeds);
        let plain = temp_store("plain");
        run_campaign(&spec, &plain, &opts(None)).expect("plain run");
        let plain_bytes = std::fs::read(plain.path()).expect("plain bytes");

        let tele = temp_store("tele");
        let ledger = EventLedger::for_store(tele.path());
        run_campaign(&spec, &tele, &opts(Some(ledger.path().to_path_buf())))
            .expect("telemetered run");
        let tele_bytes = std::fs::read(tele.path()).expect("tele bytes");

        prop_assert_eq!(&plain_bytes, &tele_bytes, "telemetry must never change store bytes");
        let verdict = certify(
            &spec,
            &tele,
            &CertifyOptions { level: 2, sample: 4, seed: 0xCE47 },
        )
        .expect("certify runs");
        prop_assert!(verdict.pass, "telemetered store must certify at level 2");

        // The ledger narrates the run: header first, seal last, one Unit
        // event per planned unit, at least one Wave.
        let loaded = ledger.load().expect("ledger loads");
        let planned = spec.plan().expect("plans").units.len();
        prop_assert_eq!(loaded.torn_bytes, 0);
        prop_assert_eq!(loaded.skipped_lines, 0);
        match &loaded.events.first().expect("nonempty").event {
            Event::RunStart { schema, planned: p, .. } => {
                prop_assert_eq!(schema.as_str(), EVENTS_SCHEMA);
                prop_assert_eq!(*p, planned);
            }
            other => prop_assert!(false, "first event must be RunStart, got {other:?}"),
        }
        let ends_clean = matches!(
            loaded.events.last().expect("nonempty").event,
            Event::RunEnd { pending: 0, .. }
        );
        prop_assert!(ends_clean, "last event must be RunEnd with nothing pending");
        let units = loaded
            .events
            .iter()
            .filter(|r| matches!(r.event, Event::Unit { .. }))
            .count();
        prop_assert_eq!(units, planned);
        let has_wave = loaded.events.iter().any(|r| matches!(r.event, Event::Wave { .. }));
        prop_assert!(has_wave, "at least one Wave event expected");

        // And the aggregator agrees with the raw ledger.
        let summary = summarize(&[loaded]);
        prop_assert_eq!(summary.units, planned);
        prop_assert_eq!(summary.faults.spawns, 0);
        prop_assert_eq!(summary.faults.lost_units, 0);
        cleanup(&plain);
        cleanup(&tele);
    }

    #[test]
    fn torn_ledger_tail_heals_on_reopen(cut in 1usize..200) {
        let spec = spec_for(4, 2, 1);
        let store = temp_store("torn");
        let ledger = EventLedger::for_store(store.path());
        run_campaign(&spec, &store, &opts(Some(ledger.path().to_path_buf())))
            .expect("telemetered run");
        let bytes = std::fs::read(ledger.path()).expect("ledger bytes");
        let before = ledger.load().expect("pre-tear load");
        prop_assert!(!before.events.is_empty());

        // Tear the tail at an arbitrary byte offset.
        let cut = cut.min(bytes.len() - 1);
        std::fs::write(ledger.path(), &bytes[..bytes.len() - cut]).expect("tears");
        let torn = ledger.load().expect("torn load is not fatal");
        let tear_bytes = torn.torn_bytes;
        prop_assert!(torn.events.len() <= before.events.len());

        // Reopen for append: the tail truncates, the tear is recorded,
        // and new events land cleanly after it.
        let mut app = ledger.appender().expect("reopens past tear");
        app.append(Event::RunEnd { executed: 0, pending: 0 }).expect("appends");
        app.sync().expect("syncs");
        let healed = ledger.load().expect("healed load");
        prop_assert_eq!(healed.torn_bytes, 0);
        prop_assert_eq!(healed.skipped_lines, 0);
        if tear_bytes > 0 {
            let tear_recorded = healed
                .events
                .iter()
                .any(|r| r.event == Event::TornTail { bytes: tear_bytes });
            prop_assert!(tear_recorded, "the tear must be recorded as a TornTail event");
        }
        let ends_with_run_end = matches!(
            healed.events.last().expect("nonempty").event,
            Event::RunEnd { .. }
        );
        prop_assert!(ends_with_run_end, "appends after healing must land");
        cleanup(&store);
    }
}

#[test]
fn slow_unit_inflates_ledger_wall_time_not_bytes() {
    let spec = spec_for(5, 2, 1);
    let target = spec.plan().expect("plans").units[1].hash.clone();

    let plain = temp_store("fast");
    run_campaign(&spec, &plain, &opts(None)).expect("plain run");
    let plain_bytes = std::fs::read(plain.path()).expect("plain bytes");

    let slow = temp_store("slow");
    let ledger = EventLedger::for_store(slow.path());
    let mut o = opts(Some(ledger.path().to_path_buf()));
    o.slow_unit = Some((target.clone(), 120));
    run_campaign(&spec, &slow, &o).expect("slow run");
    let slow_bytes = std::fs::read(slow.path()).expect("slow bytes");
    assert_eq!(plain_bytes, slow_bytes, "slow-unit shapes time, never bytes");

    let loaded = ledger.load().expect("ledger loads");
    let wall = loaded
        .events
        .iter()
        .find_map(|r| match &r.event {
            Event::Unit { hash, wall_us, .. } if *hash == target => Some(*wall_us),
            _ => None,
        })
        .expect("target unit event present");
    assert!(
        wall >= 120_000,
        "injected 120ms must show in the unit's wall time, got {wall}us"
    );
    cleanup(&plain);
    cleanup(&slow);
}

/// One event per generated tuple: `kind` picks the variant (the vendored
/// proptest has no `prop_oneof!`), the numbers fill its fields.
fn event_of((kind, a, b, c): (u8, u64, u64, u64)) -> Event {
    let (ai, bi, ci) = (a as usize, b as usize, c as usize);
    let reason = ["killed", "stalled", "straggler", "exit-status-113"][ci % 4].to_string();
    match kind {
        0 => Event::RunStart {
            schema: EVENTS_SCHEMA.into(),
            name: "fold".into(),
            spec_hash: format!("{a:016x}"),
            planned: ai,
            skipped: bi,
        },
        1..=3 => {
            let batch = c % 2 == 0;
            Event::Unit {
                hash: format!("{a:016x}"),
                index: ai,
                algorithm: ["PEF_3+", "PEF_2"][ci % 2].into(),
                dynamics: "bernoulli".into(),
                scheduler: "sync".into(),
                route: if batch { "batch" } else { "serial" }.into(),
                arity: if batch { 64 << (c % 3) } else { 0 },
                replicas: ci,
                covered: ci / 2,
                replica_rounds: b,
                wall_us: a,
                fill: batch.then(|| ["sparse", "full"][ci % 2].to_string()),
            }
        }
        4 => Event::Wave { units: ci, wall_us: b },
        5 => Event::RunEnd { executed: ai, pending: bi },
        6 => Event::Spawn { shard: ci, attempt: ai % 4 },
        7 => Event::Stall { shard: ci },
        8 => Event::Retry { shard: ci, attempt: ai % 4, reason, backoff_ms: b },
        9 => Event::Steal {
            shard: ci,
            reason,
            done: ai,
            remaining: bi,
            pieces: ci % 5 + 1,
            attempts: Some(ai % 4),
            first_child: Some(ci + 1),
        },
        10 => Event::Quarantine { shard: ci, attempts: ai % 4, reason, start: ai, units: ci },
        11 => Event::Merge { shards: ci, merged: ai, sealed: c % 2 == 0 },
        _ => Event::TornTail { bytes: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folding_the_ledger_reproduces_the_snapshot(
        tuples in proptest::collection::vec(
            (0u8..13, 0u64..1_000_000, 0u64..1_000_000_000, 0u64..100),
            0..48,
        ),
    ) {
        let path = std::env::temp_dir().join("dynring_telemetry_fold.events.jsonl");
        let _ = std::fs::remove_file(&path);
        let emitted = Registry::new();
        let mut sink = EventSink::open(&emitted, Some(&path)).expect("opens");
        for &tuple in &tuples {
            sink.emit(event_of(tuple)).expect("emits");
        }
        sink.sync().expect("syncs");
        drop(sink);

        let loaded = EventLedger::new(&path).load().expect("ledger loads");
        prop_assert_eq!(loaded.events.len(), tuples.len());
        let folded = Registry::new();
        for record in &loaded.events {
            record.event.fold_into(&folded);
        }
        prop_assert_eq!(emitted.snapshot(), folded.snapshot());

        let faults = summarize(&[loaded]).faults;
        for (series, ledger) in [
            (names::SUPERVISOR_SPAWNS, faults.spawns),
            (names::SUPERVISOR_RETRIES, faults.retries),
            (names::SUPERVISOR_STALLS, faults.stalls),
            (names::SUPERVISOR_STEALS, faults.steals),
            (names::SUPERVISOR_QUARANTINES, faults.quarantines),
        ] {
            prop_assert_eq!(emitted.counter(series).get(), ledger as u64, "{}", series);
        }
        let _ = std::fs::remove_file(&path);
    }
}
