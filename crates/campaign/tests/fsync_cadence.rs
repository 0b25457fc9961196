//! Fsync cadence of the streaming runner: for every worker count the
//! committer fsyncs after every `wave_size = (workers * 4).max(8)`
//! records and once more for the seal, so a power cut loses at most one
//! wave however many units the workers hold in flight.
//!
//! This binary holds a single test on purpose: `store_fsyncs_total` is a
//! process-global counter, and another test running beside this one
//! would add its own fsyncs to the count.

use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    run_campaign, CampaignSpec, Event, EventLedger, PlacementAxis, ResultStore, RunOptions,
    UnitDynamics, UnitScheduler,
};
use dynring_obs::names;

/// 36 units, batch-routed (Bernoulli) and serial (static) alternating.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "fsync-cadence".into(),
        ring_sizes: vec![4, 5, 6],
        robots: vec![1, 2],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef3Plus],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2, 3],
        horizon: 120,
        replicas: 3,
    }
}

/// Runs once with the events ledger on and returns the units executed,
/// the `Wave` sizes this run appended to the ledger and the store fsyncs
/// it made.
fn run(
    store: &ResultStore,
    ledger: &EventLedger,
    opts: RunOptions,
) -> (usize, Vec<usize>, u64) {
    let waves_before = wave_sizes(ledger).len();
    let fsyncs = dynring_obs::global().counter(names::STORE_FSYNCS);
    let before = fsyncs.get();
    let outcome = run_campaign(
        &spec(),
        store,
        &RunOptions { events: Some(ledger.path().to_path_buf()), ..opts },
    )
    .expect("campaign runs");
    let synced = fsyncs.get() - before;
    (outcome.executed, wave_sizes(ledger)[waves_before..].to_vec(), synced)
}

fn wave_sizes(ledger: &EventLedger) -> Vec<usize> {
    let Ok(loaded) = ledger.load() else { return Vec::new() };
    loaded
        .events
        .iter()
        .filter_map(|r| match r.event {
            Event::Wave { units, .. } => Some(units),
            _ => None,
        })
        .collect()
}

fn assert_cadence(workers: usize, executed: usize, waves: &[usize]) {
    let wave_size = (workers * 4).max(8);
    let (last, full) = waves.split_last().expect("at least one wave");
    assert!(
        full.iter().all(|&units| units == wave_size),
        "workers = {workers}: every wave but the last holds {wave_size} units: {waves:?}"
    );
    assert!((1..=wave_size).contains(last), "workers = {workers}: {waves:?}");
    assert_eq!(waves.iter().sum::<usize>(), executed, "workers = {workers}");
}

#[test]
fn committer_fsyncs_every_wave_and_the_seal_for_every_worker_count() {
    let total = spec().plan().expect("plans").units.len();
    assert_eq!(total, 36);
    for workers in [1usize, 2, 3, 8] {
        let path = std::env::temp_dir().join(format!("dynring_fsync_cadence_{workers}.jsonl"));
        let store = ResultStore::new(&path);
        let ledger = EventLedger::for_store(&path);
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(ledger.path());

        // An interrupted run: its waves are fsynced, nothing is sealed.
        let (executed, waves, fsyncs) = run(
            &store,
            &ledger,
            RunOptions { workers, max_units: Some(13), ..RunOptions::default() },
        );
        assert_eq!(executed, 13);
        assert_cadence(workers, executed, &waves);
        assert_eq!(fsyncs, waves.len() as u64, "workers = {workers}: one fsync per wave");

        // The resume completes the plan: one fsync per wave plus the seal.
        let (executed, waves, fsyncs) = run(
            &store,
            &ledger,
            RunOptions { workers, fresh: false, ..RunOptions::default() },
        );
        assert_eq!(executed, total - 13);
        assert_cadence(workers, executed, &waves);
        assert_eq!(
            fsyncs,
            waves.len() as u64 + 1,
            "workers = {workers}: one fsync per wave, then the seal"
        );

        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(ledger.path());
    }
}
