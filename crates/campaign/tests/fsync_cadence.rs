//! Fsync cadence of the streaming runner: for every worker count the
//! committer closes a wave — one store fsync and one `Wave` event — at the
//! first commit at least `WAVE_INTERVAL` after the last fsync and when the
//! budget ends, then fsyncs once more for the seal. A power cut therefore
//! loses at most the records committed within one `WAVE_INTERVAL`,
//! however many units the workers hold in flight.
//!
//! This binary holds a single test on purpose: `store_fsyncs_total` is a
//! process-global counter, and another test running beside this one
//! would add its own fsyncs to the count.

use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    run_campaign, CampaignSpec, Event, EventLedger, PlacementAxis, ResultStore, RunOptions,
    UnitDynamics, UnitScheduler, WAVE_INTERVAL,
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

/// One `Wave` event: its units and its wall time in microseconds.
type Wave = (usize, u64);

/// Runs once with the events ledger on and returns the units executed,
/// the waves this run appended to the ledger and the store fsyncs it
/// made.
fn run(store: &ResultStore, ledger: &EventLedger, opts: RunOptions) -> (usize, Vec<Wave>, u64) {
    let waves_before = waves(ledger).len();
    let fsyncs = dynring_obs::global().counter(names::STORE_FSYNCS);
    let before = fsyncs.get();
    let outcome = run_campaign(
        &spec(),
        store,
        &RunOptions { events: Some(ledger.path().to_path_buf()), ..opts },
    )
    .expect("campaign runs");
    let synced = fsyncs.get() - before;
    (outcome.executed, waves(ledger)[waves_before..].to_vec(), synced)
}

fn waves(ledger: &EventLedger) -> Vec<Wave> {
    let Ok(loaded) = ledger.load() else {
        return Vec::new();
    };
    loaded
        .events
        .iter()
        .filter_map(|r| match r.event {
            Event::Wave { units, wall_us } => Some((units, wall_us)),
            _ => None,
        })
        .collect()
}

fn assert_cadence(workers: usize, executed: usize, waves: &[Wave]) {
    let interval_us = WAVE_INTERVAL.as_micros() as u64;
    let (_, closed) = waves.split_last().expect("at least one wave");
    assert!(
        closed.iter().all(|&(_, wall_us)| wall_us >= interval_us),
        "workers = {workers}: every wave but the last spans WAVE_INTERVAL: {waves:?}"
    );
    assert!(waves.iter().all(|&(units, _)| units > 0), "workers = {workers}: {waves:?}");
    let units: usize = waves.iter().map(|&(units, _)| units).sum();
    assert_eq!(units, executed, "workers = {workers}: {waves:?}");
}

#[test]
fn committer_fsyncs_every_wave_and_the_seal_for_every_worker_count() {
    let plan = spec().plan().expect("plans");
    let total = plan.units.len();
    assert_eq!(total, 36);
    // The straggler: a wave must close right after it commits, because
    // its delay alone outlasts WAVE_INTERVAL.
    let slow = 20;
    let slow_ms = 2 * WAVE_INTERVAL.as_millis() as u64;
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
        let (executed, waves, fsyncs) =
            run(&store, &ledger, RunOptions { workers, fresh: false, ..RunOptions::default() });
        assert_eq!(executed, total - 13);
        assert_cadence(workers, executed, &waves);
        assert_eq!(
            fsyncs,
            waves.len() as u64 + 1,
            "workers = {workers}: one fsync per wave, then the seal"
        );
        let _ = std::fs::remove_file(store.path());

        // A fresh run whose unit `slow` takes 2 × WAVE_INTERVAL.
        let (executed, waves, fsyncs) = run(
            &store,
            &ledger,
            RunOptions {
                workers,
                slow_unit: Some((plan.units[slow].hash.clone(), slow_ms)),
                ..RunOptions::default()
            },
        );
        assert_eq!(executed, total);
        assert_cadence(workers, executed, &waves);
        assert_eq!(fsyncs, waves.len() as u64 + 1, "workers = {workers}: waves, then the seal");
        let ends: Vec<usize> = waves
            .iter()
            .scan(0, |done, &(units, _)| {
                *done += units;
                Some(*done)
            })
            .collect();
        assert!(
            ends.contains(&(slow + 1)),
            "workers = {workers}: a wave ends right after unit {slow}: {waves:?}"
        );

        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(ledger.path());
    }
}
