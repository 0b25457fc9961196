//! Work-stealing re-sharding properties, driven at the library level the
//! same way the supervisor drives them between processes:
//!
//! - an exhausted shard killed at an *arbitrary* byte position, split at
//!   its plan-order prefix into sub-shards (one of which is itself killed
//!   and resumed), must merge back into the canonical store byte for byte;
//! - a poisoned unit — whichever worker executes it dies — must narrow,
//!   split by split, to a terminal quarantine of exactly that unit's
//!   1-unit sub-range, with every other planned unit complete;
//! - an injected append-time I/O error must leave a clean (untorn) prefix
//!   that resumes byte-identically;
//! - the supervisor's restart jitter must be deterministic and strictly
//!   below its base backoff.

use std::path::PathBuf;

use proptest::prelude::*;

use dynring_analysis::seeds::backoff_jitter_ms;
use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    merge_manifest, run_campaign, CampaignError, CampaignSpec, FailPlan, FaultKind,
    PlacementAxis, ResultStore, RunOptions, ShardManifest, ShardSel, UnitDynamics,
    UnitScheduler,
};

/// Twelve cheap units (batch-routed Bernoulli and serial static).
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "resharding".into(),
        ring_sizes: vec![4, 5],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2, 3],
        horizon: 100,
        replicas: 2,
    }
}

/// A per-case scratch directory (cases run concurrently across tests).
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynring_resharding_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn entry_opts(start: usize, units: usize) -> RunOptions {
    RunOptions {
        workers: 1,
        fresh: false,
        shard: Some(ShardSel::Range { start, units }),
        ..RunOptions::default()
    }
}

/// Runs one manifest entry to completion.
fn run_entry(spec: &CampaignSpec, manifest: &ShardManifest, idx: usize) {
    let e = &manifest.entries[idx];
    run_campaign(spec, &ResultStore::new(&e.store), &entry_opts(e.start, e.units))
        .expect("entry runs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill → steal → (kill a child → resume it) → merge, at arbitrary
    /// kill points and split widths: the folded store is byte-identical
    /// to the uninterrupted serial run.
    #[test]
    fn kill_steal_resume_interleavings_merge_byte_identically(
        count in 1usize..4,
        victim in 0usize..4,
        kill_pos in 0.0f64..1.0,
        pieces in 1usize..4,
        child_kill_pos in 0.0f64..1.0,
    ) {
        let victim = victim % count;
        let spec = spec();
        let tag = format!(
            "steal_{count}_{victim}_{}_{pieces}_{}",
            (kill_pos * 1000.0) as u64,
            (child_kill_pos * 1000.0) as u64
        );
        let dir = case_dir(&tag);

        let serial = ResultStore::new(dir.join("serial.jsonl"));
        run_campaign(&spec, &serial, &RunOptions::default()).expect("serial runs");
        let expected = std::fs::read(serial.path()).expect("readable");

        let mut manifest = ShardManifest::build(&spec.plan().expect("plan"), count, &dir);
        for i in 0..manifest.entries.len() {
            if i != victim {
                run_entry(&spec, &manifest, i);
            }
        }

        // The victim dies mid-write at an arbitrary byte position; its
        // torn tail truncates away on load, leaving a plan-order prefix.
        let parent = manifest.entries[victim].clone();
        let parent_store = ResultStore::new(&parent.store);
        let after_bytes = (expected.len() as f64 / count as f64 * kill_pos) as u64;
        let kill = FailPlan::new(FaultKind::Kill { after_bytes });
        match run_campaign(&spec, &parent_store, &RunOptions {
            fault: Some(kill),
            ..entry_opts(parent.start, parent.units)
        }) {
            Err(CampaignError::InjectedFault(_)) | Ok(_) => {}
            Err(e) => prop_assert!(false, "unexpected shard error: {e}"),
        }
        let done = parent_store
            .load()
            .map(|l| l.records.len())
            .unwrap_or(0)
            .min(parent.units);

        if done < parent.units {
            // Steal the tail, exactly as the supervisor records it.
            let children =
                manifest.split_entry(victim, done, pieces).expect("splits");
            manifest.validate().expect("split manifest stays exact");
            for (k, &c) in children.iter().enumerate() {
                let e = manifest.entries[c].clone();
                let child_store = ResultStore::new(&e.store);
                if k == 0 {
                    // One stolen sub-shard is itself killed and resumed:
                    // a steal is no less crash-safe than a plain shard.
                    let child_kill = FailPlan::new(FaultKind::Kill {
                        after_bytes: (expected.len() as f64 / count as f64
                            * child_kill_pos) as u64,
                    });
                    match run_campaign(&spec, &child_store, &RunOptions {
                        fault: Some(child_kill),
                        ..entry_opts(e.start, e.units)
                    }) {
                        Err(CampaignError::InjectedFault(_)) | Ok(_) => {}
                        Err(e) => prop_assert!(false, "unexpected child error: {e}"),
                    }
                }
                run_campaign(&spec, &child_store, &entry_opts(e.start, e.units))
                    .expect("child completes");
            }
        }

        let merged = ResultStore::new(dir.join("merged.jsonl"));
        let outcome = merge_manifest(&spec, &manifest, &merged).expect("folds");
        prop_assert!(outcome.sealed);
        let bytes = std::fs::read(merged.path()).expect("readable");
        prop_assert_eq!(&bytes, &expected, "steal fold must reproduce the serial bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A poisoned unit narrows to a terminal 1-unit quarantine: applying
    /// the supervisor's steal rule (`split while done > 0 or the tail can
    /// still shrink`) converges, the quarantined range is exactly the
    /// poisoned unit, and every other planned unit ends up complete.
    #[test]
    fn poison_units_narrow_to_exactly_their_own_unit(
        count in 1usize..4,
        poison in 0usize..12,
        pieces_seed in 0usize..6,
        pooled in any::<bool>(),
    ) {
        let spec = spec();
        let plan = spec.plan().expect("plan");
        prop_assume!(poison < plan.units.len());
        let poison_hash = plan.units[poison].hash.clone();
        // The poisoned runs go inline or through a pool whose other
        // workers hold in-flight units when the poison stops the run.
        let workers = if pooled { 3 } else { 1 };
        let tag = format!("poison_{count}_{poison}_{pieces_seed}_w{workers}");
        let dir = case_dir(&tag);
        let mut manifest = ShardManifest::build(&plan, count, &dir);

        let mut quarantined: Option<(usize, usize)> = None;
        // Strictly-shrinking splits over ≤12 units must settle well
        // within a bounded number of rounds; a miss means divergence.
        for _round in 0..64 {
            let incomplete: Vec<usize> = manifest
                .entries
                .iter()
                .filter(|e| !e.retired && e.units > 0)
                .filter(|e| {
                    let loaded = ResultStore::new(&e.store).load();
                    loaded.map(|l| l.records.len() < e.units).unwrap_or(true)
                })
                .map(|e| e.index)
                .collect();
            if incomplete.is_empty() {
                break;
            }
            for idx in incomplete {
                let e = manifest.entries[idx].clone();
                let store = ResultStore::new(&e.store);
                let poisoned = run_campaign(&spec, &store, &RunOptions {
                    workers,
                    poison: Some(poison_hash.clone()),
                    ..entry_opts(e.start, e.units)
                });
                let died = matches!(poisoned, Err(CampaignError::InjectedFault(_)));
                if !died {
                    poisoned.expect("unpoisoned entry completes");
                    continue;
                }
                let done = store
                    .load()
                    .map(|l| l.records.len())
                    .unwrap_or(0)
                    .min(e.units);
                let remaining = e.units - done;
                let splittable = remaining > 0 && (done > 0 || remaining >= 2);
                if splittable {
                    let mut pieces = (pieces_seed % 3 + 1).min(remaining);
                    if done == 0 {
                        pieces = pieces.max(2).min(remaining);
                    }
                    manifest.split_entry(idx, done, pieces).expect("splits");
                    manifest.validate().expect("split manifest stays exact");
                } else {
                    prop_assert!(
                        quarantined.is_none(),
                        "only one range may ever be quarantined"
                    );
                    quarantined = Some((e.start + done, remaining));
                }
            }
            if quarantined.is_some() {
                // Finish every entry that doesn't hold the poison, then
                // stop driving.
                for i in 0..manifest.entries.len() {
                    let e = manifest.entries[i].clone();
                    let holds_poison =
                        (e.start..e.start + e.units).contains(&poison);
                    if !e.retired && e.units > 0 && !holds_poison {
                        run_entry(&spec, &manifest, i);
                    }
                }
                break;
            }
        }

        let (q_start, q_units) = quarantined.expect("poison must end in quarantine");
        prop_assert_eq!(q_units, 1, "terminal quarantine must be a single unit");
        prop_assert_eq!(q_start, poison, "quarantine must name the poisoned unit");

        // Everything except the poisoned unit is complete: the merge
        // holds back exactly one unit and refuses to seal.
        let merged = ResultStore::new(dir.join("merged.jsonl"));
        let outcome = merge_manifest(&spec, &manifest, &merged).expect("partial fold");
        prop_assert!(!outcome.sealed);
        prop_assert_eq!(outcome.missing, 1, "exactly the poisoned unit is missing");
        prop_assert_eq!(outcome.merged, poison, "plan-order prefix up to the poison");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected append-time I/O error fails the run *cleanly*: the
    /// store keeps an untorn plan-order prefix of exactly the records
    /// before the error, and a plain resume is byte-identical to an
    /// uninterrupted run.
    #[test]
    fn io_errors_leave_a_clean_prefix_that_resumes_byte_identically(
        record in 0usize..14,
    ) {
        let spec = spec();
        let tag = format!("ioerr_{record}");
        let dir = case_dir(&tag);
        let reference = ResultStore::new(dir.join("reference.jsonl"));
        run_campaign(&spec, &reference, &RunOptions::default()).expect("reference runs");
        let expected = std::fs::read(reference.path()).expect("readable");

        for workers in [1usize, 3] {
            let store = ResultStore::new(dir.join(format!("faulted_w{workers}.jsonl")));
            let opts = RunOptions {
                workers,
                fault: Some(FailPlan::new(FaultKind::IoError { record })),
                ..RunOptions::default()
            };
            match run_campaign(&spec, &store, &opts) {
                Err(CampaignError::Io(msg)) => {
                    prop_assert!(msg.contains("injected io error"), "{msg}");
                    let loaded = store.load().expect("prefix loads");
                    prop_assert!(!loaded.torn_tail, "io error must not tear the store");
                    prop_assert_eq!(loaded.records.len(), record);
                    run_campaign(&spec, &store, &RunOptions {
                        fresh: false,
                        ..RunOptions::default()
                    })
                    .expect("resume completes");
                }
                Ok(outcome) => {
                    // The trigger record lay past the plan: nothing fired.
                    prop_assert!(outcome.is_complete());
                    prop_assert!(record >= outcome.planned);
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            let bytes = std::fs::read(store.path()).expect("readable");
            prop_assert_eq!(
                &bytes,
                &expected,
                "resume must reproduce the reference bytes (workers {})",
                workers
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Restart jitter is a pure function of `(shard, attempt)`, strictly
    /// below its base, and zero for degenerate bases.
    #[test]
    fn backoff_jitter_is_deterministic_and_strictly_bounded(
        shard in 0u64..10_000,
        attempt in 0u64..1_000,
        base in 1u64..60_000,
    ) {
        let j = backoff_jitter_ms(shard, attempt, base);
        prop_assert_eq!(j, backoff_jitter_ms(shard, attempt, base), "stable across calls");
        prop_assert!(j < base, "jitter {j} must stay strictly below base {base}");
        prop_assert_eq!(backoff_jitter_ms(shard, attempt, 0), 0);
    }
}
