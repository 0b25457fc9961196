//! Canonical merge: fold shard stores back into one serial-run store.
//!
//! Each shard store carries a disjoint slice of the plan, chained over
//! its *own* prefix. The merge interleaves all shard records back into
//! plan order and re-wraps each one with [`crate::trace::ChainedRecord`]
//! links recomputed from the canonical header — exactly the chain an
//! uninterrupted serial run would have written. Because unit execution
//! is deterministic and records serialize canonically, the merged store
//! is **byte-identical** to a single-process run of the same spec (the
//! property `cmp` pins in `just distributed-smoke`), and therefore
//! passes `dynring certify --level 2` unchanged.
//!
//! Refusals are loud and named: any cross-shard inconsistency produces a
//! greppable `MERGE-CONFLICT reason=…` diagnostic (`spec-mismatch`,
//! `overlap`, `foreign-unit`, `shard-membership`, `range-gap`,
//! `range-overlap`) instead of a silently wrong canonical store. A
//! generation-split manifest (a steal retired a shard at its prefix and
//! re-sharded the rest, see [`crate::shard`]) needs no special casing:
//! its entries are still an exact disjoint tiling of the plan, so the
//! partial parent store and the child sub-shard stores fold back into
//! the same canonical bytes. The seal is written only when every planned
//! unit is present; otherwise the merge writes the maximal plan-order
//! *prefix* (still a valid, resumable store) and reports what it held
//! back. The output is written to a temp file and renamed into place, so
//! an interrupted merge never leaves a torn canonical store.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::shard::ShardManifest;
use crate::spec::CampaignSpec;
use crate::store::{ResultStore, StoreHeader};
use crate::CampaignError;

/// What a merge produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Shard stores read (empty/missing ones included).
    pub shards: usize,
    /// Records written to the canonical store (the maximal plan-order
    /// prefix of what the shards held).
    pub merged: usize,
    /// Records present in shards but beyond the first plan gap — held
    /// back to keep the canonical store a resumable prefix. They remain
    /// in their shard stores; re-merge after the gap's shard resumes.
    pub held_back: usize,
    /// Units of the plan with no record anywhere.
    pub missing: usize,
    /// Whether the canonical store was sealed (all units present).
    pub sealed: bool,
}

fn conflict(msg: String) -> CampaignError {
    CampaignError::MergeConflict(format!("MERGE-CONFLICT {msg}"))
}

/// Merges `shards` into `out` for `spec`. Shard stores may be given in
/// any order and may be incomplete (or entirely missing — a shard that
/// never started). `expected`, when given, binds each store to a
/// manifest range: `(shard index, first plan index, unit count)`.
///
/// # Errors
///
/// - [`CampaignError::StoreExists`] when `out` already has content;
/// - [`CampaignError::MergeConflict`] — one `MERGE-CONFLICT reason=…`
///   line — on overlapping, duplicated, foreign-spec or out-of-range
///   shard records;
/// - store loading errors ([`CampaignError::CorruptStore`] etc.) from
///   any damaged shard.
fn merge_impl(
    spec: &CampaignSpec,
    shards: &[ResultStore],
    expected: Option<&[(usize, usize, usize)]>,
    out: &ResultStore,
) -> Result<MergeOutcome, CampaignError> {
    let plan = spec.plan()?;
    let existing = out.load()?;
    if existing.header.is_some() || !existing.records.is_empty() {
        return Err(CampaignError::StoreExists(out.path().display().to_string()));
    }

    // Manifest ranges (generation splits included) must still tile the
    // plan exactly: a topology with a hole or a doubly-owned range is
    // refused by name before any store is read. Empty (retired) ranges
    // own nothing and are skipped.
    if let Some(ranges) = expected {
        let mut owned: Vec<(usize, usize, usize)> =
            ranges.iter().copied().filter(|&(_, _, units)| units > 0).collect();
        owned.sort_by_key(|&(_, start, _)| start);
        let mut next = 0usize;
        for (shard, start, units) in owned {
            if start > next {
                return Err(conflict(format!(
                    "reason=range-gap units={next}..{start} next-shard={shard}"
                )));
            }
            if start < next {
                return Err(conflict(format!(
                    "reason=range-overlap units={start}..{next} shard={shard}"
                )));
            }
            next = start + units;
        }
        if next != plan.units.len() {
            return Err(conflict(format!(
                "reason=range-gap units={next}..{}",
                plan.units.len()
            )));
        }
    }

    // Gather every shard record, keyed by plan index, refusing overlaps
    // and foreign units by name.
    let mut by_index: BTreeMap<usize, (crate::executor::UnitRecord, String)> = BTreeMap::new();
    for (slot, store) in shards.iter().enumerate() {
        let loaded = store.load()?;
        let path = store.path().display().to_string();
        if let Some(header) = &loaded.header {
            if header.spec_hash != plan.spec_hash {
                return Err(conflict(format!(
                    "reason=spec-mismatch expected={} got={} store={path}",
                    plan.spec_hash, header.spec_hash
                )));
            }
            if header.name != plan.name || header.planned_units != plan.units.len() {
                return Err(conflict(format!(
                    "reason=plan-mismatch expected={}/{} got={}/{} store={path}",
                    plan.name,
                    plan.units.len(),
                    header.name,
                    header.planned_units
                )));
            }
        } else if !loaded.records.is_empty() {
            return Err(CampaignError::CorruptStore(format!(
                "{path}: records without a header"
            )));
        }
        let range = expected.map(|ranges| {
            let (index, start, units) = ranges[slot];
            (index, start..start + units)
        });
        for record in loaded.records {
            if plan.units.get(record.index).map(|p| p.hash.as_str())
                != Some(record.hash.as_str())
            {
                return Err(conflict(format!(
                    "reason=foreign-unit unit={} index={} store={path}",
                    record.hash, record.index
                )));
            }
            if let Some((shard, range)) = &range {
                if !range.contains(&record.index) {
                    return Err(conflict(format!(
                        "reason=shard-membership shard={shard} unit={} index={} \
                         expected={}..{} store={path}",
                        record.hash, record.index, range.start, range.end
                    )));
                }
            }
            let index = record.index;
            if let Some((_, other)) = by_index.get(&index) {
                return Err(conflict(format!(
                    "reason=overlap unit={} index={index} store={path} other={other}",
                    record.hash
                )));
            }
            by_index.insert(index, (record, path.clone()));
        }
    }

    // Write the canonical store to a temp file: header, then the maximal
    // plan-order prefix, re-chained from the canonical seed; seal iff
    // complete; rename into place.
    let tmp_path: PathBuf = {
        let mut name = out.path().file_name().unwrap_or_default().to_os_string();
        name.push(".merge-tmp");
        out.path().with_file_name(name)
    };
    let _ = std::fs::remove_file(&tmp_path);
    let tmp = ResultStore::new(&tmp_path);
    let empty = tmp.load()?;
    let mut appender = tmp.appender(&empty)?;
    appender.append_header(StoreHeader {
        name: plan.name.clone(),
        spec_hash: plan.spec_hash.clone(),
        planned_units: plan.units.len(),
    })?;
    let mut merged = 0usize;
    for index in 0..plan.units.len() {
        let Some((record, _)) = by_index.remove(&index) else {
            break;
        };
        appender.append_record(record)?;
        merged += 1;
    }
    let held_back = by_index.len();
    let missing = plan.units.len() - merged - held_back;
    let sealed = merged == plan.units.len();
    if sealed {
        appender.seal()?;
    }
    appender.sync()?;
    drop(appender);
    std::fs::rename(&tmp_path, out.path())?;
    // Out-of-band merge I/O accounting (the appender above already
    // counted its raw writes and fsyncs; merged units are counted from
    // the caller's `Event::Merge`).
    if let Ok(meta) = std::fs::metadata(out.path()) {
        dynring_obs::global().counter(dynring_obs::names::MERGE_BYTES).add(meta.len());
    }
    Ok(MergeOutcome { shards: shards.len(), merged, held_back, missing, sealed })
}

/// Merges explicit shard stores (no manifest ranges; overlap, plan
/// membership and spec binding are still enforced). The stores may come
/// in any order and may be incomplete, or missing entirely.
///
/// # Errors
///
/// See [`merge_manifest`].
pub fn merge_stores(
    spec: &CampaignSpec,
    shards: &[ResultStore],
    out: &ResultStore,
) -> Result<MergeOutcome, CampaignError> {
    merge_impl(spec, shards, None, out)
}

/// Merges the stores named by `manifest`, additionally refusing any
/// record outside its shard's manifest range
/// (`MERGE-CONFLICT reason=shard-membership`).
///
/// # Errors
///
/// - [`CampaignError::SpecMismatch`] when the manifest belongs to a
///   different spec;
/// - [`CampaignError::StoreExists`] when `out` already has content;
/// - [`CampaignError::MergeConflict`] on overlapping, duplicated,
///   foreign-spec or out-of-range shard records;
/// - store loading errors from any damaged shard.
pub fn merge_manifest(
    spec: &CampaignSpec,
    manifest: &ShardManifest,
    out: &ResultStore,
) -> Result<MergeOutcome, CampaignError> {
    let plan = spec.plan()?;
    manifest.matches(&plan)?;
    let stores: Vec<ResultStore> = manifest
        .entries
        .iter()
        .map(|e| ResultStore::new(Path::new(&e.store)))
        .collect();
    let ranges: Vec<(usize, usize, usize)> =
        manifest.entries.iter().map(|e| (e.index, e.start, e.units)).collect();
    merge_impl(spec, &stores, Some(&ranges), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use crate::shard::ShardSel;
    use crate::spec::{PlacementAxis, UnitDynamics, UnitScheduler};
    use dynring_analysis::AlgorithmChoice;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "mergetest".into(),
            ring_sizes: vec![4, 5],
            robots: vec![1, 2],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
            schedulers: vec![UnitScheduler::Sync],
            seeds: vec![1, 2],
            horizon: 120,
            replicas: 2,
        }
    }

    fn temp(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_merge_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    fn cleanup(stores: &[&ResultStore]) {
        for s in stores {
            let _ = std::fs::remove_file(s.path());
        }
    }

    fn run_shard(spec: &CampaignSpec, store: &ResultStore, sel: ShardSel) {
        run_campaign(
            spec,
            store,
            &RunOptions { fresh: false, shard: Some(sel), ..RunOptions::default() },
        )
        .expect("shard runs");
    }

    #[test]
    fn merged_shards_are_byte_identical_to_a_serial_run_and_sealed() {
        let spec = spec();
        let serial = temp("serial");
        run_campaign(&spec, &serial, &RunOptions { workers: 1, ..RunOptions::default() })
            .expect("serial run");

        let shards: Vec<ResultStore> =
            (0..3).map(|i| temp(&format!("shard{i}"))).collect();
        for (i, store) in shards.iter().enumerate() {
            run_shard(&spec, store, ShardSel::Balanced { index: i, count: 3 });
        }
        let merged = temp("merged");
        // Shard order must not matter: merge in reverse.
        let reversed: Vec<ResultStore> = shards.iter().rev().cloned().collect();
        let outcome = merge_stores(&spec, &reversed, &merged).expect("merges");
        assert!(outcome.sealed);
        assert_eq!(outcome.held_back, 0);
        assert_eq!(outcome.missing, 0);
        let a = std::fs::read(serial.path()).expect("read");
        let b = std::fs::read(merged.path()).expect("read");
        assert_eq!(a, b, "merge must reproduce the serial store bit for bit");
        cleanup(&[&serial, &merged]);
        cleanup(&shards.iter().collect::<Vec<_>>());
    }

    #[test]
    fn incomplete_shards_merge_to_an_unsealed_resumable_prefix() {
        let spec = spec();
        let total = spec.plan().expect("plan").units.len();
        let shard0 = temp("partial0");
        let shard1 = temp("partial1");
        run_shard(&spec, &shard0, ShardSel::Balanced { index: 0, count: 2 });
        // Shard 1 never ran: its units are missing.
        let merged = temp("partial_merged");
        let outcome = merge_stores(&spec, &[shard0.clone(), shard1.clone()], &merged)
            .expect("partial merge");
        assert!(!outcome.sealed);
        assert_eq!(
            outcome.merged,
            ShardSel::Balanced { index: 0, count: 2 }.range(total).len()
        );
        assert_eq!(outcome.missing, total - outcome.merged);
        // The prefix is a normal resumable store: resume completes it to
        // the serial bytes.
        run_campaign(&spec, &merged, &RunOptions { fresh: false, ..RunOptions::default() })
            .expect("resumes");
        let serial = temp("partial_serial");
        run_campaign(&spec, &serial, &RunOptions::default()).expect("serial");
        let a = std::fs::read(serial.path()).expect("read");
        let b = std::fs::read(merged.path()).expect("read");
        assert_eq!(a, b);
        cleanup(&[&shard0, &shard1, &merged, &serial]);
    }

    #[test]
    fn overlapping_and_foreign_shards_refuse_by_name() {
        let spec = spec();
        let whole = temp("overlap_whole");
        run_campaign(&spec, &whole, &RunOptions::default()).expect("runs");
        let shard0 = temp("overlap_shard0");
        run_shard(&spec, &shard0, ShardSel::Balanced { index: 0, count: 2 });
        let merged = temp("overlap_merged");
        let err = merge_stores(&spec, &[whole.clone(), shard0.clone()], &merged)
            .expect_err("overlap must refuse");
        assert!(err.to_string().contains("MERGE-CONFLICT"), "{err}");
        assert!(err.to_string().contains("reason=overlap"), "{err}");

        // A store of a different spec refuses with spec-mismatch.
        let mut other = spec.clone();
        other.horizon += 7;
        let foreign = temp("overlap_foreign");
        run_campaign(&other, &foreign, &RunOptions::default()).expect("runs");
        let err = merge_stores(&spec, std::slice::from_ref(&foreign), &merged)
            .expect_err("foreign spec must refuse");
        assert!(err.to_string().contains("reason=spec-mismatch"), "{err}");
        cleanup(&[&whole, &shard0, &foreign, &merged]);
    }

    #[test]
    fn manifest_merge_refuses_out_of_range_records() {
        let spec = spec();
        let plan = spec.plan().expect("plan");
        let dir = std::env::temp_dir();
        let manifest = ShardManifest::build(&plan, 2, &dir);
        // Run the WHOLE plan into shard 0's store: its records spill past
        // the manifest range.
        let store0 = ResultStore::new(Path::new(&manifest.entries[0].store));
        let _ = std::fs::remove_file(store0.path());
        run_campaign(&spec, &store0, &RunOptions::default()).expect("runs");
        let merged = temp("range_merged");
        let err = merge_manifest(&spec, &manifest, &merged)
            .expect_err("out-of-range records must refuse");
        assert!(err.to_string().contains("reason=shard-membership"), "{err}");
        for e in &manifest.entries {
            let _ = std::fs::remove_file(&e.store);
        }
        cleanup(&[&merged]);
    }

    #[test]
    fn generation_split_stores_fold_back_to_the_serial_bytes() {
        let spec = spec();
        let plan = spec.plan().expect("plan");
        let dir = std::env::temp_dir().join("dynring_merge_gen_test");
        let _ = std::fs::create_dir_all(&dir);
        let mut manifest = ShardManifest::build(&plan, 2, &dir);
        for e in &manifest.entries {
            let _ = std::fs::remove_file(&e.store);
        }

        // Shard 0 completes; shard 1 dies after 2 units and its tail is
        // stolen into two sub-shards, as the supervisor would record it.
        run_shard(&spec, &ResultStore::new(Path::new(&manifest.entries[0].store)),
            ShardSel::Balanced { index: 0, count: 2 });
        let parent = ResultStore::new(Path::new(&manifest.entries[1].store));
        run_campaign(&spec, &parent, &RunOptions {
            fresh: false,
            max_units: Some(2),
            shard: Some(ShardSel::Balanced { index: 1, count: 2 }),
            ..RunOptions::default()
        })
        .expect("partial parent runs");
        let children = manifest.split_entry(1, 2, 2).expect("splits");
        manifest.validate().expect("split manifest validates");
        for &c in &children {
            let e = &manifest.entries[c];
            let _ = std::fs::remove_file(&e.store);
            run_shard(
                &spec,
                &ResultStore::new(Path::new(&e.store)),
                ShardSel::Range { start: e.start, units: e.units },
            );
        }

        let merged = temp("gen_merged");
        let outcome = merge_manifest(&spec, &manifest, &merged).expect("folds");
        assert!(outcome.sealed);
        let serial = temp("gen_serial");
        run_campaign(&spec, &serial, &RunOptions::default()).expect("serial");
        let a = std::fs::read(serial.path()).expect("read");
        let b = std::fs::read(merged.path()).expect("read");
        assert_eq!(a, b, "generation fold must reproduce the serial bytes");

        for e in &manifest.entries {
            let _ = std::fs::remove_file(&e.store);
        }
        cleanup(&[&merged, &serial]);
    }

    #[test]
    fn manifest_range_gaps_and_overlaps_refuse_by_name() {
        let spec = spec();
        let plan = spec.plan().expect("plan");
        let dir = std::env::temp_dir();
        let manifest = ShardManifest::build(&plan, 2, &dir);
        let merged = temp("tiling_merged");

        // A hole in the tiling (no store is ever read).
        let mut holed = manifest.clone();
        holed.entries[1].start += 1;
        holed.entries[1].units -= 1;
        let err = merge_manifest(&spec, &holed, &merged).expect_err("gap must refuse");
        assert!(err.to_string().contains("reason=range-gap"), "{err}");

        // A doubly-owned unit.
        let mut doubled = manifest.clone();
        doubled.entries[1].start -= 1;
        let err =
            merge_manifest(&spec, &doubled, &merged).expect_err("overlap must refuse");
        assert!(err.to_string().contains("reason=range-overlap"), "{err}");
        cleanup(&[&merged]);
    }

    #[test]
    fn merge_refuses_a_non_empty_output_store() {
        let spec = spec();
        let out = temp("nonempty_out");
        run_campaign(
            &spec,
            &out,
            &RunOptions { max_units: Some(1), ..RunOptions::default() },
        )
        .expect("runs");
        assert!(matches!(
            merge_stores(&spec, &[], &out),
            Err(CampaignError::StoreExists(_))
        ));
        cleanup(&[&out]);
    }
}
