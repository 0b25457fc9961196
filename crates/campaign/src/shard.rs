//! Deterministic plan partitioning for multi-process campaigns.
//!
//! A campaign plan is split into `N` disjoint, contiguous unit ranges —
//! shard `i` owns `shard_range(total, N, i)` of the plan, balanced to
//! within one unit. Each shard runs as an independent process appending
//! to its own chained v2 store (records keep their *global* plan index),
//! and `merge` folds the shard stores back into one canonical store that
//! is byte-identical to an uninterrupted serial run (see
//! [`crate::merge`]).
//!
//! The partition is written down as a *shard manifest*: a JSON file
//! naming the spec hash, the shard count and every shard's store path and
//! unit range. The manifest is the rendezvous point of the distributed
//! run — `campaign work --index i` reads its shard store path from it,
//! the supervisor persists per-shard restart attempts into it (fsynced
//! before a restarted worker is declared live), and `campaign merge`
//! uses it to refuse overlapping or foreign shard stores by name.
//! Manifest writes are atomic (temp file + fsync + rename), so a crash
//! mid-update can never leave a torn manifest wedging the campaign.
//!
//! Manifests carry *generations*: when the supervisor steals a
//! quarantined or straggling shard's remaining range
//! ([`ShardManifest::split_entry`]), the parent entry is retired with its
//! range truncated to what its store actually holds, and child entries
//! of the next generation are appended covering the rest. The entries
//! therefore form an arbitrary exact partition of the plan (validated as
//! such) instead of the canonical balanced one — but they are still
//! disjoint and complete, so the merge story is unchanged. A manifest of
//! any other schema, v1 included, is refused by name.

use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::spec::CampaignPlan;
use crate::store::{header_violation, StoreHeader};
use crate::CampaignError;

/// The manifest schema generation (bumped on shape changes).
pub const MANIFEST_SCHEMA: &str = "dynring-shard-manifest-v2";

/// Which slice of the plan a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSel {
    /// Shard `index` of the canonical `count`-way balanced partition
    /// ([`shard_range`]).
    Balanced {
        /// 0-based shard index.
        index: usize,
        /// Total shard count.
        count: usize,
    },
    /// An explicit plan-order range — the shape of generation sub-shards,
    /// whose ranges are whatever a steal left behind, not a canonical
    /// recomputation.
    Range {
        /// First plan index (inclusive).
        start: usize,
        /// Units in the range.
        units: usize,
    },
}

impl ShardSel {
    /// Validates the selection against a plan of `total` units.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] naming the bad field.
    pub fn validate(&self, total: usize) -> Result<(), CampaignError> {
        match self {
            ShardSel::Balanced { index, count } => {
                if *count == 0 {
                    return Err(CampaignError::InvalidSpec(
                        "shard count must be at least 1".into(),
                    ));
                }
                if index >= count {
                    return Err(CampaignError::InvalidSpec(format!(
                        "shard index {index} out of range for {count} shards"
                    )));
                }
            }
            ShardSel::Range { start, units } => {
                if start.saturating_add(*units) > total {
                    return Err(CampaignError::InvalidSpec(format!(
                        "shard range {start}..{} exceeds the {total}-unit plan",
                        start + units
                    )));
                }
            }
        }
        Ok(())
    }

    /// This shard's unit range within a plan of `total` units.
    pub fn range(&self, total: usize) -> Range<usize> {
        match self {
            ShardSel::Balanced { index, count } => shard_range(total, *count, *index),
            ShardSel::Range { start, units } => *start..(*start + *units).min(total),
        }
    }
}

/// The balanced contiguous partition: shard `index` of `count` owns a
/// range of `total / count` units, with the first `total % count` shards
/// carrying one extra. Ranges are disjoint, cover `0..total` exactly, and
/// are a pure function of `(total, count, index)` — every process
/// computes the same partition from the spec alone.
pub fn shard_range(total: usize, count: usize, index: usize) -> Range<usize> {
    let count = count.max(1);
    let base = total / count;
    let extra = total % count;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..(start + len).min(total)
}

/// One shard's slot in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// 0-based shard index.
    pub index: usize,
    /// Path of this shard's JSONL store.
    pub store: String,
    /// First plan index of the shard's range (inclusive).
    pub start: usize,
    /// Units in the shard's range.
    pub units: usize,
    /// Worker launch attempts recorded by the supervisor (0 = never
    /// started). Persisted — and fsynced — before each (re)start, so a
    /// supervisor resumed after a crash sees the true retry history.
    pub attempts: usize,
    /// Split generation: 0 for the original shards, parent's generation
    /// + 1 for sub-shards created by a steal.
    pub generation: usize,
    /// The entry this sub-shard was split from (`None` for the original
    /// shards).
    pub parent: Option<usize>,
    /// A retired entry is never (re)spawned: its remaining range was
    /// redistributed to child sub-shards and its own range truncated to
    /// the plan-order prefix its store actually holds. The store stays
    /// in place — the merge folds it together with the children.
    pub retired: bool,
}

impl ShardEntry {
    /// The entry's plan-order unit range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.units
    }
}

/// The shard manifest: the partition of one campaign over `shards`
/// worker stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// [`MANIFEST_SCHEMA`] at write time.
    pub schema: String,
    /// Campaign name (informational).
    pub name: String,
    /// The owning spec's content hash; shard stores and merges are
    /// refused against any other spec.
    pub spec_hash: String,
    /// Units in the full plan.
    pub planned_units: usize,
    /// Shard count.
    pub shards: usize,
    /// One entry per shard, in index order.
    pub entries: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Builds the manifest for `plan` split into `shards` ranges, with
    /// shard stores named `<name>.shard-I-of-N.jsonl` under `store_dir`.
    /// The shard count is clamped to the plan size (no empty shards).
    pub fn build(plan: &CampaignPlan, shards: usize, store_dir: &Path) -> Self {
        let shards = shards.clamp(1, plan.units.len().max(1));
        let entries = (0..shards)
            .map(|index| {
                let range = shard_range(plan.units.len(), shards, index);
                ShardEntry {
                    index,
                    store: store_dir
                        .join(format!("{}.shard-{index}-of-{shards}.jsonl", plan.name))
                        .display()
                        .to_string(),
                    start: range.start,
                    units: range.len(),
                    attempts: 0,
                    generation: 0,
                    parent: None,
                    retired: false,
                }
            })
            .collect();
        ShardManifest {
            schema: MANIFEST_SCHEMA.to_string(),
            name: plan.name.clone(),
            spec_hash: plan.spec_hash.clone(),
            planned_units: plan.units.len(),
            shards,
            entries,
        }
    }

    /// Checks internal consistency: the schema is [`MANIFEST_SCHEMA`],
    /// and the entries are an *exact partition* — indexed in order,
    /// non-empty ranges disjoint and covering `0..planned_units` with no
    /// gap, generation/parent links consistent, and only retired entries
    /// allowed to be empty.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] naming the inconsistency.
    pub fn validate(&self) -> Result<(), CampaignError> {
        check_schema(&self.schema)?;
        if self.entries.len() < self.shards {
            return Err(CampaignError::CorruptStore(format!(
                "shard manifest names {} shards but carries {} entries",
                self.shards,
                self.entries.len()
            )));
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.index != i {
                return Err(CampaignError::CorruptStore(format!(
                    "shard manifest entry {i} carries index {}",
                    entry.index
                )));
            }
            if (i < self.shards) != entry.parent.is_none() {
                return Err(CampaignError::CorruptStore(format!(
                    "shard manifest entry {i}: original shards carry no parent, \
                     sub-shards must (parent = {:?}, {} original shards)",
                    entry.parent, self.shards
                )));
            }
            if let Some(parent) = entry.parent {
                let p = self.entries.get(parent).ok_or_else(|| {
                    CampaignError::CorruptStore(format!(
                        "shard manifest entry {i} names missing parent {parent}"
                    ))
                })?;
                if parent >= i || !p.retired || entry.generation != p.generation + 1 {
                    return Err(CampaignError::CorruptStore(format!(
                        "shard manifest entry {i} (generation {}) has an \
                         inconsistent parent {parent} (generation {}, retired {})",
                        entry.generation, p.generation, p.retired
                    )));
                }
            } else if entry.generation != 0 {
                return Err(CampaignError::CorruptStore(format!(
                    "shard manifest entry {i} has generation {} but no parent",
                    entry.generation
                )));
            }
            if entry.units == 0 && !entry.retired {
                return Err(CampaignError::CorruptStore(format!(
                    "shard manifest entry {i} is empty but not retired"
                )));
            }
        }
        // The non-empty ranges must partition 0..planned_units exactly.
        let mut ranges: Vec<Range<usize>> = self
            .entries
            .iter()
            .filter(|e| e.units > 0)
            .map(ShardEntry::range)
            .collect();
        ranges.sort_by_key(|r| r.start);
        let mut next = 0usize;
        for range in &ranges {
            if range.start != next {
                let reason = if range.start > next { "gap" } else { "overlap" };
                return Err(CampaignError::CorruptStore(format!(
                    "shard manifest ranges have a {reason} at unit {next} \
                     (next range starts at {})",
                    range.start
                )));
            }
            next = range.end;
        }
        if next != self.planned_units {
            return Err(CampaignError::CorruptStore(format!(
                "shard manifest ranges cover {next} of {} planned units",
                self.planned_units
            )));
        }
        Ok(())
    }

    /// The entries a supervisor should (re)spawn workers for: not retired
    /// and owning at least one unit.
    pub fn runnable(&self) -> impl Iterator<Item = &ShardEntry> {
        self.entries.iter().filter(|e| !e.retired && e.units > 0)
    }

    /// Splits entry `parent`'s unexecuted tail into `pieces` child
    /// sub-shards of the next generation — the manifest side of a steal.
    ///
    /// `done` is the plan-order prefix the parent's store actually holds
    /// (its records are kept and merged). The parent is retired with
    /// `units = done`, and children are appended covering
    /// `[start+done, start+units)` as a balanced sub-partition, with
    /// stores named `<store stem>-g<generation>-<k>.jsonl` next to the
    /// parent store. Returns the child entry indices. The caller must [`ShardManifest::write`] before
    /// acting on the split.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] when `parent` is out of range,
    /// already retired, `done` exceeds its range, or the tail is empty.
    pub fn split_entry(
        &mut self,
        parent: usize,
        done: usize,
        pieces: usize,
    ) -> Result<Vec<usize>, CampaignError> {
        let entry = self.entry(parent)?.clone();
        if entry.retired {
            return Err(CampaignError::InvalidSpec(format!(
                "shard {parent} is already retired"
            )));
        }
        if done > entry.units {
            return Err(CampaignError::InvalidSpec(format!(
                "shard {parent} holds {done} units but owns only {}",
                entry.units
            )));
        }
        let remaining = entry.units - done;
        if remaining == 0 {
            return Err(CampaignError::InvalidSpec(format!(
                "shard {parent} has no units left to steal"
            )));
        }
        let pieces = pieces.clamp(1, remaining);
        let tail_start = entry.start + done;
        let generation = entry.generation + 1;
        let stem = {
            let path = Path::new(&entry.store);
            let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("shard");
            let dir = path.parent().unwrap_or_else(|| Path::new("."));
            (dir.to_path_buf(), name.to_string())
        };
        let mut children = Vec::with_capacity(pieces);
        for k in 0..pieces {
            let sub = shard_range(remaining, pieces, k);
            let index = self.entries.len();
            self.entries.push(ShardEntry {
                index,
                store: stem
                    .0
                    .join(format!("{}-g{generation}-{k}.jsonl", stem.1))
                    .display()
                    .to_string(),
                start: tail_start + sub.start,
                units: sub.len(),
                attempts: 0,
                generation,
                parent: Some(parent),
                retired: false,
            });
            children.push(index);
        }
        let e = &mut self.entries[parent];
        e.units = done;
        e.retired = true;
        Ok(children)
    }

    /// Checks the manifest belongs to `plan`: the same spec hash, campaign
    /// name and unit count a store header is checked by.
    ///
    /// # Errors
    ///
    /// [`CampaignError::SpecMismatch`] on a foreign spec,
    /// [`CampaignError::CorruptStore`] on a name/size drift.
    pub fn matches(&self, plan: &CampaignPlan) -> Result<(), CampaignError> {
        let header = StoreHeader {
            name: self.name.clone(),
            spec_hash: self.spec_hash.clone(),
            planned_units: self.planned_units,
        };
        header_violation(plan, &header).map_or(Ok(()), |v| Err(v.refuse("shard manifest")))
    }

    /// The entry of shard `index`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] when out of range.
    pub fn entry(&self, index: usize) -> Result<&ShardEntry, CampaignError> {
        self.entries.get(index).ok_or_else(|| {
            CampaignError::InvalidSpec(format!(
                "shard index {index} out of range for {} shards",
                self.shards
            ))
        })
    }

    /// Writes the manifest atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`. A crash at any point leaves either the old
    /// manifest or the new one, never a torn file — the property the
    /// supervisor's restart bookkeeping relies on.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`].
    pub fn write(&self, path: &Path) -> Result<(), CampaignError> {
        let json = serde_json::to_string_pretty(self)? + "\n";
        let tmp: PathBuf = {
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(".tmp");
            path.with_file_name(name)
        };
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a manifest.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::CorruptStore`] (see [`ShardManifest::validate`]).
    pub fn load(path: &Path) -> Result<Self, CampaignError> {
        /// The schema alone, read first: a manifest of another schema is
        /// refused by name, not by the first field it lacks.
        #[derive(Deserialize)]
        struct Schema {
            schema: String,
        }
        let json = std::fs::read_to_string(path)?;
        check_schema(&serde_json::from_str::<Schema>(&json)?.schema)?;
        let manifest: ShardManifest = serde_json::from_str(&json)?;
        manifest.validate()?;
        Ok(manifest)
    }
}

/// Refuses every manifest schema but [`MANIFEST_SCHEMA`], naming it.
fn check_schema(schema: &str) -> Result<(), CampaignError> {
    if schema == MANIFEST_SCHEMA {
        return Ok(());
    }
    Err(CampaignError::CorruptStore(format!(
        "shard manifest schema {schema} is not {MANIFEST_SCHEMA}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, PlacementAxis, UnitDynamics, UnitScheduler};
    use dynring_analysis::AlgorithmChoice;

    fn plan() -> CampaignPlan {
        CampaignSpec {
            name: "shardtest".into(),
            ring_sizes: vec![4, 5],
            robots: vec![1, 2],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![UnitDynamics::Bernoulli { p: 0.5 }],
            schedulers: vec![UnitScheduler::Sync],
            seeds: vec![1, 2, 3],
            horizon: 100,
            replicas: 2,
        }
        .plan()
        .expect("valid spec")
    }

    #[test]
    fn ranges_partition_the_plan_exactly() {
        for total in [0usize, 1, 5, 12, 13, 100] {
            for count in [1usize, 2, 3, 4, 7, 13] {
                let mut covered = Vec::new();
                for index in 0..count {
                    let range = shard_range(total, count, index);
                    // Disjoint and contiguous: each range starts where the
                    // previous ended.
                    assert_eq!(range.start, covered.len(), "total={total} count={count}");
                    covered.extend(range);
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>());
                // Balanced to within one unit.
                let sizes: Vec<usize> =
                    (0..count).map(|i| shard_range(total, count, i).len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "total={total} count={count} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn shard_sel_validates_bounds() {
        assert!(ShardSel::Balanced { index: 0, count: 0 }.validate(10).is_err());
        assert!(ShardSel::Balanced { index: 3, count: 3 }.validate(10).is_err());
        assert!(ShardSel::Balanced { index: 2, count: 3 }.validate(10).is_ok());
        assert!(ShardSel::Range { start: 4, units: 6 }.validate(10).is_ok());
        assert!(ShardSel::Range { start: 4, units: 7 }.validate(10).is_err());
        assert_eq!(ShardSel::Range { start: 4, units: 3 }.range(10), 4..7);
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let plan = plan();
        let dir = std::env::temp_dir().join("dynring_shard_manifest_test");
        let _ = std::fs::create_dir_all(&dir);
        let manifest = ShardManifest::build(&plan, 3, &dir);
        assert_eq!(manifest.shards, 3);
        assert_eq!(
            manifest.entries.iter().map(|e| e.units).sum::<usize>(),
            plan.units.len()
        );
        manifest.validate().expect("consistent");
        manifest.matches(&plan).expect("matches its plan");

        let path = dir.join("manifest.json");
        manifest.write(&path).expect("writes");
        let loaded = ShardManifest::load(&path).expect("loads");
        assert_eq!(loaded, manifest);

        // A foreign spec is refused by hash.
        let mut other = plan.clone();
        other.spec_hash = "ffffffffffffffff".into();
        assert!(matches!(
            manifest.matches(&other),
            Err(CampaignError::SpecMismatch { .. })
        ));

        // A tampered range is refused: shifting one start opens a gap
        // and an overlap at once.
        let mut bent = manifest.clone();
        bent.entries[1].start += 1;
        assert!(bent.validate().is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_manifests_are_refused_and_any_exact_partition_validates() {
        let plan = plan();
        let dir = std::env::temp_dir().join("dynring_shard_manifest_v1_test");
        let _ = std::fs::create_dir_all(&dir);
        let manifest = ShardManifest::build(&plan, 2, &dir);
        // A v1 file never wrote the re-sharding fields: it is refused by
        // its schema, not by the first field it lacks.
        let v1_json = serde_json::to_string(&manifest)
            .expect("serializes")
            .replace(MANIFEST_SCHEMA, "dynring-shard-manifest-v1")
            .replace(",\"generation\":0,\"parent\":null,\"retired\":false", "");
        assert!(!v1_json.contains("generation"), "v2-only fields must be stripped: {v1_json}");
        let path = dir.join("manifest-v1.json");
        std::fs::write(&path, v1_json).expect("writes");
        let err = ShardManifest::load(&path).expect_err("v1 is refused");
        assert!(
            err.to_string().contains("schema dynring-shard-manifest-v1 is not"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);

        // Any exact partition validates, canonical or not, under the one
        // schema there is.
        let mut bent = manifest.clone();
        bent.entries[0].units += 1;
        bent.entries[1].start += 1;
        bent.entries[1].units -= 1;
        bent.validate().expect("any exact partition validates");
        bent.schema = "dynring-shard-manifest-v1".into();
        assert!(bent.validate().is_err());
    }

    #[test]
    fn split_entry_retires_the_parent_and_partitions_the_tail() {
        let plan = plan();
        let total = plan.units.len();
        let mut manifest = ShardManifest::build(&plan, 3, Path::new("/tmp"));
        let parent_range = manifest.entries[1].range();
        let done = 2.min(parent_range.len() - 1);
        let children = manifest.split_entry(1, done, 2).expect("splits");
        assert_eq!(children, vec![3, 4]);
        manifest.validate().expect("split manifest stays an exact partition");

        let parent = &manifest.entries[1];
        assert!(parent.retired);
        assert_eq!(parent.units, done);
        let covered: usize = manifest.entries.iter().map(|e| e.units).sum();
        assert_eq!(covered, total);
        for &c in &children {
            let child = &manifest.entries[c];
            assert_eq!(child.parent, Some(1));
            assert_eq!(child.generation, 1);
            assert_eq!(child.attempts, 0);
            assert!(child.store.contains("-g1-"), "store {}", child.store);
        }
        assert_eq!(manifest.runnable().count(), 4);

        // A child can be split again (generation 2), and the manifest
        // still validates as an exact partition.
        let grand = manifest.split_entry(children[0], 0, 2).expect("re-splits");
        manifest.validate().expect("still exact");
        assert!(manifest.entries[grand[0]].generation == 2);

        // Refusals: retired parent, done beyond range, empty tail.
        assert!(manifest.split_entry(1, 0, 2).is_err());
        assert!(manifest.split_entry(0, total, 2).is_err());
        let full = manifest.entries[2].units;
        assert!(manifest.split_entry(2, full, 2).is_err());
    }

    #[test]
    fn shard_count_is_clamped_to_the_plan() {
        let plan = plan();
        let manifest = ShardManifest::build(&plan, 1000, Path::new("/tmp"));
        assert_eq!(manifest.shards, plan.units.len());
        assert!(manifest.entries.iter().all(|e| e.units == 1));
    }
}
