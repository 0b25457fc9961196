//! The append-only JSONL result store.
//!
//! A store is one file: a header line naming the campaign and its spec
//! hash, then one line per completed unit, appended in plan order.
//! Append order + deterministic execution is what makes resume
//! byte-exact: an interrupted store is a plan-order prefix of the
//! uninterrupted one, so `resume` — which appends exactly the missing
//! units, in plan order — reproduces the uninterrupted file bit for bit.
//!
//! Every record is a [`crate::trace::ChainedRecord`] (store schema v2):
//! the unit record plus its result digest and a hash-chain link
//! committing it to the whole prefix, and a completed store ends in a
//! sealed [`StoreFooter`] line. A v1 line (a bare `Unit` record) does not
//! parse, so a v1 store is refused like any other unparseable file.
//!
//! Loading is crash-tolerant but corruption-strict: a trailing partial
//! (or unparseable) line — the write an interruption cut short — is
//! detected and truncated away before appending resumes, while any
//! damage *before* the tail (an unparseable interior line, a broken
//! chain link, a duplicated or reordered record, a forged seal) refuses
//! with one greppable `STORE-CORRUPT line=… offset=… reason=…`
//! diagnostic. Whether a store belongs to a plan — its spec, campaign
//! and size, and each record's place in the plan — is one check that
//! every reader shares: a store belongs to exactly one spec.
//!
//! Every read is one bounded pass: the file goes through one reused
//! 64 KiB buffer and each record is handed to its
//! reader as soon as it is verified, so a reader holds what it folds
//! (and a flag per plan unit), never the file or its records. Only
//! [`ResultStore::load`] collects the records, for merge and the public
//! API.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use dynring_obs::names as obs_names;
use serde::{Deserialize, Serialize};

use crate::executor::UnitRecord;
use crate::fault::{FailPlan, FaultKind};
use crate::spec::CampaignPlan;
use crate::trace::{chain_seed, chain_step, result_digest, ChainedRecord, StoreFooter, STORE_SCHEMA};
use crate::CampaignError;

/// The store's first line: which campaign this file belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Campaign name (informational).
    pub name: String,
    /// [`crate::CampaignSpec::content_hash`] of the owning spec.
    pub spec_hash: String,
    /// Planned unit count (informational; the plan is re-derived from the
    /// spec on every run).
    pub planned_units: usize,
}

/// One line of the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreLine {
    /// The header (first line).
    Header(StoreHeader),
    /// A completed unit with its digest and chain link.
    Chained(ChainedRecord),
    /// The sealed footer of a completed campaign.
    Seal(StoreFooter),
}

impl StoreLine {
    /// Short display name, for diagnostics.
    fn describe(&self) -> &'static str {
        match self {
            StoreLine::Header(_) => "header",
            StoreLine::Chained(_) => "record",
            StoreLine::Seal(_) => "seal",
        }
    }
}

/// A parsed store: everything valid on disk plus where valid bytes end.
#[derive(Debug)]
pub struct LoadedStore {
    /// The header, when the file has one.
    pub header: Option<StoreHeader>,
    /// Completed unit records, in file order.
    pub records: Vec<UnitRecord>,
    /// Byte offset just past the last valid line. Anything after this is
    /// a torn write and is truncated before appending resumes.
    pub valid_len: u64,
    /// Whether the file carried bytes past `valid_len`.
    pub torn_tail: bool,
    /// How many bytes past `valid_len` the file carried.
    pub torn_bytes: u64,
    /// The chain head over the loaded lines: the header's seed advanced
    /// by every record. `None` for headerless (empty) stores.
    pub chain_head: Option<String>,
    /// Whether the store ends in a verified seal.
    pub sealed: bool,
}

/// What a bounded read keeps of a verified store: everything
/// [`LoadedStore`] holds but the records themselves.
#[derive(Debug)]
pub(crate) struct StoreSummary {
    /// The header, when the file has one.
    pub header: Option<StoreHeader>,
    /// Records in the file.
    pub records: usize,
    /// The chain head after every record (`None` without a header).
    pub chain_head: Option<String>,
    /// Byte offset just past the last valid line.
    pub valid_len: u64,
    /// Bytes past `valid_len` (a torn trailing write).
    pub torn_bytes: u64,
    /// Whether the store ends in a verified seal.
    pub sealed: bool,
    /// Per plan unit, whether the store holds its record; empty when the
    /// read was not bound to a plan.
    pub done: Vec<bool>,
}

/// Where the scan of a file ended: the extent of its newline-terminated
/// region.
#[derive(Debug, Default)]
pub(crate) struct ScanEnd {
    /// Byte offset just past the last newline-terminated line.
    pub valid_len: u64,
    /// Bytes past `valid_len` (a torn trailing write).
    pub torn_bytes: u64,
}

/// The size of the one buffer a store or events-ledger read goes
/// through, and the most any single read asks for. The buffer is capped
/// at the file's length plus one byte (a small file costs no more than
/// itself), a line longer than the buffer grows it, and a partial line
/// at its end carries over to the next read.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

#[cfg(test)]
thread_local! {
    /// This thread's read size in place of [`READ_CHUNK`]: the chunk
    /// boundary tests read the same files at sizes down to one byte.
    pub(crate) static TEST_READ_CHUNK: std::cell::Cell<usize> =
        const { std::cell::Cell::new(READ_CHUNK) };
}

fn read_chunk() -> usize {
    #[cfg(test)]
    return TEST_READ_CHUNK.with(std::cell::Cell::get);
    #[cfg(not(test))]
    READ_CHUNK
}

/// One newline-terminated line, as [`for_each_line`] hands it over.
pub(crate) struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// Byte offset of the line's first byte.
    pub offset: u64,
    /// The line without its newline.
    pub bytes: &'a [u8],
    /// Whether a read after the line's newline returned end of file: the
    /// line was the file's last when it was read.
    pub last: bool,
}

/// Splits the file at `path` into its newline-terminated lines, in file
/// order, through one reused buffer (see [`READ_CHUNK`]). `visit`
/// returns `false` to stop at a line: that line and everything after it
/// are then the tail. A missing file has no lines. The end of the file
/// is whatever the last read sees, so a file that is still being
/// appended to reads as the prefix written so far.
pub(crate) fn for_each_line(
    path: &Path,
    mut visit: impl FnMut(Line<'_>) -> Result<bool, CampaignError>,
) -> Result<ScanEnd, CampaignError> {
    let mut file = match File::open(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(ScanEnd::default()),
        file => file?,
    };
    let chunk = read_chunk().max(1);
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    let mut buf = vec![0u8; chunk.min(len.saturating_add(1))];
    // `buf[start..end]` is read but not yet visited; `searched` is where
    // the newline search resumes; `offset` is the file offset of `start`.
    let (mut start, mut end, mut searched) = (0usize, 0usize, 0usize);
    let (mut offset, mut number, mut eof) = (0u64, 0usize, false);
    loop {
        let newline = buf[searched..end].iter().position(|&b| b == b'\n').map(|i| searched + i);
        match newline {
            // A line whose newline ends the bytes read so far waits for
            // one more read, which tells whether it is the file's last.
            Some(nl) if nl + 1 < end || eof => {
                number += 1;
                let line = Line { number, offset, bytes: &buf[start..nl], last: nl + 1 == end };
                if !visit(line)? {
                    break;
                }
                offset += (nl + 1 - start) as u64;
                (start, searched) = (nl + 1, nl + 1);
            }
            None if eof => break,
            _ => {
                searched = newline.unwrap_or(end) - start;
                buf.copy_within(start..end, 0);
                (start, end) = (0, end - start);
                if end == buf.len() {
                    buf.resize(2 * end, 0);
                }
                let room = (buf.len() - end).min(chunk);
                let read = loop {
                    match file.read(&mut buf[end..end + room]) {
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        read => break read?,
                    }
                };
                end += read;
                eof = read == 0;
            }
        }
    }
    Ok(ScanEnd { valid_len: offset, torn_bytes: (end - start) as u64 })
}

/// One semantic rule violated by an otherwise-parseable line. `reason`,
/// `expected` and `got` are space-free tokens, so both the
/// `STORE-CORRUPT` and `CERTIFY-FAIL` renderings stay one greppable line.
#[derive(Debug)]
pub(crate) struct Violation {
    /// The offending unit's hash, or `-` for non-record lines.
    pub unit: String,
    /// Greppable token naming the broken rule.
    pub reason: &'static str,
    /// What the verifier computed (empty when not applicable).
    pub expected: String,
    /// What the store carried (empty when not applicable).
    pub got: String,
}

impl Violation {
    fn new(unit: &str, reason: &'static str, expected: String, got: String) -> Self {
        Violation { unit: unit.to_string(), reason, expected, got }
    }

    /// `reason=… unit=… expected=… got=…`, the form merge and the runner
    /// print.
    pub(crate) fn render(&self) -> String {
        format!(
            "reason={} unit={} expected={} got={}",
            self.reason, self.unit, self.expected, self.got
        )
    }

    /// The violation as run, resume, report and the shard manifest refuse
    /// it: [`CampaignError::SpecMismatch`], or one
    /// [`CampaignError::CorruptStore`] line naming `source`. Each refuses
    /// its first violation.
    pub(crate) fn refuse(self, source: &str) -> CampaignError {
        if self.reason == "spec-mismatch" {
            CampaignError::SpecMismatch { expected: self.expected, found: self.got }
        } else {
            CampaignError::CorruptStore(format!("{source}: {}", self.render()))
        }
    }
}

/// Whether a store `header` belongs to `plan`: `spec-mismatch` when it
/// names another spec, `plan-mismatch` when it names another campaign or
/// unit count.
pub(crate) fn header_violation(plan: &CampaignPlan, header: &StoreHeader) -> Option<Violation> {
    if header.spec_hash != plan.spec_hash {
        let (expected, got) = (plan.spec_hash.clone(), header.spec_hash.clone());
        return Some(Violation::new("-", "spec-mismatch", expected, got));
    }
    (header.name != plan.name || header.planned_units != plan.units.len()).then(|| {
        Violation::new(
            "-",
            "plan-mismatch",
            format!("{}/{}", plan.name, plan.units.len()),
            format!("{}/{}", header.name, header.planned_units),
        )
    })
}

/// Whether `record` belongs to `plan` in a store that may hold only the
/// plan units in `owned`: `foreign-unit` when it is not the plan's unit
/// at its index, `shard-membership` when it lies outside `owned`.
pub(crate) fn record_violation(
    plan: &CampaignPlan,
    owned: &Range<usize>,
    record: &UnitRecord,
) -> Option<Violation> {
    let planned = plan.units.get(record.index).map(|p| p.hash.as_str());
    if planned != Some(record.hash.as_str()) {
        Some(Violation::new(
            &record.hash,
            "foreign-unit",
            format!("{}:{}", record.index, planned.unwrap_or("-")),
            format!("{}:{}", record.index, record.hash),
        ))
    } else if !owned.contains(&record.index) {
        Some(Violation::new(
            &record.hash,
            "shard-membership",
            format!("{}..{}", owned.start, owned.end),
            record.index.to_string(),
        ))
    } else {
        None
    }
}

/// Whether a store's `header` and `records` belong to `plan`, for a store
/// that may hold only the plan units in `owned`: the one binding check of
/// every reader (run and resume, report, merge, certify and the shard
/// manifest), in merge's tokens — [`header_violation`], then
/// [`record_violation`] for each record in order. A `spec-mismatch` is
/// reported alone, because a store of another spec holds no record of
/// this plan. Without a header only the records are checked. The
/// streaming readers apply the same two checks record by record.
pub(crate) fn plan_violations(
    plan: &CampaignPlan,
    owned: Range<usize>,
    header: Option<&StoreHeader>,
    records: &[UnitRecord],
) -> Vec<Violation> {
    let mut violations: Vec<Violation> =
        header.and_then(|h| header_violation(plan, h)).into_iter().collect();
    if violations.first().is_some_and(|v| v.reason == "spec-mismatch") {
        return violations;
    }
    violations.extend(records.iter().filter_map(|r| record_violation(plan, &owned, r)));
    violations
}

/// The unit hashes a verifier has accepted. Bound to a plan, a record in
/// its own plan slot costs one flag instead of its hash, so the set grows
/// with the plan rather than the store; any other hash is kept whole.
/// Plan hashes are unique (a spec refuses duplicate axis entries), so a
/// hash names at most one slot and the set is exact either way.
#[derive(Debug)]
struct SeenUnits<'p> {
    plan: Option<&'p CampaignPlan>,
    /// Per plan unit, whether its hash was seen.
    slots: Vec<bool>,
    /// Seen hashes that are no plan unit's.
    others: HashSet<String>,
    /// The plan's slots by hash, built at the first record outside its
    /// own slot (a damaged or foreign store).
    by_hash: Option<HashMap<&'p str, usize>>,
}

impl<'p> SeenUnits<'p> {
    /// Marks `hash`, stored at plan index `index`, seen: `false` when it
    /// already was.
    fn insert(&mut self, index: usize, hash: &str) -> bool {
        match self.slot(index, hash) {
            Some(slot) => !std::mem::replace(&mut self.slots[slot], true),
            None => self.others.insert(hash.to_string()),
        }
    }

    fn slot(&mut self, index: usize, hash: &str) -> Option<usize> {
        let plan = self.plan?;
        if plan.units.get(index).is_some_and(|u| u.hash == hash) {
            return Some(index);
        }
        let by_hash = self.by_hash.get_or_insert_with(|| {
            plan.units.iter().enumerate().map(|(i, u)| (u.hash.as_str(), i)).collect()
        });
        by_hash.get(hash).copied()
    }
}

/// The shared semantic checker behind every store reader: fed lines in
/// file order, it recomputes the content hashes, digests and chain
/// links, tracks ordering, duplication and the seal, and hands each
/// record back to its reader instead of keeping it.
#[derive(Debug)]
pub(crate) struct StoreVerifier<'p> {
    /// The header, once seen.
    pub header: Option<StoreHeader>,
    /// The chain head after every accepted line.
    pub chain_head: Option<String>,
    /// Records accepted so far.
    pub records: usize,
    /// Whether a seal line was seen.
    pub sealed: bool,
    seen: SeenUnits<'p>,
    last_index: Option<usize>,
}

impl<'p> StoreVerifier<'p> {
    /// A verifier whose duplicate check is bound to `plan` when given
    /// (see [`SeenUnits`]); it checks the same rules either way.
    pub(crate) fn new(plan: Option<&'p CampaignPlan>) -> Self {
        StoreVerifier {
            header: None,
            chain_head: None,
            records: 0,
            sealed: false,
            seen: SeenUnits {
                plan,
                slots: vec![false; plan.map_or(0, |p| p.units.len())],
                others: HashSet::new(),
                by_hash: None,
            },
            last_index: None,
        }
    }

    /// Accepts the next line: every rule it violates (empty = clean) and,
    /// for a record line, the record. State advances even on violations —
    /// using the *stored* values — so one corrupt line yields its own
    /// violations instead of cascading over the rest of the file.
    pub(crate) fn accept(&mut self, line: StoreLine) -> (Vec<Violation>, Option<UnitRecord>) {
        let mut violations = Vec::new();
        if self.sealed {
            violations.push(Violation::new(
                "-",
                "line-after-seal",
                "end-of-file".into(),
                line.describe().into(),
            ));
        }
        match line {
            StoreLine::Header(header) => {
                if self.header.is_some() {
                    violations.push(Violation::new(
                        "-",
                        "duplicate-header",
                        "one-header".into(),
                        "second-header".into(),
                    ));
                } else {
                    if self.records > 0 {
                        violations.push(Violation::new(
                            "-",
                            "header-not-first",
                            "line-1".into(),
                            format!("after-{}-records", self.records),
                        ));
                    }
                    self.chain_head = Some(chain_seed(&header));
                    self.header = Some(header);
                }
            }
            StoreLine::Chained(chained) => {
                self.check_record(&chained, &mut violations);
                self.records += 1;
                return (violations, Some(chained.record));
            }
            StoreLine::Seal(footer) => {
                if !self.sealed {
                    self.check_seal(&footer, &mut violations);
                    self.sealed = true;
                }
            }
        }
        (violations, None)
    }

    /// What the verifier keeps once the scan that fed it ended at `end`.
    fn finish(self, end: ScanEnd) -> StoreSummary {
        StoreSummary {
            header: self.header,
            records: self.records,
            chain_head: self.chain_head,
            valid_len: end.valid_len,
            torn_bytes: end.torn_bytes,
            sealed: self.sealed,
            done: self.seen.slots,
        }
    }

    fn check_record(&mut self, chained: &ChainedRecord, violations: &mut Vec<Violation>) {
        let record = &chained.record;
        let computed = record.unit.content_hash();
        if record.hash != computed {
            violations.push(Violation::new(
                &record.hash,
                "unit-hash-mismatch",
                computed,
                record.hash.clone(),
            ));
        }
        if !self.seen.insert(record.index, &record.hash) {
            violations.push(Violation::new(
                &record.hash,
                "duplicate-unit",
                "one-record-per-unit".into(),
                record.hash.clone(),
            ));
        }
        if let Some(last) = self.last_index {
            if record.index <= last {
                violations.push(Violation::new(
                    &record.hash,
                    "order",
                    format!("index>{last}"),
                    record.index.to_string(),
                ));
            }
        }
        self.last_index = Some(record.index);
        let digest = result_digest(record);
        if chained.digest != digest {
            violations.push(Violation::new(
                &record.hash,
                "digest-mismatch",
                digest,
                chained.digest.clone(),
            ));
        }
        // The chain consumes the *stored* digest: a corrupt result breaks
        // the digest check alone, a corrupt chain field breaks the chain
        // check alone.
        match &self.chain_head {
            Some(head) => {
                let expected = chain_step(head, &record.hash, &chained.digest);
                if chained.chain != expected {
                    violations.push(Violation::new(
                        &record.hash,
                        "chain-mismatch",
                        expected,
                        chained.chain.clone(),
                    ));
                }
            }
            None => violations.push(Violation::new(
                &record.hash,
                "chain-unseeded",
                "header-before-records".into(),
                "no-header".into(),
            )),
        }
        self.chain_head = Some(chained.chain.clone());
    }

    fn check_seal(&mut self, footer: &StoreFooter, violations: &mut Vec<Violation>) {
        if footer.seal != footer.expected_seal() {
            violations.push(Violation::new(
                "-",
                "seal-mismatch",
                footer.expected_seal(),
                footer.seal.clone(),
            ));
        }
        if footer.schema != STORE_SCHEMA {
            violations.push(Violation::new(
                "-",
                "schema-mismatch",
                STORE_SCHEMA.into(),
                footer.schema.clone(),
            ));
        }
        if footer.units != self.records {
            violations.push(Violation::new(
                "-",
                "unit-count-mismatch",
                self.records.to_string(),
                footer.units.to_string(),
            ));
        }
        match (&self.header, &self.chain_head) {
            (Some(header), Some(head)) => {
                if footer.chain_head != *head {
                    violations.push(Violation::new(
                        "-",
                        "chain-head-mismatch",
                        head.clone(),
                        footer.chain_head.clone(),
                    ));
                }
                if footer.spec_hash != header.spec_hash {
                    violations.push(Violation::new(
                        "-",
                        "seal-spec-mismatch",
                        header.spec_hash.clone(),
                        footer.spec_hash.clone(),
                    ));
                }
                if footer.planned_units != header.planned_units {
                    violations.push(Violation::new(
                        "-",
                        "seal-plan-mismatch",
                        header.planned_units.to_string(),
                        footer.planned_units.to_string(),
                    ));
                }
            }
            _ => violations.push(Violation::new(
                "-",
                "seal-without-header",
                "header-before-seal".into(),
                "no-header".into(),
            )),
        }
    }
}

/// The store handle: a path, plus load/append primitives.
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: PathBuf,
}

impl ResultStore {
    /// A store at `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ResultStore { path: path.into() }
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Builds the one-line `STORE-CORRUPT` diagnostic.
    fn corrupt(
        &self,
        line: usize,
        offset: u64,
        reason: &str,
        expected: &str,
        got: &str,
    ) -> CampaignError {
        let mut msg = format!("STORE-CORRUPT line={line} offset={offset} reason={reason}");
        if !expected.is_empty() {
            msg.push_str(&format!(" expected={expected}"));
        }
        if !got.is_empty() {
            msg.push_str(&format!(" got={got}"));
        }
        msg.push_str(&format!(" file={}", self.path.display()));
        CampaignError::CorruptStore(msg)
    }

    /// The tolerant line pass: splits the file into newline-terminated
    /// lines ([`for_each_line`]) and hands each to `visit` as it is
    /// parsed, in file order, with its 1-based number and byte offset:
    /// the [`StoreLine`], or why it did not parse (`invalid-utf8` or
    /// `unparseable-json`). Certification collects every line's
    /// failures; the other readers stop at the first, and an error from
    /// `visit` ends the pass. A missing file is an empty scan; an
    /// unparseable *final* line (or an unterminated tail) is torn, not
    /// corrupt, and is not visited — an interruption can cut a buffer
    /// flush anywhere, including just after a newline. A line counts as
    /// final only once a read after its newline found the end of the
    /// file.
    ///
    /// Bytes, not a `String`: a torn write can split a multi-byte UTF-8
    /// character, and that tail must be truncated like any other torn
    /// line, not fail the whole pass.
    pub(crate) fn scan(
        &self,
        visit: &mut dyn FnMut(usize, u64, Result<StoreLine, &'static str>)
            -> Result<(), CampaignError>,
    ) -> Result<ScanEnd, CampaignError> {
        for_each_line(&self.path, |line| {
            let parsed = match std::str::from_utf8(line.bytes) {
                Err(_) => Err("invalid-utf8"),
                Ok(text) => serde_json::from_str::<StoreLine>(text).map_err(|_| "unparseable-json"),
            };
            if parsed.is_err() && line.last {
                return Ok(false);
            }
            visit(line.number, line.offset, parsed)?;
            Ok(true)
        })
    }

    /// The strict pass behind every reader but certification: verifies
    /// each line as it is read (missing file = empty store) and hands
    /// each record to `each`. A torn tail ends the valid region;
    /// everything before it must parse *and* satisfy the semantic rules —
    /// content hashes, digests, chain continuity, record ordering, no
    /// duplicates, a valid seal if one is present. With a `plan`, the
    /// summary's `done` flags which plan units have a record.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on unreadable files,
    /// [`CampaignError::CorruptStore`] — one `STORE-CORRUPT line=…
    /// offset=… reason=…` line — at the first non-trailing line that fails
    /// to parse or verify (truncating the tail cannot repair it).
    pub(crate) fn read(
        &self,
        plan: Option<&CampaignPlan>,
        each: &mut dyn FnMut(UnitRecord),
    ) -> Result<StoreSummary, CampaignError> {
        let mut verifier = StoreVerifier::new(plan);
        let end = self.scan(&mut |line, offset, parsed| {
            let parsed = parsed.map_err(|reason| self.corrupt(line, offset, reason, "", ""))?;
            let (violations, record) = verifier.accept(parsed);
            if let Some(v) = violations.first() {
                return Err(self.corrupt(line, offset, v.reason, &v.expected, &v.got));
            }
            if let Some(record) = record {
                each(record);
            }
            Ok(())
        })?;
        Ok(verifier.finish(end))
    }

    /// [`ResultStore::read`] bound to `plan`, for a store that may hold
    /// only the plan units in `owned`: each record is checked as
    /// [`plan_violations`] checks it, and handed to `each` while every
    /// record so far belongs. Returns the summary and the first
    /// violation of the plan binding, which the caller refuses after its
    /// own earlier checks — so, as when [`plan_violations`] checked the
    /// records `load` collected, a `STORE-CORRUPT` line anywhere in the
    /// file wins, and a `spec-mismatch` comes alone.
    pub(crate) fn read_for_plan(
        &self,
        plan: &CampaignPlan,
        owned: Range<usize>,
        each: &mut dyn FnMut(&UnitRecord),
    ) -> Result<(StoreSummary, Option<Violation>), CampaignError> {
        let mut first = None;
        let summary = self.read(Some(plan), &mut |record| {
            if first.is_none() {
                first = record_violation(plan, &owned, &record);
                if first.is_none() {
                    each(&record);
                }
            }
        })?;
        let header = summary.header.as_ref().and_then(|h| header_violation(plan, h));
        Ok((summary, header.or(first)))
    }

    /// Parses and verifies the file, collecting its records: the one
    /// reader that holds them all, for merge and the public API.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on unreadable files,
    /// [`CampaignError::CorruptStore`] — one `STORE-CORRUPT line=…
    /// offset=… reason=…` line — at the first non-trailing line that fails
    /// to parse or verify (truncating the tail cannot repair it).
    pub fn load(&self) -> Result<LoadedStore, CampaignError> {
        let mut records = Vec::new();
        let summary = self.read(None, &mut |record| records.push(record))?;
        Ok(LoadedStore {
            header: summary.header,
            records,
            valid_len: summary.valid_len,
            torn_tail: summary.torn_bytes > 0,
            torn_bytes: summary.torn_bytes,
            chain_head: summary.chain_head,
            sealed: summary.sealed,
        })
    }

    /// A chain-maintaining appender positioned at `loaded.valid_len`,
    /// truncating any torn tail first (fsynced, so a power loss cannot
    /// reorder the truncation against the appends that follow it).
    /// The appender continues `loaded`'s chain head, so records appended
    /// across any number of interruptions form one continuous chain.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn appender(&self, loaded: &LoadedStore) -> Result<StoreAppender, CampaignError> {
        self.append_after(&StoreSummary {
            header: loaded.header.clone(),
            records: loaded.records.len(),
            chain_head: loaded.chain_head.clone(),
            valid_len: loaded.valid_len,
            torn_bytes: loaded.torn_bytes,
            sealed: loaded.sealed,
            done: Vec::new(),
        })
    }

    /// [`ResultStore::appender`] after a bounded read.
    pub(crate) fn append_after(&self, read: &StoreSummary) -> Result<StoreAppender, CampaignError> {
        let file = open_for_append(&self.path, read.valid_len)?;
        // Out-of-band I/O accounting (see `docs/OBSERVABILITY.md`):
        // instruments resolve once per appender, counts never feed back
        // into what gets written.
        let obs = dynring_obs::global();
        if read.torn_bytes > 0 {
            obs.counter(obs_names::STORE_TORN_TAILS).inc();
            obs.counter(obs_names::STORE_TORN_BYTES).add(read.torn_bytes);
        }
        Ok(StoreAppender {
            file,
            header: read.header.clone(),
            chain_head: read.chain_head.clone(),
            records: read.records,
            bytes: read.valid_len,
            fault: None,
            bytes_appended: obs.counter(obs_names::STORE_BYTES_APPENDED),
            fsyncs: obs.counter(obs_names::STORE_FSYNCS),
        })
    }
}

/// Opens the file at `path` for appending at `len`, creating it when
/// missing and truncating any torn tail first. When bytes were actually
/// truncated, the truncation is fsynced before the handle is returned — a
/// power loss must not be able to reorder the truncation against the
/// appends that follow it. Shared by the store and the events ledger.
pub(crate) fn open_for_append(path: &Path, len: u64) -> Result<File, CampaignError> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(path)?;
    let on_disk = file.metadata()?.len();
    file.set_len(len)?;
    if on_disk != len {
        file.sync_all()?;
    }
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

/// The append path: wraps each record in its
/// [`ChainedRecord`], tracks the chain head, writes the seal, and hosts
/// the deterministic fault-injection hook the crash-safety proptests
/// drive.
#[derive(Debug)]
pub struct StoreAppender {
    file: File,
    header: Option<StoreHeader>,
    chain_head: Option<String>,
    records: usize,
    bytes: u64,
    fault: Option<FailPlan>,
    bytes_appended: std::sync::Arc<dynring_obs::Counter>,
    fsyncs: std::sync::Arc<dynring_obs::Counter>,
}

impl StoreAppender {
    /// Arms a fault plan (test-only; see [`crate::fault`]).
    pub fn set_fault(&mut self, fault: Option<FailPlan>) {
        self.fault = fault;
    }

    /// Records appended so far (loaded ones included).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The current chain head (`None` until a header exists).
    pub fn chain_head(&self) -> Option<&str> {
        self.chain_head.as_deref()
    }

    /// Appends the header line and seeds the chain.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] when a header already exists;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn append_header(&mut self, header: StoreHeader) -> Result<(), CampaignError> {
        if self.header.is_some() {
            return Err(CampaignError::CorruptStore(
                "cannot append a second header".into(),
            ));
        }
        let mut json = serde_json::to_string(&StoreLine::Header(header.clone()))?;
        json.push('\n');
        self.write_line(json.into_bytes(), false)?;
        self.chain_head = Some(chain_seed(&header));
        self.header = Some(header);
        Ok(())
    }

    /// Wraps `record` as the chain's next [`ChainedRecord`] and appends
    /// it.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] when no header seeded the chain;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn append_record(&mut self, record: UnitRecord) -> Result<(), CampaignError> {
        let Some(head) = self.chain_head.clone() else {
            return Err(CampaignError::CorruptStore(
                "cannot append a record before the header seeds the chain".into(),
            ));
        };
        let chained = ChainedRecord::next(&head, record);
        let next_head = chained.chain.clone();
        let mut json = serde_json::to_string(&StoreLine::Chained(chained))?;
        json.push('\n');
        self.write_line(json.into_bytes(), true)?;
        self.chain_head = Some(next_head);
        self.records += 1;
        Ok(())
    }

    /// Appends the sealed footer for the current chain head and record
    /// count.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] without a header;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn seal(&mut self) -> Result<(), CampaignError> {
        let (Some(header), Some(head)) = (self.header.clone(), self.chain_head.clone()) else {
            return Err(CampaignError::CorruptStore(
                "cannot seal a store without a header".into(),
            ));
        };
        let footer = StoreFooter::new(&header, self.records, head);
        let mut json = serde_json::to_string(&StoreLine::Seal(footer))?;
        json.push('\n');
        self.write_line(json.into_bytes(), false)?;
        Ok(())
    }

    /// Flushes written records to disk (`fdatasync`). The runner's
    /// committer calls this at the first commit at least
    /// [`WAVE_INTERVAL`](crate::runner::WAVE_INTERVAL) after the last
    /// fsync, while the workers keep executing later units, so a power
    /// cut loses at most the records committed within one `WAVE_INTERVAL`
    /// after the last fsync.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn sync(&mut self) -> Result<(), CampaignError> {
        self.file.sync_data()?;
        self.fsyncs.inc();
        Ok(())
    }

    /// The write primitive every append funnels through, and the single
    /// point where an armed [`FailPlan`] fires. Crash faults write a
    /// prefix and error; corruption faults damage `buf` (or write it
    /// twice) and let the append proceed.
    fn write_line(&mut self, mut buf: Vec<u8>, is_record: bool) -> Result<(), CampaignError> {
        if let Some(plan) = self.fault {
            match plan.kind() {
                FaultKind::Kill { after_bytes }
                    if self.bytes + buf.len() as u64 > after_bytes =>
                {
                    let keep = after_bytes.saturating_sub(self.bytes) as usize;
                    self.file.write_all(&buf[..keep.min(buf.len())])?;
                    self.file.sync_data()?;
                    return Err(CampaignError::InjectedFault(format!(
                        "kill after {after_bytes} bytes"
                    )));
                }
                FaultKind::TornRecord { record, keep } if is_record && self.records == record => {
                    let keep = keep.min(buf.len() - 1);
                    self.file.write_all(&buf[..keep])?;
                    self.file.sync_data()?;
                    return Err(CampaignError::InjectedFault(format!(
                        "torn write of record {record} ({keep} of {} bytes)",
                        buf.len()
                    )));
                }
                FaultKind::BitFlip { record, byte, xor } if is_record && self.records == record => {
                    let position = byte % buf.len();
                    buf[position] ^= xor;
                }
                FaultKind::DuplicateAppend { record } if is_record && self.records == record => {
                    self.file.write_all(&buf)?;
                    self.bytes += buf.len() as u64;
                    self.bytes_appended.add(buf.len() as u64);
                }
                FaultKind::IoError { record } if is_record && self.records == record => {
                    return Err(CampaignError::Io(format!(
                        "injected io error appending record {record}"
                    )));
                }
                _ => {}
            }
        }
        self.file.write_all(&buf)?;
        self.bytes += buf.len() as u64;
        self.bytes_appended.add(buf.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod chunk_boundaries;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::UnitMeasurement;
    use crate::spec::{UnitDynamics, UnitScheduler, WorkUnit};
    use dynring_analysis::{AlgorithmChoice, PlacementSpec};

    fn record(i: usize) -> UnitRecord {
        let unit = WorkUnit {
            ring_size: 4 + i,
            robots: 1,
            placement: PlacementSpec::EvenlySpaced { count: 1 },
            algorithm: AlgorithmChoice::Pef1,
            dynamics: UnitDynamics::Bernoulli { p: 0.5 },
            scheduler: UnitScheduler::Sync,
            horizon: 10,
            seed: i as u64,
            replicas: 1,
        };
        UnitRecord {
            hash: unit.content_hash(),
            index: i,
            route: "batch".into(),
            unit,
            result: UnitMeasurement {
                replicas: 1,
                covered: 1,
                total_cover_time: 5,
                min_cover_time: Some(5),
                max_cover_time: Some(5),
            },
        }
    }

    fn temp_store(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_store_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    /// Appends raw bytes, as a torn or forged write would leave them.
    fn append_raw(store: &ResultStore, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(store.path()).expect("open");
        file.write_all(bytes).expect("write");
    }

    fn header() -> StoreHeader {
        StoreHeader {
            name: "t".into(),
            spec_hash: "0123456789abcdef".into(),
            planned_units: 2,
        }
    }

    /// Writes a chained store (header + n records), unsealed.
    fn write_chained(store: &ResultStore, n: usize) {
        let loaded = store.load().expect("loads");
        let mut appender = store.appender(&loaded).expect("appender");
        appender.append_header(header()).expect("header");
        for i in 0..n {
            appender.append_record(record(i)).expect("record");
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let store = temp_store("roundtrip");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        assert_eq!(loaded.header.as_ref().map(|h| h.planned_units), Some(2));
        assert_eq!(loaded.records, vec![record(0), record(1)]);
        assert!(!loaded.torn_tail);
        assert!(!loaded.sealed);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = temp_store("missing");
        let loaded = store.load().expect("loads");
        assert!(loaded.header.is_none());
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.valid_len, 0);
        assert!(loaded.chain_head.is_none());
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_append() {
        let store = temp_store("torn");
        write_chained(&store, 1);
        let clean_len = store.load().expect("loads").valid_len;
        // Simulate an interrupted write: half a record, no newline.
        let tear = b"{\"Chained\":{\"record\":{\"hash\":\"dead";
        append_raw(&store, tear);
        let loaded = store.load().expect("loads");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.torn_bytes, tear.len() as u64);
        assert_eq!(loaded.valid_len, clean_len);
        assert_eq!(loaded.records.len(), 1);
        // Appending after truncation yields the same file as never having
        // torn it.
        let mut appender = store.appender(&loaded).expect("appender");
        appender.append_record(record(1)).expect("append");
        drop(appender);
        let reference = temp_store("torn_ref");
        write_chained(&reference, 2);
        let a = std::fs::read(store.path()).expect("read");
        let b = std::fs::read(reference.path()).expect("read");
        assert_eq!(a, b);
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(reference.path());
    }

    #[test]
    fn corrupt_interior_lines_error_with_line_and_offset() {
        let store = temp_store("corrupt");
        std::fs::write(
            store.path(),
            "not json\n{\"also\": \"not a store line\"}\n",
        )
        .expect("write");
        let err = store.load().expect_err("interior corruption must refuse");
        let CampaignError::CorruptStore(msg) = &err else {
            panic!("unexpected {err:?}");
        };
        // The satellite diagnostic contract: one greppable line naming
        // the position.
        assert!(msg.contains("STORE-CORRUPT line=1 offset=0"), "{msg}");
        assert!(msg.contains("reason=unparseable-json"), "{msg}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn torn_tail_splitting_a_multibyte_character_is_truncated_not_fatal() {
        // A campaign name with non-ASCII characters lands in every line;
        // an interruption can cut the file mid-character. That tail must
        // be truncated like any other torn write.
        let store = temp_store("torn_utf8");
        write_chained(&store, 1);
        let clean_len = store.load().expect("loads").valid_len;
        let torn = "{\"Chained\":{\"record\":{\"hash\":\"café".as_bytes();
        // Cut inside the two-byte 'é'.
        append_raw(&store, &torn[..torn.len() - 1]);
        let loaded = store.load().expect("a mid-character cut must still load");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.valid_len, clean_len);
        assert_eq!(loaded.records.len(), 1);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn unparseable_final_line_counts_as_torn() {
        let store = temp_store("torn_final");
        write_chained(&store, 0);
        let clean_len = store.load().expect("loads").valid_len;
        append_raw(&store, b"{\"Chained\":{\"record\"\n");
        let loaded = store.load().expect("loads");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.valid_len, clean_len);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn appender_chains_records_and_seals_verifiably() {
        let store = temp_store("chained");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        assert_eq!(loaded.records.len(), 2);
        assert!(!loaded.sealed);
        // Seal it through a fresh appender (as a resume would).
        let mut appender = store.appender(&loaded).expect("appender");
        appender.seal().expect("seal");
        let sealed = store.load().expect("loads");
        assert!(sealed.sealed);
        assert_eq!(sealed.chain_head, loaded.chain_head);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn chained_resume_continues_the_chain_across_interruptions() {
        // One appender writing 3 records must equal two appenders writing
        // 2 + 1, byte for byte — the chain head survives the reload.
        let oneshot = temp_store("chain_oneshot");
        write_chained(&oneshot, 3);
        let staged = temp_store("chain_staged");
        write_chained(&staged, 2);
        let loaded = staged.load().expect("loads");
        let mut appender = staged.appender(&loaded).expect("appender");
        appender.append_record(record(2)).expect("record");
        let a = std::fs::read(oneshot.path()).expect("read");
        let b = std::fs::read(staged.path()).expect("read");
        assert_eq!(a, b, "a resumed chain must match an uninterrupted one");
        let _ = std::fs::remove_file(oneshot.path());
        let _ = std::fs::remove_file(staged.path());
    }

    #[test]
    fn broken_chain_links_and_duplicates_refuse_with_named_reasons() {
        // A record transplanted out of order (its chain link no longer
        // follows the previous head).
        let store = temp_store("verify");
        write_chained(&store, 3);
        let text = std::fs::read_to_string(store.path()).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        std::fs::write(store.path(), lines.join("\n") + "\n").expect("write");
        let err = store.load().expect_err("reordered records must refuse");
        assert!(err.to_string().contains("reason="), "{err}");

        // A duplicated record line.
        let store = temp_store("verify_dup");
        write_chained(&store, 2);
        let text = std::fs::read_to_string(store.path()).expect("read");
        let last = text.lines().last().expect("has lines").to_string();
        std::fs::write(store.path(), text + &last + "\n").expect("write");
        let err = store.load().expect_err("duplicated records must refuse");
        assert!(err.to_string().contains("reason=duplicate-unit"), "{err}");
        let _ = std::fs::remove_file(store.path());

        // A forged seal (unit count lies).
        let store = temp_store("verify_seal");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        let footer = StoreFooter::new(
            &loaded.header.clone().expect("header"),
            7,
            loaded.chain_head.clone().expect("head"),
        );
        let seal = serde_json::to_string(&StoreLine::Seal(footer)).expect("json") + "\n";
        append_raw(&store, seal.as_bytes());
        let err = store.load().expect_err("a lying seal must refuse");
        assert!(err.to_string().contains("reason=unit-count-mismatch"), "{err}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn lines_after_the_seal_refuse() {
        let store = temp_store("after_seal");
        write_chained(&store, 1);
        let loaded = store.load().expect("loads");
        let mut appender = store.appender(&loaded).expect("appender");
        appender.seal().expect("seal");
        appender.append_record(record(1)).expect("append still writes");
        let err = store.load().expect_err("records after the seal must refuse");
        assert!(err.to_string().contains("reason=line-after-seal"), "{err}");
        let _ = std::fs::remove_file(store.path());
    }
}
