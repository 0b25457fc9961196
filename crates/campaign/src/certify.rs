//! `dynring certify`: after-the-fact verification of a campaign store as
//! a replay bundle.
//!
//! Level 1 is *structural*: one bounded pass re-verifies every line as
//! it is read — header present, every record's content hash, digest and
//! chain link recomputed, ordering checked, the seal validated, and the
//! header and records bound to the plan by the check every store reader
//! shares — without executing anything or keeping the records.
//! Level 2 adds *behavioral* spot-checks: a deterministic sample of
//! units (seeded, both routes covered when both are present) is read in
//! a second pass, re-executed from scratch, and the fresh measurements
//! are compared field-by-field against the stored ones.
//!
//! Unlike [`ResultStore::load`], which refuses at the first problem,
//! certification collects *every* divergence: one greppable
//! `CERTIFY-FAIL unit=… field=… expected=… got=…` line each, plus a
//! machine-readable [`CertifyVerdict`]. See `docs/CERTIFY.md`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dynring_analysis::seeds::sample_indices;

use crate::executor::{execute_unit, route_unit, UnitRecord};
use crate::spec::{CampaignSpec, PlannedUnit};
use crate::store::{
    header_violation, record_violation, ResultStore, StoreLine, StoreVerifier, Violation,
};
use crate::CampaignError;

/// Knobs of one certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyOptions {
    /// 1 = structural (scan + chain + plan), 2 = structural plus sampled
    /// re-execution.
    pub level: u8,
    /// Units to re-execute at level 2 (clamped to the record count; both
    /// routes are forced into the sample when both are present).
    pub sample: usize,
    /// Seed of the level-2 sample (recorded in the verdict, so a sampled
    /// certification is itself replayable).
    pub seed: u64,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions { level: 1, sample: 8, seed: 0xCE47 }
    }
}

/// One divergence found by certification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertifyFailure {
    /// The offending unit's hash, or `-` for store-level failures.
    pub unit: String,
    /// Which check diverged (`chain-mismatch`, `covered`, `seal`, …).
    pub field: String,
    /// The recomputed / re-executed value.
    pub expected: String,
    /// What the store carried.
    pub got: String,
}

impl CertifyFailure {
    fn new(unit: &str, field: &str, expected: String, got: String) -> Self {
        CertifyFailure {
            unit: unit.to_string(),
            field: field.to_string(),
            expected: despace(expected),
            got: despace(got),
        }
    }

    /// The greppable one-line form:
    /// `CERTIFY-FAIL unit=… field=… expected=… got=…`.
    pub fn render(&self) -> String {
        format!(
            "CERTIFY-FAIL unit={} field={} expected={} got={}",
            self.unit, self.field, self.expected, self.got
        )
    }
}

/// Keeps every `key=value` token of the greppable line space-free.
fn despace(s: String) -> String {
    if s.contains(' ') {
        s.replace(' ', "-")
    } else {
        s
    }
}

/// The machine-readable outcome of one certification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertifyVerdict {
    /// Store path.
    pub store: String,
    /// Level that ran.
    pub level: u8,
    /// `true` iff no failure was found.
    pub pass: bool,
    /// The plan's spec hash.
    pub spec_hash: String,
    /// Records in the store.
    pub records: usize,
    /// Whether the store ends in a seal line.
    pub sealed: bool,
    /// Whether the file carried a torn trailing write.
    pub torn_tail: bool,
    /// The final chain head, when a header seeded one.
    pub chain_head: Option<String>,
    /// Units re-executed (level 2).
    pub replayed: usize,
    /// The sample seed (level 2; replay the certification with it).
    pub sample_seed: u64,
    /// Every divergence, in discovery order.
    pub failures: Vec<CertifyFailure>,
}

/// Certifies `store` against `spec` at `opts.level`. A failing store is
/// an `Ok` verdict with `pass == false` — certification only errors when
/// it cannot *run* (bad level, unreadable file, invalid spec).
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] on a level outside `1..=2` or an
/// invalid spec; [`CampaignError::Io`] when the file is unreadable.
pub fn certify(
    spec: &CampaignSpec,
    store: &ResultStore,
    opts: &CertifyOptions,
) -> Result<CertifyVerdict, CampaignError> {
    if !(1..=2).contains(&opts.level) {
        return Err(CampaignError::InvalidSpec(format!(
            "certify level must be 1 or 2, not {}",
            opts.level
        )));
    }
    let plan = spec.plan()?;
    let owned = 0..plan.units.len();
    // One pass: line failures go out in file order; the plan-binding and
    // route failures of each record are buffered, to follow them in the
    // order a collect-then-check pass reports them.
    let mut failures = Vec::new();
    let (mut binding, mut routes) = (Vec::new(), Vec::new());
    // The first record of each stored route, for level 2's sample.
    let mut first_of_route: [Option<usize>; 2] = [None; 2];
    let mut verifier = StoreVerifier::new(Some(&plan));
    let end = store.scan(&mut |line, offset, parsed| {
        let store_line = match parsed {
            Err(reason) => {
                failures.push(CertifyFailure::new(
                    "-",
                    "parse",
                    "parseable-line".into(),
                    format!("{reason}:line{line}:offset{offset}"),
                ));
                return Ok(());
            }
            Ok(store_line) => store_line,
        };
        let (violations, record) = verifier.accept(store_line);
        failures.extend(violations.into_iter().map(CertifyFailure::from));
        let Some(record) = record else { return Ok(()) };
        for (first, route) in first_of_route.iter_mut().zip(ROUTES) {
            if record.route == route && first.is_none() {
                *first = Some(verifier.records - 1);
            }
        }
        // A header of another spec is reported alone, so its records are
        // not checked against the plan.
        if verifier.header.as_ref().is_none_or(|h| h.spec_hash == plan.spec_hash) {
            binding.extend(record_violation(&plan, &owned, &record).map(CertifyFailure::from));
        }
        let expected_route = route_unit(&record.unit).name();
        if record.route != expected_route {
            routes.push(CertifyFailure::new(
                &record.hash,
                "route",
                expected_route.to_string(),
                record.route,
            ));
        }
        Ok(())
    })?;
    if end.torn_bytes > 0 {
        failures.push(CertifyFailure::new(
            "-",
            "tail",
            "newline-terminated-file".into(),
            format!("torn:{}bytes", end.torn_bytes),
        ));
    }
    if verifier.header.is_none() {
        failures.push(CertifyFailure::new(
            "-",
            "header",
            "header-line".into(),
            "missing".into(),
        ));
    }
    let header = verifier.header.as_ref().and_then(|h| header_violation(&plan, h));
    if header.as_ref().is_some_and(|v| v.reason == "spec-mismatch") {
        binding.clear();
    }
    failures.extend(header.map(CertifyFailure::from));
    failures.append(&mut binding);
    failures.append(&mut routes);
    if !verifier.sealed {
        failures.push(CertifyFailure::new(
            "-",
            "seal",
            "sealed-footer".into(),
            "unsealed".into(),
        ));
    }
    if verifier.records != plan.units.len() {
        failures.push(CertifyFailure::new(
            "-",
            "complete",
            plan.units.len().to_string(),
            verifier.records.to_string(),
        ));
    }

    let mut replayed = 0usize;
    if opts.level >= 2 {
        let mut chosen = sample_indices(opts.seed, verifier.records, opts.sample);
        // The sample's records, and the first of each route, in a second
        // pass over the store.
        let mut wanted: Vec<usize> =
            chosen.iter().chain(first_of_route.iter().flatten()).copied().collect();
        wanted.sort_unstable();
        let records = sampled_records(store, &wanted)?;
        let route_of = |i: usize| records.get(&i).map(|r| r.route.as_str());
        // Route coverage: when the store mixes batch- and serial-routed
        // units, a sample that happens to land on only one route would
        // leave the other engine unexercised — swap in the first record
        // of each missing route from the back of the sample.
        let mut replace_at = chosen.len();
        for (first, route) in first_of_route.into_iter().zip(ROUTES) {
            if let Some(first) = first {
                if replace_at > 0 && !chosen.iter().any(|&i| route_of(i) == Some(route)) {
                    replace_at -= 1;
                    chosen[replace_at] = first;
                }
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
        for record in chosen.iter().filter_map(|i| records.get(i)) {
            let planned = PlannedUnit {
                index: record.index,
                hash: record.hash.clone(),
                unit: record.unit.clone(),
            };
            replayed += 1;
            match execute_unit(&planned) {
                Err(e) => failures.push(CertifyFailure::new(
                    &record.hash,
                    "execute",
                    "replayable-unit".into(),
                    e.to_string(),
                )),
                Ok(fresh) => {
                    for (field, expected, got) in fresh.result.diff(&record.result) {
                        failures.push(CertifyFailure::new(&record.hash, field, expected, got));
                    }
                }
            }
        }
    }

    Ok(CertifyVerdict {
        store: store.path().display().to_string(),
        level: opts.level,
        pass: failures.is_empty(),
        spec_hash: plan.spec_hash.clone(),
        records: verifier.records,
        sealed: verifier.sealed,
        torn_tail: end.torn_bytes > 0,
        chain_head: verifier.chain_head,
        replayed,
        sample_seed: opts.seed,
        failures,
    })
}

/// The two stored route names, in the order level 2 forces them into
/// its sample.
const ROUTES: [&str; 2] = ["batch", "serial"];

/// The records at the given positions (0-based, counting record lines
/// only; `positions` sorted) of a second pass over `store`.
fn sampled_records(
    store: &ResultStore,
    positions: &[usize],
) -> Result<BTreeMap<usize, UnitRecord>, CampaignError> {
    let mut records = BTreeMap::new();
    let mut position = 0usize;
    store.scan(&mut |_, _, parsed| {
        if let Ok(StoreLine::Chained(chained)) = parsed {
            if positions.binary_search(&position).is_ok() {
                records.insert(position, chained.record);
            }
            position += 1;
        }
        Ok(())
    })?;
    Ok(records)
}

impl From<Violation> for CertifyFailure {
    fn from(v: Violation) -> Self {
        CertifyFailure::new(&v.unit, v.reason, v.expected, v.got)
    }
}

/// Renders the verdict for the terminal: one `CERTIFY-FAIL` line per
/// divergence, then a one-line summary.
pub fn render_verdict(verdict: &CertifyVerdict) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for failure in &verdict.failures {
        let _ = writeln!(out, "{}", failure.render());
    }
    let _ = writeln!(
        out,
        "certify: {} level={} store={} records={} sealed={} replayed={} failures={}",
        if verdict.pass { "PASS" } else { "FAIL" },
        verdict.level,
        verdict.store,
        verdict.records,
        verdict.sealed,
        verdict.replayed,
        verdict.failures.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use crate::spec::{PlacementAxis, UnitDynamics, UnitScheduler};
    use dynring_analysis::AlgorithmChoice;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "certify".into(),
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

    fn temp(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_certify_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    #[test]
    fn complete_campaigns_certify_at_both_levels() {
        let spec = spec();
        let store = temp("pass");
        run_campaign(&spec, &store, &RunOptions::default()).expect("runs");
        let v1 = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
        assert!(v1.pass, "{:?}", v1.failures);
        assert!(v1.sealed);
        assert_eq!(v1.records, 8);
        let v2 = certify(
            &spec,
            &store,
            &CertifyOptions { level: 2, sample: 3, seed: 11 },
        )
        .expect("certifies");
        assert!(v2.pass, "{:?}", v2.failures);
        assert!(v2.replayed >= 3, "route forcing may only grow the sample");
        // Both routes exist in this spec, so both must be replayed.
        let text = render_verdict(&v2);
        assert!(text.contains("certify: PASS level=2"), "{text}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn incomplete_and_unsealed_stores_fail_level_1() {
        let spec = spec();
        let store = temp("partial");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(3), ..RunOptions::default() },
        )
        .expect("runs");
        let v = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
        assert!(!v.pass);
        let fields: Vec<&str> = v.failures.iter().map(|f| f.field.as_str()).collect();
        assert!(fields.contains(&"seal"), "{fields:?}");
        assert!(fields.contains(&"complete"), "{fields:?}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn bad_levels_error_instead_of_passing() {
        let spec = spec();
        let store = temp("level");
        assert!(matches!(
            certify(&spec, &store, &CertifyOptions { level: 3, ..CertifyOptions::default() }),
            Err(CampaignError::InvalidSpec(_))
        ));
    }

    #[test]
    fn verdicts_round_trip_through_json() {
        let spec = spec();
        let store = temp("json");
        run_campaign(&spec, &store, &RunOptions::default()).expect("runs");
        let v = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
        let json = serde_json::to_string_pretty(&v).expect("serialize");
        let back: CertifyVerdict = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(v, back);
        let _ = std::fs::remove_file(store.path());
    }
}
