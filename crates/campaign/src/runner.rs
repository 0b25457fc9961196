//! The campaign driver: plan → skip completed → stream pending units
//! through a worker pool → append records in plan order.
//!
//! One pool serves the whole run: `workers` threads, spawned once, pull
//! pending units in plan order through
//! [`dynring_analysis::parallel::stream_map`], at most
//! [`STREAM_WINDOW`](dynring_analysis::parallel::STREAM_WINDOW) units
//! ahead of the last appended record. The calling thread is the
//! committer: it puts results back in plan order, appends each record,
//! and closes a *wave* — one store fsync, one ledger fsync, one
//! [`Event::Wave`] — at the first commit at least [`WAVE_INTERVAL`] after
//! the last fsync, while the workers keep executing. A power cut
//! therefore loses at most the records committed within one
//! `WAVE_INTERVAL` after the last fsync (a killed process loses none:
//! each record is its own `write`), and the store is always a plan-order
//! prefix — the invariant behind byte-exact resume. Because unit
//! execution and routing are pure functions of the unit, the store bytes
//! are identical for every `workers` value.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynring_analysis::parallel::{available_workers, stream_map};

use crate::aggregate::ReportFold;
use crate::events::{Event, EventSink, EVENTS_SCHEMA};
use crate::executor::{execute_unit, route_unit, UnitRecord};
use crate::fault::FailPlan;
use crate::shard::ShardSel;
use crate::spec::{CampaignSpec, PlannedUnit};
use crate::store::{ResultStore, StoreHeader};
use crate::CampaignError;

/// How long committed records may go without an fsync. The committer
/// closes a wave at the first commit at least this long after the last
/// fsync (or the start of execution), and when the budget ends. A power
/// cut loses at most the records committed in that time, which costs
/// only their recomputation, and the fsync count follows wall time
/// instead of the unit count. Shapes when the store is synced, never its
/// bytes.
pub const WAVE_INTERVAL: Duration = Duration::from_millis(100);

/// Knobs of one `run`/`resume` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (the default is one per core). `1` runs inline:
    /// each unit executes on the calling thread just before its record
    /// is appended, and no thread is spawned.
    pub workers: usize,
    /// Stop after this many newly executed units (`None` = run to
    /// completion). The CI smoke uses this to simulate an interruption.
    pub max_units: Option<usize>,
    /// `run` semantics: refuse a store that already has content. `resume`
    /// semantics (`false`): continue wherever the store left off.
    pub fresh: bool,
    /// Test-only fault injection into the store's append path (see
    /// [`crate::fault`]). `None` — always, outside the crash-safety
    /// tests — appends normally.
    pub fault: Option<FailPlan>,
    /// Restrict execution to one shard's slice of the plan (`campaign
    /// work`). The store keeps the full-plan header and global plan
    /// indices — only *which* units this process executes changes — so
    /// `campaign merge` can re-chain shard stores into the serial bytes.
    pub shard: Option<ShardSel>,
    /// Test-only "poison unit": execute normally up to — but not
    /// including — the pending unit with this hash, sync, then return
    /// [`CampaignError::InjectedFault`]. Whatever process (or sub-shard)
    /// draws the unit dies; everything before it survives on disk. `None`
    /// outside the fault-injection tests.
    pub poison: Option<String>,
    /// Out-of-band telemetry: when set, per-unit and per-wave events
    /// are appended to the events ledger at this path (see
    /// [`crate::events`]; the CLI points it at `<store>.events.jsonl`).
    /// Registry counters update regardless. Telemetry never changes
    /// store bytes — see `docs/OBSERVABILITY.md`.
    pub events: Option<PathBuf>,
    /// Test-only deterministic straggler (`DYNRING_WORKER_FAULT=
    /// slow-unit:INDEX:MS`): sleep this many milliseconds before
    /// executing the unit with this hash. Shapes wall time only, never
    /// bytes — the straggler-stealing and latency-histogram tests use
    /// it to avoid flaky timing.
    pub slow_unit: Option<(String, u64)>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: available_workers(),
            max_units: None,
            fresh: true,
            fault: None,
            shard: None,
            poison: None,
            events: None,
            slow_unit: None,
        }
    }
}

/// What one invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Units in the plan (this shard's slice when [`RunOptions::shard`]
    /// is set).
    pub planned: usize,
    /// Units already in the store (skipped).
    pub skipped: usize,
    /// Units executed and appended by this invocation.
    pub executed: usize,
    /// Units still pending after this invocation (nonzero only when
    /// `max_units` stopped it early).
    pub pending: usize,
}

impl RunOutcome {
    /// `true` when the store now covers the whole plan.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }
}

/// Plans `spec`, skips units already in `store`, executes the rest over
/// `opts.workers` threads and appends their records in plan order.
///
/// # Errors
///
/// - [`CampaignError::InvalidSpec`] / [`CampaignError::EmptyPlan`] from
///   planning;
/// - [`CampaignError::StoreExists`] when `opts.fresh` and the store has
///   content (use `resume`);
/// - [`CampaignError::SpecMismatch`] when the store belongs to a
///   different spec;
/// - [`CampaignError::CorruptStore`] / [`CampaignError::Io`] on store
///   damage, and `CorruptStore` when the header names another campaign
///   or unit count, or a record is not the plan's unit at its index or
///   lies outside the shard's range; [`CampaignError::Scenario`] when a
///   unit is ill-formed (the first failing unit by plan order, matching
///   serial execution).
pub fn run_campaign(
    spec: &CampaignSpec,
    store: &ResultStore,
    opts: &RunOptions,
) -> Result<RunOutcome, CampaignError> {
    let plan = spec.plan()?;
    let units = plan.units.len();
    // Restrict to one shard's slice of the plan when asked. Everything
    // else — header, record shape, chaining — is unchanged, so a shard
    // store is just a normal store whose records happen to be one
    // contiguous plan range. A bad selection is refused after the
    // store's own damage and a fresh run's refusal, as the read binds
    // the records to the whole plan until then.
    let owned = match &opts.shard {
        Some(sel) => sel.validate(units).map(|()| sel.range(units)),
        None => Ok(0..units),
    };
    // One bounded pass: the records are verified and counted, not kept.
    let (stored, refusal) =
        store.read_for_plan(&plan, owned.clone().unwrap_or(0..units), &mut |_| {})?;
    let path = store.path().display().to_string();
    if opts.fresh && stored.header.is_some() {
        return Err(CampaignError::StoreExists(path));
    }
    let owned = owned?;
    if let Some(v) = refusal {
        return Err(v.refuse(&path));
    }
    let slice = &plan.units[owned];
    let pending: Vec<&PlannedUnit> = slice.iter().filter(|u| !stored.done[u.index]).collect();
    if stored.sealed && !pending.is_empty() {
        return Err(CampaignError::CorruptStore(format!(
            "{path}: sealed store is missing {} planned units",
            pending.len()
        )));
    }
    let skipped = slice.len() - pending.len();
    let mut budget = opts.max_units.unwrap_or(pending.len()).min(pending.len());
    // A poison unit caps the budget at its own position: everything
    // before it executes and syncs, then the process dies on it.
    let poisoned = opts.poison.as_deref().and_then(|hash| {
        let at = pending[..budget].iter().position(|u| u.hash == hash)?;
        budget = at;
        Some(hash)
    });

    let mut appender = store.append_after(&stored)?;
    appender.set_fault(opts.fault);
    if stored.header.is_none() {
        appender.append_header(StoreHeader {
            name: plan.name.clone(),
            spec_hash: plan.spec_hash.clone(),
            planned_units: plan.units.len(),
        })?;
    }
    // Out-of-band telemetry: the process registry always counts; the
    // events ledger (when enabled) additionally records every event.
    // Nothing here touches the store appender's bytes.
    let mut sink = EventSink::open(dynring_obs::global(), opts.events.as_deref())?;
    sink.emit(Event::RunStart {
        schema: EVENTS_SCHEMA.into(),
        name: plan.name.clone(),
        spec_hash: plan.spec_hash.clone(),
        planned: slice.len(),
        skipped,
    })?;
    // Waves bound power-cut loss in time (see `WAVE_INTERVAL`); records
    // are appended in plan order either way.
    let workers = opts.workers.max(1);
    let slow = opts.slow_unit.as_ref();
    let mut executed = 0usize;
    let mut synced = 0usize;
    let mut wave_start = Instant::now();
    stream_map(
        &pending[..budget],
        workers,
        |planned| {
            let unit_start = Instant::now();
            // The injected delay counts as unit wall time: the whole
            // point of `slow-unit` is a unit that *measures* slow.
            if let Some((hash, ms)) = slow {
                if planned.hash == *hash {
                    std::thread::sleep(Duration::from_millis(*ms));
                }
            }
            (execute_unit(planned), unit_start.elapsed())
        },
        |(result, wall)| {
            let record = result?;
            sink.emit(unit_event(&record, wall))?;
            appender.append_record(record)?;
            executed += 1;
            if executed < budget && wave_start.elapsed() < WAVE_INTERVAL {
                return Ok::<(), CampaignError>(());
            }
            appender.sync()?;
            // A wave's wall time runs from the previous fsync to this one.
            let now = Instant::now();
            let wave_us = u64::try_from((now - wave_start).as_micros()).unwrap_or(u64::MAX);
            wave_start = now;
            sink.emit(Event::Wave { units: executed - synced, wall_us: wave_us })?;
            sink.sync()?;
            synced = executed;
            Ok(())
        },
    )?;
    if let Some(hash) = poisoned {
        return Err(CampaignError::InjectedFault(format!(
            "poison unit {hash} reached after {executed} units"
        )));
    }
    // Seal on completion. A complete-but-unsealed store (a run
    // interrupted between its last record and the seal) gets sealed by
    // the resume that finds it complete; a sealed resume is a pure no-op.
    if executed == pending.len() && !stored.sealed {
        appender.seal()?;
        appender.sync()?;
    }
    sink.emit(Event::RunEnd { executed, pending: pending.len() - executed })?;
    sink.sync()?;
    Ok(RunOutcome {
        planned: slice.len(),
        skipped,
        executed,
        pending: pending.len() - executed,
    })
}

/// The [`Event::Unit`] of one executed record. Strictly observational:
/// the record is appended to the store unchanged afterwards.
fn unit_event(record: &UnitRecord, wall: Duration) -> Event {
    let unit = &record.unit;
    let route = route_unit(unit);
    let uncovered = record.result.replicas.saturating_sub(record.result.covered) as u64;
    // The batch-eligible dynamics (pure Bernoulli banks) all support the
    // sparse gather, so the engine's size cutover alone decides the fill
    // mode (a ring has as many edges as nodes).
    let fill = route.is_batch().then(|| {
        let sparse = dynring_engine::sparse_fill_default(unit.robots, unit.ring_size);
        if sparse { "sparse" } else { "full" }.to_string()
    });
    Event::Unit {
        hash: record.hash.clone(),
        index: record.index,
        algorithm: unit.algorithm.name().into(),
        dynamics: unit.dynamics.name().into(),
        scheduler: unit.scheduler.name().into(),
        route: record.route.clone(),
        arity: route.arity().map_or(0, |a| a.lanes() as u64),
        replicas: record.result.replicas,
        covered: record.result.covered,
        replica_rounds: record.result.total_cover_time + uncovered * unit.horizon,
        wall_us: u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
        fill,
    }
}

/// Reads a store and folds it into the report for `spec`, each record
/// as it is verified.
///
/// # Errors
///
/// See [`run_campaign`] (planning and store errors; nothing is executed),
/// and [`CampaignError::CorruptStore`] naming the path when the store has
/// no header (a missing or empty file).
pub fn load_report(
    spec: &CampaignSpec,
    store: &ResultStore,
) -> Result<crate::CampaignReport, CampaignError> {
    let plan = spec.plan()?;
    let mut fold = ReportFold::default();
    let (stored, refusal) =
        store.read_for_plan(&plan, 0..plan.units.len(), &mut |record| {
            fold.add(record.index, record);
        })?;
    let path = store.path().display().to_string();
    if stored.header.is_none() {
        return Err(CampaignError::CorruptStore(format!(
            "{path} has no store header (a missing or empty file; start it with \
             `campaign run`)"
        )));
    }
    if let Some(v) = refusal {
        return Err(v.refuse(&path));
    }
    let mut report = fold.finish(&plan);
    report.torn_tail = stored.torn_bytes > 0;
    report.torn_bytes = stored.torn_bytes;
    report.sealed = stored.sealed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlacementAxis, UnitDynamics, UnitScheduler};
    use dynring_analysis::AlgorithmChoice;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "runner".into(),
            ring_sizes: vec![4, 5],
            robots: vec![1, 2],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
            schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
            seeds: vec![1, 2],
            horizon: 250,
            replicas: 3,
        }
    }

    fn temp(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_runner_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    fn cleanup(store: &ResultStore) {
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn ill_parameterized_dynamics_are_refused_before_the_store_exists() {
        // Each would panic a worker or fail a stream mid-run; the plan
        // refuses it before the store is created.
        for dynamics in [
            UnitDynamics::BernoulliRecurrent { p: 0.5, bound: 0 },
            UnitDynamics::PointedBlocker { budget: 0 },
            UnitDynamics::SweepingOutage { dwell: 0 },
            UnitDynamics::TwoConfiner { patience: 0 },
            UnitDynamics::Bernoulli { p: 1.5 },
            UnitDynamics::BernoulliRecurrent { p: -0.5, bound: 4 },
            UnitDynamics::Markov { p_off: 0.5, p_on: 1.5 },
        ] {
            let mut spec = spec();
            spec.dynamics.push(dynamics);
            let store = temp("ill_parameterized");
            let result = run_campaign(&spec, &store, &RunOptions::default());
            assert!(
                matches!(result, Err(CampaignError::InvalidSpec(_))),
                "{dynamics:?}: {result:?}"
            );
            assert!(!store.path().exists(), "{dynamics:?} created a store");
        }
    }

    #[test]
    fn run_interrupt_resume_is_byte_identical_to_one_shot() {
        let spec = spec();
        let total = spec.plan().expect("valid").units.len();
        assert_eq!(total, 32);

        let oneshot = temp("oneshot");
        let outcome = run_campaign(&spec, &oneshot, &RunOptions::default()).expect("runs");
        assert!(outcome.is_complete());
        assert_eq!(outcome.executed, total);

        let resumed = temp("resumed");
        let partial = run_campaign(
            &spec,
            &resumed,
            &RunOptions { max_units: Some(10), ..RunOptions::default() },
        )
        .expect("runs");
        assert_eq!(partial.executed, 10);
        assert_eq!(partial.pending, total - 10);
        let rest = run_campaign(
            &spec,
            &resumed,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        assert_eq!(rest.skipped, 10);
        assert!(rest.is_complete());

        let a = std::fs::read(oneshot.path()).expect("read");
        let b = std::fs::read(resumed.path()).expect("read");
        assert_eq!(a, b, "resume must reproduce the uninterrupted store");
        cleanup(&oneshot);
        cleanup(&resumed);
    }

    #[test]
    fn parallel_and_serial_stores_are_byte_identical() {
        let spec = spec();
        let serial = temp("serial");
        run_campaign(
            &spec,
            &serial,
            &RunOptions { workers: 1, ..RunOptions::default() },
        )
        .expect("runs");
        for workers in [2usize, 3, 4, 8] {
            let parallel = temp(&format!("parallel{workers}"));
            run_campaign(
                &spec,
                &parallel,
                &RunOptions { workers, ..RunOptions::default() },
            )
            .expect("runs");
            let a = std::fs::read(serial.path()).expect("read");
            let b = std::fs::read(parallel.path()).expect("read");
            assert_eq!(a, b, "workers = {workers}");
            cleanup(&parallel);
        }
        cleanup(&serial);
    }

    #[test]
    fn finished_campaigns_resume_as_a_no_op() {
        let spec = spec();
        let store = temp("noop");
        run_campaign(&spec, &store, &RunOptions::default()).expect("runs");
        let before = std::fs::read(store.path()).expect("read");
        let again = run_campaign(
            &spec,
            &store,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped, again.planned);
        assert!(again.is_complete());
        let after = std::fs::read(store.path()).expect("read");
        assert_eq!(before, after, "a finished campaign must be a no-op");
        cleanup(&store);
    }

    #[test]
    fn fresh_runs_refuse_existing_stores_and_resume_accepts_them() {
        let spec = spec();
        let store = temp("refuse");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(1), ..RunOptions::default() },
        )
        .expect("runs");
        assert!(matches!(
            run_campaign(&spec, &store, &RunOptions::default()),
            Err(CampaignError::StoreExists(_))
        ));
        cleanup(&store);
    }

    #[test]
    fn stores_are_bound_to_their_spec() {
        let spec = spec();
        let store = temp("bound");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(1), ..RunOptions::default() },
        )
        .expect("runs");
        let mut other = spec.clone();
        other.horizon += 1;
        assert!(matches!(
            run_campaign(
                &other,
                &store,
                &RunOptions { fresh: false, ..RunOptions::default() }
            ),
            Err(CampaignError::SpecMismatch { .. })
        ));
        assert!(matches!(
            load_report(&other, &store),
            Err(CampaignError::SpecMismatch { .. })
        ));
        cleanup(&store);
    }

    #[test]
    fn report_tracks_progress_across_resume() {
        let spec = spec();
        let store = temp("report");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(5), ..RunOptions::default() },
        )
        .expect("runs");
        let partial = load_report(&spec, &store).expect("report");
        assert_eq!(partial.completed_units, 5);
        assert!(!partial.is_complete());
        run_campaign(
            &spec,
            &store,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        let full = load_report(&spec, &store).expect("report");
        assert!(full.is_complete());
        assert!(full.batch_units > 0, "bernoulli×sync units must batch-route");
        assert!(full.serial_units > 0);
        cleanup(&store);
    }
}
