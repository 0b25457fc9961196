//! The per-campaign JSONL *events ledger*: out-of-band telemetry that
//! survives the run.
//!
//! A campaign executed with telemetry enabled (`--metrics-out`) appends
//! one JSON line per observation to a sibling of its result store,
//! `<store>.events.jsonl` ([`EventLedger::for_store`]): per-unit
//! execution events from the runner, wave boundaries, and supervisor
//! lifecycle events (spawn, heartbeat stall, retry, steal, quarantine,
//! merge). The ledger is **strictly observational** — nothing in the
//! certify path reads it, and result-store bytes are identical whether
//! it exists or not.
//!
//! Like the store, the ledger is an append-only JSONL file whose final
//! line may be torn by a crash: loading tolerates (and measures) a torn
//! tail, and [`EventLedger::appender`] truncates it away before
//! appending — recording a [`Event::TornTail`] so the loss itself is
//! observable. Unlike the store, a corrupt *interior* line is skipped
//! and counted rather than refused: the ledger is forensic data, and
//! one damaged observation must not make the rest unreadable.
//!
//! Every lifecycle fact has exactly one call site, an [`EventSink::emit`]:
//! the sink folds the event into a metrics registry ([`Event::fold_into`],
//! the one event→series mapping; a sink names each unit series once and
//! keeps its handles), prints its greppable `SHARD-…` line
//! when it has one, and appends it to the ledger when one is open. The
//! registry snapshot is therefore the same fold over the same events the
//! ledger holds.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use dynring_obs::{labeled, names, Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::store::{for_each_line, open_for_append, READ_CHUNK};
use crate::CampaignError;

/// Ledger schema tag (stamped on [`Event::RunStart`]); bump on
/// incompatible change.
pub const EVENTS_SCHEMA: &str = "dynring-events-v1";

/// Suffix appended to a store path to name its ledger.
pub const LEDGER_SUFFIX: &str = ".events.jsonl";

/// One observation. Externally tagged JSON: `{"Unit":{...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A `run`/`resume`/`work` invocation started executing.
    RunStart {
        /// Ledger schema tag ([`EVENTS_SCHEMA`]).
        schema: String,
        /// Campaign name.
        name: String,
        /// Spec content hash.
        spec_hash: String,
        /// Units in this invocation's slice of the plan.
        planned: usize,
        /// Units already complete when it started.
        skipped: usize,
    },
    /// One work unit executed.
    Unit {
        /// Unit content hash (the store key).
        hash: String,
        /// Plan index.
        index: usize,
        /// Algorithm display name.
        algorithm: String,
        /// Dynamics display name.
        dynamics: String,
        /// Scheduler display name.
        scheduler: String,
        /// `"batch"` or `"serial"`.
        route: String,
        /// Lane arity of the batch route; 0 on the serial route.
        arity: u64,
        /// Replicas executed.
        replicas: usize,
        /// Replicas that covered within the horizon.
        covered: usize,
        /// Replica-rounds advanced: summed cover times plus the full
        /// horizon for every uncovered replica.
        replica_rounds: u64,
        /// Wall time of the unit's execution in microseconds.
        wall_us: u64,
        /// Snapshot fill of the batch route (`"sparse"` or `"full"`);
        /// `None` on the serial route and in older ledgers.
        fill: Option<String>,
    },
    /// One runner wave appended and fsynced.
    Wave {
        /// Units in the wave.
        units: usize,
        /// Wall time of the wave in microseconds: from the previous
        /// store fsync (or the start of execution) to this one. At least
        /// [`WAVE_INTERVAL`](crate::runner::WAVE_INTERVAL) for every
        /// wave of a run but the last.
        wall_us: u64,
    },
    /// The invocation finished (cleanly or budget-capped).
    RunEnd {
        /// Units executed by this invocation.
        executed: usize,
        /// Units still pending after it.
        pending: usize,
    },
    /// The supervisor spawned a worker process for a shard.
    Spawn {
        /// Shard index.
        shard: usize,
        /// Attempt number (0 = first spawn).
        attempt: usize,
    },
    /// A worker was killed for a stalled heartbeat.
    Stall {
        /// Shard index.
        shard: usize,
    },
    /// A dead shard was scheduled for restart.
    Retry {
        /// Shard index.
        shard: usize,
        /// Attempts already spent.
        attempt: usize,
        /// Death reason token (`exit-status-N`, `stalled`, …).
        reason: String,
        /// Backoff before the restart, in milliseconds.
        backoff_ms: u64,
    },
    /// An exhausted or straggling shard's remainder was re-sharded.
    Steal {
        /// Parent shard index.
        shard: usize,
        /// Death reason token.
        reason: String,
        /// Units the parent completed before retirement.
        done: usize,
        /// Units re-sharded onto children.
        remaining: usize,
        /// Child sub-shards created.
        pieces: usize,
        /// Attempts the parent spent; `None` in older ledgers.
        attempts: Option<usize>,
        /// Index of the first child; the children are
        /// `first_child..first_child + pieces`. `None` in older ledgers.
        first_child: Option<usize>,
    },
    /// A shard was given up on.
    Quarantine {
        /// Shard index.
        shard: usize,
        /// Attempts spent.
        attempts: usize,
        /// Death reason token.
        reason: String,
        /// First plan index lost.
        start: usize,
        /// Units lost.
        units: usize,
    },
    /// Shard stores were folded into the canonical store.
    Merge {
        /// Shard stores read.
        shards: usize,
        /// Records written to the canonical store.
        merged: usize,
        /// Whether the canonical store was sealed.
        sealed: bool,
    },
    /// The appender truncated a torn ledger tail (the loss itself).
    TornTail {
        /// Bytes discarded.
        bytes: u64,
    },
}

impl Event {
    /// Folds this event into `registry`: the one event→series mapping
    /// behind the `campaign_*`, `merge_units_total` and `supervisor_*`
    /// series. I/O instruments (`store_*`, `merge_bytes_total`) are
    /// counted at their I/O sites instead.
    pub fn fold_into(&self, registry: &Registry) {
        let count = |name: &str| registry.counter(name).inc();
        match self {
            Event::Unit { route, arity, replica_rounds, wall_us, fill, .. } => {
                UnitSeries::resolve(registry, route, *arity, fill.as_deref())
                    .record(*replica_rounds, *wall_us);
            }
            Event::Wave { wall_us, .. } => {
                count(names::CAMPAIGN_WAVES);
                registry.histogram(names::CAMPAIGN_WAVE_WALL_US).record(*wall_us);
            }
            Event::Spawn { .. } => count(names::SUPERVISOR_SPAWNS),
            Event::Stall { .. } => count(names::SUPERVISOR_STALLS),
            Event::Retry { .. } => count(names::SUPERVISOR_RETRIES),
            Event::Steal { .. } => count(names::SUPERVISOR_STEALS),
            Event::Quarantine { .. } => count(names::SUPERVISOR_QUARANTINES),
            Event::Merge { merged, .. } => registry.counter(names::MERGE_UNITS).add(*merged as u64),
            Event::RunStart { .. } | Event::RunEnd { .. } | Event::TornTail { .. } => {}
        }
    }

    /// The supervisor's greppable diagnostic line, rendered from the
    /// event's own fields: `SHARD-RETRY`, `SHARD-FAIL` or `SHARD-STEAL`.
    /// `None` for every other event.
    fn shard_line(&self) -> Option<String> {
        Some(match self {
            Event::Retry { shard, attempt, reason, backoff_ms } => format!(
                "SHARD-RETRY shard={shard} attempt={attempt} backoff-ms={backoff_ms} \
                 reason={reason}"
            ),
            Event::Quarantine { shard, attempts, reason, start, units } => format!(
                "SHARD-FAIL shard={shard} attempts={attempts} range={start}..{} reason={reason}",
                start + units
            ),
            Event::Steal { shard, reason, done, remaining, pieces, attempts, first_child } => {
                let (attempts, first) = (attempts.unwrap_or(0), first_child.unwrap_or(0));
                format!(
                    "SHARD-STEAL shard={shard} attempts={attempts} reason={reason} done={done} \
                     remaining={remaining} pieces={pieces} children={first}..{}",
                    first + pieces
                )
            }
            _ => return None,
        })
    }
}

/// The series one [`Event::Unit`] folds into, resolved from the unit's
/// route, batch arity and snapshot fill: the one place that names them.
#[derive(Debug)]
struct UnitSeries {
    units: Arc<Counter>,
    replica_rounds: Arc<Counter>,
    wall_us: Arc<Histogram>,
    /// `campaign_batch_arity_units_total` on the batch route.
    arity: Option<Arc<Counter>>,
    /// `campaign_sparse_gather_units_total` when the fill is known.
    fill: Option<Arc<Counter>>,
}

impl UnitSeries {
    fn resolve(registry: &Registry, route: &str, arity: u64, fill: Option<&str>) -> Self {
        let route = [("route", route)];
        UnitSeries {
            units: registry.counter(&labeled(names::CAMPAIGN_UNITS, &route)),
            replica_rounds: registry.counter(&labeled(names::CAMPAIGN_REPLICA_ROUNDS, &route)),
            wall_us: registry.histogram(&labeled(names::CAMPAIGN_UNIT_WALL_US, &route)),
            arity: (arity > 0).then(|| {
                let arity = arity.to_string();
                registry.counter(&labeled(names::CAMPAIGN_BATCH_ARITY_UNITS, &[("arity", &arity)]))
            }),
            fill: fill.map(|mode| {
                registry.counter(&labeled(names::CAMPAIGN_SPARSE_GATHER_UNITS, &[("mode", mode)]))
            }),
        }
    }

    fn record(&self, replica_rounds: u64, wall_us: u64) {
        self.units.inc();
        self.replica_rounds.add(replica_rounds);
        self.wall_us.record(wall_us);
        for counter in self.arity.iter().chain(&self.fill) {
            counter.inc();
        }
    }
}

/// The one emit path of campaign lifecycle facts (see the module docs):
/// a registry to fold every event into and, when telemetry is on, the
/// events ledger to append it to.
#[derive(Debug)]
pub struct EventSink<'r> {
    registry: &'r Registry,
    ledger: Option<LedgerAppender>,
    /// Unit series already resolved: a run names only a handful, so each
    /// unit event skips the naming and the registry lock.
    unit_series: Vec<(UnitKey, UnitSeries)>,
}

/// What names a unit's series: its route, batch arity and fill.
type UnitKey = (String, u64, Option<String>);

impl<'r> EventSink<'r> {
    /// A sink folding into `registry` (`dynring_obs::global()` in
    /// production) that also appends to the ledger at `ledger`, when
    /// given.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] opening the ledger.
    pub fn open(registry: &'r Registry, ledger: Option<&Path>) -> Result<Self, CampaignError> {
        let ledger = ledger.map(|path| EventLedger::new(path).appender()).transpose()?;
        Ok(EventSink { registry, ledger, unit_series: Vec::new() })
    }

    /// Emits one event: folds it into the registry, prints its
    /// `SHARD-…` line if it has one, and appends it to the open ledger.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`] from the ledger.
    pub fn emit(&mut self, event: Event) -> Result<(), CampaignError> {
        if let Event::Unit { route, arity, replica_rounds, wall_us, fill, .. } = &event {
            let known = self.unit_series.iter().position(|((r, a, f), _)| {
                r == route && a == arity && f == fill
            });
            let at = known.unwrap_or_else(|| {
                let series = UnitSeries::resolve(self.registry, route, *arity, fill.as_deref());
                self.unit_series.push(((route.clone(), *arity, fill.clone()), series));
                self.unit_series.len() - 1
            });
            self.unit_series[at].1.record(*replica_rounds, *wall_us);
        } else {
            event.fold_into(self.registry);
        }
        if let Some(line) = event.shard_line() {
            // Retries go to stderr, quarantines and steals to stdout.
            if matches!(event, Event::Retry { .. }) {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        }
        self.ledger.as_mut().map_or(Ok(()), |app| app.append(event))
    }

    /// Flushes the open ledger to disk (`fdatasync`); a no-op without one.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn sync(&mut self) -> Result<(), CampaignError> {
        self.ledger.as_mut().map_or(Ok(()), LedgerAppender::sync)
    }
}

/// One ledger line: a wall-clock stamp plus the observation.
///
/// Timestamps are Unix epoch milliseconds — the ledger is forensic and
/// *not* deterministic (unlike result stores and metric snapshots);
/// only its aggregations' shapes are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Unix epoch milliseconds at append time.
    pub t_ms: u64,
    /// The observation.
    pub event: Event,
}

/// Wall clock as Unix epoch milliseconds (0 before the epoch).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A parsed ledger: every readable observation plus damage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedLedger {
    /// Every parseable event, in file order.
    pub events: Vec<EventRecord>,
    /// Bytes past the last newline (a torn trailing line; 0 when clean).
    pub torn_bytes: u64,
    /// Corrupt *interior* lines skipped (ledgers degrade, not refuse).
    pub skipped_lines: usize,
}

/// Handle to a campaign's events ledger file.
#[derive(Debug, Clone)]
pub struct EventLedger {
    path: PathBuf,
}

impl EventLedger {
    /// A ledger at an explicit path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        EventLedger { path: path.into() }
    }

    /// The canonical ledger of the store at `store_path`:
    /// `<store>.events.jsonl`.
    pub fn for_store(store_path: &Path) -> Self {
        EventLedger {
            path: PathBuf::from(format!("{}{LEDGER_SUFFIX}", store_path.display())),
        }
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the ledger file exists on disk.
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Parses the ledger. A missing file is an empty ledger; a torn
    /// final line and corrupt interior lines are measured, not errors.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on filesystem trouble only.
    pub fn load(&self) -> Result<LoadedLedger, CampaignError> {
        let mut events = Vec::new();
        let mut skipped_lines = 0usize;
        // An unterminated final line is torn mid-write and ends the scan.
        let end = for_each_line(&self.path, |line| {
            let parsed = std::str::from_utf8(line.bytes)
                .ok()
                .and_then(|s| serde_json::from_str::<EventRecord>(s).ok());
            match parsed {
                Some(record) => events.push(record),
                // A terminated line that does not parse is damage, not a
                // tear: event lines never contain newlines, so a torn
                // write is always an *unterminated* prefix. Skip it and
                // keep reading.
                None => skipped_lines += 1,
            }
            Ok(true)
        })?;
        Ok(LoadedLedger { events, torn_bytes: end.torn_bytes, skipped_lines })
    }

    /// Opens the ledger for appending just past its last newline,
    /// truncating any torn tail first the way the store does, and
    /// recording the truncation itself as an [`Event::TornTail`]. Parses
    /// nothing: the lines before the tail are kept as they are.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn appender(&self) -> Result<LedgerAppender, CampaignError> {
        let (valid_len, len) = newline_terminated_len(&self.path)?;
        let file = open_for_append(&self.path, valid_len)?;
        let mut appender = LedgerAppender { file };
        if len > valid_len {
            appender.append(Event::TornTail { bytes: len - valid_len })?;
        }
        Ok(appender)
    }
}

/// The length of the file at `path` up to and including its last newline,
/// and its whole length (both 0 for a missing file): read backwards from
/// the end in blocks of [`READ_CHUNK`], so only the torn tail and the
/// block holding the last newline are read.
fn newline_terminated_len(path: &Path) -> Result<(u64, u64), CampaignError> {
    let mut file = match File::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        file => file?,
    };
    let len = file.metadata()?.len();
    let mut block = vec![0u8; READ_CHUNK.min(usize::try_from(len).unwrap_or(usize::MAX))];
    let mut end = len;
    while end > 0 {
        let n = block.len().min(usize::try_from(end).unwrap_or(usize::MAX));
        end -= n as u64;
        file.seek(SeekFrom::Start(end))?;
        file.read_exact(&mut block[..n])?;
        if let Some(nl) = block[..n].iter().rposition(|&b| b == b'\n') {
            return Ok((end + nl as u64 + 1, len));
        }
    }
    Ok((0, len))
}

/// An open ledger appender (one JSON line per event).
#[derive(Debug)]
pub struct LedgerAppender {
    file: File,
}

impl LedgerAppender {
    /// Appends `event` stamped with the current wall clock.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`].
    pub fn append(&mut self, event: Event) -> Result<(), CampaignError> {
        self.append_at(now_ms(), event)
    }

    /// Appends `event` with an explicit stamp (deterministic tests).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`].
    pub fn append_at(&mut self, t_ms: u64, event: Event) -> Result<(), CampaignError> {
        let mut json = serde_json::to_string(&EventRecord { t_ms, event })?;
        json.push('\n');
        self.file.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Flushes appended events to disk (`fdatasync`).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn sync(&mut self) -> Result<(), CampaignError> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn temp(name: &str) -> EventLedger {
        let path = std::env::temp_dir().join(format!("dynring_events_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        EventLedger::new(path)
    }

    fn unit_event(index: usize) -> Event {
        Event::Unit {
            hash: format!("h{index}"),
            index,
            algorithm: "PEF_3+".into(),
            dynamics: "bernoulli(p=0.5)".into(),
            scheduler: "sync".into(),
            route: "batch".into(),
            arity: 64,
            replicas: 8,
            covered: 8,
            replica_rounds: 640,
            wall_us: 1500,
            fill: Some("full".into()),
        }
    }

    #[test]
    fn missing_ledgers_load_empty() {
        let ledger = temp("missing");
        let loaded = ledger.load().expect("loads");
        assert_eq!(loaded.events.len(), 0);
        assert_eq!(loaded.torn_bytes, 0);
    }

    #[test]
    fn events_round_trip_in_order() {
        let ledger = temp("roundtrip");
        let mut app = ledger.appender().expect("opens");
        app.append_at(10, unit_event(0)).expect("appends");
        app.append_at(20, Event::Wave { units: 1, wall_us: 2000 }).expect("appends");
        app.sync().expect("syncs");
        drop(app);
        let loaded = ledger.load().expect("loads");
        assert_eq!(loaded.events.len(), 2);
        assert_eq!(loaded.events[0].t_ms, 10);
        assert_eq!(loaded.events[0].event, unit_event(0));
        assert_eq!(loaded.torn_bytes, 0);
        assert_eq!(loaded.skipped_lines, 0);
        let _ = std::fs::remove_file(ledger.path());
    }

    #[test]
    fn torn_tails_are_measured_then_truncated_and_recorded() {
        let ledger = temp("torn");
        let mut app = ledger.appender().expect("opens");
        app.append_at(10, unit_event(0)).expect("appends");
        drop(app);
        // Tear: an unterminated half-line at the end.
        let tear = b"{\"t_ms\":20,\"event\":{\"Wave";
        let mut file =
            OpenOptions::new().append(true).open(ledger.path()).expect("opens raw");
        file.write_all(tear).expect("tears");
        drop(file);
        let loaded = ledger.load().expect("loads");
        assert_eq!(loaded.events.len(), 1);
        assert_eq!(loaded.torn_bytes, tear.len() as u64);
        // Reopening truncates the tear and records it.
        let mut app = ledger.appender().expect("reopens");
        app.append_at(30, unit_event(1)).expect("appends");
        drop(app);
        let loaded = ledger.load().expect("loads");
        assert_eq!(loaded.torn_bytes, 0);
        assert_eq!(loaded.events.len(), 3);
        assert_eq!(loaded.events[1].event, Event::TornTail { bytes: tear.len() as u64 });
        assert_eq!(loaded.events[2].event, unit_event(1));
        let _ = std::fs::remove_file(ledger.path());
    }

    #[test]
    fn corrupt_interior_lines_are_skipped_not_fatal() {
        let ledger = temp("interior");
        let mut app = ledger.appender().expect("opens");
        app.append_at(10, unit_event(0)).expect("appends");
        drop(app);
        let mut file =
            OpenOptions::new().append(true).open(ledger.path()).expect("opens raw");
        file.write_all(b"not json at all\n").expect("damages");
        drop(file);
        let mut app = ledger.appender().expect("reopens past damage");
        app.append_at(20, unit_event(1)).expect("appends");
        drop(app);
        let loaded = ledger.load().expect("loads");
        assert_eq!(loaded.events.len(), 2);
        assert_eq!(loaded.skipped_lines, 1);
        assert_eq!(loaded.torn_bytes, 0);
        let _ = std::fs::remove_file(ledger.path());
    }

    #[test]
    fn shard_lines_keep_their_pinned_text() {
        let retry = Event::Retry {
            shard: 0,
            attempt: 1,
            reason: "exit-status-113".into(),
            backoff_ms: 10,
        };
        let fail = Event::Quarantine {
            shard: 13,
            attempts: 1,
            reason: "killed".into(),
            start: 37,
            units: 1,
        };
        let steal = Event::Steal {
            shard: 0,
            reason: "killed".into(),
            done: 37,
            remaining: 23,
            pieces: 3,
            attempts: Some(1),
            first_child: Some(4),
        };
        for (event, line) in [
            (retry, "SHARD-RETRY shard=0 attempt=1 backoff-ms=10 reason=exit-status-113"),
            (fail, "SHARD-FAIL shard=13 attempts=1 range=37..38 reason=killed"),
            (
                steal,
                "SHARD-STEAL shard=0 attempts=1 reason=killed done=37 remaining=23 \
                 pieces=3 children=4..7",
            ),
        ] {
            assert_eq!(event.shard_line().as_deref(), Some(line));
        }
        assert_eq!(Event::Stall { shard: 0 }.shard_line(), None);
    }

    #[test]
    fn ledger_path_is_a_store_sibling() {
        let ledger = EventLedger::for_store(Path::new("/tmp/camp.jsonl"));
        assert_eq!(ledger.path(), Path::new("/tmp/camp.jsonl.events.jsonl"));
    }
}
