//! The shard supervisor: spawn `campaign work` children, watch their
//! liveness, restart crashed or hung shards with bounded backoff, and
//! quarantine shards that keep dying.
//!
//! Liveness is judged by the shard store's mtime: [`crate::run_campaign`]
//! fsyncs every wave, so a healthy worker advances its store file at
//! wave cadence and a worker whose store has not moved for
//! [`SuperviseOptions::heartbeat_timeout_ms`] is hung — it is killed and
//! treated like any other death. On death the supervisor loads the shard
//! store (crash-safe by construction: a torn tail truncates away) and
//! either marks the shard complete, schedules a restart after
//! exponential backoff with deterministic per-shard jitter
//! ([`dynring_analysis::seeds::backoff_jitter_ms`]), or — once
//! `max_retries` restarts are spent — quarantines it with a greppable
//! `SHARD-FAIL shard=… attempts=… reason=…` line. A quarantined shard
//! never wedges the campaign: the other shards run to completion, the
//! supervisor returns a partial outcome, and a later `campaign resume
//! --procs` picks the quarantined shard's partial store back up.
//!
//! The manifest's per-shard attempt counters are persisted (written to a
//! temp file, fsynced, renamed) *before* each spawn, so a supervisor
//! that itself crashes mid-restart never under-counts attempts on
//! resume.
//!
//! With stealing enabled (the default), exhausting a shard's retries no
//! longer quarantines it outright: the supervisor *re-shards* — it reads
//! the plan-order prefix the dead shard's store holds, retires the entry
//! at that prefix, and splits the rest into `clamp(idle, 1, remaining)`
//! child sub-shards (`idle` = completed slots; at least 2 when nothing
//! was done) handed to fresh worker slots
//! ([`crate::shard::ShardManifest::split_entry`]), announced by one
//! greppable `SHARD-STEAL shard=… attempts=… reason=… done=… remaining=…
//! pieces=… children=A..B` line per steal. The split is fsynced into the
//! manifest *before* any child spawns, so an arbitrarily-killed
//! supervisor resumes the re-sharded topology exactly. Splits strictly
//! shrink, so a deterministic poison converges to a terminal one-unit
//! quarantine — `SHARD-FAIL … range=X..Y …` names exactly the units
//! still missing — while everything else completes. A shard still
//! running [`SuperviseOptions::steal_after_ms`] after its latest spawn,
//! once every other shard has settled, is treated the same way
//! (`reason=straggler`): killed, retired at its prefix, remainder stolen.
//!
//! Every lifecycle fact (spawn, stall, retry, steal, quarantine) is one
//! [`EventSink::emit`]: the registry counter, the ledger line and the
//! `SHARD-…` diagnostic all come from that one [`Event`].

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use dynring_analysis::seeds::backoff_jitter_ms;
use serde::Serialize;

use crate::events::{Event, EventLedger, EventSink};
use crate::fault::SHARD_ATTEMPT_ENV;
use crate::metrics::coarse_rate;
use crate::shard::{ShardEntry, ShardManifest};
use crate::store::ResultStore;
use crate::CampaignError;

/// Exponential backoff is capped here regardless of attempt count.
const BACKOFF_CAP_MS: u64 = 30_000;

/// Supervisor poll interval.
const POLL: Duration = Duration::from_millis(50);

/// Knobs of one supervisor invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseOptions {
    /// Worker threads per child process.
    pub workers_per_proc: usize,
    /// Restarts allowed per shard before quarantine (`0` = one attempt,
    /// no retries).
    pub max_retries: usize,
    /// Base of the per-shard exponential backoff (doubles per failed
    /// attempt, capped at 30s, plus deterministic jitter in
    /// `0..=backoff_ms`).
    pub backoff_ms: u64,
    /// A shard whose store mtime stalls longer than this is declared
    /// hung, killed and retried.
    pub heartbeat_timeout_ms: u64,
    /// Print a per-shard progress table to stderr roughly once a second.
    pub progress: bool,
    /// With `progress`: emit JSON lines instead of the table.
    pub progress_json: bool,
    /// Steal the remaining range of an exhausted shard into child
    /// sub-shards instead of quarantining it (`--no-steal` disables,
    /// restoring the PR-7 give-up behaviour).
    pub steal: bool,
    /// Straggler threshold: a shard still running this long after its
    /// spawn while every other shard has settled is killed and its
    /// remainder stolen. `None` disables straggler stealing.
    pub steal_after_ms: Option<u64>,
    /// Out-of-band telemetry: append supervisor lifecycle events
    /// (spawn, stall, retry, steal, quarantine) to the events ledger at
    /// this path — the CLI points it at the canonical store's
    /// `<store>.events.jsonl` — and forward `--metrics-out` to every
    /// worker child, so per-unit events land in the shard stores' own
    /// ledgers. `None` disables both.
    pub events: Option<PathBuf>,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            workers_per_proc: 1,
            max_retries: 3,
            backoff_ms: 250,
            heartbeat_timeout_ms: 30_000,
            progress: false,
            progress_json: false,
            steal: true,
            steal_after_ms: None,
            events: None,
        }
    }
}

/// A quarantined shard: `max_retries` restarts were spent, it still did
/// not complete, and (with stealing on) its range could not shrink any
/// further.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardFailure {
    /// Shard index.
    pub shard: usize,
    /// Attempts started (initial spawn included).
    pub attempts: usize,
    /// Space-free reason token: `exit-status-N`, `killed`, `stalled`,
    /// `exited-incomplete`, `store-corrupt` or `straggler`.
    pub reason: String,
    /// First plan index of the units actually lost (the shard's range
    /// minus its completed prefix).
    pub start: usize,
    /// Units lost.
    pub units: usize,
}

/// What one supervisor invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseOutcome {
    /// Shards in the manifest.
    pub shards: usize,
    /// Shards whose stores now hold their full unit range.
    pub completed: usize,
    /// Restarts performed (beyond initial spawns).
    pub restarts: usize,
    /// Steals performed: exhausted or straggling shards whose remainder
    /// was re-sharded onto child sub-shards.
    pub steals: usize,
    /// Shards given up on. Empty iff the campaign can merge completely.
    pub quarantined: Vec<ShardFailure>,
}

impl SuperviseOutcome {
    /// `true` when every shard completed (safe to merge and seal).
    pub fn is_complete(&self) -> bool {
        self.completed == self.shards
    }
}

/// One row of the `campaign status` / `--progress` view.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardProgress {
    /// Shard index (or position in the `status STORE…` argument list).
    pub shard: usize,
    /// Store path.
    pub store: String,
    /// Records in the store.
    pub completed: usize,
    /// Units this store is expected to hold (the shard's range; for a
    /// standalone store, the header's planned units).
    pub total: usize,
    /// Recent execution rate; `None` when not observable (static view,
    /// or fewer than two samples).
    pub units_per_sec: Option<f64>,
    /// Seconds to completion at `units_per_sec`; `None` when unknown.
    pub eta_secs: Option<f64>,
    /// Whether the store carries a seal.
    pub sealed: bool,
    /// Whether a torn trailing line was truncated away on load.
    pub torn: bool,
    /// Bytes of torn trailing data ignored on load (0 when clean).
    pub torn_bytes: u64,
    /// Worker attempts recorded in the shard manifest; `None` when no
    /// manifest is in view (plain `status STORE…`).
    pub attempts: Option<usize>,
    /// One-word state: `sealed`, `complete`, `torn`, `open`, `empty`,
    /// `running`, `backoff` or `quarantined`.
    pub state: String,
}

impl ShardProgress {
    /// The row of a manifest shard: [`shard_progress`] over its range,
    /// or a `corrupt` row when its store cannot be read.
    pub fn of_shard(store: &ResultStore, shard: usize, units: usize, attempts: usize) -> Self {
        let mut row = shard_progress(store, shard, Some(units)).unwrap_or_else(|_| ShardProgress {
            shard,
            store: store.path().display().to_string(),
            completed: 0,
            total: units,
            units_per_sec: None,
            eta_secs: None,
            sealed: false,
            torn: false,
            torn_bytes: 0,
            attempts: None,
            state: "corrupt".into(),
        });
        row.attempts = Some(attempts);
        row
    }
}

/// Reads one store into a static [`ShardProgress`] row. Rate/ETA are
/// derived coarsely from the store's events ledger when a telemetered
/// run left one (`<store>.events.jsonl`, first-to-last unit-event
/// spacing); otherwise they are `None` — the supervisor's `--progress`
/// view overrides them with its live two-observation rate. `total`
/// overrides the denominator when the caller knows the shard's range
/// (manifest); otherwise the header's planned units are used.
///
/// # Errors
///
/// Store loading errors ([`CampaignError::CorruptStore`] etc.).
pub fn shard_progress(
    store: &ResultStore,
    shard: usize,
    total: Option<usize>,
) -> Result<ShardProgress, CampaignError> {
    let stored = store.read(None, &mut drop)?;
    let total =
        total.or_else(|| stored.header.as_ref().map(|h| h.planned_units)).unwrap_or(0);
    let completed = stored.records;
    // A static view has no second observation to derive a rate from —
    // but a telemetered run left unit timestamps in the store's events
    // ledger. Derive a coarse units/sec (and ETA) from those, so
    // one-shot `campaign status` reports rate too.
    let remaining = total.saturating_sub(completed);
    let mut units_per_sec = None;
    let mut eta_secs = None;
    if remaining > 0 {
        if let Ok(ledger) = EventLedger::for_store(store.path()).load() {
            if let Some(rate) = coarse_rate(&ledger.events) {
                units_per_sec = Some(rate);
                eta_secs = Some(remaining as f64 / rate);
            }
        }
    }
    let state = if stored.sealed {
        "sealed"
    } else if total > 0 && completed >= total {
        "complete"
    } else if stored.torn_bytes > 0 {
        "torn"
    } else if stored.header.is_none() {
        "empty"
    } else {
        "open"
    };
    Ok(ShardProgress {
        shard,
        store: store.path().display().to_string(),
        completed,
        total,
        units_per_sec,
        eta_secs,
        sealed: stored.sealed,
        torn: stored.torn_bytes > 0,
        torn_bytes: stored.torn_bytes,
        attempts: None,
        state: state.into(),
    })
}

/// Renders progress rows as one aligned table (the non-`--json` form of
/// `campaign status` and the supervisor's `--progress` ticker).
pub fn render_progress(rows: &[ShardProgress]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5} {:>9} {:>8} {:>8}  {:<11} {}\n",
        "SHARD", "DONE", "UNITS/S", "ETA", "STATE", "STORE"
    ));
    for row in rows {
        let done = format!("{}/{}", row.completed, row.total);
        let rate = match row.units_per_sec {
            Some(r) if r > 0.0 => format!("{r:.1}"),
            _ => "-".into(),
        };
        let eta = match row.eta_secs {
            Some(e) if e.is_finite() => format!("{e:.0}s"),
            _ => "-".into(),
        };
        out.push_str(&format!(
            "{:<5} {:>9} {:>8} {:>8}  {:<11} {}\n",
            row.shard, done, rate, eta, row.state, row.store
        ));
    }
    out
}

/// How a dead worker left its shard store.
enum ShardHealth {
    Complete,
    Incomplete,
    Corrupt,
}

fn shard_health(store: &ResultStore, units: usize) -> ShardHealth {
    match store.read(None, &mut drop) {
        Ok(stored) if stored.records >= units => ShardHealth::Complete,
        Ok(_) => ShardHealth::Incomplete,
        Err(_) => ShardHealth::Corrupt,
    }
}

/// Backoff before spawn number `attempts + 1`: exponential in the
/// attempts already spent, capped, plus deterministic per-shard jitter.
fn backoff_delay(shard: usize, attempts: usize, base_ms: u64) -> Duration {
    let shift = (attempts.saturating_sub(1)).min(6) as u32;
    let exp = base_ms.saturating_mul(1u64 << shift).min(BACKOFF_CAP_MS);
    Duration::from_millis(exp + backoff_jitter_ms(shard as u64, attempts as u64, base_ms))
}

struct WorkerSlot {
    shard: usize,
    store: ResultStore,
    log: PathBuf,
    units: usize,
    child: Option<Child>,
    spawned: Instant,
    restart_at: Option<Instant>,
    done: bool,
    quarantined: bool,
    sample: Option<(Instant, usize)>,
    rate: Option<f64>,
}

impl WorkerSlot {
    fn new(entry: &ShardEntry) -> Self {
        WorkerSlot {
            shard: entry.index,
            store: ResultStore::new(Path::new(&entry.store)),
            log: PathBuf::from(format!("{}.log", entry.store)),
            units: entry.units,
            child: None,
            spawned: Instant::now(),
            restart_at: None,
            done: false,
            quarantined: false,
            sample: None,
            rate: None,
        }
    }

    fn settled(&self) -> bool {
        self.done || self.quarantined
    }
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).ok().and_then(|m| m.modified().ok())
}

fn spawn_worker(
    exe: &Path,
    spec_path: &Path,
    manifest_path: &Path,
    slot: &mut WorkerSlot,
    attempt: usize,
    opts: &SuperviseOptions,
    sink: &mut EventSink,
) -> Result<(), CampaignError> {
    let log = std::fs::OpenOptions::new().create(true).append(true).open(&slot.log)?;
    let mut command = Command::new(exe);
    command
        .arg("campaign")
        .arg("work")
        .arg("--spec")
        .arg(spec_path)
        .arg("--manifest")
        .arg(manifest_path)
        .arg("--index")
        .arg(slot.shard.to_string())
        .arg("--workers")
        .arg(opts.workers_per_proc.to_string());
    if opts.events.is_some() {
        // Forward telemetry: the child snapshots its own registry and
        // appends per-unit events to its shard store's ledger.
        command
            .arg("--metrics-out")
            .arg(format!("{}.metrics.json", slot.store.path().display()));
    }
    let child = command
        .env(SHARD_ATTEMPT_ENV, attempt.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::from(log.try_clone()?))
        .stderr(Stdio::from(log))
        .spawn()?;
    slot.child = Some(child);
    slot.spawned = Instant::now();
    slot.restart_at = None;
    sink.emit(Event::Spawn { shard: slot.shard, attempt })
}

/// Runs every shard of `manifest` as a supervised `campaign work` child
/// of `exe` (the current binary), restarting dead or hung shards until
/// each completes or exhausts its retries. Shards whose stores are
/// already complete (a resumed campaign) are skipped without spawning.
///
/// Returns the outcome even when shards were quarantined — the caller
/// decides the exit code. Only infrastructure trouble (spawn failure,
/// manifest persistence) is an `Err`.
///
/// # Errors
///
/// [`CampaignError::Io`] on spawn/poll/manifest-write failure.
pub fn supervise(
    exe: &Path,
    spec_path: &Path,
    manifest_path: &Path,
    manifest: &mut ShardManifest,
    opts: &SuperviseOptions,
) -> Result<SuperviseOutcome, CampaignError> {
    let mut sink = EventSink::open(dynring_obs::global(), opts.events.as_deref())?;
    let mut slots: Vec<WorkerSlot> = manifest
        .entries
        .iter()
        .map(|e| {
            let mut slot = WorkerSlot::new(e);
            // Retired entries hold exactly their truncated prefix; they
            // are never spawned. Everything else is probed.
            slot.done =
                e.retired || matches!(shard_health(&slot.store, e.units), ShardHealth::Complete);
            slot
        })
        .collect();

    // Count the initial spawns as attempts and persist them (fsynced)
    // before any child exists, so a crashed supervisor never forgets an
    // attempt it already started.
    for slot in slots.iter().filter(|s| !s.done) {
        manifest.entries[slot.shard].attempts += 1;
    }
    manifest.write(manifest_path)?;
    for slot in slots.iter_mut().filter(|s| !s.done) {
        let attempt = manifest.entries[slot.shard].attempts - 1;
        spawn_worker(exe, spec_path, manifest_path, slot, attempt, opts, &mut sink)?;
    }

    let timeout = Duration::from_millis(opts.heartbeat_timeout_ms.max(1));
    let mut restarts = 0usize;
    let mut steals = 0usize;
    let mut quarantined: Vec<ShardFailure> = Vec::new();
    let mut last_progress = Instant::now() - Duration::from_secs(3600);

    loop {
        let mut settled = true;
        // Steals decided during the pass; processed after it, because a
        // split appends entries and slots mid-iteration.
        let mut steal_requests: Vec<(usize, usize, bool, String)> = Vec::new();
        let settled_before = slots.iter().filter(|s| s.settled()).count();
        let fleet = slots.len();
        for (idx, slot) in slots.iter_mut().enumerate() {
            if slot.settled() {
                continue;
            }
            settled = false;
            // 1. A running child: reap it, kill it if its heartbeat
            //    (store mtime) stalled past the timeout, or kill it as a
            //    straggler when the rest of the fleet has settled and it
            //    is still running `steal_after_ms` after its spawn.
            let death: Option<String> = match &mut slot.child {
                Some(child) => match child.try_wait()? {
                    Some(status) => {
                        slot.child = None;
                        Some(match status.code() {
                            Some(code) => format!("exit-status-{code}"),
                            None => "killed".into(),
                        })
                    }
                    None => {
                        let spawned_for = slot.spawned.elapsed();
                        let age = mtime(slot.store.path())
                            .and_then(|m| SystemTime::now().duration_since(m).ok())
                            .unwrap_or(spawned_for);
                        let straggling = opts.steal
                            && opts
                                .steal_after_ms
                                .is_some_and(|ms| spawned_for > Duration::from_millis(ms))
                            && settled_before + 1 >= fleet;
                        let reason = if spawned_for > timeout && age > timeout {
                            Some("stalled")
                        } else if straggling {
                            Some("straggler")
                        } else {
                            None
                        };
                        if reason.is_some() {
                            let _ = child.kill();
                            let _ = child.wait();
                            slot.child = None;
                        }
                        reason.map(String::from)
                    }
                },
                None => None,
            };
            if let Some(mut reason) = death {
                if reason == "stalled" {
                    sink.emit(Event::Stall { shard: slot.shard })?;
                }
                match shard_health(&slot.store, slot.units) {
                    // Completed before dying (normal exit, or a fault
                    // that fired after the last unit): the shard is done
                    // regardless of how the process ended.
                    ShardHealth::Complete => {
                        slot.done = true;
                        continue;
                    }
                    ShardHealth::Corrupt => reason = "store-corrupt".into(),
                    ShardHealth::Incomplete => {
                        if reason == "exit-status-0" {
                            reason = "exited-incomplete".into();
                        }
                    }
                }
                let attempts = manifest.entries[slot.shard].attempts;
                let corrupt = reason == "store-corrupt";
                let straggler = reason == "straggler";
                if corrupt || straggler || attempts > opts.max_retries {
                    // Steal what remains instead of giving up: retire the
                    // shard at the plan-order prefix its store holds and
                    // re-shard the rest — as long as the split can still
                    // shrink. A corrupt store contributes nothing (its
                    // records cannot be trusted), so its whole range must
                    // be re-run and its empty retirement only shrinks
                    // when split at least two ways.
                    let done = if corrupt {
                        0
                    } else {
                        slot.store.read(None, &mut drop).map_or(0, |s| s.records)
                    };
                    let done = done.min(slot.units);
                    let remaining = slot.units - done;
                    if opts.steal && remaining > 0 && (done > 0 || remaining >= 2) {
                        steal_requests.push((idx, done, corrupt, reason));
                        continue;
                    }
                    if !straggler {
                        let start = manifest.entries[slot.shard].start + done;
                        slot.quarantined = true;
                        sink.emit(Event::Quarantine {
                            shard: slot.shard,
                            attempts,
                            reason: reason.clone(),
                            start,
                            units: remaining,
                        })?;
                        quarantined.push(ShardFailure {
                            shard: slot.shard,
                            attempts,
                            reason,
                            start,
                            units: remaining,
                        });
                        continue;
                    }
                    // A straggler that cannot shrink (a 1-unit shard with
                    // nothing done) falls back to an ordinary retry.
                }
                let delay = backoff_delay(slot.shard, attempts, opts.backoff_ms);
                sink.emit(Event::Retry {
                    shard: slot.shard,
                    attempt: attempts,
                    reason,
                    backoff_ms: delay.as_millis() as u64,
                })?;
                slot.restart_at = Some(Instant::now() + delay);
                continue;
            }
            // 2. A shard waiting out its backoff: restart it, persisting
            //    the bumped attempt counter (fsynced) first.
            if slot.child.is_none() && slot.restart_at.is_some_and(|at| Instant::now() >= at) {
                manifest.entries[slot.shard].attempts += 1;
                manifest.write(manifest_path)?;
                let attempt = manifest.entries[slot.shard].attempts - 1;
                spawn_worker(exe, spec_path, manifest_path, slot, attempt, opts, &mut sink)?;
                restarts += 1;
            }
        }
        // 3. Perform the steals: split the manifest, fsync it, then (and
        //    only then) spawn child workers — the crash-safety order the
        //    resume topology relies on.
        for (idx, done, corrupt, reason) in steal_requests {
            let parent = slots[idx].shard;
            let attempts = manifest.entries[parent].attempts;
            // Hand the remainder to as many pieces as there are settled
            // slots to reuse — at least two when nothing was salvaged,
            // so every split strictly shrinks.
            let idle = slots.iter().filter(|s| s.done).count();
            let remaining = slots[idx].units - done;
            let mut pieces = idle.clamp(1, remaining);
            if done == 0 {
                pieces = pieces.max(2).min(remaining);
            }
            if corrupt {
                // Move the untrustworthy store aside: the retired entry
                // is empty, so nothing may ever read these bytes again.
                let path = slots[idx].store.path().to_path_buf();
                let aside = format!("{}.corrupt-{attempts}", path.display());
                let _ = std::fs::rename(&path, aside);
            }
            let children = manifest.split_entry(parent, done, pieces)?;
            for &c in &children {
                manifest.entries[c].attempts = 1;
            }
            manifest.write(manifest_path)?;
            sink.emit(Event::Steal {
                shard: parent,
                reason,
                done,
                remaining,
                pieces: children.len(),
                attempts: Some(attempts),
                first_child: Some(children[0]),
            })?;
            slots[idx].done = true;
            slots[idx].units = done;
            steals += 1;
            for &c in &children {
                let mut slot = WorkerSlot::new(&manifest.entries[c]);
                spawn_worker(exe, spec_path, manifest_path, &mut slot, 0, opts, &mut sink)?;
                slots.push(slot);
            }
            settled = false;
        }
        if opts.progress && last_progress.elapsed() >= Duration::from_millis(1000) {
            last_progress = Instant::now();
            let rows: Vec<ShardProgress> = slots
                .iter_mut()
                .map(|slot| {
                    let attempts = manifest.entries[slot.shard].attempts;
                    progress_row(slot, attempts)
                })
                .collect();
            if opts.progress_json {
                for row in &rows {
                    if let Ok(line) = serde_json::to_string(row) {
                        eprintln!("{line}");
                    }
                }
            } else {
                eprint!("{}", render_progress(&rows));
            }
        }
        if settled {
            break;
        }
        std::thread::sleep(POLL);
    }
    sink.sync()?;

    Ok(SuperviseOutcome {
        shards: slots.len(),
        completed: slots.iter().filter(|s| s.done).count(),
        restarts,
        steals,
        quarantined,
    })
}

/// Builds one live progress row, updating the slot's rate estimate from
/// the previous observation.
fn progress_row(slot: &mut WorkerSlot, attempts: usize) -> ShardProgress {
    let mut row = ShardProgress::of_shard(&slot.store, slot.shard, slot.units, attempts);
    let now = Instant::now();
    if let Some((t0, c0)) = slot.sample {
        let dt = now.duration_since(t0).as_secs_f64();
        if dt > 0.0 && row.completed >= c0 {
            slot.rate = Some((row.completed - c0) as f64 / dt);
        }
    }
    slot.sample = Some((now, row.completed));
    if slot.quarantined {
        row.state = "quarantined".into();
    } else if slot.child.is_some() {
        row.state = "running".into();
        row.units_per_sec = slot.rate;
        if let Some(rate) = slot.rate.filter(|r| *r > 0.0) {
            row.eta_secs = Some((row.total.saturating_sub(row.completed)) as f64 / rate);
        }
    } else if slot.restart_at.is_some() {
        row.state = "backoff".into();
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let base = 100;
        let d1 = backoff_delay(0, 1, base).as_millis() as u64;
        let d2 = backoff_delay(0, 2, base).as_millis() as u64;
        let d4 = backoff_delay(0, 4, base).as_millis() as u64;
        assert!((100..=200).contains(&d1), "{d1}");
        assert!((200..=300).contains(&d2), "{d2}");
        assert!((800..=900).contains(&d4), "{d4}");
        // Deep attempts stay bounded: cap + one jitter unit.
        let deep = backoff_delay(3, 40, base).as_millis() as u64;
        assert!(deep <= BACKOFF_CAP_MS + base, "{deep}");
        // Deterministic.
        assert_eq!(backoff_delay(2, 3, base), backoff_delay(2, 3, base));
    }

    #[test]
    fn progress_table_renders_one_aligned_row_per_shard() {
        let rows = vec![
            ShardProgress {
                shard: 0,
                store: "a.jsonl".into(),
                completed: 3,
                total: 8,
                units_per_sec: Some(2.5),
                eta_secs: Some(2.0),
                sealed: false,
                torn: false,
                torn_bytes: 0,
                attempts: Some(1),
                state: "running".into(),
            },
            ShardProgress {
                shard: 1,
                store: "b.jsonl".into(),
                completed: 8,
                total: 8,
                units_per_sec: None,
                eta_secs: None,
                sealed: true,
                torn: false,
                torn_bytes: 0,
                attempts: None,
                state: "sealed".into(),
            },
        ];
        let table = render_progress(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("SHARD") && lines[0].contains("ETA"));
        assert!(lines[1].contains("3/8") && lines[1].contains("2.5"));
        assert!(lines[2].contains("8/8") && lines[2].contains("sealed"));
        let json = serde_json::to_string(&rows[0]).expect("progress rows serialize");
        assert!(json.contains("\"state\""), "{json}");
    }
}
