//! The traced run: one pass per workload that times, from this file, the
//! calls into each layer's public functions and derives the per-layer
//! metrics from those spans and from the events ledger the runner writes.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use dynring_campaign::{
    certify, execute_unit, load_report, merge_manifest, merge_stores, route_unit, run_campaign,
    supervise, CampaignError, CampaignPlan, CertifyOptions, Event, EventLedger, PlannedUnit,
    ResultStore, RunOptions, ShardManifest, ShardSel, StoreHeader, SuperviseOptions,
};

use crate::common::{
    file_mb, replica_rounds, run_options, setup, write_spec, Reference, Res, Tally,
};
use crate::stats::{quantiles, Tracer};
use crate::workloads::{class_of, Workload, CLASSES, WORKERS};

/// Units the level-2 certification re-executes.
const L2_SAMPLE: usize = 16;
/// Shards of the merge and supervise measurements.
const SHARDS: usize = 2;

/// Everything the traced run measured.
pub struct Layers {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Figures of the executor classes and batch arities this workload
    /// runs (`name`, value, unit): written to the layer file and printed,
    /// not to the result, which holds only metrics every workload has.
    pub layer_only: Vec<(String, f64, &'static str)>,
    /// Per span name: (count, total seconds, self seconds).
    pub self_times: BTreeMap<&'static str, (usize, f64, f64)>,
    /// The spans, one JSON object a line.
    pub spans: String,
}

fn header(plan: &CampaignPlan) -> StoreHeader {
    StoreHeader {
        name: plan.name.clone(),
        spec_hash: plan.spec_hash.clone(),
        planned_units: plan.units.len(),
    }
}

/// The traced pass's work without its spans; returns its wall seconds.
fn plain_pass(
    plan: &CampaignPlan,
    waves: &[&[PlannedUnit]],
    store: &ResultStore,
) -> Result<f64, CampaignError> {
    let start = Instant::now();
    let mut appender = store.appender(&store.load()?)?;
    appender.append_header(header(plan))?;
    for &wave in waves {
        for planned in wave {
            appender.append_record(execute_unit(planned)?)?;
        }
        appender.sync()?;
    }
    appender.seal()?;
    appender.sync()?;
    Ok(start.elapsed().as_secs_f64())
}

/// Per-class accumulators of the traced pass.
#[derive(Default)]
struct Class {
    walls_us: Vec<f64>,
    replica_rounds: u64,
}

/// The plan cut into the runner's waves, as the events run's Wave
/// events report them, so the traced pass syncs as often as the runner
/// does. Units the events do not cover form one last wave.
fn runner_waves<'a>(
    plan: &'a CampaignPlan,
    sizes: &[usize],
    tally: &mut Tally,
) -> Vec<&'a [PlannedUnit]> {
    let mut rest = &plan.units[..];
    let mut waves = Vec::with_capacity(sizes.len() + 1);
    for &size in sizes {
        let (wave, tail) = rest.split_at(size.min(rest.len()));
        waves.push(wave);
        rest = tail;
    }
    let covered: usize = sizes.iter().sum();
    if covered != plan.units.len() {
        tally.fail(
            "events run",
            plan.units.len(),
            format!("Wave events cover {covered} of {} units", plan.units.len()),
        );
        if !rest.is_empty() {
            waves.push(rest);
        }
    }
    waves
}

/// Checks a run's outcome and, when it completed, its store against the
/// reference bytes.
fn judge(
    tally: &mut Tally,
    label: &str,
    units: usize,
    run: Result<bool, CampaignError>,
    store: &ResultStore,
    reference: Option<&Reference>,
) -> Res<()> {
    tally.attempt(units);
    match run {
        Ok(true) => {
            if let Some(r) = reference {
                tally.check(label, units, r.mismatch(store)?);
            }
        }
        Ok(false) => tally.fail(label, units, "the store is incomplete".into()),
        Err(e) => tally.fail(label, units, e.to_string()),
    }
    Ok(())
}

pub fn run(w: &Workload, seed: u64, dir: &Path, tally: &mut Tally) -> Res<Layers> {
    // `run.py` builds both binaries into the same directory.
    let dynring = std::env::current_exe()?.with_file_name("dynring");
    if !dynring.is_file() {
        return Err(format!(
            "supervise: the dynring binary is missing at {} (build it into the \
             same target directory with `cargo build --release --bin dynring`)",
            dynring.display()
        )
        .into());
    }
    let spec_path = dir.join("spec.json");
    write_spec(&w.spec(seed), &spec_path)?;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut t = Tracer::new();
    let root = t.enter("bench.traced_run");

    // spec
    let (planned, plan_s) = t.leaf("spec.plan", || setup(&spec_path));
    let (spec, plan) = planned?;
    let units = plan.units.len();
    m.insert("spec.plan_s".into(), plan_s);
    m.insert("spec.units".into(), units as f64);
    m.insert("spec.plan_us_per_unit".into(), plan_s * 1e6 / units as f64);

    // runner: the untraced reference run, then an events run
    let reference_store = ResultStore::new(dir.join("reference.jsonl"));
    let (r, runner_wall) = t.leaf("runner.run_campaign", || {
        run_campaign(&spec, &reference_store, &run_options(WORKERS))
    });
    judge(
        tally,
        "reference run",
        units,
        r.map(|o| o.is_complete()),
        &reference_store,
        None,
    )?;
    let reference = Reference::new(&reference_store)?;

    let events_store = ResultStore::new(dir.join("events.jsonl"));
    let ledger_path = dir.join("events.jsonl.events.jsonl");
    let opts = RunOptions {
        events: Some(ledger_path.clone()),
        ..run_options(WORKERS)
    };
    let (r, events_wall) = t.leaf("runner.run_campaign.events", || {
        run_campaign(&spec, &events_store, &opts)
    });
    let done = r.map(|o| o.is_complete());
    judge(
        tally,
        "events run",
        units,
        done,
        &events_store,
        Some(&reference),
    )?;
    let ledger = EventLedger::new(&ledger_path).load()?;
    let mut unit_us = 0.0;
    let mut waves_ms = Vec::new();
    let mut wave_units = Vec::new();
    for record in &ledger.events {
        match &record.event {
            Event::Unit { wall_us, .. } => unit_us += *wall_us as f64,
            Event::Wave { units, wall_us } => {
                waves_ms.push(*wall_us as f64 / 1e3);
                wave_units.push(*units);
            }
            _ => {}
        }
    }
    let waves = runner_waves(&plan, &wave_units, tally);
    let wave_q = quantiles(&waves_ms);
    let wave_us_sum: f64 = waves_ms.iter().sum::<f64>() * 1e3;
    m.insert("runner.wall_s".into(), runner_wall);
    m.insert("runner.waves".into(), waves_ms.len() as f64);
    m.insert("runner.wave.p50_ms".into(), wave_q.p50);
    m.insert("runner.wave.tail_ms".into(), wave_q.tail);
    m.insert("runner.wave.tail_pct".into(), wave_q.tail_pct);
    m.insert(
        "runner.worker_idle_ratio".into(),
        1.0 - unit_us / (WORKERS as f64 * wave_us_sum),
    );
    m.insert(
        "executor.worker_busy_ratio".into(),
        unit_us / (WORKERS as f64 * events_wall * 1e6),
    );
    m.insert("events.overhead_ratio".into(), events_wall / runner_wall);
    m.insert(
        "events.bytes_per_unit".into(),
        fs::metadata(&ledger_path)?.len() as f64 / units as f64,
    );

    // executor + store: every unit on one thread, its record through the
    // appender, one sync per runner wave's worth of records; first without
    // spans, as the base of the tracing overhead
    let plain_store = ResultStore::new(dir.join("plain.jsonl"));
    let (plain, _) = t.leaf("bench.plain_pass", || {
        plain_pass(&plan, &waves, &plain_store)
    });
    let plain_wall = *plain.as_ref().unwrap_or(&f64::NAN);
    let done = plain.map(|_| true);
    judge(
        tally,
        "plain pass",
        units,
        done,
        &plain_store,
        Some(&reference),
    )?;

    let pass_store = ResultStore::new(dir.join("traced.jsonl"));
    let pass = t.enter("bench.traced_pass");
    let mut appender = pass_store.appender(&pass_store.load()?)?;
    appender.append_header(header(&plan))?;
    let mut classes: Vec<Class> = CLASSES.iter().map(|_| Class::default()).collect();
    let (mut batch_replicas, mut batch_lanes) = (0usize, 0usize);
    let mut by_arity: BTreeMap<usize, usize> = BTreeMap::new();
    let mut append_s = Vec::with_capacity(units);
    let mut sync_ms = Vec::new();
    let mut pass_error = None;
    'waves: for &wave in &waves {
        for planned in wave {
            let (record, secs) = t.leaf("executor.execute_unit", || execute_unit(planned));
            let record = match record {
                Ok(record) => record,
                Err(e) => {
                    pass_error = Some(e);
                    break 'waves;
                }
            };
            let class = &mut classes[class_of(&record.unit)];
            class.walls_us.push(secs * 1e6);
            class.replica_rounds += replica_rounds(&record);
            if let Some(arity) = route_unit(&record.unit).arity() {
                let lanes = arity.lanes();
                batch_replicas += record.unit.replicas;
                batch_lanes += record.unit.replicas.div_ceil(lanes).max(1) * lanes;
                *by_arity.entry(lanes).or_default() += 1;
            }
            let (r, secs) = t.leaf("store.append_record", || appender.append_record(record));
            r?;
            append_s.push(secs);
        }
        let (r, secs) = t.leaf("store.sync", || appender.sync());
        r?;
        sync_ms.push(secs * 1e3);
    }
    if pass_error.is_none() {
        t.leaf("store.seal", || appender.seal()).0?;
        let (r, secs) = t.leaf("store.sync", || appender.sync());
        r?;
        sync_ms.push(secs * 1e3);
    }
    drop(appender);
    let pass_wall = t.exit(pass);
    let done = pass_error.map_or(Ok(true), Err);
    judge(
        tally,
        "traced pass",
        units,
        done,
        &pass_store,
        Some(&reference),
    )?;

    let all_us: Vec<f64> = classes
        .iter()
        .flat_map(|c| c.walls_us.iter().copied())
        .collect();
    let busy_s = all_us.iter().sum::<f64>() / 1e6;
    let unit_q = quantiles(&all_us);
    let rounds: u64 = classes.iter().map(|c| c.replica_rounds).sum();
    m.insert("executor.busy_s".into(), busy_s);
    m.insert("executor.unit_p50_us".into(), unit_q.p50);
    m.insert("executor.unit_tail_us".into(), unit_q.tail);
    m.insert("executor.unit_tail_pct".into(), unit_q.tail_pct);
    m.insert("executor.unit_samples".into(), unit_q.samples as f64);
    m.insert("executor.replica_rounds".into(), rounds as f64);
    m.insert(
        "executor.replica_rounds_per_s".into(),
        rounds as f64 / busy_s,
    );
    let mut layer_only = Vec::new();
    for (name, class) in CLASSES.iter().zip(&classes) {
        if class.walls_us.is_empty() {
            continue;
        }
        let class_s = class.walls_us.iter().sum::<f64>() / 1e6;
        let q = quantiles(&class.walls_us);
        let mut add = |metric: &str, value: f64, unit| {
            layer_only.push((format!("executor.{name}.{metric}"), value, unit));
        };
        add("units", class.walls_us.len() as f64, "count");
        add("replica_rounds", class.replica_rounds as f64, "count");
        add("busy_s", class_s, "s");
        add("busy_share", class_s / busy_s, "ratio");
        add("unit_p50_us", q.p50, "us");
        add("unit_tail_us", q.tail, "us");
        add("unit_tail_pct", q.tail_pct, "pct");
        add(
            "replica_rounds_per_s",
            class.replica_rounds as f64 / class_s,
            "1/s",
        );
    }
    if batch_lanes > 0 {
        layer_only.push((
            "executor.batch.lane_fill".into(),
            batch_replicas as f64 / batch_lanes as f64,
            "ratio",
        ));
    }
    for (arity, count) in by_arity {
        layer_only.push((
            format!("executor.batch.units_by_arity.{arity}"),
            count as f64,
            "count",
        ));
    }

    let append_busy: f64 = append_s.iter().sum();
    let sync_busy: f64 = sync_ms.iter().sum::<f64>() / 1e3;
    let sync_q = quantiles(&sync_ms);
    let store_bytes = fs::metadata(pass_store.path())?.len() as f64;
    m.insert("store.append.records".into(), append_s.len() as f64);
    m.insert("store.append.busy_s".into(), append_busy);
    m.insert(
        "store.append.us_per_record".into(),
        append_busy * 1e6 / append_s.len() as f64,
    );
    m.insert("store.bytes".into(), store_bytes);
    m.insert("store.bytes_per_unit".into(), store_bytes / units as f64);
    m.insert("store.sync.count".into(), sync_ms.len() as f64);
    m.insert("store.sync.busy_s".into(), sync_busy);
    m.insert("store.sync.p50_ms".into(), sync_q.p50);
    m.insert("store.sync.tail_ms".into(), sync_q.tail);
    m.insert("store.sync.tail_pct".into(), sync_q.tail_pct);
    m.insert(
        "store.run_wall_share".into(),
        (append_busy + sync_busy) / runner_wall,
    );
    m.insert("trace.overhead_ratio".into(), pass_wall / plain_wall);

    // read side: load, report, certify
    let store_mb = file_mb(reference_store.path())?;
    let (loaded, load_s) = t.leaf("store.load", || reference_store.load());
    tally.check("store load", units, loaded.err().map(|e| e.to_string()));
    m.insert("store.load_s".into(), load_s);
    m.insert("store.load_mb_per_s".into(), store_mb / load_s);
    let (report, report_s) = t.leaf("aggregate.load_report", || {
        load_report(&spec, &reference_store)
    });
    let complete = report.map(|r| r.is_complete() && r.completed_units == units);
    tally.check(
        "report",
        units,
        match complete {
            Ok(true) => None,
            Ok(false) => Some("incomplete report".into()),
            Err(e) => Some(e.to_string()),
        },
    );
    m.insert("aggregate.report_s".into(), report_s);
    let level1 = CertifyOptions {
        level: 1,
        ..CertifyOptions::default()
    };
    let (v1, l1_s) = t.leaf("certify.l1", || certify(&spec, &reference_store, &level1));
    let v1 = v1?;
    tally.check(
        "certify level 1",
        units,
        (!v1.pass).then(|| format!("{:?}", v1.failures)),
    );
    m.insert("certify.l1_s".into(), l1_s);
    m.insert("certify.l1_mb_per_s".into(), store_mb / l1_s);
    let level2 = CertifyOptions {
        level: 2,
        sample: L2_SAMPLE,
        seed: w.sample_seed(seed),
    };
    let (v2, l2_s) = t.leaf("certify.l2", || certify(&spec, &reference_store, &level2));
    let v2 = v2?;
    tally.check(
        "certify level 2",
        units,
        (!v2.pass).then(|| format!("{:?}", v2.failures)),
    );
    m.insert("certify.l2_s".into(), l2_s);
    m.insert("certify.l2_units".into(), v2.replayed as f64);
    m.insert(
        "certify.l2_us_per_unit".into(),
        l2_s * 1e6 / v2.replayed.max(1) as f64,
    );

    // merge: the plan run as two shards in-process, then folded
    let merge_span = t.enter("merge");
    let shards: Vec<ResultStore> = (0..SHARDS)
        .map(|i| ResultStore::new(dir.join(format!("shard-{i}.jsonl"))))
        .collect();
    let mut shard_error = None;
    for (index, store) in shards.iter().enumerate() {
        let sel = ShardSel::Balanced {
            index,
            count: SHARDS,
        };
        let opts = RunOptions {
            shard: Some(sel),
            ..run_options(WORKERS)
        };
        let (r, _) = t.leaf("merge.shard_run", || run_campaign(&spec, store, &opts));
        shard_error = shard_error.or(r.err());
    }
    let merged = ResultStore::new(dir.join("merged.jsonl"));
    let (r, merge_s) = t.leaf("merge.merge_stores", || {
        merge_stores(&spec, &shards, &merged)
    });
    t.exit(merge_span);
    let done = match shard_error {
        Some(e) => Err(e),
        None => r.map(|o| o.sealed),
    };
    judge(
        tally,
        "2-shard merge",
        units,
        done,
        &merged,
        Some(&reference),
    )?;
    m.insert("merge.s".into(), merge_s);
    m.insert("merge.mb_per_s".into(), file_mb(merged.path())? / merge_s);

    // supervise: `--procs 2` as the CLI runs it, children of `dynring`
    let sup = t.enter("supervise");
    let shard_dir = dir.join("procs2.shards");
    fs::create_dir_all(&shard_dir)?;
    let manifest_path = dir.join("procs2.manifest.json");
    let mut manifest = ShardManifest::build(&plan, SHARDS, &shard_dir);
    manifest.write(&manifest_path)?;
    let opts = SuperviseOptions {
        workers_per_proc: 1,
        ..SuperviseOptions::default()
    };
    let (r, _) = t.leaf("supervise.supervise", || {
        supervise(&dynring, &spec_path, &manifest_path, &mut manifest, &opts)
    });
    let procs_store = ResultStore::new(dir.join("procs2.jsonl"));
    let done = match r {
        Ok(outcome) if outcome.is_complete() => {
            let (r, _) = t.leaf("supervise.merge_manifest", || {
                merge_manifest(&spec, &manifest, &procs_store)
            });
            r.map(|o| o.sealed)
        }
        Ok(_) => Ok(false),
        Err(e) => Err(e),
    };
    let procs2_s = t.exit(sup);
    judge(
        tally,
        "supervised 2-process run",
        units,
        done,
        &procs_store,
        Some(&reference),
    )?;
    m.insert("supervise.procs2_s".into(), procs2_s);
    m.insert("supervise.overhead_ratio".into(), procs2_s / runner_wall);
    m.insert(
        "supervise.spawns".into(),
        manifest.entries.iter().map(|e| e.attempts).sum::<usize>() as f64,
    );

    t.exit(root);
    Ok(Layers {
        metrics: m,
        layer_only,
        self_times: t.self_times(),
        spans: t.to_jsonl(),
    })
}

impl Layers {
    /// The layer file: every metric, the class and arity figures and the
    /// self time of each span name, as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
        out.push_str("  \"metrics\": {\n");
        let mut rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        rows.extend(
            self.layer_only
                .iter()
                .map(|(k, v, _)| format!("    \"{k}\": {v}")),
        );
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  },\n  \"spans\": {\n");
        let rows: Vec<String> = self
            .self_times
            .iter()
            .map(|(name, (count, total, own))| {
                format!("    \"{name}\": {{\"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}")
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Shares the workload rationale predicts, for the human summary.
    pub fn shares(&self) -> String {
        let get = |k: &str| self.metrics.get(k).copied().unwrap_or(f64::NAN);
        format!(
            "  executor busy / worker time = {:.3}; store append+sync / run wall = {:.3}",
            get("executor.worker_busy_ratio"),
            get("store.run_wall_share")
        )
    }
}
