//! Ledger aggregation: the analysis behind `dynring metrics
//! show|diff|top` and the coarse rate/ETA of one-shot `campaign
//! status`.
//!
//! The events ledger ([`crate::events`]) records *observations*; this
//! module folds one or more loaded ledgers into a
//! per-(algorithm × dynamics × scheduler × route) breakdown —
//! unit counts, wall-time totals and log₂-bucket quantiles
//! (via [`dynring_obs::Histogram`]), replica-rounds throughput — plus
//! a retry/steal/quarantine fault summary, turning post-hoc campaign
//! forensics ("where did the last 3 hours go") into one command.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::events::{Event, EventRecord, LoadedLedger};
use dynring_obs::Histogram;

/// One (algorithm × dynamics × scheduler × route) cell of the
/// breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsGroup {
    /// Algorithm display name.
    pub algorithm: String,
    /// Dynamics display name.
    pub dynamics: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// `"batch"` or `"serial"`.
    pub route: String,
    /// Units executed.
    pub units: usize,
    /// Replicas executed.
    pub replicas: u64,
    /// Replicas that covered within the horizon.
    pub covered: u64,
    /// Replica-rounds advanced (cover times + full horizon per
    /// uncovered replica).
    pub replica_rounds: u64,
    /// Summed per-unit wall time in microseconds (worker-time, not
    /// elapsed time: parallel units add up).
    pub wall_us: u64,
    /// Median unit wall time (log₂-bucket estimate, microseconds).
    pub p50_us: u64,
    /// 90th-percentile unit wall time.
    pub p90_us: u64,
    /// 99th-percentile unit wall time.
    pub p99_us: u64,
    /// Maximum unit wall time (exact).
    pub max_us: u64,
    /// Units per worker-second (`units / (wall_us / 1e6)`).
    pub units_per_sec: f64,
    /// Replica-rounds per worker-second — the batch-vs-serial
    /// throughput comparison.
    pub replica_rounds_per_sec: f64,
}

/// Lifecycle / fault totals across the aggregated ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Worker spawns (initial and restarts).
    pub spawns: usize,
    /// Shard retries scheduled.
    pub retries: usize,
    /// Heartbeat stalls (workers killed for a frozen store mtime).
    pub stalls: usize,
    /// Work-stealing re-shards.
    pub steals: usize,
    /// Shards quarantined.
    pub quarantines: usize,
    /// Units lost to quarantine.
    pub lost_units: usize,
    /// Torn ledger tails truncated.
    pub torn_tails: usize,
    /// Merges performed.
    pub merges: usize,
}

/// Everything `dynring metrics show` reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// The events-ledger schema this summary was folded from
    /// ([`crate::events::EVENTS_SCHEMA`]).
    pub schema: String,
    /// Ledger files aggregated.
    pub ledgers: usize,
    /// Events read.
    pub events: usize,
    /// Corrupt interior lines skipped on load.
    pub skipped_lines: usize,
    /// Torn trailing bytes still on disk at load time.
    pub torn_bytes: u64,
    /// Unit events.
    pub units: usize,
    /// Wave events.
    pub waves: usize,
    /// Summed per-unit wall microseconds across every group.
    pub wall_us: u64,
    /// Wall-clock span (ms) between the first and last event.
    pub span_ms: u64,
    /// Lifecycle / fault totals.
    pub faults: FaultSummary,
    /// Per-(algorithm × dynamics × scheduler × route) breakdown,
    /// sorted by key.
    pub groups: Vec<MetricsGroup>,
}

struct GroupAcc {
    units: usize,
    replicas: u64,
    covered: u64,
    replica_rounds: u64,
    wall: Histogram,
}

/// Folds loaded ledgers into one summary.
pub fn summarize(ledgers: &[LoadedLedger]) -> LedgerSummary {
    let mut groups: BTreeMap<(String, String, String, String), GroupAcc> = BTreeMap::new();
    let mut faults = FaultSummary::default();
    let mut events = 0usize;
    let mut skipped_lines = 0usize;
    let mut torn_bytes = 0u64;
    let mut waves = 0usize;
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for ledger in ledgers {
        events += ledger.events.len();
        skipped_lines += ledger.skipped_lines;
        torn_bytes += ledger.torn_bytes;
        for record in &ledger.events {
            t_min = t_min.min(record.t_ms);
            t_max = t_max.max(record.t_ms);
            match &record.event {
                Event::Unit {
                    algorithm,
                    dynamics,
                    scheduler,
                    route,
                    replicas,
                    covered,
                    replica_rounds,
                    wall_us,
                    ..
                } => {
                    let key = (
                        algorithm.clone(),
                        dynamics.clone(),
                        scheduler.clone(),
                        route.clone(),
                    );
                    let acc = groups.entry(key).or_insert_with(|| GroupAcc {
                        units: 0,
                        replicas: 0,
                        covered: 0,
                        replica_rounds: 0,
                        wall: Histogram::new(),
                    });
                    acc.units += 1;
                    acc.replicas += *replicas as u64;
                    acc.covered += *covered as u64;
                    acc.replica_rounds += replica_rounds;
                    acc.wall.record(*wall_us);
                }
                Event::Wave { .. } => waves += 1,
                Event::Spawn { .. } => faults.spawns += 1,
                Event::Stall { .. } => faults.stalls += 1,
                Event::Retry { .. } => faults.retries += 1,
                Event::Steal { .. } => faults.steals += 1,
                Event::Quarantine { units, .. } => {
                    faults.quarantines += 1;
                    faults.lost_units += units;
                }
                Event::Merge { .. } => faults.merges += 1,
                Event::TornTail { .. } => faults.torn_tails += 1,
                Event::RunStart { .. } | Event::RunEnd { .. } => {}
            }
        }
    }
    let mut out_groups = Vec::with_capacity(groups.len());
    let mut units = 0usize;
    let mut wall_us = 0u64;
    for ((algorithm, dynamics, scheduler, route), acc) in groups {
        let wall = acc.wall.sum();
        units += acc.units;
        wall_us += wall;
        let secs = wall as f64 / 1e6;
        let (units_per_sec, replica_rounds_per_sec) = if secs > 0.0 {
            (acc.units as f64 / secs, acc.replica_rounds as f64 / secs)
        } else {
            (0.0, 0.0)
        };
        out_groups.push(MetricsGroup {
            algorithm,
            dynamics,
            scheduler,
            route,
            units: acc.units,
            replicas: acc.replicas,
            covered: acc.covered,
            replica_rounds: acc.replica_rounds,
            wall_us: wall,
            p50_us: acc.wall.quantile(0.50),
            p90_us: acc.wall.quantile(0.90),
            p99_us: acc.wall.quantile(0.99),
            max_us: acc.wall.max(),
            units_per_sec,
            replica_rounds_per_sec,
        });
    }
    LedgerSummary {
        schema: crate::events::EVENTS_SCHEMA.to_string(),
        ledgers: ledgers.len(),
        events,
        skipped_lines,
        torn_bytes,
        units,
        waves,
        wall_us,
        span_ms: t_max.saturating_sub(t_min),
        faults,
        groups: out_groups,
    }
}

/// Coarse execution rate from unit-event timestamps: units per
/// wall-clock second between the first and last [`Event::Unit`].
/// `None` with fewer than two unit events or a zero span — the
/// one-shot `campaign status` rate/ETA source when no live supervisor
/// is observing.
pub fn coarse_rate(events: &[EventRecord]) -> Option<f64> {
    let mut first = None;
    let mut last = 0u64;
    let mut count = 0usize;
    for record in events {
        if matches!(record.event, Event::Unit { .. }) {
            first.get_or_insert(record.t_ms);
            last = last.max(record.t_ms);
            count += 1;
        }
    }
    let first = first?;
    if count < 2 || last <= first {
        return None;
    }
    Some((count - 1) as f64 * 1000.0 / (last - first) as f64)
}

/// Human duration from microseconds: `850us`, `12.5ms`, `3.2s`.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Human rate: `6.3M/s`, `98.3/s`.
fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.1}/s")
    }
}

fn group_label(g: &MetricsGroup) -> String {
    format!("{} × {} × {} × {}", g.algorithm, g.dynamics, g.scheduler, g.route)
}

fn render_group_table(groups: &[&MetricsGroup]) -> String {
    let mut out = String::new();
    let width = groups.iter().map(|g| group_label(g).len()).max().unwrap_or(5).max(5);
    out.push_str(&format!(
        "{:<width$} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}\n",
        "GROUP", "UNITS", "WALL", "P50", "P99", "MAX", "UNITS/S", "RROUNDS/S"
    ));
    for g in groups {
        out.push_str(&format!(
            "{:<width$} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}\n",
            group_label(g),
            g.units,
            fmt_us(g.wall_us),
            fmt_us(g.p50_us),
            fmt_us(g.p99_us),
            fmt_us(g.max_us),
            fmt_rate(g.units_per_sec),
            fmt_rate(g.replica_rounds_per_sec),
        ));
    }
    out
}

fn render_fault_line(s: &LedgerSummary) -> String {
    let f = &s.faults;
    format!(
        "spawns={} retries={} stalls={} steals={} quarantines={} lost-units={} \
         merges={} torn-tails={} skipped-lines={} torn-bytes={}\n",
        f.spawns,
        f.retries,
        f.stalls,
        f.steals,
        f.quarantines,
        f.lost_units,
        f.merges,
        f.torn_tails,
        s.skipped_lines,
        s.torn_bytes
    )
}

/// Renders the `metrics show` view: totals, the per-group breakdown,
/// and the fault summary.
pub fn render_summary(s: &LedgerSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} ledger(s), {} events, {} units in {} waves, {} worker-time, {:.1}s span\n",
        s.ledgers,
        s.events,
        s.units,
        s.waves,
        fmt_us(s.wall_us),
        s.span_ms as f64 / 1e3
    ));
    let refs: Vec<&MetricsGroup> = s.groups.iter().collect();
    if !refs.is_empty() {
        out.push_str(&render_group_table(&refs));
    }
    out.push_str(&render_fault_line(s));
    out
}

/// Renders the `metrics top` view: groups by descending wall time,
/// truncated to `limit` — "where did the time go".
pub fn render_top(s: &LedgerSummary, limit: usize) -> String {
    let mut refs: Vec<&MetricsGroup> = s.groups.iter().collect();
    refs.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then_with(|| group_label(a).cmp(&group_label(b))));
    refs.truncate(limit.max(1));
    render_group_table(&refs)
}

/// Renders the `metrics diff` view: per-group wall/throughput of `b`
/// against baseline `a` (groups matched by key; missing sides shown
/// as `-`).
pub fn render_diff(a: &LedgerSummary, b: &LedgerSummary) -> String {
    let mut keys: Vec<String> = Vec::new();
    let index = |s: &LedgerSummary| -> BTreeMap<String, MetricsGroup> {
        s.groups.iter().map(|g| (group_label(g), g.clone())).collect()
    };
    let ia = index(a);
    let ib = index(b);
    for k in ia.keys().chain(ib.keys()) {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    keys.sort();
    let width = keys.iter().map(String::len).max().unwrap_or(5).max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$} {:>13} {:>13} {:>9} {:>13}\n",
        "GROUP", "WALL A", "WALL B", "ΔWALL%", "UNITS/S A→B"
    ));
    for k in &keys {
        let (ga, gb) = (ia.get(k), ib.get(k));
        let wall = |g: Option<&MetricsGroup>| g.map_or("-".to_string(), |g| fmt_us(g.wall_us));
        let delta = match (ga, gb) {
            (Some(ga), Some(gb)) if ga.wall_us > 0 => {
                let pct = (gb.wall_us as f64 - ga.wall_us as f64) * 100.0 / ga.wall_us as f64;
                format!("{pct:+.1}%")
            }
            _ => "-".into(),
        };
        let rates = format!(
            "{}→{}",
            ga.map_or("-".to_string(), |g| fmt_rate(g.units_per_sec)),
            gb.map_or("-".to_string(), |g| fmt_rate(g.units_per_sec))
        );
        out.push_str(&format!(
            "{:<width$} {:>13} {:>13} {:>9} {:>13}\n",
            k,
            wall(ga),
            wall(gb),
            delta,
            rates
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(route: &str, wall_us: u64, t_ms: u64) -> EventRecord {
        EventRecord {
            t_ms,
            event: Event::Unit {
                hash: "h".into(),
                index: 0,
                algorithm: "PEF_3+".into(),
                dynamics: "bernoulli(p=0.5)".into(),
                scheduler: "sync".into(),
                route: route.into(),
                arity: if route == "batch" { 64 } else { 0 },
                replicas: 8,
                covered: 6,
                replica_rounds: 1000,
                wall_us,
                fill: (route == "batch").then(|| "full".to_string()),
            },
        }
    }

    fn ledger(events: Vec<EventRecord>) -> LoadedLedger {
        LoadedLedger { events, torn_bytes: 0, skipped_lines: 0 }
    }

    #[test]
    fn summarize_groups_by_route_and_computes_throughput() {
        let l = ledger(vec![
            unit("batch", 1_000, 0),
            unit("batch", 3_000, 500),
            unit("serial", 10_000, 1000),
            EventRecord { t_ms: 1100, event: Event::Retry { shard: 0, attempt: 1, reason: "stalled".into(), backoff_ms: 50 } },
            EventRecord { t_ms: 1200, event: Event::Stall { shard: 0 } },
        ]);
        let s = summarize(&[l]);
        assert_eq!(s.units, 3);
        assert_eq!(s.groups.len(), 2);
        assert_eq!(s.faults.retries, 1);
        assert_eq!(s.faults.stalls, 1);
        assert_eq!(s.span_ms, 1200);
        let batch = s.groups.iter().find(|g| g.route == "batch").expect("batch group");
        assert_eq!(batch.units, 2);
        assert_eq!(batch.wall_us, 4_000);
        assert_eq!(batch.replica_rounds, 2000);
        assert!((batch.units_per_sec - 500.0).abs() < 1e-9, "{}", batch.units_per_sec);
        assert!((batch.replica_rounds_per_sec - 500_000.0).abs() < 1e-6);
        assert_eq!(batch.max_us, 3_000);
        let text = render_summary(&s);
        assert!(text.contains("batch"), "{text}");
        assert!(text.contains("retries=1"), "{text}");
        let top = render_top(&s, 1);
        assert!(top.contains("serial") && !top.contains("batch"), "{top}");
    }

    #[test]
    fn coarse_rate_needs_two_units_and_a_span() {
        assert_eq!(coarse_rate(&[]), None);
        assert_eq!(coarse_rate(&[unit("batch", 1, 100)]), None);
        assert_eq!(coarse_rate(&[unit("batch", 1, 100), unit("batch", 1, 100)]), None);
        let r = coarse_rate(&[
            unit("batch", 1, 0),
            unit("batch", 1, 500),
            unit("batch", 1, 1000),
        ])
        .expect("rate");
        assert!((r - 2.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn diff_reports_missing_sides_and_percent() {
        let a = summarize(&[ledger(vec![unit("batch", 1_000, 0), unit("batch", 1_000, 1)])]);
        let b = summarize(&[ledger(vec![unit("batch", 3_000, 0), unit("serial", 5, 1)])]);
        let text = render_diff(&a, &b);
        assert!(text.contains("+50.0%"), "{text}");
        assert!(text.contains('-'), "{text}");
    }
}
