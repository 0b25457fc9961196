//! Command-line interface: `dynring table1 | scenario | capture | replay |
//! sweep-p | coverage | montecarlo | campaign | metrics | certify |
//! bench-report`.
//!
//! Hand-rolled argument parsing (no CLI dependency): the grammar is small
//! and fixed. Each command declares its flags and its positional words
//! once, in one table, and every refusal of a malformed command line (an
//! unknown flag, a stray word, a missing flag, a flag without its value,
//! without the flag it needs or beside what it clashes with, a zero count)
//! derives from that declaration.
//! See `dynring --help` or [`USAGE`].

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use dynring_analysis::grid::{default_seeds, evaluate_point};
use dynring_analysis::parallel::available_workers;
use dynring_analysis::{
    run_on_schedule, run_replicas, run_scenario, run_scenario_capturing, run_table1,
    AlgorithmChoice, DynamicsChoice, MonteCarloConfig, PlacementSpec, Scenario, ScenarioReport,
    SuccessCriteria, Table1Options,
};
use dynring_campaign::{
    CampaignError, CampaignSpec, Event, EventLedger, EventSink, LedgerSummary, LoadedLedger,
    MergeOutcome, ResultStore, ShardManifest, SuperviseOptions,
};
use dynring_graph::ScriptedSchedule;

/// The usage string printed by `--help`.
pub const USAGE: &str = "\
dynring — perpetual exploration of highly dynamic rings (ICDCS 2017 repro)

USAGE:
    dynring table1   [--horizon N] [--min-covers C] [--seed S]
    dynring scenario --n N --k K [--algorithm A] [--dynamics D]
                     [--horizon H] [--seed S] [--min-covers C] [--p P]
    dynring capture  --n N --k K --out FILE [scenario flags]
    dynring replay   --file FILE
    dynring sweep-p  [--n N] [--k K] [--horizon H] [--seeds S]
    dynring coverage [--n N] [--k K] [--horizon H] [--seed S]
    dynring montecarlo [--n N] [--k K] [--p P] [--replicas R]
                       [--horizon H] [--seed S] [--algorithm A] [--out FILE]
    dynring campaign run    --spec FILE --store FILE [--workers W] [--max-units N]
                            [--metrics-out FILE] [--procs P [supervisor flags]]
    dynring campaign resume --spec FILE --store FILE [same flags as run]
    dynring campaign report --spec FILE --store FILE [--out FILE]
    dynring campaign shard  --spec FILE --shards N [--index I] [--dir DIR]
                            [--manifest FILE]
    dynring campaign work   --spec FILE --manifest FILE --index I
                            [--workers W] [--max-units N] [--metrics-out FILE]
    dynring campaign merge  --spec FILE --store OUT (--manifest FILE | STORE…)
                            [--metrics-out FILE]
    dynring campaign status [--manifest FILE] [STORE…] [--json]
    dynring metrics show LEDGER… [--json]
    dynring metrics top  LEDGER… [--limit N] [--json]
    dynring metrics diff LEDGER_A LEDGER_B [--json]
    dynring certify STORE --spec FILE [--level 1|2] [--sample N] [--seed S]
                    [--out FILE]
    dynring bench-report [--out FILE] [--quick] [--check SNAPSHOT]
    dynring --help

SUPERVISOR FLAGS (campaign run/resume; each is refused without --procs,
and --max-units is refused with it):
    [--max-retries R] [--backoff-ms B] [--heartbeat-timeout-ms T] [--no-steal]
    [--steal-after-ms T] [--progress] [--json] [--manifest FILE] [--dir DIR]

Counts must be at least 1: --horizon, --seeds, --sample, --shards,
--workers, --procs, and the --n and --k of scenario and capture.

`capture` runs a scenario, records the exact snapshot sequence the
(possibly adaptive) dynamics played, and writes a JSON artifact. `replay`
re-runs the artifact's algorithm on the recorded schedule and verifies the
stored report bit for bit. `coverage` runs the full algorithm portfolio
against the benign dynamics suite in parallel. `montecarlo` runs R
independent Bernoulli replicas of one (n, k, p) point on the 64-lane
lockstep batch engine (batches fan out over all cores) and prints the
cover-time histogram and survival rate; --out writes the summary JSON.
`campaign` drives a declarative experiment campaign (see
docs/CAMPAIGNS.md for the JSON spec format): `run` plans the spec's grid
into content-hashed work units, shards them over all cores (batch-eligible
units ride the 64-lane lockstep engine) and appends one JSONL record per
unit to the store; `resume` continues an interrupted store, skipping
completed units, and reproduces the uninterrupted store byte for byte;
`report` folds the store into grouped survival / cover-time summaries
(a store covering only part of the plan is labelled PARTIAL, a mid-plan
slice is flagged as an unmerged shard store, and a store with no header
is refused).
With --procs, `run`/`resume` become a *supervisor*: the plan is split
into P disjoint shard ranges (manifest at <store>.manifest.json, shard
stores under <store>.shards/), each shard runs as an independent
`campaign work` child process, dead or hung workers (heartbeat = shard
store mtime) are restarted with bounded exponential backoff, and on
success the shards are merged into --store — byte-identical to a
single-process run. A shard that exhausts --max-retries is not given up
on: its remaining range is *stolen* — the shard is retired at the
plan-order prefix its store holds and the rest is re-sharded onto fresh
child sub-shards (recorded as manifest generations, fsynced before any
child spawns, announced by a `SHARD-STEAL` line) — so an arbitrarily
killed supervisor resumes the re-sharded topology exactly. Only a shard
that can no longer shrink (a single poisoned unit, typically) is
quarantined with a `SHARD-FAIL … range=X..Y …` line naming exactly the
lost units. --no-steal restores the quarantine-on-exhaustion behaviour;
--steal-after-ms T additionally steals from a straggler still running T
ms after its latest spawn once every other shard has settled.
Supervisor exit codes are distinct: 0 = complete, 3 =
quarantined-but-partial (the other shards finished; resume to
continue), 1 = spawn/config failure, 2 = usage error. `shard` writes
the manifest (with --index I it also prints that shard's unit range);
`work` runs one shard by manifest index; `merge` folds shard stores —
generation splits included — into one canonical store, refusing
overlapping/foreign/out-of-range/gapped shards with `MERGE-CONFLICT`
diagnostics and sealing only when every planned unit is present;
`status` prints per-store progress (one table row per store, or JSON
with --json; rows carry torn-tail bytes, and with --manifest FILE they
come from the shard manifest with per-shard ranges and attempt counts).
With --metrics-out FILE, `run`/`resume`/`work`/`merge` additionally
record *out-of-band* telemetry (see docs/OBSERVABILITY.md): per-unit
wall time, route and arity, wave timing, store/merge I/O counters and
supervisor lifecycle events land in an append-only events ledger at
<store>.events.jsonl, and an aggregate metrics snapshot is written to
FILE on exit (Prometheus text format when FILE ends in .prom, pretty
JSON otherwise). Telemetry never changes store bytes: a telemetered
run is byte-identical to a plain one and certifies unchanged. `metrics
show` aggregates one or more ledgers into per-(algorithm × dynamics ×
scheduler × route) unit counts, wall-time quantiles (p50/p90/p99) and
throughput plus a retry/steal/quarantine fault summary; `top` ranks
groups by total wall time; `diff` compares two ledgers group by group.
`certify` verifies a completed store as a replay bundle (see
docs/CERTIFY.md): level 1 re-validates the header, every record's hash
chain, plan membership, ordering and the seal without executing anything;
level 2 additionally re-executes a deterministic sample of units
(--sample, --seed; both engine routes covered) and compares the stored
measurements field by field, printing one `CERTIFY-FAIL` line per
divergence and exiting nonzero; --out writes the JSON verdict.
`bench-report` measures the round engine (quiet vs recording path), the
batch engine vs 64 serial replica runs, the Bernoulli p-sweep and the
parallel sweep layer and writes a BENCH_engine.json performance snapshot;
with --check it additionally compares Bernoulli, batch and static-
flatness throughput against a committed snapshot and fails on a
regression of more than 20% (the CI bench-smoke gate).

ALGORITHMS (for --algorithm):
    pef3+ (default) | pef2 | pef1 | keep | bounce | turn-on-tower |
    alternate | random

DYNAMICS (for --dynamics):
    static | bernoulli (default) | markov | missing-edge | sweep |
    t-interval | blocker | confiner1 | confiner2 | ssync
";

/// A parsed command: one variant per command and per `campaign` and
/// `metrics` verb, holding exactly the flags that verb reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Reproduce Table 1.
    Table1(Table1Options),
    /// Run one scenario and print its report.
    Scenario(Scenario),
    /// Sweep the Bernoulli presence probability.
    SweepPresence {
        /// Ring size.
        n: usize,
        /// Robot count.
        k: usize,
        /// Rounds per run.
        horizon: u64,
        /// Seeds per point.
        seeds: usize,
    },
    /// Run a scenario and write a replayable JSON artifact.
    Capture {
        /// The scenario to run.
        scenario: Scenario,
        /// Output path.
        out: String,
    },
    /// Verify a previously captured artifact.
    Replay {
        /// Artifact path.
        file: String,
    },
    /// Run the portfolio × benign-suite coverage matrix in parallel.
    Coverage {
        /// Ring size.
        n: usize,
        /// Robot count.
        k: usize,
        /// Rounds per run.
        horizon: u64,
        /// Base seed.
        seed: u64,
    },
    /// Run a Monte Carlo replica sweep on the batch engine.
    MonteCarlo {
        /// The sweep configuration.
        config: MonteCarloConfig,
        /// Optional summary JSON output path.
        out: Option<String>,
    },
    /// `campaign run` or `campaign resume`.
    CampaignRun(CampaignRun),
    /// `campaign report`: fold a store into a summary report.
    CampaignReport {
        /// Path of the JSON campaign spec.
        spec: String,
        /// Path of the JSONL result store.
        store: String,
        /// Optional report JSON output path.
        out: Option<String>,
    },
    /// `campaign shard`: partition the plan into disjoint shard ranges and
    /// write the manifest.
    CampaignShard {
        /// Path of the JSON campaign spec.
        spec: String,
        /// Shard count.
        shards: usize,
        /// A shard whose unit range to print.
        index: Option<usize>,
        /// Shard store directory (default: `.`).
        dir: Option<String>,
        /// Manifest path (default: `<campaign name>.manifest.json`).
        manifest: Option<String>,
    },
    /// `campaign work`: run one shard, by manifest index, as an
    /// independent process.
    CampaignWork {
        /// Path of the JSON campaign spec.
        spec: String,
        /// Shard manifest path.
        manifest: String,
        /// Index of the manifest entry to run.
        index: usize,
        /// Worker threads (default: one per core).
        workers: Option<usize>,
        /// Stop after this many newly executed units.
        max_units: Option<usize>,
        /// Telemetry snapshot path (see [`CampaignRun::metrics_out`]).
        metrics_out: Option<String>,
    },
    /// `campaign merge`: fold shard stores into one canonical store.
    CampaignMerge {
        /// Path of the JSON campaign spec.
        spec: String,
        /// Path of the canonical output store.
        store: String,
        /// Where the shard stores come from.
        shards: MergeFrom,
        /// Telemetry snapshot path (see [`CampaignRun::metrics_out`]).
        metrics_out: Option<String>,
    },
    /// `campaign status`: print per-store progress (completed/total,
    /// torn/sealed state).
    CampaignStatus {
        /// A shard manifest whose entries become rows.
        manifest: Option<String>,
        /// Store paths, one row each after the manifest's.
        stores: Vec<String>,
        /// Emit JSON instead of the table.
        json: bool,
    },
    /// `metrics show`: aggregate ledgers into per-group time and
    /// throughput plus a fault summary.
    MetricsShow {
        /// Events ledger paths (`<store>.events.jsonl`), at least one.
        ledgers: Vec<String>,
        /// Emit the summary as JSON instead of the table.
        json: bool,
    },
    /// `metrics top`: rank groups by total wall time, slowest first.
    MetricsTop {
        /// Events ledger paths, at least one.
        ledgers: Vec<String>,
        /// Emit the summary as JSON instead of the table.
        json: bool,
        /// Row cap.
        limit: usize,
    },
    /// `metrics diff`: compare two ledgers group by group (A → B wall time
    /// and rates).
    MetricsDiff {
        /// Ledgers A and B.
        ledgers: [String; 2],
        /// Emit both summaries as JSON instead of the comparison table.
        json: bool,
    },
    /// Certify a campaign store as a replay bundle.
    Certify {
        /// Path of the JSONL result store.
        store: String,
        /// Path of the JSON campaign spec.
        spec: String,
        /// Certification level (1 = structural, 2 = sampled re-execution).
        level: u8,
        /// Units to re-execute at level 2.
        sample: usize,
        /// Seed of the level-2 sample.
        seed: u64,
        /// Optional verdict JSON output path.
        out: Option<String>,
    },
    /// Measure the engine and sweep layer, writing a JSON snapshot.
    BenchReport {
        /// Output path for the snapshot.
        out: String,
        /// Shrink workloads for a CI smoke run.
        quick: bool,
        /// Committed snapshot to compare Bernoulli quiet throughput
        /// against; a regression beyond the tolerance fails the command.
        check: Option<String>,
    },
}

/// `campaign run` (a fresh campaign) or `campaign resume` (continue an
/// interrupted store, skipping completed units).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// `run`, which refuses an existing store, rather than `resume`.
    pub fresh: bool,
    /// Path of the JSON campaign spec.
    pub spec: String,
    /// Path of the JSONL result store (the canonical store when
    /// supervised).
    pub store: String,
    /// Worker threads (default: one per core; per child process when
    /// supervised).
    pub workers: Option<usize>,
    /// Stop after this many newly executed units.
    pub max_units: Option<usize>,
    /// Out-of-band telemetry: write a metrics snapshot to this path on
    /// completion (Prometheus text when it ends in `.prom`, pretty JSON
    /// otherwise) and append events to `<store>.events.jsonl`. Never
    /// changes store bytes.
    pub metrics_out: Option<String>,
    /// The supervisor's settings, present exactly when `--procs` is given.
    pub supervisor: Option<Supervisor>,
}

/// `campaign run|resume --procs P`: shard the plan over child processes,
/// restart the dead, merge at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervisor {
    /// Shard processes.
    pub procs: usize,
    /// Shard manifest path (default: `<store>.manifest.json`).
    pub manifest: Option<String>,
    /// Shard store directory (default: `<store>.shards/`).
    pub dir: Option<String>,
    /// The retry, steal and progress flags over the library defaults;
    /// the run sets `workers_per_proc` and `events`.
    pub options: SuperviseOptions,
}

/// Where `campaign merge` takes its shard stores from.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeFrom {
    /// Every entry of this shard manifest.
    Manifest(String),
    /// These shard store paths (given as positional words; refused
    /// beside `--manifest`).
    Stores(Vec<String>),
}

/// The JSON artifact written by `capture` and verified by `replay`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The exact snapshot sequence the dynamics played.
    pub schedule: ScriptedSchedule,
    /// The report the original run produced.
    pub report: ScenarioReport,
}

/// A CLI parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

/// A supervised campaign that finished with quarantined shards: every
/// other shard completed and merged, only the quarantined ranges are
/// missing. `main` maps this to its own exit code
/// ([`EXIT_PARTIAL_CAMPAIGN`]) so scripts can tell "resume me" from a
/// spawn/config failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialCampaign(pub String);

impl fmt::Display for PartialCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for PartialCampaign {}

/// Exit code for [`PartialCampaign`]: quarantined-but-partial. Distinct
/// from 1 (runtime/spawn/config failure) and 2 (usage error).
pub const EXIT_PARTIAL_CAMPAIGN: u8 = 3;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// What follows a flag's name on the command line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A value: `--name VALUE`.
    Value,
    /// A value that must be at least 1: `--name N`.
    Count,
    /// Nothing: `--name` alone.
    Switch,
}

/// What a flag is refused beside.
#[derive(Clone, Copy)]
enum Clash {
    /// Another flag, by name.
    Flag(&'static str),
    /// Any positional word; the text names what the words are.
    Words(&'static str),
}

/// One flag a command reads.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// For a required flag, the refusal when it is missing.
    missing: Option<&'static str>,
    /// A flag this one is only valid with.
    needs: Option<&'static str>,
    /// What this flag is not valid with.
    clash: Option<Clash>,
}

const fn value(name: &'static str) -> Flag {
    Flag { name, kind: Kind::Value, missing: None, needs: None, clash: None }
}

const fn count(name: &'static str) -> Flag {
    Flag { kind: Kind::Count, ..value(name) }
}

const fn switch(name: &'static str) -> Flag {
    Flag { kind: Kind::Switch, ..value(name) }
}

impl Flag {
    /// The flag must be given; without it the command is refused with
    /// `missing`.
    const fn required(self, missing: &'static str) -> Flag {
        Flag { missing: Some(missing), ..self }
    }

    /// The flag is refused unless `--other` is given too.
    const fn only_with(self, other: &'static str) -> Flag {
        Flag { needs: Some(other), ..self }
    }

    /// The flag is refused when `--other` is given too.
    const fn not_with(self, other: &'static str) -> Flag {
        Flag { clash: Some(Clash::Flag(other)), ..self }
    }

    /// The flag is refused beside positional words, which `words` names.
    const fn not_with_words(self, words: &'static str) -> Flag {
        Flag { clash: Some(Clash::Words(words)), ..self }
    }
}

/// One command's grammar, declared once: its name (`campaign run` for a
/// verb), how many positional words it takes, every flag it reads, and how
/// a command line that passed the checks this declaration implies becomes
/// a [`Command`].
struct Syntax {
    name: &'static str,
    /// The most positional words the command takes; a word past them is
    /// refused by name. A builder that needs words refuses too few itself.
    words: usize,
    flags: &'static [Flag],
    build: fn(&Args) -> Result<Command, CliError>,
}

const fn cmd(
    name: &'static str,
    words: usize,
    flags: &'static [Flag],
    build: fn(&Args) -> Result<Command, CliError>,
) -> Syntax {
    Syntax { name, words, flags, build }
}

/// Any number of positional words.
const ANY: usize = usize::MAX;

const SPEC: Flag = value("spec").required("campaign requires --spec FILE");
const STORE: Flag = value("store").required("campaign requires --store FILE");

/// `campaign run` and `campaign resume`; the supervisor's flags need
/// `--procs`, and the supervisor has no unit budget.
const RUN_FLAGS: &[Flag] = &[
    SPEC, STORE, count("workers"), value("max-units").not_with("procs"), value("metrics-out"),
    count("procs"),
    value("max-retries").only_with("procs"), value("backoff-ms").only_with("procs"),
    value("heartbeat-timeout-ms").only_with("procs"), switch("no-steal").only_with("procs"),
    value("steal-after-ms").only_with("procs"), switch("progress").only_with("procs"),
    switch("json").only_with("procs"), value("manifest").only_with("procs"),
    value("dir").only_with("procs"),
];

const SCENARIO_FLAGS: &[Flag] = &[
    count("n").required("scenario requires --n and --k"),
    count("k").required("scenario requires --n and --k"),
    value("algorithm"), value("dynamics"), count("horizon"), value("seed"), value("min-covers"),
    value("p"),
];

/// `scenario`'s flags plus `--out`.
const CAPTURE_FLAGS: &[Flag] = &[
    value("out").required("capture requires --out FILE"),
    count("n").required("capture requires --n and --k"),
    count("k").required("capture requires --n and --k"),
    value("algorithm"), value("dynamics"), count("horizon"), value("seed"), value("min-covers"),
    value("p"),
];

const MONTECARLO_FLAGS: &[Flag] = &[
    value("n"), value("k"), value("p"), value("replicas"), count("horizon"), value("seed"),
    value("algorithm"), value("out"),
];

const SHARD_FLAGS: &[Flag] = &[
    SPEC, count("shards").required("campaign shard requires --shards N"), value("index"),
    value("dir"), value("manifest"),
];

const WORK_FLAGS: &[Flag] = &[
    SPEC, value("manifest").required("campaign work requires --manifest FILE"),
    value("index").required("campaign work requires --index I"), count("workers"),
    value("max-units"), value("metrics-out"),
];

/// `campaign merge` folds either a manifest's shards or the STORE… words.
const MERGE_FLAGS: &[Flag] = &[
    SPEC, STORE, value("manifest").not_with_words("shard STORE… paths"), value("metrics-out"),
];

const CERTIFY_FLAGS: &[Flag] = &[
    value("spec").required("certify requires --spec FILE"), value("level"), count("sample"),
    value("seed"), value("out"),
];

/// Every command's grammar. A command with verbs lists them in the order
/// its refusals name them.
static COMMANDS: &[Syntax] = &[
    cmd("table1", 0, &[count("horizon"), value("min-covers"), value("seed")], |a| {
        let d = Table1Options::default();
        Ok(Command::Table1(Table1Options {
            horizon: a.or("horizon", d.horizon)?,
            min_covers: a.or("min-covers", d.min_covers)?,
            seed: a.or("seed", d.seed)?,
            ..d
        }))
    }),
    cmd("scenario", 0, SCENARIO_FLAGS, |a| Ok(Command::Scenario(parse_scenario(a)?))),
    cmd("capture", 0, CAPTURE_FLAGS, |a| {
        let out = a.need("out")?;
        Ok(Command::Capture { scenario: parse_scenario(a)?, out })
    }),
    cmd("replay", 0, &[value("file").required("replay requires --file FILE")], |a| {
        Ok(Command::Replay { file: a.need("file")? })
    }),
    cmd("sweep-p", 0, &[value("n"), value("k"), count("horizon"), count("seeds")], |a| {
        Ok(Command::SweepPresence {
            n: a.or("n", 10)?,
            k: a.or("k", 3)?,
            horizon: a.or("horizon", 1500)?,
            seeds: a.or("seeds", 5)?,
        })
    }),
    cmd("coverage", 0, &[value("n"), value("k"), count("horizon"), value("seed")], |a| {
        Ok(Command::Coverage {
            n: a.or("n", 8)?,
            k: a.or("k", 3)?,
            horizon: a.or("horizon", 800)?,
            seed: a.or("seed", 0xC0FFEE)?,
        })
    }),
    cmd("montecarlo", 0, MONTECARLO_FLAGS, |a| {
        let config = MonteCarloConfig {
            ring_size: a.or("n", 16)?,
            robots: a.or("k", 3)?,
            presence_probability: a.or("p", 0.5)?,
            horizon: a.or("horizon", 2000)?,
            replicas: a.or("replicas", 256)?,
            seed: a.or("seed", 0xDECADE)?,
            algorithm: parse_algorithm(a.value("algorithm").unwrap_or("pef3+"))?,
        };
        Ok(Command::MonteCarlo { config, out: a.get("out")? })
    }),
    cmd("campaign run", 0, RUN_FLAGS, |a| parse_campaign_run(a, true)),
    cmd("campaign resume", 0, RUN_FLAGS, |a| parse_campaign_run(a, false)),
    cmd("campaign report", 0, &[SPEC, STORE, value("out")], |a| {
        let (spec, store) = (a.need("spec")?, a.need("store")?);
        Ok(Command::CampaignReport { spec, store, out: a.get("out")? })
    }),
    cmd("campaign shard", 0, SHARD_FLAGS, |a| {
        Ok(Command::CampaignShard {
            spec: a.need("spec")?,
            shards: a.need("shards")?,
            index: a.get("index")?,
            dir: a.get("dir")?,
            manifest: a.get("manifest")?,
        })
    }),
    cmd("campaign work", 0, WORK_FLAGS, |a| {
        Ok(Command::CampaignWork {
            spec: a.need("spec")?,
            manifest: a.need("manifest")?,
            index: a.need("index")?,
            workers: a.get("workers")?,
            max_units: a.get("max-units")?,
            metrics_out: a.get("metrics-out")?,
        })
    }),
    cmd("campaign merge", ANY, MERGE_FLAGS, |a| {
        let (spec, store) = (a.need("spec")?, a.need("store")?);
        let shards = match a.get("manifest")? {
            Some(manifest) => MergeFrom::Manifest(manifest),
            None if !a.words.is_empty() => MergeFrom::Stores(a.words()),
            None => return Err(err("campaign merge needs --manifest FILE or shard STORE… paths")),
        };
        Ok(Command::CampaignMerge { spec, store, shards, metrics_out: a.get("metrics-out")? })
    }),
    cmd("campaign status", ANY, &[value("manifest"), switch("json")], |a| {
        let manifest = a.get("manifest")?;
        if manifest.is_none() && a.words.is_empty() {
            return Err(err("campaign status requires at least one STORE path or --manifest FILE"));
        }
        Ok(Command::CampaignStatus { manifest, stores: a.words(), json: a.has("json") })
    }),
    cmd("metrics show", ANY, &[switch("json")], |a| {
        Ok(Command::MetricsShow { ledgers: parse_ledgers(a)?, json: a.has("json") })
    }),
    cmd("metrics diff", ANY, &[switch("json")], |a| match a.words[..] {
        [x, y] => Ok(Command::MetricsDiff { ledgers: [x.into(), y.into()], json: a.has("json") }),
        _ => Err(err("metrics diff needs exactly two ledger paths: LEDGER_A LEDGER_B")),
    }),
    cmd("metrics top", ANY, &[switch("json"), value("limit")], |a| {
        let ledgers = parse_ledgers(a)?;
        Ok(Command::MetricsTop { ledgers, json: a.has("json"), limit: a.or("limit", 10)? })
    }),
    cmd("certify", 1, CERTIFY_FLAGS, parse_certify),
    cmd("bench-report", 0, &[value("out"), switch("quick"), value("check")], |a| {
        Ok(Command::BenchReport {
            out: a.value("out").unwrap_or("BENCH_engine.json").to_string(),
            quick: a.has("quick"),
            check: a.get("check")?,
        })
    }),
];

/// A command line split by its [`Syntax`]: the positional words, and each
/// flag given with its value (none for a switch), in order.
struct Args<'a> {
    syntax: &'static Syntax,
    words: Vec<&'a str>,
    flags: Vec<(&'static Flag, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `tokens` by `syntax`, refusing an unknown flag, a value flag
    /// without its value, a zero count, a stray word, and a flag given
    /// without the flag it needs or beside what it clashes with.
    fn split(syntax: &'static Syntax, tokens: &'a [String]) -> Result<Self, CliError> {
        let mut args = Args { syntax, words: Vec::new(), flags: Vec::new() };
        let mut tokens = tokens.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                args.words.push(token);
                continue;
            };
            let flag = syntax
                .flags
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| err(format!("unknown flag --{name} for {}", syntax.name)))?;
            let value = match flag.kind {
                Kind::Switch => None,
                Kind::Value | Kind::Count => Some(
                    tokens.next().ok_or_else(|| err(format!("flag --{name} needs a value")))?,
                ),
            };
            if flag.kind == Kind::Count && value.is_some_and(|v| v.parse::<u64>() == Ok(0)) {
                return Err(err(format!("--{name} must be at least 1")));
            }
            args.flags.push((flag, value));
        }
        if let Some(word) = args.words.get(syntax.words) {
            return Err(err(format!("unknown argument {word} for {}", syntax.name)));
        }
        for (flag, _) in &args.flags {
            if let Some(other) = flag.needs.filter(|other| !args.has(other)) {
                return Err(err(format!("--{} is only valid with --{other}", flag.name)));
            }
            let clash = match flag.clash {
                Some(Clash::Flag(other)) if args.has(other) => format!("--{other}"),
                Some(Clash::Words(words)) if !args.words.is_empty() => words.to_string(),
                _ => continue,
            };
            return Err(err(format!("--{} is not valid with {clash}", flag.name)));
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag.name == name)
    }

    fn words(&self) -> Vec<String> {
        self.words.iter().map(|word| word.to_string()).collect()
    }

    /// The last value given for `--name`.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|(flag, _)| flag.name == name).and_then(|(_, v)| *v)
    }

    /// `--name`'s value as a `T`.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let invalid = |raw: &str| err(format!("invalid value for --{name}: {raw}"));
        self.value(name).map(|raw| raw.parse().map_err(|_| invalid(raw))).transpose()
    }

    /// `--name`'s value as a `T`, or `default` when it is not given.
    fn or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// A required flag's value; without it the command is refused with
    /// the message the flag declares.
    fn need<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.get(name)?.ok_or_else(|| {
            let flag = self.syntax.flags.iter().find(|f| f.name == name);
            err(flag.and_then(|f| f.missing).expect("need() reads only flags declared required"))
        })
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// [`CliError`] with a human-readable message.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        return Ok(Command::Help);
    }
    let (syntax, rest) = syntax_of(args)?;
    (syntax.build)(&Args::split(syntax, rest)?)
}

/// The syntax `args` names with its first word (and its second, for a
/// command with verbs), and the tokens after that name.
fn syntax_of(args: &[String]) -> Result<(&'static Syntax, &[String]), CliError> {
    let command = args[0].as_str();
    if let Some(syntax) = COMMANDS.iter().find(|s| s.name == command) {
        return Ok((syntax, &args[1..]));
    }
    let verbs: Vec<(&str, &'static Syntax)> = COMMANDS
        .iter()
        .filter_map(|s| Some((s.name.strip_prefix(command)?.strip_prefix(' ')?, s)))
        .collect();
    if verbs.is_empty() {
        return Err(err(format!("unknown command: {command}")));
    }
    let expected = verbs.iter().map(|(verb, _)| *verb).collect::<Vec<_>>().join(" | ");
    let Some(word) = args.get(1).filter(|word| !word.starts_with("--")) else {
        return Err(err(format!("{command} requires a verb: {expected}")));
    };
    let syntax = verbs.iter().find(|(verb, _)| verb == word).map(|(_, s)| (*s, &args[2..]));
    syntax.ok_or_else(|| err(format!("unknown {command} verb: {word} (expected {expected})")))
}

fn parse_algorithm(name: &str) -> Result<AlgorithmChoice, CliError> {
    Ok(match name {
        "pef3+" | "pef3" => AlgorithmChoice::Pef3Plus,
        "pef2" => AlgorithmChoice::Pef2,
        "pef1" => AlgorithmChoice::Pef1,
        "keep" => AlgorithmChoice::KeepDirection,
        "bounce" => AlgorithmChoice::BounceOnMissingEdge,
        "turn-on-tower" => AlgorithmChoice::AlwaysTurnOnTower,
        "alternate" => AlgorithmChoice::AlternateDirection,
        "random" => AlgorithmChoice::RandomDirection { seed: 0xD1CE },
        other => return Err(err(format!("unknown algorithm: {other}"))),
    })
}

fn parse_dynamics(name: &str, n: usize, horizon: u64, p: f64) -> Result<DynamicsChoice, CliError> {
    Ok(match name {
        "static" => DynamicsChoice::Static,
        "bernoulli" => DynamicsChoice::BernoulliRecurrent { p, bound: 8 },
        "markov" => DynamicsChoice::Markov {
            p_off: 0.15,
            p_on: 0.4,
        },
        "missing-edge" => DynamicsChoice::EventualMissing {
            p,
            bound: 8,
            edge: n / 2,
            from: horizon / 10,
        },
        "sweep" => DynamicsChoice::SweepingOutage { dwell: 3 },
        "t-interval" => DynamicsChoice::TIntervalConnected { stability: 4 },
        "blocker" => DynamicsChoice::PointedBlocker { budget: 4 },
        "confiner1" => DynamicsChoice::SingleConfiner,
        "confiner2" => DynamicsChoice::TwoConfiner { patience: 64 },
        "ssync" => DynamicsChoice::SsyncBlocker,
        other => return Err(err(format!("unknown dynamics: {other}"))),
    })
}

/// The scenario `scenario` and `capture` describe with their flags.
fn parse_scenario(a: &Args) -> Result<Scenario, CliError> {
    let n: usize = a.need("n")?;
    let k: usize = a.need("k")?;
    let horizon: u64 = a.or("horizon", 1000)?;
    let p: f64 = a.or("p", 0.5)?;
    let algorithm = parse_algorithm(a.value("algorithm").unwrap_or("pef3+"))?;
    let dynamics = parse_dynamics(a.value("dynamics").unwrap_or("bernoulli"), n, horizon, p)?;
    let placement = if matches!(dynamics, DynamicsChoice::TwoConfiner { .. }) {
        PlacementSpec::Adjacent { count: k, start: 0 }
    } else {
        PlacementSpec::EvenlySpaced { count: k }
    };
    let min_covers: u64 = a.or("min-covers", 3)?;
    Ok(Scenario::new(n, placement, algorithm, dynamics, horizon)
        .with_seed(a.or("seed", 0xDECADE)?)
        .with_criteria(SuccessCriteria::covers(min_covers)))
}

fn parse_campaign_run(a: &Args, fresh: bool) -> Result<Command, CliError> {
    let (spec, store) = (a.need("spec")?, a.need("store")?);
    let supervisor = match a.get("procs")? {
        None => None,
        Some(procs) => {
            let d = SuperviseOptions::default();
            let options = SuperviseOptions {
                max_retries: a.or("max-retries", d.max_retries)?,
                backoff_ms: a.or("backoff-ms", d.backoff_ms)?,
                heartbeat_timeout_ms: a.or("heartbeat-timeout-ms", d.heartbeat_timeout_ms)?,
                steal: !a.has("no-steal"),
                steal_after_ms: a.get("steal-after-ms")?,
                progress: a.has("progress"),
                progress_json: a.has("json"),
                ..d
            };
            Some(Supervisor { procs, manifest: a.get("manifest")?, dir: a.get("dir")?, options })
        }
    };
    Ok(Command::CampaignRun(CampaignRun {
        fresh,
        spec,
        store,
        workers: a.get("workers")?,
        max_units: a.get("max-units")?,
        metrics_out: a.get("metrics-out")?,
        supervisor,
    }))
}

/// The ledger list of `metrics show|top`.
fn parse_ledgers(a: &Args) -> Result<Vec<String>, CliError> {
    if a.words.is_empty() {
        return Err(err("metrics needs at least one events ledger path (<store>.events.jsonl)"));
    }
    Ok(a.words())
}

fn parse_certify(a: &Args) -> Result<Command, CliError> {
    let [store] = a.words[..] else {
        return Err(err("certify requires a store path: certify STORE --spec FILE"));
    };
    let spec = a.need("spec")?;
    let level: u8 = a.or("level", 1)?;
    if !(1..=2).contains(&level) {
        return Err(err(format!("--level must be 1 or 2, not {level}")));
    }
    if level == 1 && (a.has("sample") || a.has("seed")) {
        return Err(err("--sample/--seed are only valid with --level 2"));
    }
    Ok(Command::Certify {
        store: store.to_string(),
        spec,
        level,
        sample: a.or("sample", 8)?,
        seed: a.or("seed", 0xCE47)?,
        out: a.get("out")?,
    })
}

/// Reads and parses the campaign spec at `path` (every campaign verb but
/// `status`, and `certify`).
fn load_spec(path: &str) -> Result<CampaignSpec, Box<dyn Error>> {
    let json = std::fs::read_to_string(path)?;
    let spec = serde_json::from_str(&json)
        .map_err(|e| CliError(format!("cannot parse campaign spec {path}: {e}")))?;
    Ok(spec)
}

/// Writes the process-global metrics registry to `path`: Prometheus
/// text exposition when the path ends in `.prom`, pretty JSON
/// otherwise.
fn write_metrics_snapshot(path: &str) -> Result<(), Box<dyn Error>> {
    let snap = dynring_obs::global().snapshot();
    let text = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json_pretty()
    };
    std::fs::write(path, text)?;
    println!("metrics snapshot written to {path}");
    Ok(())
}

/// The events ledger of the store at `store` when `--metrics-out` is on.
fn events_ledger(store: &str, metrics_out: &Option<String>) -> Option<PathBuf> {
    metrics_out.as_ref().map(|_| EventLedger::for_store(Path::new(store)).path().to_path_buf())
}

/// Emits the [`Event::Merge`] of a merge into the store at `out_path`
/// (into its events ledger too under `--metrics-out`): the one merge
/// emit of `campaign merge` and the supervisor's final merge.
fn emit_merge(
    out_path: &str,
    metrics_out: &Option<String>,
    outcome: &MergeOutcome,
) -> Result<(), CampaignError> {
    let ledger = events_ledger(out_path, metrics_out);
    let mut sink = EventSink::open(dynring_obs::global(), ledger.as_deref())?;
    sink.emit(Event::Merge {
        shards: outcome.shards,
        merged: outcome.merged,
        sealed: outcome.sealed,
    })?;
    sink.sync()
}

/// Summarizes the events ledgers at `paths`, refusing a missing one.
fn summarize_ledgers(paths: &[String]) -> Result<LedgerSummary, Box<dyn Error>> {
    let mut loaded: Vec<LoadedLedger> = Vec::new();
    for path in paths {
        let ledger = EventLedger::new(Path::new(path));
        if !ledger.exists() {
            return Err(Box::new(CliError(format!(
                "no events ledger at {path} (run the campaign with \
                 --metrics-out to record one)"
            ))));
        }
        loaded.push(ledger.load()?);
    }
    Ok(dynring_campaign::summarize(&loaded))
}

/// Prints the summary of the events ledgers at `paths`: as JSON, as the
/// `limit` slowest groups, or whole.
fn print_summary(paths: &[String], json: bool, limit: Option<usize>) -> Result<(), Box<dyn Error>> {
    let summary = summarize_ledgers(paths)?;
    if json {
        println!("{}", serde_json::to_string_pretty(&summary)?);
    } else if let Some(limit) = limit {
        print!("{}", dynring_campaign::render_top(&summary, limit));
    } else {
        print!("{}", dynring_campaign::render_summary(&summary));
    }
    Ok(())
}

/// Executes a parsed command, printing results to stdout. A campaign verb
/// given `--metrics-out` then writes its metrics snapshot, when it
/// succeeded or ended as a [`PartialCampaign`].
///
/// # Errors
///
/// Boxed scenario/graph errors from the harness.
pub fn run(command: Command) -> Result<(), Box<dyn Error>> {
    let metrics_out = match &command {
        Command::CampaignRun(CampaignRun { metrics_out, .. })
        | Command::CampaignWork { metrics_out, .. }
        | Command::CampaignMerge { metrics_out, .. } => metrics_out.clone(),
        _ => None,
    };
    let result = execute(command);
    if let Some(path) = metrics_out {
        if result.as_ref().err().is_none_or(|e| e.is::<PartialCampaign>()) {
            write_metrics_snapshot(&path)?;
        }
    }
    result
}

fn execute(command: Command) -> Result<(), Box<dyn Error>> {
    use dynring_campaign::{
        load_report, merge_manifest, merge_stores, render, run_campaign, RunOptions,
    };

    match command {
        Command::Help => {
            println!("{USAGE}");
        }
        Command::Table1(opts) => {
            println!(
                "reproducing Table 1: k ∈ {:?} × n ∈ {:?}, {} rounds per run…\n",
                opts.robot_counts, opts.ring_sizes, opts.horizon
            );
            let report = run_table1(&opts)?;
            println!("{}", report.render());
            if report.all_match() {
                println!("every cell matches the paper.");
            } else {
                println!("MISMATCHES: {:#?}", report.mismatches());
            }
        }
        Command::Scenario(scenario) => {
            println!(
                "running {} on {} (n={}, k={}, horizon={})…\n",
                scenario.algorithm.name(),
                scenario.dynamics.name(),
                scenario.ring_size,
                scenario.placement.count(),
                scenario.horizon
            );
            let report = run_scenario(&scenario)?;
            println!("outcome        : {}", report.outcome);
            println!("covers         : {}", report.covers);
            println!("max revisit gap: {}", report.max_gap);
            println!("visited nodes  : {}/{}", report.visited_nodes, scenario.ring_size);
            println!("max tower      : {}", report.max_tower);
            println!("total moves    : {}", report.moves);
            println!("schedule       : {:?}", report.cot);
        }
        Command::Capture { scenario, out } => {
            let (report, schedule) = run_scenario_capturing(&scenario)?;
            println!("outcome: {}", report.outcome);
            let artifact = Artifact {
                scenario,
                schedule,
                report,
            };
            let json = serde_json::to_string(&artifact)?;
            std::fs::write(&out, json)?;
            println!("artifact written to {out} (replay with: dynring replay --file {out})");
        }
        Command::Replay { file } => {
            let json = std::fs::read_to_string(&file)?;
            let artifact: Artifact = serde_json::from_str(&json)?;
            println!(
                "replaying {} on the recorded schedule ({} frames)…",
                artifact.scenario.algorithm.name(),
                artifact.schedule.frame_count()
            );
            let replayed = run_on_schedule(&artifact.scenario, artifact.schedule)?;
            if replayed == artifact.report {
                println!("artifact verified: replay reproduces the stored report");
                println!("outcome: {}", replayed.outcome);
            } else {
                println!("ARTIFACT MISMATCH");
                println!("stored  : {:?}", artifact.report.outcome);
                println!("replayed: {:?}", replayed.outcome);
                return Err(Box::new(CliError("artifact verification failed".into())));
            }
        }
        Command::Coverage { n, k, horizon, seed } => {
            use dynring_analysis::parallel::coverage_matrix;
            println!(
                "portfolio × benign suite on n={n}, k={k} ({} workers)…\n",
                available_workers()
            );
            let matrix = coverage_matrix(n, k, horizon, seed)?;
            for row in &matrix.rows {
                let cells: Vec<String> = row
                    .cells
                    .iter()
                    .map(|c| {
                        format!(
                            "{}={}",
                            c.dynamics,
                            if c.perpetual { format!("✓{}cv", c.covers) } else { "✗".to_string() }
                        )
                    })
                    .collect();
                println!("{:<22} {}", row.algorithm, cells.join("  "));
            }
            println!(
                "\nsurvival rate: {:.0}%",
                matrix.survival_rate() * 100.0
            );
        }
        Command::MonteCarlo { config, out } => {
            println!(
                "{} × {} Bernoulli replicas on n={}, k={}, p={} (64 lanes/batch, {} workers)…\n",
                config.batches(),
                64,
                config.ring_size,
                config.robots,
                config.presence_probability,
                available_workers()
            );
            let summary = run_replicas(&config)?;
            println!(
                "replicas : {} ({} batches of 64 lanes)",
                summary.config.replicas, summary.batches
            );
            println!(
                "covered  : {} ({:.1}% within {} rounds)",
                summary.covered,
                summary.survival_rate * 100.0,
                summary.config.horizon
            );
            println!(
                "cover t  : mean {:.1}, min {:?}, max {:?}",
                summary.mean_cover_time, summary.min_cover_time, summary.max_cover_time
            );
            println!("histogram:");
            let peak = summary.histogram.iter().map(|b| b.count).max().unwrap_or(1).max(1);
            for bucket in &summary.histogram {
                let bar = "#".repeat(bucket.count * 40 / peak);
                println!(
                    "  [{:>6}, {:>6})  {:>6}  {bar}",
                    bucket.lower, bucket.upper, bucket.count
                );
            }
            if let Some(path) = out {
                let json = serde_json::to_string_pretty(&summary)?;
                std::fs::write(&path, json + "\n")?;
                println!("\nsummary written to {path}");
            }
        }
        Command::CampaignStatus { manifest, stores, json } => {
            use dynring_campaign::{render_progress, shard_progress, ShardProgress};

            // `status` is spec-free: each store is read on its own terms
            // (totals come from its header). With --manifest the rows come
            // from the shard manifest instead: per-shard ranges, attempt
            // counts, and generation splits included.
            let mut rows = Vec::new();
            if let Some(mpath) = &manifest {
                let man = ShardManifest::load(Path::new(mpath))?;
                rows.extend(man.entries.iter().map(|e| {
                    let store = ResultStore::new(&e.store);
                    ShardProgress::of_shard(&store, e.index, e.units, e.attempts)
                }));
            }
            let base = rows.len();
            for (i, s) in stores.iter().enumerate() {
                rows.push(shard_progress(&ResultStore::new(s), base + i, None)?);
            }
            if json {
                println!("{}", serde_json::to_string_pretty(&rows)?);
            } else {
                print!("{}", render_progress(&rows));
            }
        }
        Command::CampaignShard { spec, shards, index, dir, manifest } => {
            let plan = load_spec(&spec)?.plan()?;
            let dir_path = dir.unwrap_or_else(|| ".".to_string());
            std::fs::create_dir_all(&dir_path)?;
            let man = ShardManifest::build(&plan, shards, Path::new(&dir_path));
            if let Some(i) = index {
                let e = man.entry(i)?;
                println!(
                    "shard {i} of {}: units {}..{} → {}",
                    man.shards,
                    e.start,
                    e.start + e.units,
                    e.store
                );
            }
            let manifest_path = manifest.unwrap_or_else(|| format!("{}.manifest.json", plan.name));
            man.write(Path::new(&manifest_path))?;
            println!(
                "campaign `{}`: {} units split into {} shards (manifest {manifest_path})",
                plan.name,
                plan.units.len(),
                man.shards
            );
            for e in &man.entries {
                println!(
                    "  shard {}: units {}..{} → {}",
                    e.index,
                    e.start,
                    e.start + e.units,
                    e.store
                );
            }
        }
        Command::CampaignWork { spec, manifest, index: idx, workers, max_units, metrics_out } => {
            use dynring_campaign::fault::{ProcessFault, SHARD_ATTEMPT_ENV, WORKER_FAULT_EXIT_CODE};
            use dynring_campaign::{FailPlan, FaultKind, ShardSel};

            let campaign = load_spec(&spec)?;
            let man = ShardManifest::load(Path::new(&manifest))?;
            let plan = campaign.plan()?;
            man.matches(&plan)?;
            let entry = man.entry(idx)?.clone();
            let shard_store = ResultStore::new(&entry.store);
            let attempt: usize = std::env::var(SHARD_ATTEMPT_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let fault = ProcessFault::from_env(idx, attempt).map_err(CliError)?;
            // The shard runs its manifest *range*, not a balanced
            // index: after a steal the entry may be a generation
            // child covering an arbitrary sub-range.
            let mut opts = RunOptions {
                workers: workers.unwrap_or_else(available_workers),
                max_units,
                fresh: false,
                shard: Some(ShardSel::Range { start: entry.start, units: entry.units }),
                events: events_ledger(&entry.store, &metrics_out),
                ..RunOptions::default()
            };
            let unit_hash = |i: usize, what: &str| {
                let units = plan.units.len();
                plan.units.get(i).map(|u| u.hash.clone()).ok_or_else(|| {
                    CliError(format!("{what} {i} out of range ({units} units)"))
                })
            };
            match &fault {
                None => {}
                Some(ProcessFault::SlowUnit { index: i, ms }) => {
                    opts.slow_unit = Some((unit_hash(*i, "slow-unit index")?, *ms));
                }
                Some(ProcessFault::KillAfterBytes(after_bytes)) => {
                    let kill = FaultKind::Kill { after_bytes: *after_bytes };
                    opts.fault = Some(FailPlan::new(kill));
                }
                Some(ProcessFault::IoErrorAfterUnits(k)) => {
                    // The fault counts units appended *by this
                    // invocation*; the store trigger is an absolute
                    // record index, so offset by what's there. The
                    // injected io::Error surfaces as a plain runtime
                    // error: worker exits 1, nothing torn.
                    let existing = shard_store.load().map(|l| l.records.len()).unwrap_or(0);
                    let io = FaultKind::IoError { record: existing + k };
                    opts.fault = Some(FailPlan::new(io));
                }
                Some(ProcessFault::PoisonUnit(hash)) => opts.poison = Some(hash.clone()),
                Some(ProcessFault::PoisonIndex(i)) => {
                    opts.poison = Some(unit_hash(*i, "poison-index")?);
                }
                Some(ProcessFault::ExitAfterUnits(k) | ProcessFault::StallAfterUnits(k)) => {
                    // Execute exactly k units (store fsynced per
                    // wave), then die or hang as instructed below.
                    opts.max_units = Some((*k).min(max_units.unwrap_or(usize::MAX)));
                }
            }
            println!(
                "shard {idx}/{}: {} units, attempt {attempt} (store {})",
                man.shards, entry.units, entry.store
            );
            let outcome = match run_campaign(&campaign, &shard_store, &opts) {
                // Die like `kill -9` would: no unwind, no cleanup,
                // torn tail left behind. Whoever draws a poisoned
                // unit dies on the spot, wherever the steal moved
                // it: everything before it is fsynced.
                Err(CampaignError::InjectedFault(_)) => std::process::abort(),
                result => result?,
            };
            println!(
                "shard {idx}: {} executed, {} skipped, {} pending",
                outcome.executed, outcome.skipped, outcome.pending
            );
            match fault {
                Some(ProcessFault::StallAfterUnits(_)) if !outcome.is_complete() => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
                Some(ProcessFault::ExitAfterUnits(_)) if !outcome.is_complete() => {
                    std::process::exit(WORKER_FAULT_EXIT_CODE)
                }
                _ => {}
            }
        }
        Command::CampaignMerge { spec: spec_path, store: out_path, shards, metrics_out } => {
            let campaign = load_spec(&spec_path)?;
            let out_store = ResultStore::new(&out_path);
            let outcome = match shards {
                MergeFrom::Manifest(path) => {
                    let man = ShardManifest::load(Path::new(&path))?;
                    merge_manifest(&campaign, &man, &out_store)?
                }
                MergeFrom::Stores(paths) => {
                    let shard_stores: Vec<ResultStore> =
                        paths.iter().map(ResultStore::new).collect();
                    merge_stores(&campaign, &shard_stores, &out_store)?
                }
            };
            emit_merge(&out_path, &metrics_out, &outcome)?;
            println!(
                "merged {} units from {} shard stores into {out_path}",
                outcome.merged, outcome.shards
            );
            if outcome.sealed {
                println!(
                    "canonical store sealed (certify with: dynring certify \
                     {out_path} --spec {spec_path} --level 2)"
                );
            } else {
                println!(
                    "partial merge: {} units missing, {} held back past the \
                     first gap (unsealed; re-merge once the missing shards \
                     finish)",
                    outcome.missing, outcome.held_back
                );
            }
        }
        Command::CampaignRun(CampaignRun {
            fresh,
            spec: spec_path,
            store: store_path,
            workers,
            max_units,
            metrics_out,
            supervisor,
        }) => {
            use dynring_campaign::supervise;

            let campaign = load_spec(&spec_path)?;
            let result_store = ResultStore::new(&store_path);
            if let Some(sup) = supervisor {
                // Supervisor mode: shard the plan over child
                // processes, restart the dead, merge at the end.
                let plan = campaign.plan()?;
                let manifest_path =
                    sup.manifest.unwrap_or_else(|| format!("{store_path}.manifest.json"));
                let mpath = Path::new(&manifest_path).to_path_buf();
                let mut man = if mpath.exists() {
                    if fresh {
                        return Err(Box::new(CliError(format!(
                            "shard manifest {manifest_path} already exists; \
                             use `campaign resume --procs` to continue it"
                        ))));
                    }
                    let m = ShardManifest::load(&mpath)?;
                    m.matches(&plan)?;
                    m
                } else {
                    if fresh
                        && std::fs::metadata(&store_path).map(|m| m.len() > 0).unwrap_or(false)
                    {
                        return Err(Box::new(CliError(format!(
                            "store {store_path} already has content; use \
                             `campaign resume`"
                        ))));
                    }
                    let dir_path = sup.dir.unwrap_or_else(|| format!("{store_path}.shards"));
                    std::fs::create_dir_all(&dir_path)?;
                    ShardManifest::build(&plan, sup.procs, Path::new(&dir_path))
                };
                let sopts = SuperviseOptions {
                    workers_per_proc: workers
                        .unwrap_or_else(|| (available_workers() / man.shards.max(1)).max(1)),
                    events: events_ledger(&store_path, &metrics_out),
                    ..sup.options
                };
                println!(
                    "campaign `{}`: {} shards × {} workers over {} units \
                     (manifest {manifest_path})…",
                    plan.name,
                    man.shards,
                    sopts.workers_per_proc,
                    plan.units.len()
                );
                let exe = std::env::current_exe()?;
                let outcome = supervise(&exe, Path::new(&spec_path), &mpath, &mut man, &sopts)?;
                println!(
                    "supervisor: {}/{} shards complete, {} restart(s), \
                     {} steal(s)",
                    outcome.completed, outcome.shards, outcome.restarts, outcome.steals
                );
                if !outcome.is_complete() {
                    // Distinct exit code (3): the campaign ran, most
                    // shards finished, only quarantined ranges are
                    // missing — unlike a spawn/config failure (1).
                    return Err(Box::new(PartialCampaign(format!(
                        "campaign partial: {} shard(s) quarantined; continue \
                         with: dynring campaign resume --spec {spec_path} \
                         --store {store_path} --procs {}",
                        outcome.quarantined.len(),
                        sup.procs
                    ))));
                }
                if matches!(result_store.load(), Ok(l) if l.sealed) {
                    println!("canonical store {store_path} already sealed; skipping merge");
                } else {
                    let merged = merge_manifest(&campaign, &man, &result_store)?;
                    emit_merge(&store_path, &metrics_out, &merged)?;
                    println!(
                        "merged {} units into {store_path} (sealed: {}); \
                         certify with: dynring certify {store_path} --spec \
                         {spec_path} --level 2",
                        merged.merged, merged.sealed
                    );
                }
                return Ok(());
            }
            let opts = RunOptions {
                workers: workers.unwrap_or_else(available_workers),
                max_units,
                fresh,
                events: events_ledger(&store_path, &metrics_out),
                ..RunOptions::default()
            };
            println!(
                "campaign `{}`: {} over {} workers (store {store_path})…",
                campaign.name,
                if fresh { "run" } else { "resume" },
                opts.workers
            );
            let outcome = run_campaign(&campaign, &result_store, &opts)?;
            println!(
                "planned {} units: {} already stored, {} executed, {} pending",
                outcome.planned, outcome.skipped, outcome.executed, outcome.pending
            );
            if outcome.is_complete() {
                println!(
                    "campaign complete (report with: dynring campaign report \
                     --spec {spec_path} --store {store_path})"
                );
            } else {
                println!(
                    "campaign interrupted (finish with: dynring campaign resume \
                     --spec {spec_path} --store {store_path})"
                );
            }
        }
        Command::CampaignReport { spec, store, out } => {
            let campaign = load_spec(&spec)?;
            let report = load_report(&campaign, &ResultStore::new(&store))?;
            if report.torn_tail {
                eprintln!("WARNING: torn tail truncated ({} bytes)", report.torn_bytes);
            }
            print!("{}", render(&report));
            if let Some(path) = out {
                let json = serde_json::to_string_pretty(&report)?;
                std::fs::write(&path, json + "\n")?;
                println!("\nreport written to {path}");
            }
        }
        Command::MetricsShow { ledgers, json } => print_summary(&ledgers, json, None)?,
        Command::MetricsTop { ledgers, json, limit } => print_summary(&ledgers, json, Some(limit))?,
        Command::MetricsDiff { ledgers: [path_a, path_b], json } => {
            let a = summarize_ledgers(&[path_a])?;
            let b = summarize_ledgers(&[path_b])?;
            if json {
                #[derive(Serialize)]
                struct DiffPair {
                    a: LedgerSummary,
                    b: LedgerSummary,
                }
                println!("{}", serde_json::to_string_pretty(&DiffPair { a, b })?);
            } else {
                print!("{}", dynring_campaign::render_diff(&a, &b));
            }
        }
        Command::Certify { store, spec, level, sample, seed, out } => {
            use dynring_campaign::{certify, render_verdict, CertifyOptions};

            let campaign = load_spec(&spec)?;
            println!(
                "certifying {store} against spec {spec} at level {level}{}…",
                if level >= 2 {
                    format!(" (sample {sample}, seed {seed:#x})")
                } else {
                    String::new()
                }
            );
            let verdict = certify(
                &campaign,
                &ResultStore::new(&store),
                &CertifyOptions { level, sample, seed },
            )?;
            print!("{}", render_verdict(&verdict));
            if let Some(path) = out {
                let json = serde_json::to_string_pretty(&verdict)?;
                std::fs::write(&path, json + "\n")?;
                println!("verdict written to {path}");
            }
            if !verdict.pass {
                return Err(Box::new(CliError(format!(
                    "certification failed: {} divergence(s) in {store}",
                    verdict.failures.len()
                ))));
            }
        }
        Command::BenchReport { out, quick, check } => {
            println!(
                "measuring round engine + sweep layer{}…\n",
                if quick { " (quick)" } else { "" }
            );
            let report = crate::bench_report::collect(quick);
            println!("{}", crate::bench_report::render(&report));
            let json = serde_json::to_string_pretty(&report)?;
            std::fs::write(&out, json + "\n")?;
            println!("snapshot written to {out}");
            if let Some(snapshot_path) = check {
                let committed: crate::bench_report::BenchReport =
                    serde_json::from_str(&std::fs::read_to_string(&snapshot_path)?).map_err(
                        |e| {
                            CliError(format!(
                                "cannot read committed snapshot {snapshot_path}: {e} \
                                 (older schema? regenerate with `dynring bench-report`)"
                            ))
                        },
                    )?;
                match crate::bench_report::check_regression(&committed, &report) {
                    Ok(table) => {
                        println!("\nregression check against {snapshot_path}: OK");
                        print!("{table}");
                    }
                    Err(message) => {
                        println!("\nregression check against {snapshot_path}: FAILED");
                        return Err(Box::new(CliError(message)));
                    }
                }
            }
        }
        Command::SweepPresence { n, k, horizon, seeds } => {
            println!("PEF_3+ cover time vs presence probability (n={n}, k={k})\n");
            println!("p      success  mean-cover-time  mean-max-gap");
            for p in [0.2f64, 0.35, 0.5, 0.65, 0.8, 0.95] {
                let scenario = Scenario::new(
                    n,
                    PlacementSpec::EvenlySpaced { count: k },
                    AlgorithmChoice::Pef3Plus,
                    DynamicsChoice::BernoulliRecurrent { p, bound: 10 },
                    horizon,
                );
                let point = evaluate_point(&scenario, p, &default_seeds(seeds))?;
                println!(
                    "{p:<6} {:<8} {:<16.1} {:.1}",
                    format!("{:.0}%", point.success_rate * 100.0),
                    point.mean_cover_time,
                    point.mean_max_gap
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&args(&[])), Ok(Command::Help));
        assert_eq!(parse(&args(&["--help"])), Ok(Command::Help));
        assert_eq!(parse(&args(&["table1", "--help"])), Ok(Command::Help));
    }

    #[test]
    fn table1_with_flags() {
        let cmd = parse(&args(&["table1", "--horizon", "500", "--min-covers", "2"]))
            .expect("parses");
        match cmd {
            Command::Table1(opts) => {
                assert_eq!(opts.horizon, 500);
                assert_eq!(opts.min_covers, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scenario_requires_n_and_k() {
        assert!(parse(&args(&["scenario", "--n", "8"])).is_err());
        let cmd = parse(&args(&[
            "scenario", "--n", "8", "--k", "3", "--dynamics", "missing-edge",
        ]))
        .expect("parses");
        match cmd {
            Command::Scenario(s) => {
                assert_eq!(s.ring_size, 8);
                assert_eq!(s.placement.count(), 3);
                assert_eq!(s.dynamics.name(), "eventual-missing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn confiner2_forces_adjacent_placement() {
        let cmd = parse(&args(&[
            "scenario", "--n", "7", "--k", "2", "--dynamics", "confiner2",
        ]))
        .expect("parses");
        match cmd {
            Command::Scenario(s) => {
                assert!(matches!(s.placement, PlacementSpec::Adjacent { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_tokens() {
        // A malformed command line is refused with a message naming what
        // is wrong, never guessed at: a flag the command does not read
        // (mistyped, valid only for another command, or only for another
        // verb of this one), a stray word, a missing flag or word, a
        // supervisor flag without --procs, a flag beside what it clashes
        // with, a zero count.
        let words = |line: &str| args(&line.split(' ').collect::<Vec<_>>());
        let run = "campaign run --spec s --store t";
        let report = "campaign report --spec s --store t";
        let work = "campaign work --spec s --manifest m --index 0";
        let mut table: Vec<(String, String)> = [
            ("frobnicate".into(), "unknown command: frobnicate"),
            ("scenario --n 8 --k 3 --algorithm nope".into(), "unknown algorithm: nope"),
            ("scenario --n".into(), "flag --n needs a value"),
            ("table1 --horizon abc".into(), "invalid value for --horizon: abc"),
            (format!("{run} --max-unit 5"), "unknown flag --max-unit for campaign run"),
            ("montecarlo --replcas 3".into(), "unknown flag --replcas for montecarlo"),
            ("scenario --n 8 --k 3 --out x".into(), "unknown flag --out for scenario"),
            ("table1 --quick".into(), "unknown flag --quick for table1"),
            ("certify s.jsonl --spec c.json --json".into(), "unknown flag --json for certify"),
            ("metrics show l.jsonl --progress".into(), "unknown flag --progress for metrics show"),
            ("metrics show l.jsonl --limit 3".into(), "unknown flag --limit for metrics show"),
            (format!("{report} --shards 3 --heartbeat-timeout-ms 5"), "unknown flag --shards for campaign report"),
            ("campaign status t --spec x --progress".into(), "unknown flag --spec for campaign status"),
            ("campaign status t --progress".into(), "unknown flag --progress for campaign status"),
            (format!("{run} --out r.json"), "unknown flag --out for campaign run"),
            ("campaign shard --spec s --shards 2 --workers 2".into(), "unknown flag --workers for campaign shard"),
            ("campaign merge --spec s --store t a --max-units 2".into(), "unknown flag --max-units for campaign merge"),
            (format!("{work} --procs 2"), "unknown flag --procs for campaign work"),
            (format!("{work} --no-steal"), "unknown flag --no-steal for campaign work"),
            (format!("{report} --steal-after-ms 9"), "unknown flag --steal-after-ms for campaign report"),
            (format!("{report} --metrics-out m"), "unknown flag --metrics-out for campaign report"),
            // A stray word is refused by name too, wherever it sits.
            ("campaign shard --spec s --shards 2 stray-arg".into(), "unknown argument stray-arg for campaign shard"),
            (format!("{report} extra"), "unknown argument extra for campaign report"),
            (format!("{run} x --procs 2"), "unknown argument x for campaign run"),
            ("campaign resume y --spec s --store t".into(), "unknown argument y for campaign resume"),
            (format!("{work} z"), "unknown argument z for campaign work"),
            ("certify s.jsonl t.jsonl --spec c.json".into(), "unknown argument t.jsonl for certify"),
            ("table1 extra".into(), "unknown argument extra for table1"),
            ("scenario --n 8 --k 3 w".into(), "unknown argument w for scenario"),
            ("replay --file f w".into(), "unknown argument w for replay"),
            ("bench-report --quick w".into(), "unknown argument w for bench-report"),
            // A missing verb, flag or word, and a flag value out of range.
            ("campaign".into(), "campaign requires a verb: run | resume | report | shard | work | merge | status"),
            ("campaign frobnicate --spec s --store t".into(), "unknown campaign verb: frobnicate (expected run | resume | report | shard | work | merge | status)"),
            ("campaign report --store t".into(), "campaign requires --spec FILE"),
            ("campaign resume --spec s".into(), "campaign requires --store FILE"),
            ("campaign shard --spec s".into(), "campaign shard requires --shards N"),
            ("campaign work --spec s --index 0".into(), "campaign work requires --manifest FILE"),
            ("campaign work --spec s --manifest m".into(), "campaign work requires --index I"),
            ("campaign merge --spec s --store t".into(), "campaign merge needs --manifest FILE or shard STORE… paths"),
            ("campaign status --json".into(), "campaign status requires at least one STORE path or --manifest FILE"),
            ("metrics".into(), "metrics requires a verb: show | diff | top"),
            ("metrics frob".into(), "unknown metrics verb: frob (expected show | diff | top)"),
            ("metrics top --limit 3".into(), "metrics needs at least one events ledger path (<store>.events.jsonl)"),
            ("metrics diff a".into(), "metrics diff needs exactly two ledger paths: LEDGER_A LEDGER_B"),
            ("metrics diff a b c".into(), "metrics diff needs exactly two ledger paths: LEDGER_A LEDGER_B"),
            ("capture --n 6 --k 1".into(), "capture requires --out FILE"),
            ("capture --out f".into(), "capture requires --n and --k"),
            ("scenario --n 8".into(), "scenario requires --n and --k"),
            ("replay".into(), "replay requires --file FILE"),
            ("certify --spec c.json".into(), "certify requires a store path: certify STORE --spec FILE"),
            ("certify s.jsonl".into(), "certify requires --spec FILE"),
            ("certify s.jsonl --spec c.json --level 3".into(), "--level must be 1 or 2, not 3"),
            ("certify s.jsonl --spec c.json --sample 4".into(), "--sample/--seed are only valid with --level 2"),
            // A flag beside what it clashes with: the supervisor has no
            // unit budget, and merge folds a manifest or STORE… words.
            (format!("{run} --procs 2 --max-units 5"), "--max-units is not valid with --procs"),
            ("campaign resume --spec s --store t --max-units 5 --procs 2".into(), "--max-units is not valid with --procs"),
            (
                "campaign merge --spec s --store m.jsonl --manifest does-not-exist.json b.jsonl".into(),
                "--manifest is not valid with shard STORE… paths",
            ),
            ("campaign merge --spec s --store t a --manifest m".into(), "--manifest is not valid with shard STORE… paths"),
            // A zero count is refused by name.
            (format!("{run} --procs 0"), "--procs must be at least 1"),
            (format!("{run} --workers 0"), "--workers must be at least 1"),
            ("campaign resume --spec s --store t --workers 0".into(), "--workers must be at least 1"),
            (format!("{work} --workers 0"), "--workers must be at least 1"),
            ("campaign shard --spec s --shards 0".into(), "--shards must be at least 1"),
            ("certify s.jsonl --spec c.json --level 2 --sample 0".into(), "--sample must be at least 1"),
            ("sweep-p --seeds 0".into(), "--seeds must be at least 1"),
            ("scenario --n 0 --k 3".into(), "--n must be at least 1"),
            ("scenario --n 8 --k 3 --horizon 0".into(), "--horizon must be at least 1"),
            ("capture --out f --n 6 --k 1 --horizon 0".into(), "--horizon must be at least 1"),
            ("coverage --horizon 0".into(), "--horizon must be at least 1"),
            ("montecarlo --horizon 0".into(), "--horizon must be at least 1"),
            ("sweep-p --horizon 0".into(), "--horizon must be at least 1"),
            ("table1 --horizon 0".into(), "--horizon must be at least 1"),
            // The supervisor's flags need --procs, first offender named.
            (
                "campaign run --spec examples/campaign_smoke.json --store s.jsonl --max-units 3 \
                 --max-retries 9 --no-steal --progress --json --manifest zz.json --dir zzdir \
                 --heartbeat-timeout-ms 5"
                    .into(),
                "--max-retries is only valid with --procs",
            ),
        ]
        .into_iter()
        .map(|(line, message)| (line, message.to_string()))
        .collect();
        for verb in ["run", "resume"] {
            for flag in [
                "--manifest m",
                "--dir d",
                "--max-retries 9",
                "--backoff-ms 5",
                "--heartbeat-timeout-ms 5",
                "--no-steal",
                "--steal-after-ms 5",
                "--progress",
                "--json",
            ] {
                let name = flag.split(' ').next().unwrap_or(flag);
                table.push((
                    format!("campaign {verb} --spec s --store t {flag}"),
                    format!("{name} is only valid with --procs"),
                ));
            }
        }
        for (line, refused) in table {
            assert_eq!(parse(&words(&line)), Err(err(refused)), "{line}");
        }
        // Each verb still takes its own flags, and the store/ledger lists
        // their positional arguments.
        for line in [
            format!("{report} --out r.json"),
            "campaign status t --manifest m --json".into(),
            "campaign status a b c".into(),
            format!("{work} --workers 2 --max-units 3 --metrics-out m"),
            "campaign merge --spec s --store t a --metrics-out m".into(),
            "campaign merge --spec s --store t a b c".into(),
            "campaign merge --spec s --store t --manifest m".into(),
            format!("{run} --max-units 5 --workers 2"),
            format!("{run} --procs 2 --no-steal --manifest m --dir d"),
            "campaign resume --spec s --store t --procs 2 --progress --json --max-retries 0".into(),
            "metrics top l.jsonl --limit 3".into(),
            "metrics show a b c --json".into(),
            "metrics diff a b".into(),
            "certify s.jsonl --spec c.json".into(),
        ] {
            assert!(parse(&words(&line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn campaign_run_holds_a_supervisor_only_under_procs() {
        let words = |line: &str| args(&line.split(' ').collect::<Vec<_>>());
        let plain = CampaignRun {
            fresh: true,
            spec: "s".into(),
            store: "t".into(),
            workers: Some(2),
            max_units: None,
            metrics_out: None,
            supervisor: None,
        };
        assert_eq!(
            parse(&words("campaign run --spec s --store t --workers 2")),
            Ok(Command::CampaignRun(plain.clone()))
        );
        let supervised = CampaignRun {
            fresh: false,
            supervisor: Some(Supervisor {
                procs: 3,
                manifest: None,
                dir: None,
                options: SuperviseOptions {
                    max_retries: 3,
                    backoff_ms: 250,
                    heartbeat_timeout_ms: 30_000,
                    steal: false,
                    ..SuperviseOptions::default()
                },
            }),
            ..plain
        };
        assert_eq!(
            parse(&words("campaign resume --spec s --store t --workers 2 --procs 3 --no-steal")),
            Ok(Command::CampaignRun(supervised))
        );
    }

    #[test]
    fn every_accepted_flag_is_documented() {
        for syntax in COMMANDS {
            let command = syntax.name;
            assert!(USAGE.contains(&format!("dynring {command}")), "{command}");
            for flag in syntax.flags {
                assert!(USAGE.contains(&format!("--{}", flag.name)), "--{} for {command}", flag.name);
                if let Some(missing) = flag.missing {
                    assert!(missing.contains(&format!("--{}", flag.name)), "{missing}");
                }
            }
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for (name, expected) in [
            ("pef3+", "PEF_3+"),
            ("pef2", "PEF_2"),
            ("pef1", "PEF_1"),
            ("keep", "keep-direction"),
            ("bounce", "bounce-on-missing"),
        ] {
            assert_eq!(parse_algorithm(name).expect("known").name(), expected);
        }
    }

    #[test]
    fn capture_then_replay_round_trips() {
        let out = std::env::temp_dir().join("dynring_cli_artifact_test.json");
        let out_str = out.to_str().expect("utf-8 path").to_string();
        let cmd = parse(&args(&[
            "capture", "--n", "6", "--k", "1", "--dynamics", "confiner1", "--horizon", "200",
            "--out", &out_str,
        ]))
        .expect("parses");
        assert!(matches!(cmd, Command::Capture { .. }));
        run(cmd).expect("capture runs");
        let replay = parse(&args(&["replay", "--file", &out_str])).expect("parses");
        run(replay).expect("replay verifies");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn bench_report_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["bench-report"])).expect("parses");
        assert_eq!(
            cmd,
            Command::BenchReport {
                out: "BENCH_engine.json".to_string(),
                quick: false,
                check: None
            }
        );
        let cmd = parse(&args(&[
            "bench-report", "--quick", "--out", "x.json", "--check", "BENCH_engine.json",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::BenchReport {
                out: "x.json".to_string(),
                quick: true,
                check: Some("BENCH_engine.json".to_string())
            }
        );
    }

    #[test]
    fn regression_check_flags_a_slowdown() {
        use crate::bench_report::{check_regression, BenchReport, EngineSample, SweepSample};

        let sample = |workload: &str, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: 256,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let report = |static_quiet: f64, bernoulli_quiet: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![
                sample("static", static_quiet),
                sample("bernoulli", bernoulli_quiet),
            ],
            batch: Vec::new(),
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let committed = report(1_000_000.0, 1_000_000.0);
        // Within tolerance (and faster) passes…
        assert!(check_regression(&committed, &report(1e6, 900_000.0)).is_ok());
        assert!(check_regression(&committed, &report(1e6, 5_000_000.0)).is_ok());
        // …a Bernoulli-specific >20% drop fails…
        assert!(check_regression(&committed, &report(1e6, 700_000.0)).is_err());
        // …a uniformly slower machine is calibrated out (both workloads at
        // 40%: hardware, not a code regression)…
        assert!(check_regression(&committed, &report(400_000.0, 400_000.0)).is_ok());
        // …while the same Bernoulli drop on that slower machine still
        // fails (static at 40%, bernoulli at 40% · 70%).
        assert!(check_regression(&committed, &report(400_000.0, 280_000.0)).is_err());
        // Zero comparable samples is an error, not a silent pass.
        let mut alien = report(1e6, 1e6);
        alien.engine.clear();
        assert!(check_regression(&committed, &alien).is_err());
    }

    #[test]
    fn regression_failures_are_one_greppable_line_each() {
        use crate::bench_report::{
            check_regression, BenchReport, EngineSample, SweepSample, REGRESSION_TOLERANCE,
        };

        let sample = |workload: &str, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: 256,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let report = |bernoulli_quiet: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![sample("static", 1e6), sample("bernoulli", bernoulli_quiet)],
            batch: Vec::new(),
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let message = check_regression(&report(1e6), &report(700_000.0))
            .expect_err("30% drop must fail");
        // Exactly one REGRESSION line, and that single line names the
        // workload, the measured value and the gate threshold — no JSON
        // digging required to identify the regressing sample.
        let lines: Vec<&str> = message
            .lines()
            .filter(|l| l.starts_with("REGRESSION "))
            .collect();
        assert_eq!(lines.len(), 1, "{message}");
        let line = lines[0];
        assert!(line.contains("workload=bernoulli"), "{line}");
        assert!(line.contains("n=256"), "{line}");
        assert!(line.contains("measured=700000"), "{line}");
        assert!(line.contains("committed=1000000"), "{line}");
        assert!(
            line.contains(&format!("gate={:.2}", 1.0 - REGRESSION_TOLERANCE)),
            "{line}"
        );
    }

    #[test]
    fn regression_check_gates_batch_and_flatness() {
        use crate::bench_report::{
            check_regression, BatchSample, BenchReport, EngineSample, SweepSample,
        };

        let engine_sample = |workload: &str, n: usize, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: n,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let batch_sample = |n: usize, rate: f64| BatchSample {
            workload: "bernoulli-batch".to_string(),
            ring_size: n,
            robots: 3,
            lanes: 64,
            p: 0.5,
            batch_replica_rounds_per_sec: rate,
            serial_replica_rounds_per_sec: rate / 10.0,
            speedup: 10.0,
        };
        let report = |n4096_quiet: f64, batch_rate: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![
                engine_sample("static", 64, 1e6),
                engine_sample("static", 4096, n4096_quiet),
                engine_sample("bernoulli", 64, 1e6),
            ],
            // The flat 64/4096 pair keeps the flatness gate satisfied so
            // this test isolates the vs-committed batch comparison.
            batch: vec![
                batch_sample(256, batch_rate),
                batch_sample(64, 1e8),
                batch_sample(4096, 1e8),
            ],
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let committed = report(1e6, 6.4e7);
        // All flat and fast: passes (table mentions both new gates).
        let table = check_regression(&committed, &report(1e6, 6.4e7)).expect("no regression");
        assert!(table.contains("batch"), "{table}");
        assert!(table.contains("static flatness"), "{table}");
        // A batch-specific >20% drop fails…
        assert!(check_regression(&committed, &report(1e6, 4.0e7)).is_err());
        // …and so does losing static flatness in the *current* run, even
        // with an equally-degraded committed snapshot (no calibration).
        let sloped = report(0.5e6, 6.4e7);
        assert!(check_regression(&sloped, &sloped.clone()).is_err());
        // A committed snapshot without batch samples skips the
        // vs-committed batch gate (the within-run flatness pair is still
        // present and flat).
        let mut old = report(1e6, 6.4e7);
        old.batch.clear();
        assert!(check_regression(&old, &report(1e6, 1.0)).is_ok());
        // Losing one side of the flatness pair fails loudly instead of
        // silently skipping the gate.
        let mut missing_pair = report(1e6, 6.4e7);
        missing_pair.batch.retain(|b| b.ring_size != 4096);
        assert!(check_regression(&missing_pair.clone(), &missing_pair).is_err());
    }

    #[test]
    fn regression_check_gates_batch_flatness_across_ring_sizes() {
        use crate::bench_report::{
            check_regression, BatchSample, BenchReport, EngineSample, SweepSample,
        };

        let engine_sample = |workload: &str, n: usize, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: n,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let batch_sample = |n: usize, rate: f64| BatchSample {
            workload: "bernoulli-batch".to_string(),
            ring_size: n,
            robots: 3,
            lanes: 64,
            p: 0.5,
            batch_replica_rounds_per_sec: rate,
            serial_replica_rounds_per_sec: rate / 5.0,
            speedup: 5.0,
        };
        let report = |n4096_rate: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![engine_sample("static", 64, 1e6), engine_sample("bernoulli", 64, 1e6)],
            batch: vec![batch_sample(64, 1e8), batch_sample(4096, n4096_rate)],
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        // n=4096 within 2x of n=64: passes, and the table names the gate.
        let committed = report(6e7);
        let table = check_regression(&committed, &report(6e7)).expect("flat enough");
        assert!(table.contains("batch flatness"), "{table}");
        // n=4096 below half of n=64 fails even against an equally-sloped
        // committed snapshot: the gate is within-run, not calibrated.
        let sloped = report(4e7);
        assert!(check_regression(&sloped, &sloped.clone()).is_err());
    }

    #[test]
    fn montecarlo_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["montecarlo"])).expect("parses");
        match cmd {
            Command::MonteCarlo { config, out } => {
                assert_eq!(config.ring_size, 16);
                assert_eq!(config.robots, 3);
                assert_eq!(config.replicas, 256);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&args(&[
            "montecarlo", "--n", "12", "--k", "4", "--p", "0.3", "--replicas", "128",
            "--horizon", "900", "--seed", "7", "--algorithm", "bounce", "--out", "mc.json",
        ]))
        .expect("parses");
        match cmd {
            Command::MonteCarlo { config, out } => {
                assert_eq!(config.ring_size, 12);
                assert_eq!(config.robots, 4);
                assert_eq!(config.presence_probability, 0.3);
                assert_eq!(config.replicas, 128);
                assert_eq!(config.horizon, 900);
                assert_eq!(config.seed, 7);
                assert_eq!(config.algorithm.name(), "bounce-on-missing");
                assert_eq!(out, Some("mc.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn running_a_small_montecarlo_through_the_cli_path() {
        let out = std::env::temp_dir().join("dynring_cli_montecarlo_test.json");
        let out_str = out.to_str().expect("utf-8 path").to_string();
        let cmd = parse(&args(&[
            "montecarlo", "--n", "6", "--k", "3", "--replicas", "64", "--horizon", "300",
            "--out", &out_str,
        ]))
        .expect("parses");
        run(cmd).expect("runs");
        let json = std::fs::read_to_string(&out).expect("summary written");
        let summary: dynring_analysis::MonteCarloSummary =
            serde_json::from_str(&json).expect("valid summary JSON");
        assert_eq!(summary.config.replicas, 64);
        assert_eq!(summary.covered, 64, "PEF_3+ covers the small point");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn coverage_parses_with_defaults() {
        let cmd = parse(&args(&["coverage", "--n", "6", "--horizon", "100"])).expect("parses");
        match cmd {
            Command::Coverage { n, k, horizon, .. } => {
                assert_eq!((n, k, horizon), (6, 3, 100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn running_a_small_scenario_through_the_cli_path() {
        let cmd = parse(&args(&[
            "scenario", "--n", "6", "--k", "3", "--dynamics", "static", "--horizon", "100",
        ]))
        .expect("parses");
        run(cmd).expect("runs");
    }

    #[test]
    fn certify_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["certify", "s.jsonl", "--spec", "c.json"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Certify {
                store: "s.jsonl".into(),
                spec: "c.json".into(),
                level: 1,
                sample: 8,
                seed: 0xCE47,
                out: None,
            }
        );
        let cmd = parse(&args(&[
            "certify", "s.jsonl", "--spec", "c.json", "--level", "2", "--sample", "16",
            "--seed", "9", "--out", "v.json",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Certify {
                store: "s.jsonl".into(),
                spec: "c.json".into(),
                level: 2,
                sample: 16,
                seed: 9,
                out: Some("v.json".into()),
            }
        );
    }
}
