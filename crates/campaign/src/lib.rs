//! Declarative, sharded, resumable experiment campaigns over the batch
//! engine.
//!
//! The paper's claims are statements over a whole parameter space —
//! algorithms × ring size × team size × schedule class × scheduler — and
//! the engines below this crate execute single points of it very fast.
//! This crate is the layer that *drives* them at that scale:
//!
//! - [`spec`] — a JSON [`CampaignSpec`] expands into a deterministic,
//!   content-hashed list of [`WorkUnit`]s ([`CampaignSpec::plan`]);
//! - [`executor`] — each unit routes to the lockstep
//!   [`dynring_engine::BatchSimulator`] when eligible (pure Bernoulli ×
//!   FSYNC or SSYNC) and to the serial first-cover kernel
//!   ([`dynring_analysis::serial`]) otherwise ([`route_unit`]), with
//!   bit-identical measurements either way;
//! - [`runner`] — [`run_campaign`] shards pending units over threads and
//!   appends records in plan order, so parallel stores are byte-identical
//!   to serial ones and an interrupted store is always a plan-order
//!   prefix;
//! - [`store`] — the append-only JSONL [`ResultStore`], keyed by unit
//!   hash: `resume` skips completed units, re-running a finished campaign
//!   is a no-op, and a torn trailing write is truncated away;
//! - [`aggregate`](mod@aggregate) — folds a store into the grouped cover-time /
//!   survival [`CampaignReport`];
//! - [`events`] / [`metrics`] — out-of-band observability: a
//!   torn-tail-tolerant per-campaign events ledger
//!   (`<store>.events.jsonl`) and its per-(algorithm × dynamics ×
//!   scheduler × route) time/throughput aggregation behind `dynring
//!   metrics show|diff|top`. Telemetry never changes store bytes (see
//!   `docs/OBSERVABILITY.md`);
//! - [`shard`] / [`supervise`](mod@supervise) / [`merge`] — the distributed story:
//!   deterministically partition a plan into disjoint shard ranges
//!   ([`ShardManifest`]), run each shard as a supervised child process
//!   with heartbeat monitoring, bounded-backoff restart, work-stealing
//!   re-sharding of exhausted or straggling shards (manifest
//!   *generations*) and last-resort quarantine ([`supervise()`]), then
//!   fold the shard stores — generation splits included — back into one
//!   canonical store byte-identical to a serial run
//!   ([`merge_manifest`]).
//!
//! See `docs/CAMPAIGNS.md` for the spec format and the CLI
//! (`dynring campaign run | resume | report | shard | work | merge |
//! status`).
//!
//! # Example
//!
//! ```rust
//! use dynring_analysis::AlgorithmChoice;
//! use dynring_campaign::{
//!     run_campaign, load_report, CampaignSpec, PlacementAxis, ResultStore, RunOptions,
//!     UnitDynamics, UnitScheduler,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec {
//!     name: "doc".into(),
//!     ring_sizes: vec![5],
//!     robots: vec![3],
//!     placements: vec![PlacementAxis::EvenlySpaced],
//!     algorithms: vec![AlgorithmChoice::Pef3Plus],
//!     dynamics: vec![UnitDynamics::Bernoulli { p: 0.5 }],
//!     schedulers: vec![UnitScheduler::Sync],
//!     seeds: vec![7],
//!     horizon: 200,
//!     replicas: 8,
//! };
//! let path = std::env::temp_dir().join("dynring_campaign_doc.jsonl");
//! # let _ = std::fs::remove_file(&path);
//! let store = ResultStore::new(&path);
//! let outcome = run_campaign(&spec, &store, &RunOptions::default())?;
//! assert!(outcome.is_complete());
//! let report = load_report(&spec, &store)?;
//! assert_eq!(report.completed_units, 1);
//! # std::fs::remove_file(&path)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use dynring_analysis::ScenarioError;

pub mod aggregate;
pub mod certify;
pub mod events;
pub mod executor;
pub mod fault;
pub mod merge;
pub mod metrics;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod store;
pub mod supervise;
pub mod trace;

pub use aggregate::{aggregate, render, CampaignGroup, CampaignReport};
pub use certify::{certify, render_verdict, CertifyFailure, CertifyOptions, CertifyVerdict};
pub use events::{
    Event, EventLedger, EventRecord, EventSink, LedgerAppender, LoadedLedger, EVENTS_SCHEMA,
};
pub use executor::{
    execute_unit, execute_unit_on, route_unit, Route, UnitMeasurement, UnitRecord,
};
pub use fault::{FailPlan, FaultKind, ProcessFault};
pub use merge::{merge_manifest, merge_stores, MergeOutcome};
pub use metrics::{
    coarse_rate, render_diff, render_summary, render_top, summarize, FaultSummary,
    LedgerSummary, MetricsGroup,
};
pub use runner::{load_report, run_campaign, RunOptions, RunOutcome, WAVE_INTERVAL};
pub use shard::{shard_range, ShardEntry, ShardManifest, ShardSel, MANIFEST_SCHEMA};
pub use supervise::{
    render_progress, shard_progress, supervise, ShardFailure, ShardProgress,
    SuperviseOptions, SuperviseOutcome,
};
pub use spec::{
    CampaignPlan, CampaignSpec, ExplicitRobot, PlacementAxis, PlannedUnit, UnitDynamics,
    UnitScheduler, WorkUnit,
};
pub use store::{LoadedStore, ResultStore, StoreAppender, StoreHeader, StoreLine};
pub use trace::{ChainedRecord, StoreFooter, ENGINE_VERSION, STORE_SCHEMA};

/// Errors of the campaign layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The spec failed validation (message names the offending field).
    InvalidSpec(String),
    /// The spec expanded to zero units.
    EmptyPlan,
    /// A unit was ill-formed for the engines.
    Scenario(ScenarioError),
    /// Filesystem trouble.
    Io(String),
    /// (De)serialization trouble.
    Json(String),
    /// `run` found an existing store (use `resume`).
    StoreExists(String),
    /// The store belongs to a different spec.
    SpecMismatch {
        /// The current spec's hash.
        expected: String,
        /// The hash recorded in the store header.
        found: String,
    },
    /// The store is damaged beyond a torn trailing line.
    CorruptStore(String),
    /// Shard stores cannot be folded into one canonical store. The
    /// message is a single greppable `MERGE-CONFLICT reason=…` line
    /// (see [`merge`]).
    MergeConflict(String),
    /// A test-only injected fault fired (see [`fault`]); the message
    /// names the fault so the crash-safety proptests can assert on it.
    InjectedFault(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::EmptyPlan => {
                write!(f, "the campaign spec expands to zero work units")
            }
            CampaignError::Scenario(e) => write!(f, "unit execution failed: {e}"),
            CampaignError::Io(msg) => write!(f, "store I/O error: {msg}"),
            CampaignError::Json(msg) => write!(f, "store serialization error: {msg}"),
            CampaignError::StoreExists(path) => write!(
                f,
                "store {path} already has content; use `campaign resume` to continue it"
            ),
            CampaignError::SpecMismatch { expected, found } => write!(
                f,
                "store belongs to spec {found}, not the given spec {expected}"
            ),
            CampaignError::CorruptStore(msg) => write!(f, "corrupt store: {msg}"),
            CampaignError::MergeConflict(msg) => write!(f, "{msg}"),
            CampaignError::InjectedFault(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl Error for CampaignError {}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> Self {
        CampaignError::Scenario(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for CampaignError {
    fn from(e: serde_json::Error) -> Self {
        CampaignError::Json(e.to_string())
    }
}
