//! The repo's metric naming scheme, pinned in one place.
//!
//! Regression tooling (the obs-smoke CI gate and the golden snapshot
//! test) greps for these exact names; renaming one is a breaking
//! change to the telemetry schema and must bump
//! [`crate::SNAPSHOT_SCHEMA`]. Labels noted per series are attached
//! with [`crate::labeled`].

/// Units executed by the campaign runner. Labels: `route`.
pub const CAMPAIGN_UNITS: &str = "campaign_units_total";

/// Replica-rounds advanced (cover time of covered replicas plus the
/// full horizon for uncovered ones). Labels: `route`. Dividing by the
/// route's wall-time gives batch-vs-serial replica-rounds/sec.
pub const CAMPAIGN_REPLICA_ROUNDS: &str = "campaign_replica_rounds_total";

/// Per-unit wall time in microseconds. Labels: `route`.
pub const CAMPAIGN_UNIT_WALL_US: &str = "campaign_unit_wall_us";

/// Batch-routed units by lane arity. Labels: `arity`.
pub const CAMPAIGN_BATCH_ARITY_UNITS: &str = "campaign_batch_arity_units_total";

/// Batch-routed units by snapshot fill strategy. Labels: `mode`
/// (`sparse` demand-driven gather, `full` dense fill) — the
/// sparse-gather hit rate is `sparse / (sparse + full)`.
pub const CAMPAIGN_SPARSE_GATHER_UNITS: &str = "campaign_sparse_gather_units_total";

/// Runner waves completed (one fsync each). No labels.
pub const CAMPAIGN_WAVES: &str = "campaign_waves_total";

/// Per-wave wall time in microseconds, from one store fsync to the
/// next. No labels.
pub const CAMPAIGN_WAVE_WALL_US: &str = "campaign_wave_wall_us";

/// Bytes appended to result stores (header, records, seal). No labels.
pub const STORE_BYTES_APPENDED: &str = "store_bytes_appended_total";

/// `fsync` calls issued by store appenders. No labels.
pub const STORE_FSYNCS: &str = "store_fsyncs_total";

/// Torn tails truncated when reopening stores for append. No labels.
pub const STORE_TORN_TAILS: &str = "store_torn_tails_total";

/// Bytes discarded by torn-tail truncation. No labels.
pub const STORE_TORN_BYTES: &str = "store_torn_bytes_total";

/// Unit records written by store merges. No labels.
pub const MERGE_UNITS: &str = "merge_units_total";

/// Bytes written to merge output stores. No labels.
pub const MERGE_BYTES: &str = "merge_bytes_total";

/// Worker processes spawned by the supervisor. No labels.
pub const SUPERVISOR_SPAWNS: &str = "supervisor_spawns_total";

/// Shard attempts retried after a worker died or was killed. No labels.
pub const SUPERVISOR_RETRIES: &str = "supervisor_retries_total";

/// Workers killed for a stalled heartbeat. No labels.
pub const SUPERVISOR_STALLS: &str = "supervisor_stalls_total";

/// Work-stealing re-shards (exhausted or straggling shards). No labels.
pub const SUPERVISOR_STEALS: &str = "supervisor_steals_total";

/// Shards quarantined after exhausting retries. No labels.
pub const SUPERVISOR_QUARANTINES: &str = "supervisor_quarantines_total";

/// Every pinned base name, for schema tests and smoke greps.
pub const ALL: &[&str] = &[
    CAMPAIGN_UNITS,
    CAMPAIGN_REPLICA_ROUNDS,
    CAMPAIGN_UNIT_WALL_US,
    CAMPAIGN_BATCH_ARITY_UNITS,
    CAMPAIGN_SPARSE_GATHER_UNITS,
    CAMPAIGN_WAVES,
    CAMPAIGN_WAVE_WALL_US,
    STORE_BYTES_APPENDED,
    STORE_FSYNCS,
    STORE_TORN_TAILS,
    STORE_TORN_BYTES,
    MERGE_UNITS,
    MERGE_BYTES,
    SUPERVISOR_SPAWNS,
    SUPERVISOR_RETRIES,
    SUPERVISOR_STALLS,
    SUPERVISOR_STEALS,
    SUPERVISOR_QUARANTINES,
];
