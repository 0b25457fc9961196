//! The workloads, the metric declarations and the prediction table.
//!
//! Every workload fixes its campaign axes; only the `seeds` axis and the
//! level-2 sample seed derive from the workload seed, so one seed always
//! yields the same spec and therefore the same store bytes.

use crate::calibrate::Kernel;
use dynring_analysis::{derive_stream_seed, AlgorithmChoice};
use dynring_campaign::{
    route_unit, CampaignSpec, PlacementAxis, UnitDynamics, UnitScheduler, WorkUnit,
};

/// Worker threads of every end-to-end run (`nproc` of the 2-core box the
/// bounds were set on; fixed so a faster machine measures the same work).
pub const WORKERS: usize = 2;

/// The seed `BENCHMARK.json`'s recorded spec hashes are taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Seeds stay below 2^53 so they survive any JSON reader unchanged.
const SEED_MODULUS: u64 = 1 << 40;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// The longer rationale recorded in `WORKLOADS.json`.
    pub rationale: &'static str,
    /// The calibration kernel the end-to-end figures are scaled by.
    pub kernel: Kernel,
    seeds: usize,
    axes: fn() -> CampaignSpec,
}

impl Workload {
    /// The workload's spec at `seed`.
    pub fn spec(&self, seed: u64) -> CampaignSpec {
        let mut spec = (self.axes)();
        spec.seeds = derived_seeds(seed, self.seeds);
        spec
    }

    /// The level-2 certification sample seed at `seed`.
    pub fn sample_seed(&self, seed: u64) -> u64 {
        derive_stream_seed(seed, u64::MAX) % SEED_MODULUS
    }
}

/// `count` distinct seeds drawn from the workload seed's stream.
fn derived_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut seeds: Vec<u64> = Vec::with_capacity(count);
    let mut i = 0u64;
    while seeds.len() < count {
        let s = derive_stream_seed(seed, i) % SEED_MODULUS;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
        i += 1;
    }
    seeds
}

fn scenario_serial() -> CampaignSpec {
    CampaignSpec {
        name: "bench-scenario-serial".into(),
        ring_sizes: vec![6, 16, 64],
        robots: vec![2, 3],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![
            AlgorithmChoice::Pef3Plus,
            AlgorithmChoice::Pef2,
            AlgorithmChoice::KeepDirection,
            AlgorithmChoice::BounceOnMissingEdge,
        ],
        dynamics: vec![
            UnitDynamics::Static,
            UnitDynamics::SweepingOutage { dwell: 3 },
            UnitDynamics::PointedBlocker { budget: 2 },
            UnitDynamics::Markov {
                p_off: 0.3,
                p_on: 0.5,
            },
            UnitDynamics::TIntervalConnected { stability: 3 },
        ],
        schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
        seeds: Vec::new(),
        horizon: 2000,
        replicas: 2,
    }
}

fn batch_bernoulli() -> CampaignSpec {
    CampaignSpec {
        name: "bench-batch-bernoulli".into(),
        ring_sizes: vec![16, 256, 4096],
        robots: vec![3],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![
            AlgorithmChoice::Pef3Plus,
            AlgorithmChoice::Pef2,
            AlgorithmChoice::KeepDirection,
        ],
        dynamics: vec![
            UnitDynamics::Bernoulli { p: 0.5 },
            UnitDynamics::Bernoulli { p: 0.75 },
        ],
        schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
        seeds: Vec::new(),
        horizon: 20_000,
        replicas: 200,
    }
}

fn store_churn() -> CampaignSpec {
    CampaignSpec {
        name: "bench-store-churn".into(),
        ring_sizes: vec![4, 5, 6, 7],
        robots: vec![1, 2, 3],
        placements: vec![
            PlacementAxis::EvenlySpaced,
            PlacementAxis::Adjacent { start: 0 },
        ],
        algorithms: vec![AlgorithmChoice::Pef3Plus, AlgorithmChoice::KeepDirection],
        dynamics: vec![UnitDynamics::Bernoulli { p: 0.5 }, UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync, UnitScheduler::Async],
        seeds: Vec::new(),
        horizon: 40,
        replicas: 2,
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "scenario-serial",
        why: "720 serial units over generated, deterministic and adversary dynamics; \
              no unit takes the batch engine",
        rationale: "Every unit takes the serial recording harness: generated dynamics take \
                    about 72% of unit time and deterministic or adversary dynamics about 27%. \
                    A quiet early-exit serial kernel must show here; the batch engine does \
                    no work.",
        kernel: Kernel::Compute,
        seeds: 3,
        axes: scenario_serial,
    },
    Workload {
        name: "batch-bernoulli",
        why: "72 Bernoulli units of 200 replicas on the lane-parallel engine, full-fill and \
              sparse-gather paths; store and plan cost milliseconds",
        rationale: "All time goes to the lane-parallel engine, on both the full-fill and the \
                    sparse-gather paths. Store, certify and plan costs are in the \
                    milliseconds, so kernel and routing changes show here and nowhere else.",
        kernel: Kernel::Compute,
        seeds: 2,
        axes: batch_bernoulli,
    },
    Workload {
        name: "store-churn",
        why: "57,600 tiny units and a 24 MB store: append, fsync and wave overhead on the \
              write side, load, certify and report on the read side",
        rationale: "The store layer is used two ways: writes (append and fsync per wave) and \
                    reads (load, certify, report, merge). units_per_s sees only the writes \
                    and time_to_report_s sees both, so a gain on one side that costs the \
                    other shows up.",
        kernel: Kernel::Waves,
        seeds: 300,
        axes: store_churn,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: name, unit, whether higher is better, bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "units/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_report_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// The executor's unit classes, in report order.
pub const CLASSES: [&str; 5] = [
    "batch",
    "serial_bernoulli",
    "deterministic",
    "generated",
    "adversary",
];

/// The executor class of a unit, as an index into [`CLASSES`].
pub fn class_of(unit: &WorkUnit) -> usize {
    match unit.dynamics {
        UnitDynamics::Bernoulli { .. } if route_unit(unit).is_batch() => 0,
        UnitDynamics::Bernoulli { .. } => 1,
        UnitDynamics::Static | UnitDynamics::SweepingOutage { .. } => 2,
        UnitDynamics::BernoulliRecurrent { .. }
        | UnitDynamics::Markov { .. }
        | UnitDynamics::TIntervalConnected { .. } => 3,
        UnitDynamics::PointedBlocker { .. }
        | UnitDynamics::SingleConfiner
        | UnitDynamics::TwoConfiner { .. }
        | UnitDynamics::SsyncBlocker => 4,
    }
}

/// Every per-layer metric the traced run reports on every workload, with
/// its unit. No workload runs every executor class or batch arity, so the
/// per-class and per-arity figures (`executor.<class>.*`, `lane_fill`,
/// `units_by_arity.*`) go to the traced run's layer file for the classes
/// and arities present; `WORKLOADS.json` records which those are.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("spec.plan_s", "s");
    add("spec.units", "count");
    add("spec.plan_us_per_unit", "us");
    add("executor.busy_s", "s");
    add("executor.unit_p50_us", "us");
    add("executor.unit_tail_us", "us");
    add("executor.unit_tail_pct", "pct");
    add("executor.unit_samples", "count");
    add("executor.replica_rounds", "count");
    add("executor.replica_rounds_per_s", "1/s");
    add("executor.worker_busy_ratio", "ratio");
    add("store.append.records", "count");
    add("store.append.busy_s", "s");
    add("store.append.us_per_record", "us");
    add("store.bytes", "bytes");
    add("store.bytes_per_unit", "bytes");
    add("store.sync.count", "count");
    add("store.sync.busy_s", "s");
    add("store.sync.p50_ms", "ms");
    add("store.sync.tail_ms", "ms");
    add("store.sync.tail_pct", "pct");
    add("store.load_s", "s");
    add("store.load_mb_per_s", "MB/s");
    add("store.run_wall_share", "ratio");
    add("runner.wall_s", "s");
    add("runner.waves", "count");
    add("runner.wave.p50_ms", "ms");
    add("runner.wave.tail_ms", "ms");
    add("runner.wave.tail_pct", "pct");
    add("runner.worker_idle_ratio", "ratio");
    add("events.overhead_ratio", "ratio");
    add("events.bytes_per_unit", "bytes");
    add("aggregate.report_s", "s");
    add("certify.l1_s", "s");
    add("certify.l1_mb_per_s", "MB/s");
    add("certify.l2_s", "s");
    add("certify.l2_units", "count");
    add("certify.l2_us_per_unit", "us");
    add("merge.s", "s");
    add("merge.mb_per_s", "MB/s");
    add("supervise.procs2_s", "s");
    add("supervise.overhead_ratio", "ratio");
    add("supervise.spawns", "count");
    add("trace.overhead_ratio", "ratio");
    m
}

/// One row of the prediction table: which end-to-end metric a layer
/// metric should move, on which workload, and where it should not.
pub struct Prediction {
    pub layer_metrics: &'static [&'static str],
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
    pub no_change_on: &'static [&'static str],
    pub note: &'static str,
}

pub const PREDICTIONS: [Prediction; 7] = [
    Prediction {
        layer_metrics: &[
            "executor.deterministic.busy_s",
            "executor.generated.busy_s",
            "executor.adversary.busy_s",
        ],
        moves: &["units_per_s"],
        on: &["scenario-serial"],
        no_change_on: &["batch-bernoulli"],
        note: "",
    },
    Prediction {
        layer_metrics: &["executor.batch.*", "executor.batch.lane_fill"],
        moves: &["units_per_s"],
        on: &["batch-bernoulli"],
        no_change_on: &["scenario-serial"],
        note: "",
    },
    Prediction {
        layer_metrics: &["store.append.*", "store.sync.*", "runner.worker_idle_ratio"],
        moves: &["units_per_s"],
        on: &["store-churn"],
        no_change_on: &["batch-bernoulli"],
        note: "",
    },
    Prediction {
        layer_metrics: &["store.load_*", "certify.l1_*", "aggregate.report_s"],
        moves: &["time_to_report_s"],
        on: &["store-churn"],
        no_change_on: &["scenario-serial", "batch-bernoulli"],
        note: "",
    },
    Prediction {
        layer_metrics: &["spec.plan_*"],
        moves: &["setup_s", "peak_rss_mb"],
        on: &["store-churn"],
        no_change_on: &["batch-bernoulli"],
        note: "",
    },
    Prediction {
        layer_metrics: &["runner.wave.tail_ms"],
        moves: &["units_per_s"],
        on: &["scenario-serial"],
        no_change_on: &["store-churn"],
        note: "the slowest unit sets each wave's time",
    },
    Prediction {
        layer_metrics: &["events.*", "supervise.*", "certify.l2_*"],
        moves: &[],
        on: &[],
        no_change_on: &["scenario-serial", "batch-bernoulli", "store-churn"],
        note: "reported for the telemetry and --procs decisions; no end-to-end metric",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_plan_to_the_documented_unit_counts() {
        let counts: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| w.spec(DEFAULT_SEED).plan().expect("valid spec").units.len())
            .collect();
        assert_eq!(counts, [720, 72, 57_600]);
    }

    #[test]
    fn seeds_are_reproducible_and_seed_dependent() {
        let w = &WORKLOADS[2];
        assert_eq!(w.spec(7), w.spec(7));
        assert_ne!(w.spec(7).content_hash(), w.spec(8).content_hash());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
