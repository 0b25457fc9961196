//! Unit execution and routing: batch engine when eligible, serial engine
//! otherwise — with bit-for-bit reproducible measurements either way.
//!
//! The routing rule is a pure function of the unit
//! ([`route_unit`]): a unit runs on the lane-parallel lockstep
//! [`dynring_engine::BatchSimulator`] iff its dynamics is the pure
//! Bernoulli stream **and** its scheduler is FSYNC or SSYNC — exactly
//! the combinations whose per-lane execution is proven bit-identical to
//! the serial engine (SSYNC plays the serial engine's own round-robin
//! policy, one activation vector per round for every lane). Everything
//! else (adaptive adversaries, generated stochastic classes, ASYNC
//! scheduling) runs replica by replica on the serial
//! first-cover kernel ([`dynring_analysis::serial`]): quiet rounds (or
//! ASYNC ticks), stopped at the first cover, generated dynamics drawn one
//! frame per round. The batch route also carries its lane arity
//! ([`dynring_analysis::BatchArity`], picked per unit by replica count)
//! — a pure throughput knob that never enters unit hashes or stored
//! record bytes, since every arity produces the same bytes. Because the
//! decision depends only on the unit, sharding a campaign over threads
//! cannot change any record's route or bytes.
//!
//! Replica seeds follow the Monte Carlo contract
//! ([`dynring_analysis::seeds::derive_stream_seed`]): replica `r` of a
//! Bernoulli unit is lane `r % 64` of the stream seeded
//! `derive_stream_seed(unit.seed, r / 64)`, so any replica of any store
//! can be replayed in isolation on the serial engine.

use serde::{Deserialize, Serialize};

use dynring_analysis::seeds::derive_stream_seed;
use dynring_analysis::{
    first_cover, BatchArity, BatchSweep, Scenario, ScenarioError, SerialReplica,
};
use dynring_engine::{Oblivious, RobotPlacement, LANES};
use dynring_graph::{AlwaysPresent, BernoulliLane, BernoulliReplicas, RingTopology, Time};

use crate::spec::{PlannedUnit, UnitDynamics, UnitScheduler, WorkUnit, ASYNC_DYNAMICS};
use crate::CampaignError;

/// Where a unit executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The lockstep batch engine at the given lane arity.
    Batch(BatchArity),
    /// The serial engines (round simulator or phase-split async
    /// simulator).
    Serial,
}

impl Route {
    /// Display name (also the form recorded in the store). The arity is
    /// deliberately *not* part of the name: stored route strings stay
    /// `"batch"`/`"serial"` at every arity, because every arity produces
    /// the same bytes.
    pub fn name(&self) -> &'static str {
        match self {
            Route::Batch(_) => "batch",
            Route::Serial => "serial",
        }
    }

    /// Whether this is the batch route (at any arity).
    pub fn is_batch(&self) -> bool {
        matches!(self, Route::Batch(_))
    }

    /// The lane arity of the batch route, `None` on the serial route.
    pub fn arity(&self) -> Option<BatchArity> {
        match self {
            Route::Batch(arity) => Some(*arity),
            Route::Serial => None,
        }
    }
}

/// The batch-eligibility rule: pure Bernoulli dynamics under the FSYNC or
/// SSYNC scheduler (the two whose activation is the same deterministic
/// vector in every lane each round). A pure function of the
/// unit, so the decision is identical on every shard of every run; the
/// arity is [`BatchArity::for_replicas`] on the unit's replica budget.
pub fn route_unit(unit: &WorkUnit) -> Route {
    if unit.dynamics.is_pure_bernoulli()
        && matches!(unit.scheduler, UnitScheduler::Sync | UnitScheduler::Ssync)
    {
        Route::Batch(BatchArity::for_replicas(unit.replicas))
    } else {
        Route::Serial
    }
}

/// What one unit measured: first-cover statistics over its replicas.
/// Integer accumulators only (`total_cover_time` instead of a float sum),
/// so records are byte-identical across machines and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitMeasurement {
    /// Replicas executed.
    pub replicas: usize,
    /// Replicas that completed a first cover within the horizon.
    pub covered: usize,
    /// Sum of first-cover rounds over the covered replicas.
    pub total_cover_time: u64,
    /// Minimum first-cover round over the covered replicas.
    pub min_cover_time: Option<Time>,
    /// Maximum first-cover round over the covered replicas.
    pub max_cover_time: Option<Time>,
}

impl UnitMeasurement {
    /// Folds per-replica first covers into the measurement.
    pub fn from_first_covers(firsts: &[Option<Time>]) -> Self {
        let covered: Vec<Time> = firsts.iter().filter_map(|&c| c).collect();
        UnitMeasurement {
            replicas: firsts.len(),
            covered: covered.len(),
            total_cover_time: covered.iter().sum(),
            min_cover_time: covered.iter().copied().min(),
            max_cover_time: covered.iter().copied().max(),
        }
    }

    /// `covered / replicas`.
    pub fn survival_rate(&self) -> f64 {
        if self.replicas == 0 {
            return 0.0;
        }
        self.covered as f64 / self.replicas as f64
    }

    /// Mean first-cover round over the covered replicas (0 when none).
    pub fn mean_cover_time(&self) -> f64 {
        if self.covered == 0 {
            return 0.0;
        }
        self.total_cover_time as f64 / self.covered as f64
    }

    /// Field-by-field comparison against another measurement:
    /// `(field, self's value, other's value)` per differing field, empty
    /// when equal. Certification uses this to name *which* field of a
    /// stored result diverges from a fresh re-execution.
    pub fn diff(&self, other: &UnitMeasurement) -> Vec<(&'static str, String, String)> {
        fn opt(t: Option<Time>) -> String {
            t.map_or_else(|| "none".to_string(), |t| t.to_string())
        }
        let mut diffs = Vec::new();
        if self.replicas != other.replicas {
            diffs.push(("replicas", self.replicas.to_string(), other.replicas.to_string()));
        }
        if self.covered != other.covered {
            diffs.push(("covered", self.covered.to_string(), other.covered.to_string()));
        }
        if self.total_cover_time != other.total_cover_time {
            diffs.push((
                "total_cover_time",
                self.total_cover_time.to_string(),
                other.total_cover_time.to_string(),
            ));
        }
        if self.min_cover_time != other.min_cover_time {
            diffs.push(("min_cover_time", opt(self.min_cover_time), opt(other.min_cover_time)));
        }
        if self.max_cover_time != other.max_cover_time {
            diffs.push(("max_cover_time", opt(self.max_cover_time), opt(other.max_cover_time)));
        }
        diffs
    }
}

/// One line of the result store: a unit, where it ran, what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// [`WorkUnit::content_hash`] — the store key.
    pub hash: String,
    /// Position in the plan expansion.
    pub index: usize,
    /// `"batch"` or `"serial"` ([`Route::name`]).
    pub route: String,
    /// The unit itself (stores are self-describing).
    pub unit: WorkUnit,
    /// The measurement.
    pub result: UnitMeasurement,
}

/// Runs a unit replica by replica on the serial first-cover kernel. Replica
/// `r` of a pure-Bernoulli unit plays lane `r % 64` of the stream seeded
/// `derive_stream_seed(unit.seed, r / 64)`, the batch route's numbering,
/// so a forced-serial run is the batch route's reference. Replica `r` of
/// any other unit is the scenario seeded `derive_stream_seed(unit.seed, r)`.
fn serial_first_covers(
    unit: &WorkUnit,
    placements: &[RobotPlacement],
) -> Result<Vec<Option<Time>>, ScenarioError> {
    let ring = RingTopology::new(unit.ring_size)?;
    let replica = SerialReplica {
        algorithm: unit.algorithm,
        ring: &ring,
        placements,
        horizon: unit.horizon,
    };
    let lane = |r: usize, p: f64| -> Result<BernoulliLane, ScenarioError> {
        let seed = derive_stream_seed(unit.seed, (r / LANES) as u64);
        Ok(BernoulliReplicas::new(ring.clone(), p, seed)?.lane((r % LANES) as u32))
    };
    let suite = |r: usize, scheduler| {
        let dynamics = unit
            .dynamics
            .as_dynamics_choice()
            .expect("pure Bernoulli units play lanes, not the suite");
        Scenario::new(
            unit.ring_size,
            unit.placement.clone(),
            unit.algorithm,
            dynamics,
            unit.horizon,
        )
        .with_seed(derive_stream_seed(unit.seed, r as u64))
        .with_scheduler(scheduler)
    };
    let first = |r: usize| match (unit.scheduler.round_scheduler(), unit.dynamics) {
        (Some(scheduler), UnitDynamics::Bernoulli { p }) => {
            replica.first_cover(Oblivious::new(lane(r, p)?), scheduler)
        }
        (Some(scheduler), _) => first_cover(&suite(r, scheduler)),
        (None, UnitDynamics::Bernoulli { p }) => {
            replica.first_cover_async(Oblivious::new(lane(r, p)?))
        }
        (None, _) => replica.first_cover_async(Oblivious::new(AlwaysPresent::new(ring.clone()))),
    };
    (0..unit.replicas).map(first).collect()
}

/// Executes one planned unit on its natural route.
///
/// # Errors
///
/// [`CampaignError::Scenario`] when the unit is ill-formed for the
/// engines (placement/ring mismatch, invalid probability, …);
/// [`CampaignError::InvalidSpec`] for an async unit over dynamics the
/// async scheduler does not support (a spec would have been refused, but
/// a store record can still carry one).
pub fn execute_unit(planned: &PlannedUnit) -> Result<UnitRecord, CampaignError> {
    execute_unit_on(planned, route_unit(&planned.unit))
}

/// Executes one planned unit on an explicit route — the natural one, or
/// `Route::Serial` forced onto a batch-eligible unit (the lane-vs-serial
/// equivalence tests; both routes must measure identical results).
///
/// # Errors
///
/// See [`execute_unit`]; additionally [`CampaignError::InvalidSpec`] when
/// `Route::Batch` is forced onto a unit that is not batch-eligible.
pub fn execute_unit_on(planned: &PlannedUnit, route: Route) -> Result<UnitRecord, CampaignError> {
    let unit = &planned.unit;
    let ineligible = |why: String| {
        Err(CampaignError::InvalidSpec(format!(
            "unit {} ({} × {}) {why}",
            planned.hash,
            unit.dynamics.name(),
            unit.scheduler.name()
        )))
    };
    if route.is_batch() && !route_unit(unit).is_batch() {
        return ineligible("is not batch-eligible".into());
    }
    if unit.scheduler == UnitScheduler::Async && !unit.dynamics.runs_async() {
        return ineligible(format!("is refused: {ASYNC_DYNAMICS}"));
    }
    let placements = unit.placement.build(unit.ring_size);
    let firsts = match (route, unit.dynamics) {
        (Route::Batch(arity), UnitDynamics::Bernoulli { p }) => {
            let ring = RingTopology::new(unit.ring_size).map_err(ScenarioError::from)?;
            let sweep = BatchSweep {
                algorithm: unit.algorithm,
                ring: &ring,
                placements: &placements,
                p,
                horizon: unit.horizon,
                replicas: unit.replicas,
                seed: unit.seed,
                scheduler: unit
                    .scheduler
                    .round_scheduler()
                    .expect("eligibility checked above"),
            };
            // Thread-level sharding lives at the campaign layer (units in
            // parallel), so the sweep itself stays single-threaded.
            sweep.first_covers_at(arity, 1)?
        }
        (Route::Serial, _) => serial_first_covers(unit, &placements)?,
        (Route::Batch(_), _) => unreachable!("eligibility checked above"),
    };
    Ok(UnitRecord {
        hash: planned.hash.clone(),
        index: planned.index,
        route: route.name().to_string(),
        unit: unit.clone(),
        result: UnitMeasurement::from_first_covers(&firsts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, ExplicitRobot, PlacementAxis};
    use dynring_analysis::AlgorithmChoice;
    use dynring_analysis::PlacementSpec;

    fn unit(dynamics: UnitDynamics, scheduler: UnitScheduler) -> PlannedUnit {
        let unit = WorkUnit {
            ring_size: 6,
            robots: 3,
            placement: PlacementSpec::EvenlySpaced { count: 3 },
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics,
            scheduler,
            horizon: 400,
            seed: 0xFEED,
            replicas: if dynamics.is_stochastic() { 70 } else { 1 },
        };
        PlannedUnit { index: 0, hash: unit.content_hash(), unit }
    }

    #[test]
    fn routing_is_bernoulli_times_lane_uniform_schedulers_exactly() {
        // The unit-level routing-decision pin of the acceptance criteria:
        // batch iff (pure Bernoulli, FSYNC or SSYNC); every other
        // combination is serial. The 70-replica test units pad to two
        // 64-lane groups or one 128-lane group — the tie goes wide.
        let b = UnitDynamics::Bernoulli { p: 0.5 };
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Sync).unit),
            Route::Batch(BatchArity::Lanes128)
        );
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Ssync).unit),
            Route::Batch(BatchArity::Lanes128)
        );
        assert_eq!(route_unit(&unit(b, UnitScheduler::Async).unit), Route::Serial);
        for dynamics in [
            UnitDynamics::Static,
            UnitDynamics::BernoulliRecurrent { p: 0.5, bound: 8 },
            UnitDynamics::Markov { p_off: 0.15, p_on: 0.4 },
            UnitDynamics::SweepingOutage { dwell: 3 },
            UnitDynamics::TIntervalConnected { stability: 4 },
            UnitDynamics::PointedBlocker { budget: 4 },
            UnitDynamics::SingleConfiner,
            UnitDynamics::TwoConfiner { patience: 64 },
            UnitDynamics::SsyncBlocker,
        ] {
            assert_eq!(
                route_unit(&unit(dynamics, UnitScheduler::Sync).unit),
                Route::Serial,
                "{}",
                dynamics.name()
            );
        }
        // And the executed record names its route — arity-free, so the
        // stored bytes of batch-eligible units never depend on the lane
        // width the engine happened to pick.
        let record = execute_unit(&unit(b, UnitScheduler::Sync)).expect("runs");
        assert_eq!(record.route, "batch");
        let record = execute_unit(&unit(UnitDynamics::Static, UnitScheduler::Sync))
            .expect("runs");
        assert_eq!(record.route, "serial");
        // The arity accessor: observable on the route, absent serially.
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Sync).unit).arity(),
            Some(BatchArity::Lanes128)
        );
        assert_eq!(Route::Serial.arity(), None);
    }

    #[test]
    fn batch_route_equals_forced_serial_bit_for_bit() {
        // 70 replicas: ragged at every arity (one full 64-lane group plus
        // a partial one, or one padded wide group), so the ghost-lane
        // masking is exercised on the batch side while the serial side
        // never builds the padding lanes. Pinned at all three arities.
        let planned = unit(UnitDynamics::Bernoulli { p: 0.5 }, UnitScheduler::Sync);
        let serial = execute_unit_on(&planned, Route::Serial).expect("serial runs");
        for arity in BatchArity::ALL {
            let batch =
                execute_unit_on(&planned, Route::Batch(arity)).expect("batch runs");
            assert_eq!(batch.result, serial.result, "arity={}", arity.name());
            assert_eq!(batch.result.replicas, 70);
            assert!(batch.result.covered > 0, "{:?}", batch.result);
        }
    }

    #[test]
    fn ssync_batch_route_equals_forced_serial_bit_for_bit() {
        // A pure-Bernoulli SSYNC unit runs on the batch engine under
        // round-robin activation, and its stored record must be
        // byte-identical to the forced-serial run (which plays
        // `RoundRobinSingle` on the serial engine) — at every arity,
        // including the natural route.
        let planned = unit(UnitDynamics::Bernoulli { p: 0.7 }, UnitScheduler::Ssync);
        let serial = execute_unit_on(&planned, Route::Serial).expect("serial runs");
        assert_eq!(serial.route, "serial");
        for arity in BatchArity::ALL {
            let batch =
                execute_unit_on(&planned, Route::Batch(arity)).expect("batch runs");
            assert_eq!(batch.result, serial.result, "arity={}", arity.name());
        }
        let natural = execute_unit(&planned).expect("runs");
        assert_eq!(natural.route, "batch");
        assert_eq!(natural.result, serial.result);
        let json_batch = serde_json::to_string(&natural.result).expect("serialize");
        let json_serial = serde_json::to_string(&serial.result).expect("serialize");
        assert_eq!(json_batch, json_serial, "stored measurement bytes drifted");
    }

    #[test]
    fn batch_route_equals_forced_serial_for_explicit_placements() {
        // The new spec axis: arbitrary (non-tower) placements with mixed
        // chirality and initial directions, lane-vs-serial equivalent.
        let robots = [
            ExplicitRobot { node: 0, mirrored: false, start_right: true },
            ExplicitRobot { node: 1, mirrored: true, start_right: false },
            ExplicitRobot { node: 4, mirrored: true, start_right: true },
        ];
        let placements: Vec<RobotPlacement> =
            robots.iter().map(ExplicitRobot::build).collect();
        let work = WorkUnit {
            ring_size: 7,
            robots: 3,
            placement: PlacementSpec::Explicit(placements),
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics: UnitDynamics::Bernoulli { p: 0.5 },
            scheduler: UnitScheduler::Sync,
            horizon: 500,
            seed: 0xBEEF,
            replicas: 66,
        };
        let planned = PlannedUnit { index: 0, hash: work.content_hash(), unit: work };
        let batch = execute_unit_on(&planned, route_unit(&planned.unit)).expect("batch runs");
        assert_eq!(batch.route, "batch");
        let serial = execute_unit_on(&planned, Route::Serial).expect("serial runs");
        assert_eq!(batch.result, serial.result);
        assert!(batch.result.covered > 0, "{:?}", batch.result);
    }

    #[test]
    fn forcing_batch_onto_ineligible_units_errors() {
        let planned = unit(UnitDynamics::Static, UnitScheduler::Sync);
        for arity in BatchArity::ALL {
            assert!(matches!(
                execute_unit_on(&planned, Route::Batch(arity)),
                Err(CampaignError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn ssync_and_async_schedulers_produce_plausible_covers() {
        let sync = execute_unit(&unit(UnitDynamics::Bernoulli { p: 0.9 }, UnitScheduler::Sync))
            .expect("runs");
        let ssync =
            execute_unit(&unit(UnitDynamics::Bernoulli { p: 0.9 }, UnitScheduler::Ssync))
                .expect("runs");
        let asynch =
            execute_unit(&unit(UnitDynamics::Bernoulli { p: 0.9 }, UnitScheduler::Async))
                .expect("runs");
        assert_eq!(ssync.route, "batch");
        assert_eq!(asynch.route, "serial");
        assert!(sync.result.covered > 0);
        assert!(ssync.result.covered > 0);
        assert!(asynch.result.covered > 0);
        // One robot per round covers strictly later than all-at-once.
        assert!(
            ssync.result.mean_cover_time() > sync.result.mean_cover_time(),
            "{} vs {}",
            ssync.result.mean_cover_time(),
            sync.result.mean_cover_time()
        );
    }

    #[test]
    fn async_units_over_unsupported_dynamics_are_refused_not_panicked() {
        // The planner refuses such a spec, but a store record can still
        // carry the unit into execution (certify level 2 replays records
        // even after the membership check fails).
        let planned = unit(
            UnitDynamics::Markov {
                p_off: 0.2,
                p_on: 0.4,
            },
            UnitScheduler::Async,
        );
        for route in [route_unit(&planned.unit), Route::Serial] {
            match execute_unit_on(&planned, route) {
                Err(CampaignError::InvalidSpec(msg)) => {
                    assert!(msg.contains("(markov × async)"), "{msg}");
                    assert!(msg.contains("supports only oblivious dynamics"), "{msg}");
                }
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn adversary_units_confine_and_report_zero_survival() {
        let work = WorkUnit {
            ring_size: 6,
            robots: 1,
            placement: PlacementSpec::EvenlySpaced { count: 1 },
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics: UnitDynamics::SingleConfiner,
            scheduler: UnitScheduler::Sync,
            horizon: 400,
            seed: 1,
            replicas: 1,
        };
        let planned = PlannedUnit { index: 0, hash: work.content_hash(), unit: work };
        let record = execute_unit(&planned).expect("runs");
        assert_eq!(record.route, "serial");
        assert_eq!(record.result.covered, 0, "{:?}", record.result);
        assert_eq!(record.result.survival_rate(), 0.0);
    }

    #[test]
    fn campaign_replicas_match_the_monte_carlo_sweep() {
        // A batch-route unit over evenly-spaced placements is exactly a
        // Monte Carlo sweep point: same seeds, same first covers.
        use dynring_analysis::{run_replicas_with, MonteCarloConfig};
        let planned = unit(UnitDynamics::Bernoulli { p: 0.5 }, UnitScheduler::Sync);
        let record = execute_unit(&planned).expect("runs");
        let cfg = MonteCarloConfig {
            ring_size: 6,
            robots: 3,
            presence_probability: 0.5,
            horizon: 400,
            replicas: 70,
            seed: 0xFEED,
            algorithm: AlgorithmChoice::Pef3Plus,
        };
        let summary = run_replicas_with(&cfg, 1).expect("valid config");
        assert_eq!(record.result.covered, summary.covered);
        assert_eq!(record.result.min_cover_time, summary.min_cover_time);
        assert_eq!(record.result.max_cover_time, summary.max_cover_time);
        assert_eq!(record.result.mean_cover_time(), summary.mean_cover_time);
    }

    #[test]
    fn scenario_route_units_replay_bit_for_bit() {
        for dynamics in [
            UnitDynamics::BernoulliRecurrent { p: 0.5, bound: 8 },
            UnitDynamics::Markov { p_off: 0.2, p_on: 0.4 },
            UnitDynamics::PointedBlocker { budget: 3 },
        ] {
            let planned = unit(dynamics, UnitScheduler::Sync);
            let a = execute_unit(&planned).expect("runs");
            let b = execute_unit(&planned).expect("runs");
            assert_eq!(a, b, "{}", dynamics.name());
        }
    }

    #[test]
    fn a_spec_unit_executes_end_to_end_per_route() {
        // Smoke over the planner → executor seam, covering both routes
        // and all three schedulers from one spec.
        let spec = CampaignSpec {
            name: "seam".into(),
            ring_sizes: vec![5],
            robots: vec![2],
            placements: vec![PlacementAxis::EvenlySpaced, PlacementAxis::Adjacent { start: 1 }],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![UnitDynamics::Bernoulli { p: 0.6 }, UnitDynamics::Static],
            schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync, UnitScheduler::Async],
            seeds: vec![3],
            horizon: 300,
            replicas: 4,
        };
        let plan = spec.plan().expect("valid spec");
        assert_eq!(plan.units.len(), 12);
        for planned in &plan.units {
            let record = execute_unit(planned).expect("unit runs");
            let expected = route_unit(&planned.unit).name();
            assert_eq!(record.route, expected);
            assert_eq!(record.result.replicas, planned.unit.replicas);
        }
    }
}
