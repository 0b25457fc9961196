//! Uniform scenario runner: one algorithm × one dynamics × one placement,
//! with verdicts, invariant checks and connected-over-time certification.
//!
//! This is the recording harness: it keeps the whole trace, so it serves
//! where the trace is the product (verdicts, capture/replay, audit,
//! Table 1). Callers that need only the first cover use the quiet
//! [`crate::serial`] kernel, which reports the same round.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use dynring_adversary::{PointedEdgeBlocker, SingleRobotConfiner, SsyncBlocker, TwoRobotConfiner};
use dynring_engine::{
    Capturing, Chirality, Dynamics, EngineError, Oblivious, Recurrent, RobotPlacement,
    RoundRobinSingle, Simulator, Streamed,
};
use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
use dynring_graph::generators::{self, RandomCotConfig};
use dynring_graph::{
    AlwaysPresent, EdgeId, GraphError, NodeId, PeriodicSchedule, RingTopology, ScriptedSchedule,
    TailBehavior, Time,
};

use crate::coverage::VisitLedger;
use crate::verdict::{ExplorationOutcome, SuccessCriteria};

/// The algorithm portfolio, as data (so grids and benches can enumerate
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmChoice {
    /// The paper's Algorithm 1.
    Pef3Plus,
    /// The paper's 2-robot / 3-node algorithm.
    Pef2,
    /// The paper's 1-robot / 2-node algorithm.
    Pef1,
    /// Rule 1 only.
    KeepDirection,
    /// Classic static-ring explorer.
    BounceOnMissingEdge,
    /// Rule 2 ablation.
    AlwaysTurnOnTower,
    /// Strawman: flips every round.
    AlternateDirection,
    /// Strawman: seeded pseudo-random directions.
    RandomDirection {
        /// The seed of the hash-based direction stream.
        seed: u64,
    },
}

impl AlgorithmChoice {
    /// Display name (matches the `Algorithm::name` of the instance).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmChoice::Pef3Plus => "PEF_3+",
            AlgorithmChoice::Pef2 => "PEF_2",
            AlgorithmChoice::Pef1 => "PEF_1",
            AlgorithmChoice::KeepDirection => "keep-direction",
            AlgorithmChoice::BounceOnMissingEdge => "bounce-on-missing",
            AlgorithmChoice::AlwaysTurnOnTower => "always-turn-on-tower",
            AlgorithmChoice::AlternateDirection => "alternate-direction",
            AlgorithmChoice::RandomDirection { .. } => "random-direction",
        }
    }

    /// The full portfolio (paper algorithms + baselines).
    pub fn portfolio() -> Vec<AlgorithmChoice> {
        vec![
            AlgorithmChoice::Pef3Plus,
            AlgorithmChoice::Pef2,
            AlgorithmChoice::Pef1,
            AlgorithmChoice::KeepDirection,
            AlgorithmChoice::BounceOnMissingEdge,
            AlgorithmChoice::AlwaysTurnOnTower,
            AlgorithmChoice::AlternateDirection,
            AlgorithmChoice::RandomDirection { seed: 0xD1CE },
        ]
    }
}

/// Runs `$body` with `$alg` bound to the concrete algorithm instance of an
/// [`AlgorithmChoice`]: the one portfolio dispatch, shared by the recording
/// harness, the serial first-cover kernel and the batch sweep.
macro_rules! with_algorithm {
    ($choice:expr, |$alg:ident| $body:expr) => {{
        use dynring_core::baselines as b;
        use $crate::scenario::AlgorithmChoice as C;
        match $choice {
            C::Pef3Plus => {
                let $alg = dynring_core::Pef3Plus::new();
                $body
            }
            C::Pef2 => {
                let $alg = dynring_core::Pef2::new();
                $body
            }
            C::Pef1 => {
                let $alg = dynring_core::Pef1::new();
                $body
            }
            C::KeepDirection => {
                let $alg = b::KeepDirection;
                $body
            }
            C::BounceOnMissingEdge => {
                let $alg = b::BounceOnMissingEdge;
                $body
            }
            C::AlwaysTurnOnTower => {
                let $alg = b::AlwaysTurnOnTower;
                $body
            }
            C::AlternateDirection => {
                let $alg = b::AlternateDirection;
                $body
            }
            C::RandomDirection { seed } => {
                let $alg = b::RandomDirection::new(seed);
                $body
            }
        }
    }};
}
pub(crate) use with_algorithm;

/// The dynamics suite, as data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DynamicsChoice {
    /// The static ring (every edge always present).
    Static,
    /// Bernoulli presence repaired to a hard recurrence bound.
    BernoulliRecurrent {
        /// Per-edge presence probability.
        p: f64,
        /// Recurrence bound enforced by repair.
        bound: Time,
    },
    /// Markov on/off edges.
    Markov {
        /// P(present → absent).
        p_off: f64,
        /// P(absent → present).
        p_on: f64,
    },
    /// Bernoulli + repair with one designated eventual missing edge.
    EventualMissing {
        /// Presence probability before repair.
        p: f64,
        /// Recurrence bound for the surviving edges.
        bound: Time,
        /// Index of the edge that dies.
        edge: usize,
        /// Time at which it dies.
        from: Time,
    },
    /// One deterministic moving outage (edge `t/dwell mod n` absent).
    SweepingOutage {
        /// Rounds the outage stays on each edge.
        dwell: Time,
    },
    /// A T-interval-connected schedule (Kuhn–Lynch–Oshman; the class
    /// assumed by Ilcinkas–Wade and Di Luna et al. for dynamic rings) — a
    /// strict subclass of connected-over-time.
    TIntervalConnected {
        /// Stability parameter: outages are separated by at least this
        /// many all-present rounds.
        stability: Time,
    },
    /// Periodic two-frame schedule alternating a pair of outages.
    AlternatingHoles,
    /// The greedy budget-constrained blocker.
    PointedBlocker {
        /// Per-edge consecutive-absence budget.
        budget: Time,
    },
    /// The Theorem 5.1 adversary.
    SingleConfiner,
    /// The Theorem 4.1 adversary.
    TwoConfiner {
        /// Rounds to wait for a designated move before declaring
        /// stalemate.
        patience: Time,
    },
    /// The SSYNC blocker (pair with round-robin activation).
    SsyncBlocker,
}

impl DynamicsChoice {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DynamicsChoice::Static => "static",
            DynamicsChoice::BernoulliRecurrent { .. } => "bernoulli+recurrence",
            DynamicsChoice::Markov { .. } => "markov",
            DynamicsChoice::EventualMissing { .. } => "eventual-missing",
            DynamicsChoice::SweepingOutage { .. } => "sweeping-outage",
            DynamicsChoice::TIntervalConnected { .. } => "t-interval-connected",
            DynamicsChoice::AlternatingHoles => "alternating-holes",
            DynamicsChoice::PointedBlocker { .. } => "pointed-blocker",
            DynamicsChoice::SingleConfiner => "thm5.1-confiner",
            DynamicsChoice::TwoConfiner { .. } => "thm4.1-confiner",
            DynamicsChoice::SsyncBlocker => "ssync-blocker",
        }
    }

    /// The benign suite used for "Possible" cells of Table 1 (everything
    /// oblivious or budgeted; no proof adversaries).
    pub fn benign_suite() -> Vec<DynamicsChoice> {
        vec![
            DynamicsChoice::Static,
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
            DynamicsChoice::Markov {
                p_off: 0.15,
                p_on: 0.4,
            },
            DynamicsChoice::SweepingOutage { dwell: 3 },
            DynamicsChoice::TIntervalConnected { stability: 4 },
            DynamicsChoice::PointedBlocker { budget: 4 },
        ]
    }
}

/// How robots are activated each round (the execution model axis).
///
/// Serialized as a plain string (`"fsync"` / `"ssync-round-robin"`);
/// deserializing `null` or a missing field yields [`SchedulerChoice::Fsync`]
/// so artifacts captured before this axis existed keep replaying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Fully synchronous: every robot is activated every round (the
    /// paper's model for all possibility results).
    #[default]
    Fsync,
    /// Semi-synchronous round-robin: exactly one robot per round, in id
    /// order (the schedule under which the SSYNC impossibility bites).
    SsyncRoundRobin,
}

impl SchedulerChoice {
    /// Display name (also the serialized form).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerChoice::Fsync => "fsync",
            SchedulerChoice::SsyncRoundRobin => "ssync-round-robin",
        }
    }

    /// The scheduler actually played against `dynamics`: the SSYNC blocker
    /// only makes sense under round-robin activation, so that dynamics
    /// implies it whatever the requested scheduler.
    pub(crate) fn played_against(self, dynamics: DynamicsChoice) -> SchedulerChoice {
        match dynamics {
            DynamicsChoice::SsyncBlocker => SchedulerChoice::SsyncRoundRobin,
            _ => self,
        }
    }
}

impl Serialize for SchedulerChoice {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.name().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SchedulerChoice {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        match deserializer.deserialize_value()? {
            serde::Value::Null => Ok(SchedulerChoice::Fsync),
            serde::Value::String(s) => match s.as_str() {
                "fsync" => Ok(SchedulerChoice::Fsync),
                "ssync-round-robin" => Ok(SchedulerChoice::SsyncRoundRobin),
                other => Err(D::Error::custom(format!("unknown scheduler: {other}"))),
            },
            other => Err(D::Error::custom(format!(
                "expected scheduler string, found {}",
                other.kind()
            ))),
        }
    }
}

/// How robots are placed initially.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// `count` robots spread evenly (mixed chirality: odd ids mirrored).
    EvenlySpaced {
        /// Number of robots.
        count: usize,
    },
    /// `count` robots on consecutive nodes from `start` (what the
    /// two-robot confiner requires).
    Adjacent {
        /// Number of robots.
        count: usize,
        /// First node.
        start: usize,
    },
    /// Fully explicit placements.
    Explicit(Vec<RobotPlacement>),
}

impl PlacementSpec {
    /// Materializes the placements on a ring of `n` nodes.
    pub fn build(&self, n: usize) -> Vec<RobotPlacement> {
        match self {
            PlacementSpec::EvenlySpaced { count } => (0..*count)
                .map(|i| {
                    let node = NodeId::new(i * n / count);
                    let chirality = if i % 2 == 0 {
                        Chirality::Standard
                    } else {
                        Chirality::Mirrored
                    };
                    RobotPlacement::at(node).with_chirality(chirality)
                })
                .collect(),
            PlacementSpec::Adjacent { count, start } => (0..*count)
                .map(|i| RobotPlacement::at(NodeId::new((start + i) % n)))
                .collect(),
            PlacementSpec::Explicit(placements) => placements.clone(),
        }
    }

    /// Number of robots this spec yields.
    pub fn count(&self) -> usize {
        match self {
            PlacementSpec::EvenlySpaced { count } | PlacementSpec::Adjacent { count, .. } => {
                *count
            }
            PlacementSpec::Explicit(p) => p.len(),
        }
    }
}

/// A fully specified experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robot placements.
    pub placement: PlacementSpec,
    /// The algorithm under test.
    pub algorithm: AlgorithmChoice,
    /// The dynamics / adversary.
    pub dynamics: DynamicsChoice,
    /// Rounds to run.
    pub horizon: Time,
    /// Seed for stochastic dynamics.
    pub seed: u64,
    /// Verdict criteria.
    pub criteria: SuccessCriteria,
    /// The activation scheduler (FSYNC unless stated otherwise).
    pub scheduler: SchedulerChoice,
}

impl Scenario {
    /// A scenario with default criteria and seed.
    pub fn new(
        ring_size: usize,
        placement: PlacementSpec,
        algorithm: AlgorithmChoice,
        dynamics: DynamicsChoice,
        horizon: Time,
    ) -> Self {
        Scenario {
            ring_size,
            placement,
            algorithm,
            dynamics,
            horizon,
            seed: 0xDECADE,
            criteria: SuccessCriteria::default(),
            scheduler: SchedulerChoice::Fsync,
        }
    }

    /// Returns the scenario with another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the scenario with another activation scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns the scenario with other criteria.
    pub fn with_criteria(mut self, criteria: SuccessCriteria) -> Self {
        self.criteria = criteria;
        self
    }
}

/// Everything measured about one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The verdict.
    pub outcome: ExplorationOutcome,
    /// Completed covers.
    pub covers: u64,
    /// Largest revisit gap.
    pub max_gap: Time,
    /// Round of the first complete cover, if any.
    pub first_cover: Option<Time>,
    /// Number of distinct visited nodes.
    pub visited_nodes: usize,
    /// Largest tower observed.
    pub max_tower: usize,
    /// Total robot moves.
    pub moves: u64,
    /// Connected-over-time certification of the (captured) schedule that
    /// was actually played.
    pub cot: CotVerdict,
}

impl ScenarioReport {
    /// `true` when the outcome is perpetual exploration.
    pub fn is_perpetual(&self) -> bool {
        self.outcome.is_perpetual()
    }
}

/// Errors from scenario construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// Underlying graph error.
    Graph(GraphError),
    /// Underlying engine error.
    Engine(EngineError),
    /// The dynamics choice referenced an invalid edge.
    BadEdge {
        /// The offending index.
        index: usize,
    },
    /// A Monte Carlo sweep was asked for zero replicas.
    NoReplicas,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Graph(e) => write!(f, "graph error: {e}"),
            ScenarioError::Engine(e) => write!(f, "engine error: {e}"),
            ScenarioError::BadEdge { index } => write!(f, "invalid edge index {index}"),
            ScenarioError::NoReplicas => write!(f, "a sweep needs at least one replica"),
        }
    }
}

impl Error for ScenarioError {}

impl From<GraphError> for ScenarioError {
    fn from(e: GraphError) -> Self {
        ScenarioError::Graph(e)
    }
}

impl From<EngineError> for ScenarioError {
    fn from(e: EngineError) -> Self {
        ScenarioError::Engine(e)
    }
}

/// Builds the dynamics a scenario plays, seeded `seed`. Generated classes
/// are frame streams drawn one round at a time (the bits of the
/// `generators` scripts), so a run pays only for the rounds it plays.
pub(crate) fn build_dynamics(
    ring: &RingTopology,
    choice: DynamicsChoice,
    seed: u64,
) -> Result<Box<dyn Dynamics>, ScenarioError> {
    let random_cot = |p, bound, eventual_missing| -> Result<Box<dyn Dynamics>, ScenarioError> {
        let cfg = RandomCotConfig {
            presence_probability: p,
            recurrence_bound: bound,
            eventual_missing,
        };
        let stream = generators::random_cot_stream(ring, &cfg, seed)?;
        Ok(Box::new(Streamed(stream)))
    };
    let boxed: Box<dyn Dynamics> = match choice {
        DynamicsChoice::Static => Box::new(Oblivious::new(AlwaysPresent::new(ring.clone()))),
        DynamicsChoice::BernoulliRecurrent { p, bound } => random_cot(p, bound, None)?,
        DynamicsChoice::Markov { p_off, p_on } => {
            let chain = Streamed(generators::markov_stream(ring, p_off, p_on, seed)?);
            // Repair so the class hypothesis provably holds on the window.
            Box::new(Recurrent::new(chain, 16, None))
        }
        DynamicsChoice::EventualMissing { p, bound, edge, from } => {
            if edge >= ring.edge_count() {
                return Err(ScenarioError::BadEdge { index: edge });
            }
            random_cot(p, bound, Some((EdgeId::new(edge), from)))?
        }
        DynamicsChoice::SweepingOutage { dwell } => {
            Box::new(Oblivious::new(generators::sweeping_outage(ring, dwell)))
        }
        DynamicsChoice::TIntervalConnected { stability } => Box::new(Streamed(
            generators::t_interval_stream(ring, stability, seed),
        )),
        DynamicsChoice::AlternatingHoles => {
            let n = ring.edge_count();
            let mut f0 = dynring_graph::EdgeSet::full(n);
            f0.remove(EdgeId::new(0));
            let mut f1 = dynring_graph::EdgeSet::full(n);
            f1.remove(EdgeId::new(n / 2));
            let schedule = PeriodicSchedule::new(ring.clone(), vec![f0, f1])?;
            Box::new(Oblivious::new(schedule))
        }
        DynamicsChoice::PointedBlocker { budget } => {
            Box::new(PointedEdgeBlocker::new(ring.clone(), budget, None))
        }
        DynamicsChoice::SingleConfiner => Box::new(SingleRobotConfiner::new(ring.clone())),
        DynamicsChoice::TwoConfiner { patience } => {
            Box::new(TwoRobotConfiner::new(ring.clone(), patience))
        }
        DynamicsChoice::SsyncBlocker => Box::new(SsyncBlocker::new(ring.clone())),
    };
    Ok(boxed)
}

/// Records the scenario's algorithm over its horizon against the dynamics
/// `build` makes for its ring, and reports, returning the schedule the
/// dynamics actually played.
fn record(
    scenario: &Scenario,
    build: impl FnOnce(&RingTopology) -> Result<Box<dyn Dynamics>, ScenarioError>,
) -> Result<(ScenarioReport, ScriptedSchedule), ScenarioError> {
    let ring = RingTopology::new(scenario.ring_size)?;
    let placements = scenario.placement.build(scenario.ring_size);
    let dynamics = Capturing::new(build(&ring)?);
    let scheduler = scenario.scheduler.played_against(scenario.dynamics);
    let (trace, script) = with_algorithm!(scenario.algorithm, |algorithm| {
        let mut sim = Simulator::new(ring, algorithm, dynamics, placements)?;
        if scheduler == SchedulerChoice::SsyncRoundRobin {
            sim.set_activation(RoundRobinSingle);
        }
        (
            sim.run_recording(scenario.horizon),
            sim.dynamics().to_script(TailBehavior::AllPresent),
        )
    });
    // A generous recurrence bound: adversaries must still recur within it
    // (except their single allowed missing edge).
    let bound = (scenario.horizon / 4).max(16);
    let cot = certify_connected_over_time(&script, scenario.horizon, bound);
    let ledger = VisitLedger::from_trace(&trace);
    let moves = trace
        .rounds()
        .iter()
        .map(|r| r.robots.iter().filter(|x| x.moved).count() as u64)
        .sum();
    let report = ScenarioReport {
        outcome: ExplorationOutcome::evaluate(&ledger, scenario.criteria),
        covers: ledger.covers(),
        max_gap: ledger.max_revisit_gap(),
        first_cover: ledger.first_cover(),
        visited_nodes: ledger.visited_count(),
        max_tower: trace.max_tower_size(),
        moves,
        cot,
    };
    Ok((report, script))
}

/// Runs one scenario end to end and reports.
///
/// # Errors
///
/// [`ScenarioError`] when the scenario is ill-formed (bad ring size, bad
/// placements, invalid probabilities, …).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_capturing(scenario).map(|(report, _)| report)
}

/// Runs one scenario and additionally returns the captured schedule — the
/// exact sequence of snapshots the (possibly adaptive) dynamics played —
/// for artifact export and later replay.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_scenario_capturing(
    scenario: &Scenario,
) -> Result<(ScenarioReport, ScriptedSchedule), ScenarioError> {
    record(scenario, |ring| {
        build_dynamics(ring, scenario.dynamics, scenario.seed)
    })
}

/// Replays a scenario's algorithm against a *given* pure schedule (instead
/// of the scenario's own dynamics) — the verification half of the
/// capture/replay artifact workflow. Deterministic: replaying a captured
/// schedule reproduces the original report bit for bit.
///
/// # Errors
///
/// See [`run_scenario`]; additionally
/// [`EngineError::RingMismatch`] (wrapped) when the schedule's ring does
/// not match the scenario.
pub fn run_on_schedule(
    scenario: &Scenario,
    schedule: ScriptedSchedule,
) -> Result<ScenarioReport, ScenarioError> {
    record(scenario, |_| Ok(Box::new(Oblivious::new(schedule)))).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pef3_succeeds_across_the_benign_suite() {
        for dynamics in DynamicsChoice::benign_suite() {
            let scenario = Scenario::new(
                8,
                PlacementSpec::EvenlySpaced { count: 3 },
                AlgorithmChoice::Pef3Plus,
                dynamics,
                800,
            );
            let report = run_scenario(&scenario).expect("valid scenario");
            assert!(
                report.is_perpetual(),
                "{} on {}: {:?}",
                scenario.algorithm.name(),
                dynamics.name(),
                report.outcome
            );
            assert!(report.cot.is_certified(), "{dynamics:?} must be COT");
        }
    }

    #[test]
    fn pef3_survives_eventual_missing_edge() {
        let scenario = Scenario::new(
            7,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::EventualMissing {
                p: 0.6,
                bound: 8,
                edge: 2,
                from: 60,
            },
            1200,
        );
        let report = run_scenario(&scenario).expect("valid scenario");
        assert!(report.is_perpetual(), "{:?}", report.outcome);
    }

    #[test]
    fn keep_direction_fails_on_eventual_missing_edge() {
        let scenario = Scenario::new(
            7,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::KeepDirection,
            DynamicsChoice::EventualMissing {
                p: 0.6,
                bound: 8,
                edge: 2,
                from: 10,
            },
            1000,
        )
        .with_criteria(SuccessCriteria {
            min_covers: 3,
            max_gap: Some(500),
        });
        let report = run_scenario(&scenario).expect("valid scenario");
        // All robots eventually pile up at the dead edge: exploration
        // stops. (They do cover some prefix first.)
        assert!(!report.is_perpetual(), "{:?}", report.outcome);
    }

    #[test]
    fn single_robot_is_confined_regardless_of_algorithm() {
        for algorithm in [
            AlgorithmChoice::Pef1,
            AlgorithmChoice::Pef3Plus,
            AlgorithmChoice::BounceOnMissingEdge,
            AlgorithmChoice::AlternateDirection,
            AlgorithmChoice::RandomDirection { seed: 5 },
        ] {
            let scenario = Scenario::new(
                6,
                PlacementSpec::EvenlySpaced { count: 1 },
                algorithm,
                DynamicsChoice::SingleConfiner,
                600,
            );
            let report = run_scenario(&scenario).expect("valid scenario");
            assert!(
                report.outcome.is_confined(),
                "{}: {:?}",
                algorithm.name(),
                report.outcome
            );
            assert!(report.visited_nodes <= 2);
            assert!(report.cot.is_certified(), "{}", algorithm.name());
        }
    }

    #[test]
    fn two_robots_are_confined_regardless_of_algorithm() {
        for algorithm in [
            AlgorithmChoice::Pef2,
            AlgorithmChoice::Pef3Plus,
            AlgorithmChoice::BounceOnMissingEdge,
            AlgorithmChoice::KeepDirection,
        ] {
            let scenario = Scenario::new(
                7,
                PlacementSpec::Adjacent { count: 2, start: 1 },
                algorithm,
                DynamicsChoice::TwoConfiner { patience: 64 },
                900,
            );
            let report = run_scenario(&scenario).expect("valid scenario");
            assert!(
                report.outcome.is_confined(),
                "{}: {:?}",
                algorithm.name(),
                report.outcome
            );
            assert!(report.visited_nodes <= 3, "{}", algorithm.name());
            assert_eq!(report.max_tower, 0, "{}", algorithm.name());
        }
    }

    #[test]
    fn pef2_succeeds_on_three_ring() {
        for dynamics in [
            DynamicsChoice::Static,
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 6 },
            DynamicsChoice::EventualMissing {
                p: 0.6,
                bound: 6,
                edge: 1,
                from: 30,
            },
        ] {
            let scenario = Scenario::new(
                3,
                PlacementSpec::Adjacent { count: 2, start: 0 },
                AlgorithmChoice::Pef2,
                dynamics,
                600,
            );
            let report = run_scenario(&scenario).expect("valid scenario");
            assert!(
                report.is_perpetual(),
                "PEF_2 on {}: {:?}",
                dynamics.name(),
                report.outcome
            );
        }
    }

    #[test]
    fn pef1_succeeds_on_two_ring_and_chain() {
        // Multigraph 2-ring.
        let scenario = Scenario::new(
            2,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::BernoulliRecurrent { p: 0.4, bound: 5 },
            400,
        );
        let report = run_scenario(&scenario).expect("valid scenario");
        assert!(report.is_perpetual(), "{:?}", report.outcome);

        // Chain: the second parallel edge never exists.
        let chain = Scenario::new(
            2,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 5,
                edge: 1,
                from: 0,
            },
            400,
        );
        let report = run_scenario(&chain).expect("valid scenario");
        assert!(report.is_perpetual(), "chain: {:?}", report.outcome);
    }

    #[test]
    fn ssync_blocker_freezes_everyone() {
        let scenario = Scenario::new(
            8,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::SsyncBlocker,
            400,
        );
        let report = run_scenario(&scenario).expect("valid scenario");
        assert!(report.outcome.is_confined());
        assert_eq!(report.moves, 0, "nobody may move under the SSYNC blocker");
    }

    #[test]
    fn capture_and_replay_reproduce_the_report() {
        // The artifact workflow: run with adaptive dynamics, capture the
        // played schedule, replay it obliviously — identical report.
        for dynamics in [
            DynamicsChoice::SingleConfiner,
            DynamicsChoice::PointedBlocker { budget: 3 },
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
        ] {
            let k = if matches!(dynamics, DynamicsChoice::SingleConfiner) {
                1
            } else {
                3
            };
            let scenario = Scenario::new(
                7,
                PlacementSpec::EvenlySpaced { count: k },
                AlgorithmChoice::Pef3Plus,
                dynamics,
                300,
            );
            let (report, schedule) =
                run_scenario_capturing(&scenario).expect("valid scenario");
            let replayed = run_on_schedule(&scenario, schedule).expect("valid replay");
            assert_eq!(report, replayed, "{} replay differs", dynamics.name());
        }
    }

    #[test]
    fn scenario_runs_are_bit_for_bit_reproducible() {
        // The reproducibility claim of EXPERIMENTS.md: same scenario, same
        // seed ⇒ identical report, for stochastic and adaptive dynamics
        // alike.
        for dynamics in [
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
            DynamicsChoice::Markov {
                p_off: 0.2,
                p_on: 0.4,
            },
            DynamicsChoice::PointedBlocker { budget: 3 },
        ] {
            let scenario = Scenario::new(
                7,
                PlacementSpec::EvenlySpaced { count: 3 },
                AlgorithmChoice::Pef3Plus,
                dynamics,
                300,
            )
            .with_seed(777);
            let a = run_scenario(&scenario).expect("valid scenario");
            let b = run_scenario(&scenario).expect("valid scenario");
            assert_eq!(a, b, "{} must be reproducible", dynamics.name());
        }
    }

    #[test]
    fn scenario_report_serializes_for_artifacts() {
        let scenario = Scenario::new(
            6,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::Static,
            200,
        );
        let report = run_scenario(&scenario).expect("valid scenario");
        let json = serde_json::to_string(&report).expect("serialize");
        let back: ScenarioReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(report, back);
        let scenario_json = serde_json::to_string(&scenario).expect("serialize scenario");
        let scenario_back: Scenario =
            serde_json::from_str(&scenario_json).expect("deserialize scenario");
        assert_eq!(scenario, scenario_back);
    }

    #[test]
    fn t_interval_suite_member_is_explorable_and_certified() {
        let scenario = Scenario::new(
            8,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::TIntervalConnected { stability: 4 },
            800,
        );
        let report = run_scenario(&scenario).expect("valid scenario");
        assert!(report.is_perpetual(), "{:?}", report.outcome);
        assert!(report.cot.is_certified());
    }

    #[test]
    fn ssync_scheduler_slows_covers_but_still_explores() {
        let base = Scenario::new(
            6,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::Static,
            600,
        );
        let fsync = run_scenario(&base).expect("valid scenario");
        let ssync = run_scenario(&base.clone().with_scheduler(SchedulerChoice::SsyncRoundRobin))
            .expect("valid scenario");
        // One robot per round instead of all three: strictly fewer moves,
        // strictly later first cover, but the static ring is still covered.
        assert!(ssync.moves < fsync.moves, "{} vs {}", ssync.moves, fsync.moves);
        assert!(ssync.first_cover.expect("covers") > fsync.first_cover.expect("covers"));
    }

    #[test]
    fn scheduler_field_round_trips_and_defaults_on_old_artifacts() {
        let scenario = Scenario::new(
            6,
            PlacementSpec::EvenlySpaced { count: 2 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::Static,
            100,
        )
        .with_scheduler(SchedulerChoice::SsyncRoundRobin);
        let json = serde_json::to_string(&scenario).expect("serialize");
        assert!(json.contains("\"ssync-round-robin\""), "{json}");
        let back: Scenario = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.scheduler, SchedulerChoice::SsyncRoundRobin);
        // A pre-axis artifact (no scheduler field) deserializes to FSYNC.
        let old = json.replace(",\"scheduler\":\"ssync-round-robin\"", "");
        assert_ne!(old, json, "the field must have been present to strip");
        let legacy: Scenario = serde_json::from_str(&old).expect("deserialize legacy");
        assert_eq!(legacy.scheduler, SchedulerChoice::Fsync);
    }

    #[test]
    fn bad_scenarios_are_rejected() {
        let bad_ring = Scenario::new(
            1,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::Static,
            10,
        );
        assert!(matches!(
            run_scenario(&bad_ring),
            Err(ScenarioError::Graph(_))
        ));

        let bad_edge = Scenario::new(
            4,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 4,
                edge: 9,
                from: 0,
            },
            10,
        );
        assert!(matches!(
            run_scenario(&bad_edge),
            Err(ScenarioError::BadEdge { index: 9 })
        ));

        let too_many = Scenario::new(
            3,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::Static,
            10,
        );
        assert!(matches!(
            run_scenario(&too_many),
            Err(ScenarioError::Engine(EngineError::TooManyRobots { .. }))
        ));
    }
}
