//! The declarative campaign specification and its planner.
//!
//! A [`CampaignSpec`] is a JSON document describing a grid over ring
//! sizes, team sizes, placements, algorithms, dynamics / schedule
//! classes, schedulers and seeds. [`CampaignSpec::plan`] expands the
//! grid into a deterministic list of [`WorkUnit`]s, each identified by a
//! content hash of its canonical JSON — the key under which the result
//! store records it, and the reason `resume` can skip completed units
//! no matter when or where they ran.
//!
//! Expansion order is fixed and part of the format contract:
//! `ring_size → placement → robots → algorithm → dynamics → scheduler →
//! seed`, skipping combinations with `k ≥ n` (a ring must have strictly
//! more nodes than robots). Deterministic dynamics (static rings,
//! scripted outages, the proof adversaries) have their replica count
//! clamped to 1 — every replica would be identical.

use serde::{Deserialize, Serialize};

use dynring_analysis::{AlgorithmChoice, DynamicsChoice, PlacementSpec, SchedulerChoice};
use dynring_engine::{Chirality, LocalDir, RobotPlacement};
use dynring_graph::{NodeId, Time};

use crate::CampaignError;

/// The dynamics / schedule-class axis of a campaign.
///
/// [`UnitDynamics::Bernoulli`] is the *pure* per-edge presence stream the
/// 64-replica batch engine executes natively; everything else maps onto
/// the scenario [`DynamicsChoice`] suite the serial kernel plays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UnitDynamics {
    /// Pure Bernoulli presence (batch-eligible under the sync scheduler).
    Bernoulli {
        /// Per-edge presence probability.
        p: f64,
    },
    /// The static ring.
    Static,
    /// Bernoulli presence repaired to a hard recurrence bound.
    BernoulliRecurrent {
        /// Per-edge presence probability.
        p: f64,
        /// Recurrence bound enforced by repair.
        bound: Time,
    },
    /// Markov on/off edges (repaired to recurrence).
    Markov {
        /// P(present → absent).
        p_off: f64,
        /// P(absent → present).
        p_on: f64,
    },
    /// One deterministic moving outage.
    SweepingOutage {
        /// Rounds the outage stays on each edge.
        dwell: Time,
    },
    /// A T-interval-connected schedule.
    TIntervalConnected {
        /// Minimum all-present rounds between outages.
        stability: Time,
    },
    /// The greedy budget-constrained blocker.
    PointedBlocker {
        /// Per-edge consecutive-absence budget.
        budget: Time,
    },
    /// The Theorem 5.1 single-robot confiner.
    SingleConfiner,
    /// The Theorem 4.1 two-robot confiner.
    TwoConfiner {
        /// Rounds to wait for a designated move before stalemate.
        patience: Time,
    },
    /// The SSYNC blocker (forces round-robin activation).
    SsyncBlocker,
}

impl UnitDynamics {
    /// Display name (used in reports and aggregation keys).
    pub fn name(&self) -> &'static str {
        match self {
            UnitDynamics::Bernoulli { .. } => "bernoulli",
            UnitDynamics::Static => "static",
            UnitDynamics::BernoulliRecurrent { .. } => "bernoulli+recurrence",
            UnitDynamics::Markov { .. } => "markov",
            UnitDynamics::SweepingOutage { .. } => "sweeping-outage",
            UnitDynamics::TIntervalConnected { .. } => "t-interval-connected",
            UnitDynamics::PointedBlocker { .. } => "pointed-blocker",
            UnitDynamics::SingleConfiner => "thm5.1-confiner",
            UnitDynamics::TwoConfiner { .. } => "thm4.1-confiner",
            UnitDynamics::SsyncBlocker => "ssync-blocker",
        }
    }

    /// Whether different seeds produce different executions. Deterministic
    /// dynamics get their replica budget clamped to 1 at plan time.
    pub fn is_stochastic(&self) -> bool {
        matches!(
            self,
            UnitDynamics::Bernoulli { .. }
                | UnitDynamics::BernoulliRecurrent { .. }
                | UnitDynamics::Markov { .. }
                | UnitDynamics::TIntervalConnected { .. }
        )
    }

    /// Whether this is the pure Bernoulli stream the batch engine runs
    /// natively (one half of the batch-eligibility rule; the other is the
    /// sync scheduler).
    pub fn is_pure_bernoulli(&self) -> bool {
        matches!(self, UnitDynamics::Bernoulli { .. })
    }

    /// Whether the async scheduler supports this dynamics: only the pure
    /// schedules the phase-split simulator plays (`bernoulli`, `static`).
    pub(crate) fn runs_async(&self) -> bool {
        matches!(self, UnitDynamics::Bernoulli { .. } | UnitDynamics::Static)
    }

    /// The scenario suite's equivalent, which the serial first-cover
    /// kernel ([`dynring_analysis::first_cover`]) builds and plays. `None`
    /// for the pure Bernoulli stream, which has no `DynamicsChoice`
    /// counterpart: its replicas play lanes of the replica streams the
    /// batch engine also draws from.
    pub fn as_dynamics_choice(&self) -> Option<DynamicsChoice> {
        Some(match *self {
            UnitDynamics::Bernoulli { .. } => return None,
            UnitDynamics::Static => DynamicsChoice::Static,
            UnitDynamics::BernoulliRecurrent { p, bound } => {
                DynamicsChoice::BernoulliRecurrent { p, bound }
            }
            UnitDynamics::Markov { p_off, p_on } => DynamicsChoice::Markov { p_off, p_on },
            UnitDynamics::SweepingOutage { dwell } => DynamicsChoice::SweepingOutage { dwell },
            UnitDynamics::TIntervalConnected { stability } => {
                DynamicsChoice::TIntervalConnected { stability }
            }
            UnitDynamics::PointedBlocker { budget } => DynamicsChoice::PointedBlocker { budget },
            UnitDynamics::SingleConfiner => DynamicsChoice::SingleConfiner,
            UnitDynamics::TwoConfiner { patience } => DynamicsChoice::TwoConfiner { patience },
            UnitDynamics::SsyncBlocker => DynamicsChoice::SsyncBlocker,
        })
    }
}

/// The activation-scheduler axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitScheduler {
    /// FSYNC: every robot every round (the paper's model; batch-eligible).
    Sync,
    /// SSYNC round-robin: one robot per round, in id order.
    Ssync,
    /// ASYNC: robots advance one Look/Compute/Move *phase* per tick on the
    /// phase-split simulator. Only oblivious dynamics (`bernoulli`,
    /// `static`) are supported; cover times are reported in ticks, and a
    /// unit's horizon buys `3 × horizon` ticks (one full L-C-M cycle per
    /// horizon round).
    Async,
}

impl UnitScheduler {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            UnitScheduler::Sync => "sync",
            UnitScheduler::Ssync => "ssync",
            UnitScheduler::Async => "async",
        }
    }

    /// The activation of the round engines (serial and batch); `None` for
    /// ASYNC, which runs on the phase-split simulator instead.
    pub(crate) fn round_scheduler(&self) -> Option<SchedulerChoice> {
        match self {
            UnitScheduler::Sync => Some(SchedulerChoice::Fsync),
            UnitScheduler::Ssync => Some(SchedulerChoice::SsyncRoundRobin),
            UnitScheduler::Async => None,
        }
    }
}

/// Why an async unit over any other dynamics is refused, by the planner
/// and by the executor alike.
pub(crate) const ASYNC_DYNAMICS: &str =
    "the async scheduler supports only oblivious dynamics (`bernoulli`, `static`)";

/// One robot of an explicit placement: node plus the full local frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplicitRobot {
    /// Node index.
    pub node: usize,
    /// Mirrored chirality?
    pub mirrored: bool,
    /// Initial local direction is Right?
    pub start_right: bool,
}

impl ExplicitRobot {
    /// The engine placement this robot describes.
    pub fn build(&self) -> RobotPlacement {
        RobotPlacement::at(NodeId::new(self.node))
            .with_chirality(if self.mirrored {
                Chirality::Mirrored
            } else {
                Chirality::Standard
            })
            .with_dir(if self.start_right {
                LocalDir::Right
            } else {
                LocalDir::Left
            })
    }
}

/// The placement axis. The parameterized entries cross with the `robots`
/// axis; an explicit entry fixes its own team size (arbitrary non-tower
/// placements, beyond what the sweep CLIs can express).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementAxis {
    /// Robots spread evenly, mixed chirality (the standard sweep shape).
    EvenlySpaced,
    /// Robots on consecutive nodes from `start`.
    Adjacent {
        /// First node.
        start: usize,
    },
    /// A fully explicit, per-robot placement (fixes `k`; the `robots`
    /// axis does not apply).
    Explicit {
        /// The robots, in id order.
        robots: Vec<ExplicitRobot>,
    },
}

/// A fully specified, hashable unit of campaign work: one point of the
/// grid, `replicas` stochastic replicas deep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkUnit {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k`.
    pub robots: usize,
    /// Initial placements (materialized from the axis entry).
    pub placement: PlacementSpec,
    /// The algorithm under test.
    pub algorithm: AlgorithmChoice,
    /// The dynamics / schedule class.
    pub dynamics: UnitDynamics,
    /// The activation scheduler.
    pub scheduler: UnitScheduler,
    /// Rounds per replica (ticks ÷ 3 under the async scheduler).
    pub horizon: Time,
    /// Base seed; replica `r` derives its stream from it (see
    /// [`dynring_analysis::seeds::derive_stream_seed`]).
    pub seed: u64,
    /// Stochastic replicas (1 for deterministic dynamics).
    pub replicas: usize,
}

/// FNV-1a over a byte string: the unit/spec content hash. Stability
/// matters (stores outlive binaries), so the constants are pinned by a
/// test.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl WorkUnit {
    /// The unit's content hash: FNV-1a over its canonical (compact,
    /// field-ordered) JSON. Two units are the same experiment iff their
    /// hashes match; the result store is keyed by this.
    pub fn content_hash(&self) -> String {
        let json = serde_json::to_string(self).expect("unit serialization is infallible");
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }
}

/// One planned unit: its position in the expansion (the store's append
/// order) plus the unit and its content hash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedUnit {
    /// Position in the deterministic expansion.
    pub index: usize,
    /// [`WorkUnit::content_hash`] of `unit`.
    pub hash: String,
    /// The unit itself.
    pub unit: WorkUnit,
}

/// The expanded campaign: what `run` executes and `resume` completes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Campaign name (echoed into the store header and the report).
    pub name: String,
    /// Content hash of the spec that produced this plan.
    pub spec_hash: String,
    /// Units in expansion order.
    pub units: Vec<PlannedUnit>,
}

/// The declarative campaign specification (the JSON document `dynring
/// campaign run --spec` consumes). See `docs/CAMPAIGNS.md` for the
/// format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name.
    pub name: String,
    /// Ring sizes `n` (each ≥ 2).
    pub ring_sizes: Vec<usize>,
    /// Team sizes `k` (crossed with the parameterized placement entries;
    /// combinations with `k ≥ n` are skipped).
    pub robots: Vec<usize>,
    /// Placement axis entries.
    pub placements: Vec<PlacementAxis>,
    /// Algorithms under test.
    pub algorithms: Vec<AlgorithmChoice>,
    /// Dynamics / schedule classes.
    pub dynamics: Vec<UnitDynamics>,
    /// Activation schedulers.
    pub schedulers: Vec<UnitScheduler>,
    /// Base seeds (one unit per seed; replicas derive from it).
    pub seeds: Vec<u64>,
    /// Rounds per replica.
    pub horizon: Time,
    /// Stochastic replicas per unit (clamped to 1 for deterministic
    /// dynamics).
    pub replicas: usize,
}

impl CampaignSpec {
    /// The spec's content hash (recorded in the store header so `resume`
    /// refuses to mix results of different campaigns).
    pub fn content_hash(&self) -> String {
        let json = serde_json::to_string(self).expect("spec serialization is infallible");
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }

    /// Rejects duplicate entries within one axis: a duplicate expands
    /// into two units with the *same* content hash, which the store
    /// dedupes — silently breaking the plan/store correspondence (and
    /// with it byte-exact resume and report counts).
    fn check_axis_unique<T: Serialize>(label: &str, axis: &[T]) -> Result<(), CampaignError> {
        let mut encodings: Vec<String> = axis
            .iter()
            .map(|v| serde_json::to_string(v).expect("axis serialization is infallible"))
            .collect();
        encodings.sort_unstable();
        for pair in encodings.windows(2) {
            if pair[0] == pair[1] {
                return Err(CampaignError::InvalidSpec(format!(
                    "axis `{label}` contains a duplicate entry: {}",
                    pair[0]
                )));
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let invalid = |msg: String| Err(CampaignError::InvalidSpec(msg));
        if self.name.is_empty() {
            return invalid("campaign name must not be empty".into());
        }
        for (label, empty) in [
            ("ring_sizes", self.ring_sizes.is_empty()),
            ("placements", self.placements.is_empty()),
            ("algorithms", self.algorithms.is_empty()),
            ("dynamics", self.dynamics.is_empty()),
            ("schedulers", self.schedulers.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return invalid(format!("axis `{label}` must not be empty"));
            }
        }
        Self::check_axis_unique("ring_sizes", &self.ring_sizes)?;
        Self::check_axis_unique("robots", &self.robots)?;
        Self::check_axis_unique("placements", &self.placements)?;
        Self::check_axis_unique("algorithms", &self.algorithms)?;
        Self::check_axis_unique("dynamics", &self.dynamics)?;
        Self::check_axis_unique("schedulers", &self.schedulers)?;
        Self::check_axis_unique("seeds", &self.seeds)?;
        let crosses_robots = self
            .placements
            .iter()
            .any(|p| !matches!(p, PlacementAxis::Explicit { .. }));
        if crosses_robots && self.robots.is_empty() {
            return invalid(
                "axis `robots` must not be empty when a parameterized placement is present"
                    .into(),
            );
        }
        if let Some(n) = self.ring_sizes.iter().find(|&&n| n < 2) {
            return invalid(format!("ring size {n} is too small (need n ≥ 2)"));
        }
        if self.robots.contains(&0) {
            return invalid("team size 0 is not a team".into());
        }
        if self.horizon == 0 {
            return invalid("horizon must be at least 1 round".into());
        }
        if self.replicas == 0 {
            return invalid("replicas must be at least 1".into());
        }
        if self.schedulers.contains(&UnitScheduler::Async) {
            if let Some(d) = self.dynamics.iter().find(|d| !d.runs_async()) {
                return invalid(format!(
                    "{ASYNC_DYNAMICS}; the spec also lists `{}`",
                    d.name()
                ));
            }
        }
        for placement in &self.placements {
            if let PlacementAxis::Explicit { robots } = placement {
                if robots.is_empty() {
                    return invalid("an explicit placement must list at least one robot".into());
                }
                let mut nodes: Vec<usize> = robots.iter().map(|r| r.node).collect();
                nodes.sort_unstable();
                nodes.dedup();
                if nodes.len() != robots.len() {
                    return invalid(
                        "explicit placements must be tower-free (distinct nodes)".into(),
                    );
                }
                // NodeId is u32-backed; reject unrepresentable indices
                // here instead of panicking inside ExplicitRobot::build.
                if let Some(r) = robots.iter().find(|r| u32::try_from(r.node).is_err()) {
                    return invalid(format!(
                        "explicit placement node {} does not fit a u32 node id",
                        r.node
                    ));
                }
            }
        }
        Ok(())
    }

    /// Expands the grid into the deterministic unit list.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] naming the offending field, or
    /// [`CampaignError::EmptyPlan`] when every combination was skipped
    /// (e.g. all teams at least as large as all rings).
    pub fn plan(&self) -> Result<CampaignPlan, CampaignError> {
        self.validate()?;
        let mut units = Vec::new();
        for &n in &self.ring_sizes {
            for placement_axis in &self.placements {
                // (k, placement) choices for this axis entry on ring n.
                let choices: Vec<(usize, PlacementSpec)> = match placement_axis {
                    PlacementAxis::EvenlySpaced => self
                        .robots
                        .iter()
                        .map(|&k| (k, PlacementSpec::EvenlySpaced { count: k }))
                        .collect(),
                    PlacementAxis::Adjacent { start } => self
                        .robots
                        .iter()
                        .map(|&k| (k, PlacementSpec::Adjacent { count: k, start: *start }))
                        .collect(),
                    PlacementAxis::Explicit { robots } => {
                        let placements: Vec<RobotPlacement> =
                            robots.iter().map(ExplicitRobot::build).collect();
                        vec![(placements.len(), PlacementSpec::Explicit(placements))]
                    }
                };
                for (k, placement) in choices {
                    // A ring needs strictly more nodes than robots; an
                    // explicit placement must also fit the ring.
                    if k >= n {
                        continue;
                    }
                    if let PlacementSpec::Explicit(robots) = &placement {
                        if robots.iter().any(|r| r.node.index() >= n) {
                            continue;
                        }
                    }
                    for &algorithm in &self.algorithms {
                        for &dynamics in &self.dynamics {
                            let replicas = if dynamics.is_stochastic() {
                                self.replicas
                            } else {
                                1
                            };
                            for &scheduler in &self.schedulers {
                                for &seed in &self.seeds {
                                    let unit = WorkUnit {
                                        ring_size: n,
                                        robots: k,
                                        placement: placement.clone(),
                                        algorithm,
                                        dynamics,
                                        scheduler,
                                        horizon: self.horizon,
                                        seed,
                                        replicas,
                                    };
                                    units.push(PlannedUnit {
                                        index: units.len(),
                                        hash: unit.content_hash(),
                                        unit,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if units.is_empty() {
            return Err(CampaignError::EmptyPlan);
        }
        Ok(CampaignPlan {
            name: self.name.clone(),
            spec_hash: self.content_hash(),
            units,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            ring_sizes: vec![4, 6],
            robots: vec![1, 3],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus, AlgorithmChoice::KeepDirection],
            dynamics: vec![UnitDynamics::Bernoulli { p: 0.5 }, UnitDynamics::Static],
            schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
            seeds: vec![1, 2],
            horizon: 200,
            replicas: 8,
        }
    }

    #[test]
    fn plan_is_deterministic_and_hash_keyed() {
        let spec = tiny_spec();
        let a = spec.plan().expect("valid spec");
        let b = spec.plan().expect("valid spec");
        assert_eq!(a, b);
        // 2 rings × 2 teams × 2 algorithms × 2 dynamics × 2 schedulers ×
        // 2 seeds, no skips (k < n everywhere).
        assert_eq!(a.units.len(), 64);
        let mut hashes: Vec<&str> = a.units.iter().map(|u| u.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64, "unit hashes must be unique");
        for (i, u) in a.units.iter().enumerate() {
            assert_eq!(u.index, i);
            assert_eq!(u.hash, u.unit.content_hash());
        }
    }

    #[test]
    fn oversized_teams_are_skipped_deterministically() {
        let mut spec = tiny_spec();
        spec.ring_sizes = vec![2, 6];
        spec.robots = vec![1, 3];
        let plan = spec.plan().expect("valid spec");
        // On n = 2 only k = 1 survives.
        assert!(plan
            .units
            .iter()
            .all(|u| u.unit.robots < u.unit.ring_size));
        assert_eq!(plan.units.len(), 16 + 32);
    }

    #[test]
    fn deterministic_dynamics_clamp_replicas() {
        let plan = tiny_spec().plan().expect("valid spec");
        for u in &plan.units {
            let expected = if u.unit.dynamics.is_stochastic() { 8 } else { 1 };
            assert_eq!(u.unit.replicas, expected, "{:?}", u.unit.dynamics);
        }
    }

    #[test]
    fn explicit_placements_fix_team_size_and_must_be_tower_free() {
        let mut spec = tiny_spec();
        spec.placements = vec![PlacementAxis::Explicit {
            robots: vec![
                ExplicitRobot { node: 0, mirrored: false, start_right: true },
                ExplicitRobot { node: 2, mirrored: true, start_right: false },
            ],
        }];
        let plan = spec.plan().expect("valid spec");
        assert!(plan.units.iter().all(|u| u.unit.robots == 2));
        // Tower: rejected at validation, not at execution.
        spec.placements = vec![PlacementAxis::Explicit {
            robots: vec![
                ExplicitRobot { node: 1, mirrored: false, start_right: false },
                ExplicitRobot { node: 1, mirrored: false, start_right: false },
            ],
        }];
        assert!(matches!(spec.plan(), Err(CampaignError::InvalidSpec(_))));
    }

    #[test]
    fn explicit_placements_outside_the_ring_are_skipped() {
        let mut spec = tiny_spec();
        spec.ring_sizes = vec![4, 8];
        spec.placements = vec![PlacementAxis::Explicit {
            robots: vec![
                ExplicitRobot { node: 0, mirrored: false, start_right: true },
                ExplicitRobot { node: 5, mirrored: false, start_right: false },
            ],
        }];
        let plan = spec.plan().expect("valid spec");
        // Node 5 does not exist on the 4-ring: only n = 8 units remain.
        assert!(plan.units.iter().all(|u| u.unit.ring_size == 8));
    }

    #[test]
    fn async_rejects_non_oblivious_dynamics() {
        let mut spec = tiny_spec();
        spec.schedulers = vec![UnitScheduler::Async];
        spec.dynamics = vec![
            UnitDynamics::Bernoulli { p: 0.5 },
            UnitDynamics::PointedBlocker { budget: 3 },
        ];
        let err = spec.plan().expect_err("async + adaptive must be rejected");
        assert!(err.to_string().contains("pointed-blocker"), "{err}");
    }

    #[test]
    fn bad_specs_are_named() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        assert!(spec.plan().expect_err("empty axis").to_string().contains("seeds"));
        let mut spec = tiny_spec();
        spec.ring_sizes = vec![1];
        assert!(spec.plan().is_err());
        let mut spec = tiny_spec();
        spec.replicas = 0;
        assert!(spec.plan().is_err());
        let mut spec = tiny_spec();
        spec.ring_sizes = vec![2];
        spec.robots = vec![3];
        assert!(matches!(spec.plan(), Err(CampaignError::EmptyPlan)));
    }

    #[test]
    fn duplicate_axis_entries_are_rejected() {
        // A duplicate expands into two units with the same hash; the
        // store would dedupe them and break the plan/store
        // correspondence (resume byte-identity, report counts), so the
        // planner refuses.
        let mut spec = tiny_spec();
        spec.seeds = vec![1, 2, 1];
        let err = spec.plan().expect_err("duplicate seeds");
        assert!(err.to_string().contains("seeds"), "{err}");
        let mut spec = tiny_spec();
        spec.dynamics.push(UnitDynamics::Bernoulli { p: 0.5 });
        let err = spec.plan().expect_err("duplicate dynamics");
        assert!(err.to_string().contains("dynamics"), "{err}");
        let mut spec = tiny_spec();
        spec.placements.push(PlacementAxis::EvenlySpaced);
        assert!(spec.plan().is_err());
    }

    #[test]
    fn unrepresentable_explicit_nodes_error_instead_of_panicking() {
        let mut spec = tiny_spec();
        spec.placements = vec![PlacementAxis::Explicit {
            robots: vec![ExplicitRobot {
                node: u32::MAX as usize + 1,
                mirrored: false,
                start_right: false,
            }],
        }];
        let err = spec.plan().expect_err("oversized node index");
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec();
        let json = serde_json::to_string_pretty(&spec).expect("serialize");
        let back: CampaignSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
        assert_eq!(spec.content_hash(), back.content_hash());
    }

    #[test]
    fn fnv_constants_are_pinned() {
        // Offset basis hashes of the empty string and a known vector —
        // stores are keyed by this function, so it must never drift.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
