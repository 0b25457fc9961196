//! Monte Carlo over replica batches: cover-time distributions and
//! survival rates from the lane-parallel lockstep engine.
//!
//! One [`BatchSimulator`] round advances `W::LANES` independent Bernoulli
//! replicas (64, 128 or 256 — [`BatchArity`]); [`run_replicas`] fans
//! *groups* of lanes out over all cores ([`crate::parallel::par_map`]),
//! so throughput composes: lanes × threads.
//!
//! The seed contract is arity-invariant: replica `r` is **always** lane
//! `r % 64` of the 64-lane stream seeded `derive_batch_seed(seed,
//! r / 64)`, at every arity — a wide group is the composite of
//! `W::WORDS` such streams, one per 64-lane plane
//! ([`dynring_graph::BernoulliReplicaBank`]). A sweep is therefore a pure
//! function of its [`MonteCarloConfig`]: results are byte-identical
//! across worker counts *and* lane arities, and any single replica can be
//! replayed bit-for-bit on the serial engine through
//! [`dynring_graph::BernoulliReplicas::lane`].

use serde::{Deserialize, Serialize};

use dynring_core::Pef3Plus;
use dynring_engine::{
    BatchAlgorithm, BatchCoverage, BatchSimulator, LaneWord, Lanes128, Lanes256,
    RoundRobinSingle, LANES,
};
use dynring_graph::{BernoulliReplicaBank, BernoulliReplicas, RingTopology, Time};

use crate::parallel::{available_workers, par_map};
use crate::scenario::{
    with_algorithm, AlgorithmChoice, PlacementSpec, ScenarioError, SchedulerChoice,
};

/// A fully specified Monte Carlo sweep: one `(n, k, p)` point, many
/// Bernoulli replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k` (evenly spaced, mixed chirality — the standard sweep
    /// placement).
    pub robots: usize,
    /// Bernoulli presence probability `p`.
    pub presence_probability: f64,
    /// Rounds per replica before a lane is declared uncovered.
    pub horizon: Time,
    /// Number of replicas (rounded up to whole 64-lane batches
    /// internally; the summary reports exactly this many).
    pub replicas: usize,
    /// Base seed; batch `b` uses the derived stream seed
    /// `mix(seed, b)`.
    pub seed: u64,
    /// The algorithm under test.
    pub algorithm: AlgorithmChoice,
}

impl MonteCarloConfig {
    /// A sweep with the standard defaults (PEF_3+, `p = 0.5`).
    pub fn new(ring_size: usize, robots: usize, replicas: usize, horizon: Time) -> Self {
        MonteCarloConfig {
            ring_size,
            robots,
            presence_probability: 0.5,
            horizon,
            replicas,
            seed: 0xDECADE,
            algorithm: AlgorithmChoice::Pef3Plus,
        }
    }

    /// Number of 64-lane batches this sweep runs.
    pub fn batches(&self) -> usize {
        self.replicas.div_ceil(LANES)
    }
}

/// One bucket of the cover-time histogram: first covers in
/// `[lower, upper)` rounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound (rounds).
    pub lower: Time,
    /// Exclusive upper bound (rounds).
    pub upper: Time,
    /// Replicas whose first cover fell in the bucket.
    pub count: usize,
}

/// Everything measured by one [`run_replicas`] sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloSummary {
    /// The configuration that produced this summary.
    pub config: MonteCarloConfig,
    /// 64-lane batches executed.
    pub batches: usize,
    /// Replicas that completed a first cover within the horizon.
    pub covered: usize,
    /// `covered / replicas`.
    pub survival_rate: f64,
    /// Mean first-cover round over the covered replicas (0 when none).
    pub mean_cover_time: f64,
    /// Minimum first-cover round over the covered replicas.
    pub min_cover_time: Option<Time>,
    /// Maximum first-cover round over the covered replicas.
    pub max_cover_time: Option<Time>,
    /// First-cover histogram over `[0, horizon)` in
    /// [`HISTOGRAM_BUCKETS`] equal buckets.
    pub histogram: Vec<HistogramBucket>,
}

/// Buckets of the cover-time histogram.
pub const HISTOGRAM_BUCKETS: usize = 8;

/// The stream seed of batch `batch`: replicas `64·batch .. 64·batch + 64`
/// are the 64 lanes of `BernoulliReplicas::new(ring, p, this seed)`.
/// Delegates to the shared [`crate::seeds::derive_stream_seed`] (same
/// formula, pinned by a test there), which the campaign executor and the
/// sweep paths also use.
pub fn derive_batch_seed(base: u64, batch: usize) -> u64 {
    crate::seeds::derive_stream_seed(base, batch as u64)
}

/// Lane arity of one lockstep batch group: how many replicas each
/// [`BatchSimulator`] advances per round.
///
/// The seed contract makes results byte-identical across arities (see the
/// module docs), so the arity is purely a throughput knob — recorded for
/// observability, never hashed into unit identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatchArity {
    /// 64 lanes: one `u64` plane — the original engine word.
    Lanes64,
    /// 128 lanes: two planes.
    Lanes128,
    /// 256 lanes: four planes.
    Lanes256,
}

impl BatchArity {
    /// Every arity the batch engine is compiled for, narrowest first.
    pub const ALL: [BatchArity; 3] = [
        BatchArity::Lanes64,
        BatchArity::Lanes128,
        BatchArity::Lanes256,
    ];

    /// Replicas per lockstep group at this arity.
    pub fn lanes(self) -> usize {
        match self {
            BatchArity::Lanes64 => 64,
            BatchArity::Lanes128 => 128,
            BatchArity::Lanes256 => 256,
        }
    }

    /// Display name (`"batch-64"` style suffixes come from this).
    pub fn name(self) -> &'static str {
        match self {
            BatchArity::Lanes64 => "64",
            BatchArity::Lanes128 => "128",
            BatchArity::Lanes256 => "256",
        }
    }

    /// The arity-selection policy: minimize the padded lane cost
    /// `ceil(replicas / lanes) · lanes` (the replica-rounds actually
    /// simulated, ghost lanes included); ties go to the widest arity,
    /// which amortizes per-round overheads over more lanes. Examples:
    /// 65 → 128, 129 → 64 (192 beats 256), 250 → 256, 257 → 64.
    pub fn for_replicas(replicas: usize) -> BatchArity {
        let mut best = BatchArity::Lanes64;
        let mut best_cost = usize::MAX;
        for arity in BatchArity::ALL {
            let lanes = arity.lanes();
            let cost = replicas.div_ceil(lanes).max(1) * lanes;
            if cost < best_cost || (cost == best_cost && lanes > best.lanes()) {
                best = arity;
                best_cost = cost;
            }
        }
        best
    }
}

/// One batch-engine sweep over arbitrary (non-tower) placements: the
/// lower-level contract behind [`run_replicas_with`], also driven
/// directly by the campaign executor (whose units carry explicit
/// placements the [`MonteCarloConfig`] shape cannot express).
#[derive(Debug, Clone, Copy)]
pub struct BatchSweep<'a> {
    /// The algorithm under test.
    pub algorithm: AlgorithmChoice,
    /// The ring.
    pub ring: &'a RingTopology,
    /// Shared initial placements of every replica.
    pub placements: &'a [dynring_engine::RobotPlacement],
    /// Bernoulli presence probability `p`.
    pub p: f64,
    /// Rounds per replica before a lane is declared uncovered.
    pub horizon: Time,
    /// Number of replicas (a whole lockstep group each; the tail group's
    /// extra lanes are simulated but masked out of the result).
    pub replicas: usize,
    /// Base seed; 64-lane plane `b` draws from
    /// `derive_batch_seed(seed, b)` at every arity.
    pub seed: u64,
    /// Activation scheduling: FSYNC, or SSYNC round-robin — the same
    /// deterministic policy the serial engine's
    /// [`RoundRobinSingle`] plays, word-parallel.
    pub scheduler: SchedulerChoice,
}

impl BatchSweep<'_> {
    /// Number of 64-lane batches this sweep spans (the arity-invariant
    /// count of underlying Bernoulli streams; wide arities bundle
    /// `W::WORDS` of them per lockstep group).
    pub fn batches(&self) -> usize {
        self.replicas.div_ceil(LANES)
    }

    /// Runs every replica to its first cover at the arity
    /// [`BatchArity::for_replicas`] picks (groups fanned over `workers`
    /// threads; byte-identical for every worker count and every arity).
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when the sweep is ill-formed (invalid
    /// probability, bad placements, zero replicas).
    pub fn first_covers(&self, workers: usize) -> Result<Vec<Option<Time>>, ScenarioError> {
        self.first_covers_at(BatchArity::for_replicas(self.replicas), workers)
    }

    /// [`BatchSweep::first_covers`] at an explicit arity.
    ///
    /// # Errors
    ///
    /// See [`BatchSweep::first_covers`].
    pub fn first_covers_at(
        &self,
        arity: BatchArity,
        workers: usize,
    ) -> Result<Vec<Option<Time>>, ScenarioError> {
        match arity {
            BatchArity::Lanes64 => self.first_covers_arity::<u64>(workers),
            BatchArity::Lanes128 => self.first_covers_arity::<Lanes128>(workers),
            BatchArity::Lanes256 => self.first_covers_arity::<Lanes256>(workers),
        }
    }

    /// [`BatchSweep::first_covers`] at the arity of the lane word `W` —
    /// the monomorphic root of the sweep, and the surface the ragged
    /// lane-count equivalence tests pin.
    ///
    /// # Errors
    ///
    /// See [`BatchSweep::first_covers`].
    pub fn first_covers_arity<W: LaneWord>(
        &self,
        workers: usize,
    ) -> Result<Vec<Option<Time>>, ScenarioError> {
        // Validate probability through the stream constructor once, and
        // ring/placement compatibility with the real engine error, before
        // fanning out.
        BatchSimulator::new(
            self.ring.clone(),
            Pef3Plus::new(),
            BernoulliReplicas::new(self.ring.clone(), self.p, self.seed)?,
            self.placements.to_vec(),
        )?;
        if self.replicas == 0 {
            return Err(ScenarioError::NoReplicas);
        }
        Ok(with_algorithm!(self.algorithm, |algorithm| {
            self.sweep_with::<_, W>(algorithm, workers)
        }))
    }

    /// The [`BernoulliReplicaBank`] of lockstep group `group` at arity
    /// `W`: plane `w` is the 64-lane stream seeded
    /// `derive_batch_seed(seed, group · W::WORDS + w)` — which makes lane
    /// `l` of the group exactly replica `group · W::LANES + l` of the
    /// arity-invariant numbering.
    fn group_bank<W: LaneWord>(&self, group: usize) -> BernoulliReplicaBank {
        let seeds: Vec<u64> = (0..W::WORDS)
            .map(|w| derive_batch_seed(self.seed, group * W::WORDS + w))
            .collect();
        BernoulliReplicaBank::new(self.ring.clone(), self.p, &seeds)
            .expect("probability validated by first_covers")
    }

    /// Runs one `W::LANES`-lane group to its first-cover times (lanes
    /// beyond the replica budget are still simulated — they ride along
    /// for free — but the caller discards them).
    fn run_group<A, W>(&self, algorithm: A, group: usize) -> Vec<Option<Time>>
    where
        A: BatchAlgorithm<W>,
        W: LaneWord,
    {
        let mut sim = BatchSimulator::<_, _, W>::new(
            self.ring.clone(),
            algorithm,
            self.group_bank::<W>(group),
            self.placements.to_vec(),
        )
        .expect("setup validated by first_covers");
        if self.scheduler == SchedulerChoice::SsyncRoundRobin {
            sim.set_activation(RoundRobinSingle);
        }
        let mut coverage = BatchCoverage::new(&sim);
        sim.run_covering(self.horizon, &mut coverage);
        coverage.first_covers().to_vec()
    }

    fn sweep_with<A, W>(&self, algorithm: A, workers: usize) -> Vec<Option<Time>>
    where
        A: BatchAlgorithm<W> + Clone + Sync,
        W: LaneWord,
    {
        let groups: Vec<usize> = (0..self.replicas.div_ceil(W::LANES)).collect();
        let per_group =
            par_map(&groups, workers, |&g| self.run_group::<_, W>(algorithm.clone(), g));
        // Ghost-lane masking: when `replicas` is not a multiple of the
        // arity the final group simulates more lanes than the budget.
        // Each group's contribution is truncated to its own lane budget
        // here — at the source, not by a global truncation downstream —
        // so no code path over the flattened results can ever see a ghost
        // lane.
        per_group
            .into_iter()
            .enumerate()
            .flat_map(|(g, firsts)| {
                let lane_budget = self.replicas.saturating_sub(g * W::LANES).min(W::LANES);
                firsts.into_iter().take(lane_budget)
            })
            .collect()
    }
}

/// Runs the sweep on all cores. See [`run_replicas_with`].
///
/// # Errors
///
/// See [`run_replicas_with`].
pub fn run_replicas(cfg: &MonteCarloConfig) -> Result<MonteCarloSummary, ScenarioError> {
    run_replicas_with(cfg, available_workers())
}

/// Runs `cfg.replicas` independent Bernoulli replicas (64 per lockstep
/// batch, batches fanned over `workers` threads) and summarizes first
/// covers. Results are byte-identical for every `workers` value.
///
/// # Errors
///
/// [`ScenarioError`] when the configuration is ill-formed (ring too
/// small, too many robots, invalid probability, zero replicas —
/// reported as the underlying graph/engine error).
pub fn run_replicas_with(
    cfg: &MonteCarloConfig,
    workers: usize,
) -> Result<MonteCarloSummary, ScenarioError> {
    let ring = RingTopology::new(cfg.ring_size)?;
    let placements = PlacementSpec::EvenlySpaced { count: cfg.robots }.build(cfg.ring_size);
    let sweep = BatchSweep {
        algorithm: cfg.algorithm,
        ring: &ring,
        placements: &placements,
        p: cfg.presence_probability,
        horizon: cfg.horizon,
        replicas: cfg.replicas,
        seed: cfg.seed,
        scheduler: SchedulerChoice::Fsync,
    };
    let firsts = sweep.first_covers(workers)?;
    Ok(summarize(cfg.clone(), &firsts))
}

fn summarize(config: MonteCarloConfig, firsts: &[Option<Time>]) -> MonteCarloSummary {
    let covered: Vec<Time> = firsts.iter().filter_map(|&c| c).collect();
    let bucket_width = (config.horizon / HISTOGRAM_BUCKETS as Time).max(1);
    let histogram = (0..HISTOGRAM_BUCKETS)
        .map(|b| {
            let lower = b as Time * bucket_width;
            // The last bucket absorbs the tail up to the horizon; the
            // max() keeps the [lower, upper) invariant for horizons
            // shorter than the bucket count.
            let upper = if b + 1 == HISTOGRAM_BUCKETS {
                (lower + bucket_width).max(config.horizon.saturating_add(1))
            } else {
                (b as Time + 1) * bucket_width
            };
            HistogramBucket {
                lower,
                upper,
                count: covered.iter().filter(|&&c| c >= lower && c < upper).count(),
            }
        })
        .collect();
    let mean_cover_time = if covered.is_empty() {
        0.0
    } else {
        covered.iter().sum::<Time>() as f64 / covered.len() as f64
    };
    MonteCarloSummary {
        batches: config.batches(),
        covered: covered.len(),
        survival_rate: covered.len() as f64 / config.replicas as f64,
        mean_cover_time,
        min_cover_time: covered.iter().copied().min(),
        max_cover_time: covered.iter().copied().max(),
        histogram,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MonteCarloConfig {
        MonteCarloConfig {
            ring_size: 8,
            robots: 3,
            presence_probability: 0.5,
            horizon: 400,
            replicas: 96, // one full batch + a partial one
            seed: 0xFEED,
            algorithm: AlgorithmChoice::Pef3Plus,
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let cfg = small_cfg();
        let serial = run_replicas_with(&cfg, 1).expect("valid config");
        for workers in [2usize, 4, 8] {
            let parallel = run_replicas_with(&cfg, workers).expect("valid config");
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        let json_a = serde_json::to_string(&serial).expect("serialize");
        let json_b = serde_json::to_string(&run_replicas(&cfg).expect("valid config"))
            .expect("serialize");
        assert_eq!(json_a, json_b);
    }

    #[test]
    fn pef3_survives_the_standard_point() {
        let summary = run_replicas(&small_cfg()).expect("valid config");
        assert_eq!(summary.batches, 2);
        assert_eq!(summary.covered, summary.config.replicas, "{summary:?}");
        assert!((summary.survival_rate - 1.0).abs() < f64::EPSILON);
        assert!(summary.mean_cover_time > 0.0);
        assert_eq!(
            summary.histogram.iter().map(|b| b.count).sum::<usize>(),
            summary.covered
        );
    }

    #[test]
    fn replica_zero_is_the_scenario_seed_stream() {
        // Replica r of the sweep is reproducible in isolation: batch
        // r / 64 lane r % 64 — pinned here for batch seed derivation.
        let cfg = small_cfg();
        let summary = run_replicas(&cfg).expect("valid config");
        let ring = RingTopology::new(cfg.ring_size).expect("valid ring");
        let replicas = BernoulliReplicas::new(
            ring.clone(),
            cfg.presence_probability,
            derive_batch_seed(cfg.seed, 1),
        )
        .expect("valid p");
        let placements = PlacementSpec::EvenlySpaced { count: cfg.robots }.build(cfg.ring_size);
        let mut sim = BatchSimulator::new(ring, Pef3Plus::new(), replicas, placements)
            .expect("valid setup");
        let mut coverage = BatchCoverage::new(&sim);
        sim.run_covering(cfg.horizon, &mut coverage);
        // Replica 64 + 5 is batch 1, lane 5.
        let direct = coverage.first_cover(5);
        assert!(direct.is_some());
        // Its first cover contributed to the histogram bucket of summary.
        let t = direct.expect("covered");
        assert!(summary
            .histogram
            .iter()
            .any(|b| t >= b.lower && t < b.upper && b.count > 0));
    }

    #[test]
    fn partial_final_batch_matches_65_serial_runs_exactly() {
        // Regression pin for ghost-lane accounting: with replicas = 65
        // the final batch simulates 63 lanes beyond the budget. The
        // summary must be a pure function of replicas 0..65 — each the
        // serial engine run over its derived lane schedule — with no
        // ghost-lane leakage into covered counts, survival, extrema or
        // the histogram, under every worker count.
        let cfg = MonteCarloConfig {
            ring_size: 8,
            robots: 3,
            presence_probability: 0.5,
            horizon: 400,
            replicas: 65,
            seed: 0xFEED,
            algorithm: AlgorithmChoice::Pef3Plus,
        };
        let ring = RingTopology::new(cfg.ring_size).expect("valid ring");
        let placements = PlacementSpec::EvenlySpaced { count: cfg.robots }.build(cfg.ring_size);
        // Serial reference: replica r = batch r/64, lane r%64.
        let serial_firsts: Vec<Option<Time>> = (0..cfg.replicas)
            .map(|r| {
                serial_anchor(
                    &ring,
                    &placements,
                    cfg.presence_probability,
                    cfg.horizon,
                    cfg.seed,
                    r,
                    false,
                )
            })
            .collect();
        let serial_covered: Vec<Time> = serial_firsts.iter().filter_map(|&c| c).collect();
        for workers in [1usize, 4] {
            let summary = run_replicas_with(&cfg, workers).expect("valid config");
            assert_eq!(summary.batches, 2, "workers={workers}");
            assert_eq!(summary.covered, serial_covered.len(), "workers={workers}");
            assert!(
                (summary.survival_rate - serial_covered.len() as f64 / 65.0).abs()
                    < f64::EPSILON,
                "workers={workers}"
            );
            assert_eq!(
                summary.min_cover_time,
                serial_covered.iter().copied().min(),
                "workers={workers}"
            );
            assert_eq!(
                summary.max_cover_time,
                serial_covered.iter().copied().max(),
                "workers={workers}"
            );
            let serial_mean =
                serial_covered.iter().sum::<Time>() as f64 / serial_covered.len() as f64;
            assert_eq!(summary.mean_cover_time, serial_mean, "workers={workers}");
            assert_eq!(
                summary.histogram.iter().map(|b| b.count).sum::<usize>(),
                serial_covered.len(),
                "ghost lanes leaked into the histogram (workers={workers})"
            );
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = small_cfg();
        cfg.ring_size = 1;
        assert!(matches!(run_replicas(&cfg), Err(ScenarioError::Graph(_))));
        let mut cfg = small_cfg();
        cfg.presence_probability = 1.5;
        assert!(matches!(run_replicas(&cfg), Err(ScenarioError::Graph(_))));
        let mut cfg = small_cfg();
        cfg.robots = 8;
        assert!(matches!(run_replicas(&cfg), Err(ScenarioError::Engine(_))));
        let mut cfg = small_cfg();
        cfg.replicas = 0;
        assert!(matches!(run_replicas(&cfg), Err(ScenarioError::NoReplicas)));
    }

    #[test]
    fn histogram_buckets_stay_ordered_for_tiny_horizons() {
        // horizon < HISTOGRAM_BUCKETS: bucket width clamps to 1 and the
        // tail bucket must still satisfy lower < upper.
        let mut cfg = small_cfg();
        cfg.horizon = 4;
        cfg.replicas = 64;
        let summary = run_replicas(&cfg).expect("valid config");
        for bucket in &summary.histogram {
            assert!(bucket.lower < bucket.upper, "{bucket:?}");
        }
        assert_eq!(
            summary.histogram.iter().map(|b| b.count).sum::<usize>(),
            summary.covered
        );
    }

    /// Serial-kernel first cover of replica `r` of the arity-invariant
    /// numbering: lane `r % 64` of the stream seeded
    /// `derive_batch_seed(seed, r / 64)`, optionally under the serial
    /// round-robin SSYNC scheduler.
    fn serial_anchor(
        ring: &RingTopology,
        placements: &[dynring_engine::RobotPlacement],
        p: f64,
        horizon: Time,
        seed: u64,
        r: usize,
        ssync: bool,
    ) -> Option<Time> {
        let replicas =
            BernoulliReplicas::new(ring.clone(), p, derive_batch_seed(seed, r / LANES))
                .expect("valid p");
        let replica = crate::SerialReplica {
            algorithm: AlgorithmChoice::Pef3Plus,
            ring,
            placements,
            horizon,
        };
        let scheduler = if ssync {
            SchedulerChoice::SsyncRoundRobin
        } else {
            SchedulerChoice::Fsync
        };
        replica
            .first_cover(
                dynring_engine::Oblivious::new(replicas.lane((r % LANES) as u32)),
                scheduler,
            )
            .expect("valid setup")
    }

    #[test]
    fn arity_selection_minimizes_padded_lane_cost() {
        // The policy pinned: least padded replica-rounds, ties to the
        // widest arity.
        for (replicas, expect) in [
            (1, BatchArity::Lanes64),
            (63, BatchArity::Lanes64),
            (64, BatchArity::Lanes64),
            (65, BatchArity::Lanes128),
            (128, BatchArity::Lanes128),
            (129, BatchArity::Lanes64),
            (192, BatchArity::Lanes64),
            (250, BatchArity::Lanes256),
            (256, BatchArity::Lanes256),
            (257, BatchArity::Lanes64),
            (512, BatchArity::Lanes256),
        ] {
            assert_eq!(
                BatchArity::for_replicas(replicas),
                expect,
                "replicas={replicas}"
            );
        }
        assert_eq!(BatchArity::Lanes128.lanes(), 128);
        assert_eq!(BatchArity::Lanes256.name(), "256");
    }

    #[test]
    fn ragged_lane_counts_are_byte_identical_across_arities() {
        // The tentpole invariant at every ragged boundary: a sweep over
        // `replicas` lanes returns the same bytes at 64, 128 and 256
        // lanes per group, each anchored to the serial engine at the
        // first and last replica.
        let ring = RingTopology::new(8).expect("valid ring");
        let placements = PlacementSpec::EvenlySpaced { count: 3 }.build(8);
        for replicas in [63usize, 64, 65, 127, 129, 255, 257] {
            let sweep = BatchSweep {
                algorithm: AlgorithmChoice::Pef3Plus,
                ring: &ring,
                placements: &placements,
                p: 0.5,
                horizon: 400,
                replicas,
                seed: 0xFEED ^ replicas as u64,
                scheduler: SchedulerChoice::Fsync,
            };
            let narrow = sweep.first_covers_arity::<u64>(1).expect("valid sweep");
            assert_eq!(narrow.len(), replicas, "replicas={replicas}");
            let wide128 = sweep.first_covers_arity::<Lanes128>(1).expect("valid sweep");
            let wide256 = sweep.first_covers_arity::<Lanes256>(2).expect("valid sweep");
            assert_eq!(narrow, wide128, "128-lane drift at replicas={replicas}");
            assert_eq!(narrow, wide256, "256-lane drift at replicas={replicas}");
            let auto = sweep.first_covers(1).expect("valid sweep");
            assert_eq!(narrow, auto, "auto-arity drift at replicas={replicas}");
            for r in [0, replicas - 1] {
                let anchor = serial_anchor(
                    &ring,
                    &placements,
                    sweep.p,
                    sweep.horizon,
                    sweep.seed,
                    r,
                    false,
                );
                assert_eq!(
                    narrow[r], anchor,
                    "serial anchor drift at replicas={replicas}, r={r}"
                );
            }
        }
    }

    #[test]
    fn ssync_sweeps_match_the_serial_round_robin_engine_at_every_arity() {
        // SSYNC widening: the word-parallel round-robin activation must
        // reproduce the serial engine's `RoundRobinSingle` run in every
        // lane, at every arity, across a ragged group boundary.
        let ring = RingTopology::new(8).expect("valid ring");
        let placements = PlacementSpec::EvenlySpaced { count: 3 }.build(8);
        let replicas = 70;
        let sweep = BatchSweep {
            algorithm: AlgorithmChoice::Pef3Plus,
            ring: &ring,
            placements: &placements,
            p: 0.5,
            horizon: 1200,
            replicas,
            seed: 0xC0FFEE,
            scheduler: SchedulerChoice::SsyncRoundRobin,
        };
        let narrow = sweep.first_covers_arity::<u64>(1).expect("valid sweep");
        let serial: Vec<Option<Time>> = (0..replicas)
            .map(|r| {
                serial_anchor(
                    &ring,
                    &placements,
                    sweep.p,
                    sweep.horizon,
                    sweep.seed,
                    r,
                    true,
                )
            })
            .collect();
        assert_eq!(narrow, serial, "64-lane SSYNC sweep drifted from serial");
        assert_eq!(
            narrow,
            sweep.first_covers_arity::<Lanes128>(1).expect("valid sweep")
        );
        assert_eq!(
            narrow,
            sweep.first_covers_arity::<Lanes256>(1).expect("valid sweep")
        );
        assert_eq!(
            narrow,
            sweep
                .first_covers_at(BatchArity::for_replicas(replicas), 2)
                .expect("valid sweep")
        );
    }

}
