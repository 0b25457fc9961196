//! Lane-vs-serial equivalence of the lockstep engine at every arity,
//! across the whole algorithm portfolio.
//!
//! The contract: lane `l` of a [`BatchSimulator`] driven by
//! [`BernoulliReplicas`] (or, at the wide arities, a
//! [`BernoulliReplicaBank`]) is **bit-for-bit** the serial [`Simulator`]
//! run against the lane's derived scalar schedule
//! ([`BernoulliReplicas::lane`] / [`BernoulliReplicaBank::lane`]) —
//! positions, directions, moved flags, algorithm states and first-cover
//! rounds. The same holds for [`UniformBatch`] against the shared
//! schedule played serially, and under SSYNC activation policies
//! installed on both engines.

use proptest::prelude::*;

use dynring_core::baselines::{
    AlternateDirection, AlwaysTurnOnTower, BounceOnMissingEdge, KeepDirection, RandomDirection,
};
use dynring_core::{Pef1, Pef2, Pef3Plus};
use dynring_engine::{
    BatchAlgorithm, BatchCoverage, BatchSimulator, Chirality, CoverTracker, LaneWord, Lanes128,
    Lanes256, Oblivious, PerLane, RobotId, RobotPlacement, RoundRobinSingle, Simulator,
    UniformBatch, LANES,
};
use dynring_graph::{BernoulliReplicaBank, BernoulliReplicas, EdgeSchedule, NodeId, RingTopology};

fn spread(n: usize, k: usize) -> Vec<RobotPlacement> {
    (0..k)
        .map(|i| {
            let chirality = if i % 2 == 0 {
                Chirality::Standard
            } else {
                Chirality::Mirrored
            };
            RobotPlacement::at(NodeId::new(i * n / k)).with_chirality(chirality)
        })
        .collect()
}

/// Runs one `(algorithm, n, k, p, seed)` configuration `horizon` rounds
/// and checks every compared lane against its serial twin each round.
fn check_bernoulli_equivalence<A>(
    algorithm: A,
    n: usize,
    k: usize,
    p: f64,
    seed: u64,
    horizon: u64,
    lanes: &[u32],
) -> Result<(), TestCaseError>
where
    A: BatchAlgorithm + Clone,
{
    let ring = RingTopology::new(n).expect("valid ring");
    let replicas = BernoulliReplicas::new(ring.clone(), p, seed).expect("valid p");
    let placements = spread(n, k);
    let mut batch = BatchSimulator::new(
        ring.clone(),
        algorithm.clone(),
        replicas.clone(),
        placements.clone(),
    )
    .expect("valid setup");
    let mut coverage = BatchCoverage::new(&batch);
    let mut serials: Vec<_> = lanes
        .iter()
        .map(|&lane| {
            Simulator::new(
                ring.clone(),
                algorithm.clone(),
                Oblivious::new(replicas.lane(lane)),
                placements.clone(),
            )
            .expect("valid setup")
        })
        .collect();
    // The serial kernel's tracker, held to `BatchCoverage`'s rule lane by
    // lane.
    let mut serial_covers: Vec<CoverTracker> = lanes.iter().map(|_| CoverTracker::new(n)).collect();
    for (cover, serial) in serial_covers.iter_mut().zip(&serials) {
        cover.observe(0, serial.positions_iter());
    }
    for t in 1..=horizon {
        batch.step();
        coverage.observe(&batch);
        for ((&lane, serial), cover) in
            lanes.iter().zip(serials.iter_mut()).zip(serial_covers.iter_mut())
        {
            serial.step_quiet();
            cover.observe(t, serial.positions_iter());
            prop_assert_eq!(
                batch.positions_of(lane),
                serial.positions(),
                "{} n={} k={} p={} t={} lane {}: positions",
                algorithm.name(),
                n,
                k,
                p,
                t,
                lane
            );
            let reference = serial.snapshots();
            let snaps = batch.lane_snapshots(lane);
            prop_assert_eq!(
                snaps,
                reference,
                "{} n={} k={} p={} t={} lane {}: snapshots (dirs / moved flags)",
                algorithm.name(),
                n,
                k,
                p,
                t,
                lane
            );
            for robot in 0..k {
                prop_assert_eq!(
                    &batch.lane_state(RobotId::new(robot), lane),
                    serial.state_of(RobotId::new(robot)),
                    "{} n={} k={} p={} t={} lane {} robot {}: state",
                    algorithm.name(),
                    n,
                    k,
                    p,
                    t,
                    lane,
                    robot
                );
            }
        }
    }
    for (&lane, cover) in lanes.iter().zip(&serial_covers) {
        prop_assert_eq!(
            coverage.first_cover(lane),
            cover.first_cover(),
            "{} n={} k={} p={}: first cover of lane {}",
            algorithm.name(),
            n,
            k,
            p,
            lane
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// PEF_3+ (the circuit with bit-sliced state): every lane matches its
    /// derived serial run, including cover rounds.
    #[test]
    fn pef3_circuit_lanes_match_serial(
        n in 5usize..12,
        k in 3usize..5,
        seed in any::<u64>(),
        p_idx in 0usize..3,
    ) {
        let p = [0.3, 0.5, 0.8][p_idx];
        prop_assume!(k < n);
        check_bernoulli_equivalence(Pef3Plus::new(), n, k, p, seed, 80, &[0, 1, 31, 63])?;
    }

    /// PEF_2 on its 3-ring domain.
    #[test]
    fn pef2_circuit_lanes_match_serial(seed in any::<u64>()) {
        check_bernoulli_equivalence(Pef2::new(), 3, 2, 0.5, seed, 80, &[0, 7, 63])?;
    }

    /// PEF_1 on the 2-node multigraph ring.
    #[test]
    fn pef1_circuit_lanes_match_serial(seed in any::<u64>()) {
        check_bernoulli_equivalence(Pef1::new(), 2, 1, 0.4, seed, 80, &[0, 33, 63])?;
    }

    /// Every baseline circuit, same contract.
    #[test]
    fn baseline_circuit_lanes_match_serial(
        n in 5usize..10,
        seed in any::<u64>(),
    ) {
        check_bernoulli_equivalence(KeepDirection, n, 3, 0.5, seed, 60, &[0, 63])?;
        check_bernoulli_equivalence(BounceOnMissingEdge, n, 3, 0.4, seed, 60, &[0, 63])?;
        check_bernoulli_equivalence(AlwaysTurnOnTower, n, 3, 0.6, seed, 60, &[0, 63])?;
        check_bernoulli_equivalence(AlternateDirection, n, 3, 0.5, seed, 60, &[0, 63])?;
        check_bernoulli_equivalence(RandomDirection::new(seed), n, 3, 0.5, seed, 60, &[0, 63])?;
    }

    /// The scalar fallback wrapper is held to the same contract as the
    /// circuits — `PerLane(Pef3Plus)` must equal both the serial run and
    /// (transitively) the circuit implementation.
    #[test]
    fn per_lane_fallback_lanes_match_serial(
        n in 5usize..10,
        seed in any::<u64>(),
    ) {
        check_bernoulli_equivalence(PerLane(Pef3Plus::new()), n, 3, 0.5, seed, 60, &[0, 42])?;
    }

    /// The demand-driven sparse snapshot fill is held to the very same
    /// lane-vs-serial contract: forced on (the auto threshold would pick
    /// the full fill at these sizes), every lane still reproduces its
    /// derived serial schedule bit for bit — positions, snapshots and
    /// states.
    #[test]
    fn sparse_fill_lanes_match_serial(
        n in 5usize..14,
        k in 1usize..4,
        seed in any::<u64>(),
        p_idx in 0usize..3,
    ) {
        let p = [0.3, 0.5, 0.8][p_idx];
        prop_assume!(k < n);
        let ring = RingTopology::new(n).expect("valid ring");
        let replicas = BernoulliReplicas::new(ring.clone(), p, seed).expect("valid p");
        let placements = spread(n, k);
        let mut batch = BatchSimulator::new(
            ring.clone(),
            Pef3Plus::new(),
            replicas.clone(),
            placements.clone(),
        )
        .expect("valid setup");
        batch.set_sparse_fill(true);
        let lanes = [0u32, 17, 63];
        let mut serials: Vec<_> = lanes
            .iter()
            .map(|&lane| {
                Simulator::new(
                    ring.clone(),
                    Pef3Plus::new(),
                    Oblivious::new(replicas.lane(lane)),
                    placements.clone(),
                )
                .expect("valid setup")
            })
            .collect();
        for t in 1..=60u64 {
            batch.step();
            for (&lane, serial) in lanes.iter().zip(serials.iter_mut()) {
                serial.step_quiet();
                prop_assert_eq!(
                    batch.lane_snapshots(lane),
                    serial.snapshots(),
                    "sparse fill: n={} k={} p={} t={} lane {}",
                    n, k, p, t, lane
                );
            }
        }
    }
}

/// The wide-arity form of [`check_bernoulli_equivalence`]: a
/// [`BernoulliReplicaBank`] drives a `W`-lane batch, and every compared
/// lane must match the serial run of that lane's derived scalar schedule
/// — optionally with [`RoundRobinSingle`] SSYNC activation installed on
/// both engines.
fn check_bank_equivalence<A, W>(
    algorithm: A,
    n: usize,
    k: usize,
    p: f64,
    seed: u64,
    horizon: u64,
    ssync: bool,
) -> Result<(), TestCaseError>
where
    A: BatchAlgorithm<W> + Clone,
    W: LaneWord,
{
    let ring = RingTopology::new(n).expect("valid ring");
    let seeds: Vec<u64> = (0..W::WORDS as u64).map(|w| seed.wrapping_add(w)).collect();
    let bank = BernoulliReplicaBank::new(ring.clone(), p, &seeds).expect("valid p");
    let placements = spread(n, k);
    let mut batch = BatchSimulator::<_, _, W>::new(
        ring.clone(),
        algorithm.clone(),
        bank.clone(),
        placements.clone(),
    )
    .expect("valid setup");
    if ssync {
        batch.set_activation(RoundRobinSingle);
    }
    // Plane boundaries plus an interior lane per plane.
    let lanes: Vec<u32> = (0..W::WORDS as u32)
        .flat_map(|w| [w * 64, w * 64 + 29, w * 64 + 63])
        .collect();
    let mut serials: Vec<_> = lanes
        .iter()
        .map(|&lane| {
            let mut sim = Simulator::new(
                ring.clone(),
                algorithm.clone(),
                Oblivious::new(bank.lane(lane)),
                placements.clone(),
            )
            .expect("valid setup");
            if ssync {
                sim.set_activation(RoundRobinSingle);
            }
            sim
        })
        .collect();
    for t in 1..=horizon {
        batch.step();
        for (&lane, serial) in lanes.iter().zip(serials.iter_mut()) {
            serial.step_quiet();
            prop_assert_eq!(
                batch.lane_snapshots(lane),
                serial.snapshots(),
                "{} ({} lanes{}) n={} k={} p={} t={} lane {}: snapshots",
                algorithm.name(),
                W::LANES,
                if ssync { ", ssync" } else { "" },
                n,
                k,
                p,
                t,
                lane
            );
            for robot in 0..k {
                prop_assert_eq!(
                    &batch.lane_state(RobotId::new(robot), lane),
                    serial.state_of(RobotId::new(robot)),
                    "{} ({} lanes{}) n={} k={} p={} t={} lane {} robot {}: state",
                    algorithm.name(),
                    W::LANES,
                    if ssync { ", ssync" } else { "" },
                    n,
                    k,
                    p,
                    t,
                    lane,
                    robot
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The arity generalization of the core contract: at 64, 128 and 256
    /// lanes, every lane of a bank-driven batch matches its derived
    /// serial run — native circuit (bit-sliced state) and scalar
    /// fallback alike.
    #[test]
    fn wide_circuit_lanes_match_serial(
        n in 5usize..10,
        k in 3usize..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(k < n);
        check_bank_equivalence::<_, u64>(Pef3Plus::new(), n, k, 0.5, seed, 50, false)?;
        check_bank_equivalence::<_, Lanes128>(Pef3Plus::new(), n, k, 0.5, seed, 50, false)?;
        check_bank_equivalence::<_, Lanes256>(Pef3Plus::new(), n, k, 0.5, seed, 50, false)?;
        check_bank_equivalence::<_, Lanes256>(BounceOnMissingEdge, n, k, 0.4, seed, 50, false)?;
        check_bank_equivalence::<_, Lanes128>(PerLane(Pef3Plus::new()), n, k, 0.5, seed, 40, false)?;
    }

    /// The SSYNC widening: under `RoundRobinSingle` activation the batch
    /// engine still reproduces every lane's serial SSYNC run — at every
    /// arity, for stateful circuits and the fallback.
    #[test]
    fn ssync_batch_lanes_match_serial(
        n in 5usize..10,
        k in 3usize..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(k < n);
        check_bank_equivalence::<_, u64>(Pef3Plus::new(), n, k, 0.5, seed, 60, true)?;
        check_bank_equivalence::<_, Lanes128>(Pef3Plus::new(), n, k, 0.5, seed, 60, true)?;
        check_bank_equivalence::<_, Lanes256>(Pef3Plus::new(), n, k, 0.5, seed, 60, true)?;
        check_bank_equivalence::<_, Lanes256>(AlwaysTurnOnTower, n, k, 0.6, seed, 60, true)?;
        check_bank_equivalence::<_, u64>(PerLane(Pef3Plus::new()), n, k, 0.5, seed, 40, true)?;
    }
}

#[test]
fn circuit_and_fallback_agree_lane_for_lane() {
    // The two BatchAlgorithm implementations of PEF_3+ (native circuit vs
    // PerLane scalar loop) must drive identical batch executions.
    let ring = RingTopology::new(9).expect("valid ring");
    let replicas = BernoulliReplicas::new(ring.clone(), 0.45, 0xC0C0A).expect("valid p");
    let placements = spread(9, 3);
    let mut circuit = BatchSimulator::new(
        ring.clone(),
        Pef3Plus::new(),
        replicas.clone(),
        placements.clone(),
    )
    .expect("valid setup");
    let mut fallback =
        BatchSimulator::new(ring, PerLane(Pef3Plus::new()), replicas, placements)
            .expect("valid setup");
    for t in 0..200 {
        circuit.step();
        fallback.step();
        for lane in 0..LANES as u32 {
            assert_eq!(
                circuit.lane_snapshots(lane),
                fallback.lane_snapshots(lane),
                "t={t} lane {lane}"
            );
        }
    }
}

#[test]
fn uniform_batch_plays_the_shared_schedule_in_every_lane() {
    // Deterministic dynamics: all 64 lanes equal one serial run over the
    // same schedule, for a stateful circuit algorithm.
    use dynring_graph::AbsenceIntervals;
    let ring = RingTopology::new(8).expect("valid ring");
    let mut schedule = AbsenceIntervals::new(ring.clone());
    schedule.remove_during(dynring_graph::EdgeId::new(2), 3, 9);
    schedule.remove_from(dynring_graph::EdgeId::new(6), 15);
    let placements = spread(8, 3);
    let mut batch = BatchSimulator::<_, _, u64>::new(
        ring.clone(),
        Pef3Plus::new(),
        UniformBatch::new(schedule.clone()),
        placements.clone(),
    )
    .expect("valid setup");
    let mut serial = Simulator::new(
        ring,
        Pef3Plus::new(),
        Oblivious::new(schedule),
        placements,
    )
    .expect("valid setup");
    for t in 0..120 {
        batch.step();
        serial.step_quiet();
        for lane in [0u32, 21, 63] {
            assert_eq!(batch.lane_snapshots(lane), serial.snapshots(), "t={t} lane {lane}");
        }
    }
}

#[test]
fn uniform_batch_schedule_accessor_exposes_the_inner_schedule() {
    let ring = RingTopology::new(4).expect("valid ring");
    let uniform = UniformBatch::new(dynring_graph::AlwaysPresent::new(ring));
    assert_eq!(uniform.schedule().ring().node_count(), 4);
}
