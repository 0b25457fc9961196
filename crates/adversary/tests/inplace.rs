//! The sparse dynamics API must be indistinguishable from the snapshot
//! for every adversary: identical instances driven with the same
//! observation sequence — one through `edges_at_into`, one through
//! `probe_edges` — must describe identical snapshot sequences
//! (adversaries are stateful, so this also checks that internal state
//! advances identically on both paths). An adversary that refuses probes
//! must do so without touching queries or state, and then agree through
//! its `edges_at_into` fallback. The ASYNC [`MoveBlocker`] is driven by
//! observations with random pending phases, as the phase-split simulator
//! hands them over.

use proptest::prelude::*;

use dynring_adversary::{PointedEdgeBlocker, SingleRobotConfiner, SsyncBlocker, TwoRobotConfiner};
use dynring_engine::async_exec::{MoveBlocker, PhaseKind};
use dynring_engine::{
    Chirality, Dynamics, EdgeProbe, LocalDir, Observation, RobotId, RobotSnapshot,
};
use dynring_graph::{EdgeSet, NodeId, RingTopology};

/// Drives both copies over a pseudo-random robot trajectory, with random
/// pending phases when `phased`, and compares every emitted snapshot.
fn assert_paths_agree<D: Dynamics>(
    ring: &RingTopology,
    mut via_into: D,
    mut via_probe: D,
    robots: usize,
    phased: bool,
    seed: u64,
    rounds: u64,
) -> Result<(), TestCaseError> {
    let n = ring.node_count();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut buf = EdgeSet::empty(0); // deliberately stale universe
    let mut fallback_buf = EdgeSet::empty(0);
    for t in 0..rounds {
        let snaps: Vec<RobotSnapshot> = (0..robots)
            .map(|i| RobotSnapshot {
                id: RobotId::new(i),
                node: NodeId::new((next() as usize) % n),
                chirality: if next() & 1 == 0 {
                    Chirality::Standard
                } else {
                    Chirality::Mirrored
                },
                dir: if next() & 1 == 0 {
                    LocalDir::Left
                } else {
                    LocalDir::Right
                },
                moved_last_round: next() & 1 == 0,
            })
            .collect();
        let phases: Vec<PhaseKind> = if phased {
            let kinds = [PhaseKind::Look, PhaseKind::Compute, PhaseKind::Move];
            (0..robots).map(|_| kinds[next() as usize % 3]).collect()
        } else {
            Vec::new()
        };
        let obs = Observation::new(t, ring, &snaps).with_phases(&phases);
        via_into.edges_at_into(&obs, &mut buf);
        // Sparse path: query every edge. Supporters must answer exactly
        // the snapshot; refusers must fall back through edges_at_into with
        // identical results (the engine's fallback sequence).
        let mut queries: Vec<EdgeProbe> = ring.edges().map(EdgeProbe::new).collect();
        if via_probe.probe_edges(&obs, &mut queries) {
            for q in &queries {
                prop_assert_eq!(
                    q.present,
                    buf.contains(q.edge),
                    "probe of {} at t = {}", q.edge, t
                );
            }
        } else {
            prop_assert!(queries.iter().all(|q| !q.present), "refusal touched queries");
            via_probe.edges_at_into(&obs, &mut fallback_buf);
            prop_assert_eq!(&buf, &fallback_buf, "fallback at t = {}", t);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_robot_confiner_paths_agree(
        n in 3usize..12,
        seed in any::<u64>(),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        assert_paths_agree(
            &ring,
            SingleRobotConfiner::new(ring.clone()),
            SingleRobotConfiner::new(ring.clone()),
            1,
            false,
            seed,
            60,
        )?;
    }

    #[test]
    fn two_robot_confiner_paths_agree(
        n in 4usize..12,
        seed in any::<u64>(),
        patience in 1u64..8,
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        assert_paths_agree(
            &ring,
            TwoRobotConfiner::new(ring.clone(), patience),
            TwoRobotConfiner::new(ring.clone(), patience),
            2,
            false,
            seed,
            60,
        )?;
    }

    #[test]
    fn pointed_blocker_paths_agree(
        n in 2usize..12,
        seed in any::<u64>(),
        budget in 1u64..6,
        robots in 1usize..4,
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        assert_paths_agree(
            &ring,
            PointedEdgeBlocker::new(ring.clone(), budget, None),
            PointedEdgeBlocker::new(ring.clone(), budget, None),
            robots,
            false,
            seed,
            60,
        )?;
    }

    #[test]
    fn ssync_blocker_paths_agree(
        n in 2usize..12,
        seed in any::<u64>(),
        robots in 1usize..4,
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        assert_paths_agree(
            &ring,
            SsyncBlocker::new(ring.clone()),
            SsyncBlocker::new(ring.clone()),
            robots,
            false,
            seed,
            60,
        )?;
    }

    #[test]
    fn async_move_blocker_paths_agree(
        n in 2usize..12,
        seed in any::<u64>(),
        robots in 1usize..4,
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        assert_paths_agree(
            &ring,
            MoveBlocker::new(ring.clone()),
            MoveBlocker::new(ring.clone()),
            robots,
            true,
            seed,
            60,
        )?;
    }
}
