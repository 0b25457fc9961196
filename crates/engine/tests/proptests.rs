//! Property-based tests for the execution engine: determinism, Move-phase
//! soundness, and trace consistency.

use proptest::prelude::*;

use dynring_engine::{
    Algorithm, Chirality, LocalDir, Oblivious, RobotPlacement, Simulator, View,
};
use dynring_graph::generators::{self, RandomCotConfig};
use dynring_graph::{EdgeSchedule, NodeId, RingTopology};

/// A state-carrying test algorithm whose decisions depend on everything a
/// view offers, to exercise the engine thoroughly.
#[derive(Debug, Clone)]
struct Churn;

impl Algorithm for Churn {
    type State = u64;

    fn name(&self) -> &str {
        "churn"
    }

    fn initial_state(&self) -> u64 {
        0
    }

    fn compute(&self, state: &mut u64, view: &View) -> LocalDir {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(u64::from(view.exists_edge_ahead()))
            .wrapping_add(u64::from(view.other_robots_on_current_node()) << 1);
        if *state & 4 == 0 {
            view.dir()
        } else {
            view.dir().opposite()
        }
    }
}

fn placements(n: usize, spec: &[(usize, bool, bool)]) -> Vec<RobotPlacement> {
    let mut used = std::collections::BTreeSet::new();
    spec.iter()
        .map(|&(node, chi, dir)| {
            let mut idx = node % n;
            while !used.insert(idx) {
                idx = (idx + 1) % n;
            }
            RobotPlacement::at(NodeId::new(idx))
                .with_chirality(if chi {
                    Chirality::Standard
                } else {
                    Chirality::Mirrored
                })
                .with_dir(if dir { LocalDir::Left } else { LocalDir::Right })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bit-for-bit determinism: two simulators with identical inputs
    /// produce identical traces.
    #[test]
    fn simulation_is_deterministic(
        n in 3usize..10,
        seed in any::<u64>(),
        spec in proptest::collection::vec((0usize..10, any::<bool>(), any::<bool>()), 1..3),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let cfg = RandomCotConfig::default();
        let schedule = generators::random_connected_over_time(&ring, 120, &cfg, seed)
            .expect("valid config");
        let run = || {
            let mut sim = Simulator::new(
                ring.clone(),
                Churn,
                Oblivious::new(schedule.clone()),
                placements(n, &spec),
            )
            .expect("valid setup");
            sim.run_recording(120)
        };
        prop_assert_eq!(run(), run());
    }

    /// Move-phase soundness: a robot moves iff the edge in its
    /// post-Compute direction is present in the same snapshot, and it lands
    /// on the right neighbour.
    #[test]
    fn moves_match_snapshot_and_direction(
        n in 3usize..10,
        seed in any::<u64>(),
        spec in proptest::collection::vec((0usize..10, any::<bool>(), any::<bool>()), 1..4),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let cfg = RandomCotConfig {
            presence_probability: 0.4,
            recurrence_bound: 8,
            eventual_missing: None,
        };
        let schedule = generators::random_connected_over_time(&ring, 100, &cfg, seed)
            .expect("valid config");
        let spec = &spec[..spec.len().min(n - 1)];
        let mut sim = Simulator::new(
            ring.clone(),
            Churn,
            Oblivious::new(schedule.clone()),
            placements(n, spec),
        )
        .expect("valid setup");
        let trace = sim.run_recording(100);
        for round in trace.rounds() {
            // The recorded snapshot is the oblivious schedule's snapshot.
            prop_assert_eq!(&round.edges, &schedule.edges_at(round.time));
            for robot in &round.robots {
                let pointed = ring.edge_towards(robot.node_before, robot.global_dir_after);
                let present = round.edges.contains(pointed);
                prop_assert_eq!(robot.moved, present, "round {}", round.time);
                if robot.moved {
                    prop_assert_eq!(
                        robot.node_after,
                        ring.neighbor(robot.node_before, robot.global_dir_after)
                    );
                } else {
                    prop_assert_eq!(robot.node_after, robot.node_before);
                }
            }
        }
    }

    /// Trace position chains are consistent: `node_after` of round `t`
    /// equals `node_before` of round `t + 1`, and global directions always
    /// translate local ones through the robot's chirality.
    #[test]
    fn trace_chains_are_consistent(
        n in 3usize..8,
        seed in any::<u64>(),
        spec in proptest::collection::vec((0usize..8, any::<bool>(), any::<bool>()), 2..4),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let schedule = generators::random_connected_over_time(
            &ring, 80, &RandomCotConfig::default(), seed)
            .expect("valid config");
        let pls = placements(n, &spec);
        prop_assume!(pls.len() < n);
        let chis: Vec<Chirality> = pls.iter().map(|p| p.chirality).collect();
        let mut sim = Simulator::new(ring, Churn, Oblivious::new(schedule), pls)
            .expect("valid setup");
        let trace = sim.run_recording(80);
        for window in trace.rounds().windows(2) {
            for (a, b) in window[0].robots.iter().zip(&window[1].robots) {
                prop_assert_eq!(a.node_after, b.node_before);
                prop_assert_eq!(a.dir_after, b.dir_before);
            }
        }
        for round in trace.rounds() {
            for robot in &round.robots {
                let chi = chis[robot.id.index()];
                prop_assert_eq!(robot.global_dir_before, chi.to_global(robot.dir_before));
                prop_assert_eq!(robot.global_dir_after, chi.to_global(robot.dir_after));
            }
        }
    }

    /// ASYNC with full activation on a static ring emulates FSYNC at a
    /// 3:1 tick ratio, for arbitrary robot teams and the stateful Churn
    /// algorithm (staleness is harmless when nothing changes).
    #[test]
    fn async_emulates_fsync_on_static_rings(
        n in 3usize..10,
        spec in proptest::collection::vec((0usize..10, any::<bool>(), any::<bool>()), 1..4),
        rounds in 1u64..40,
    ) {
        use dynring_engine::async_exec::AsyncSimulator;
        use dynring_graph::AlwaysPresent;

        let ring = RingTopology::new(n).expect("valid ring");
        let spec = &spec[..spec.len().min(n - 1)];
        let pls = placements(n, spec);
        let mut fsync = Simulator::new(
            ring.clone(),
            Churn,
            Oblivious::new(AlwaysPresent::new(ring.clone())),
            pls.clone(),
        )
        .expect("valid setup");
        let mut asim = AsyncSimulator::new(
            ring.clone(),
            Churn,
            Oblivious::new(AlwaysPresent::new(ring)),
            pls,
        )
        .expect("valid setup");
        for _ in 0..rounds {
            fsync.step();
            asim.tick();
            asim.tick();
            asim.tick();
            prop_assert_eq!(fsync.positions(), asim.positions());
        }
    }

    /// Mirror symmetry of the engine: mirroring every robot's chirality on
    /// a mirror-symmetric schedule yields the mirrored run.
    #[test]
    fn engine_is_mirror_symmetric(
        n in 3usize..9,
        start in 0usize..9,
        dir in any::<bool>(),
        horizon in 10u64..60,
    ) {
        // On an always-present ring, a single robot with chirality χ
        // starting at 0 mirrors a robot with chirality χ̄: their positions
        // are reflections node ↦ -node (mod n).
        use dynring_graph::AlwaysPresent;
        let start = start % n;
        let ring = RingTopology::new(n).expect("valid ring");
        let run = |chi: Chirality, at: usize| {
            let placement = RobotPlacement::at(NodeId::new(at))
                .with_chirality(chi)
                .with_dir(if dir { LocalDir::Left } else { LocalDir::Right });
            let mut sim = Simulator::new(
                ring.clone(),
                Churn,
                Oblivious::new(AlwaysPresent::new(ring.clone())),
                vec![placement],
            )
            .expect("valid setup");
            let trace = sim.run_recording(horizon);
            (0..=horizon).map(|t| trace.positions_at(t)[0]).collect::<Vec<_>>()
        };
        let standard = run(Chirality::Standard, start);
        let mirrored = run(Chirality::Mirrored, (n - start) % n);
        for (s, m) in standard.iter().zip(&mirrored) {
            let reflected = NodeId::new((n - s.index()) % n);
            prop_assert_eq!(*m, reflected);
        }
    }
}
