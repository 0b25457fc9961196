//! The Theorem 5.1 adversary: a single robot cannot perpetually explore a
//! connected-over-time ring of three or more nodes.

use dynring_graph::{EdgeId, EdgeSet, GlobalDir, NodeId, RingTopology};

use dynring_engine::{Dynamics, EdgeProbe, Observation};

/// The adaptive adversary from the proof of Theorem 5.1 (see Figure 3).
///
/// Let `u` be the robot's initial node and `v` its counter-clockwise
/// neighbour. The adversary plays, forever:
///
/// - while the robot stands on `u`, remove `e_ur` (the clockwise adjacent
///   edge of `u`) and nothing else — `u` satisfies `OneEdge`, its only exit
///   leads to `v`;
/// - while the robot stands on `v`, remove `e_vl` (the counter-clockwise
///   adjacent edge of `v`) and nothing else — the only exit leads back to
///   `u`.
///
/// Consequences, mirroring the proof:
///
/// - the robot can only ever stand on `u` or `v`: on a ring of `n ≥ 3`
///   nodes, perpetual exploration fails for the entire run;
/// - if the robot keeps moving (as any *correct* algorithm must, by
///   Lemma 5.1), every removal interval is finite, so each edge is present
///   infinitely often: the produced evolving graph is connected-over-time;
/// - if the robot instead freezes forever (refusing the single open edge),
///   only the single edge it camps next to stays removed — still at most
///   one eventual missing edge, so the schedule *remains*
///   connected-over-time, and exploration still fails.
///
/// Either way the adversary wins without ever violating the class
/// hypothesis — which is exactly Theorem 5.1.
#[derive(Debug, Clone)]
pub struct SingleRobotConfiner {
    ring: RingTopology,
    anchor: Option<(NodeId, NodeId)>,
    escaped: bool,
    blocks: u64,
}

impl SingleRobotConfiner {
    /// Creates the adversary for `ring` (any size ≥ 2; the confinement is a
    /// counterexample only for `n ≥ 3`, matching Theorem 5.1).
    pub fn new(ring: RingTopology) -> Self {
        SingleRobotConfiner {
            ring,
            anchor: None,
            escaped: false,
            blocks: 0,
        }
    }

    /// The pair `(u, v)` the robot is confined to, once the first
    /// observation fixed it.
    pub fn confinement_nodes(&self) -> Option<(NodeId, NodeId)> {
        self.anchor
    }

    /// `true` if the robot was ever seen outside `{u, v}` (cannot happen —
    /// kept as a checked invariant).
    pub fn escaped(&self) -> bool {
        self.escaped
    }

    /// Number of rounds in which the adversary removed an edge.
    pub fn blocked_rounds(&self) -> u64 {
        self.blocks
    }

    /// Advances the adversary for the round observed in `obs` and returns
    /// the single edge blocked this round, if any — the one decision both
    /// [`Dynamics`] entry points share, so the full-snapshot and sparse
    /// paths cannot drift.
    fn choose_block(&mut self, obs: &Observation<'_>) -> Option<EdgeId> {
        let robot = obs
            .robots()
            .first()
            .expect("SingleRobotConfiner requires at least one robot");
        let (u, v) = *self.anchor.get_or_insert_with(|| {
            let u = robot.node;
            let v = self.ring.neighbor(u, GlobalDir::CounterClockwise);
            (u, v)
        });
        if robot.node == u {
            // Block e_ur: the robot may only leave counter-clockwise, to v.
            self.blocks += 1;
            Some(self.ring.edge_towards(u, GlobalDir::Clockwise))
        } else if robot.node == v {
            // Block e_vl: the robot may only leave clockwise, back to u.
            self.blocks += 1;
            Some(self.ring.edge_towards(v, GlobalDir::CounterClockwise))
        } else {
            self.escaped = true;
            None
        }
    }
}

impl Dynamics for SingleRobotConfiner {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        let blocked = self.choose_block(obs);
        out.reset(self.ring.edge_count());
        out.fill();
        if let Some(e) = blocked {
            out.remove(e);
        }
    }

    /// The Theorem 5.1 confiner blocks at most one edge per round and its
    /// state advance is O(1), so it supports the sparse path: adaptive
    /// does not imply full-set.
    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        let blocked = self.choose_block(obs);
        for q in queries.iter_mut() {
            q.present = blocked != Some(q.edge);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_engine::{Algorithm, LocalDir, RobotPlacement, Simulator, View};

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    /// Turns back whenever the pointed edge is missing (always moves when
    /// possible) — a stand-in for "a robot honouring Lemma 5.1".
    #[derive(Debug, Clone)]
    struct Bounce;

    impl Algorithm for Bounce {
        type State = ();

        fn name(&self) -> &str {
            "bounce"
        }

        fn initial_state(&self) {}

        fn compute(&self, _s: &mut (), view: &View) -> LocalDir {
            if view.exists_edge_ahead() {
                view.dir()
            } else {
                view.dir().opposite()
            }
        }
    }

    /// Never changes direction — freezes when pointed at a removed edge.
    #[derive(Debug, Clone)]
    struct Stubborn;

    impl Algorithm for Stubborn {
        type State = ();

        fn name(&self) -> &str {
            "stubborn"
        }

        fn initial_state(&self) {}

        fn compute(&self, _s: &mut (), view: &View) -> LocalDir {
            view.dir()
        }
    }

    #[test]
    fn bouncing_robot_is_confined_to_two_nodes() {
        let r = ring(6);
        let adversary = SingleRobotConfiner::new(r.clone());
        let mut sim = Simulator::new(
            r,
            Bounce,
            adversary,
            vec![RobotPlacement::at(NodeId::new(2))],
        )
        .expect("valid setup");
        let trace = sim.run_recording(300);
        let visited = trace.visited_nodes();
        assert_eq!(visited.len(), 2, "visited {visited:?}");
        assert!(visited.contains(&NodeId::new(2)));
        assert!(visited.contains(&NodeId::new(1))); // ccw neighbour
        assert!(!sim.dynamics().escaped());
        assert_eq!(
            sim.dynamics().confinement_nodes(),
            Some((NodeId::new(2), NodeId::new(1)))
        );
    }

    #[test]
    fn bouncing_robot_actually_oscillates() {
        // The confinement is not a freeze: the robot keeps moving between u
        // and v, so every removal interval is finite.
        let r = ring(5);
        let adversary = SingleRobotConfiner::new(r.clone());
        let mut sim = Simulator::new(
            r,
            Bounce,
            adversary,
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let trace = sim.run_recording(50);
        let moves = trace
            .rounds()
            .iter()
            .filter(|rec| rec.robots[0].moved)
            .count();
        assert!(moves >= 24, "only {moves} moves in 50 rounds");
    }

    #[test]
    fn stubborn_robot_freezes_and_schedule_stays_cot() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(4);
        let adversary = Capturing::new(SingleRobotConfiner::new(r.clone()));
        // Standard chirality + dir Right = clockwise: points at the blocked
        // e_ur forever.
        let mut sim = Simulator::new(
            r,
            Stubborn,
            adversary,
            vec![RobotPlacement::at(NodeId::new(0)).with_dir(LocalDir::Right)],
        )
        .expect("valid setup");
        let trace = sim.run_recording(100);
        assert_eq!(trace.visited_nodes().len(), 1, "robot should freeze");
        // One eventual missing edge only: still connected-over-time.
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        match certify_connected_over_time(&script, 100, 4) {
            CotVerdict::Certified { missing_edge, .. } => {
                assert_eq!(missing_edge, Some(dynring_graph::EdgeId::new(0)));
            }
            v => panic!("expected certification, got {v:?}"),
        }
    }

    #[test]
    fn oscillating_run_is_certified_cot_with_no_missing_edge() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(7);
        let adversary = Capturing::new(SingleRobotConfiner::new(r.clone()));
        let mut sim = Simulator::new(
            r,
            Bounce,
            adversary,
            vec![RobotPlacement::at(NodeId::new(3))],
        )
        .expect("valid setup");
        sim.run(200);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        let verdict = certify_connected_over_time(&script, 200, 8);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "verdict {verdict:?}"
        );
    }

    #[test]
    fn two_node_ring_confinement_is_vacuous() {
        // On n = 2 the "confinement" covers the whole ring — consistent
        // with Theorem 5.2 (PEF_1 succeeds there).
        let r = ring(2);
        let adversary = SingleRobotConfiner::new(r.clone());
        let mut sim = Simulator::new(
            r,
            Bounce,
            adversary,
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let trace = sim.run_recording(60);
        assert!(trace.covers_all_nodes());
    }
}
