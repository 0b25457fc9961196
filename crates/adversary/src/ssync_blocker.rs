//! The SSYNC impossibility adversary of Di Luna, Dobrev, Flocchini &
//! Santoro (ICDCS 2016), which motivates the paper's FSYNC restriction.

use dynring_graph::{EdgeSet, GlobalDir, RingTopology, Time};

use dynring_engine::{Dynamics, EdgeProbe, Observation};

/// Freezes every algorithm under SSYNC round-robin scheduling: each round,
/// both adjacent edges of the *activated* robot are removed.
///
/// Pair this dynamics with
/// [`dynring_engine::RoundRobinSingle`] (the same `t mod k` convention is
/// hard-wired here): the activated robot always sees both of its adjacent
/// edges missing, so no robot ever moves, no matter what it computes —
/// exploration fails for *any* algorithm and *any* `k < n`.
///
/// The produced evolving graph remains connected-over-time for `k ≥ 2`:
/// an edge is removed only during the activations of an adjacent robot, so
/// with stationary robots each removed edge is absent at most every other
/// round — except an edge joining two adjacent robots, which is the single
/// allowed eventual missing edge. (With `k = 1` every round belongs to the
/// only robot and both its edges would die: that is why the SSYNC argument
/// needs at least two robots — and why the paper's own Theorem 5.1 handles
/// `k = 1` differently.)
#[derive(Debug, Clone)]
pub struct SsyncBlocker {
    ring: RingTopology,
}

impl SsyncBlocker {
    /// Creates the blocker.
    pub fn new(ring: RingTopology) -> Self {
        SsyncBlocker { ring }
    }

    /// Index of the robot whose activation round `t` is (round-robin).
    pub fn activated_robot(&self, t: Time, robots: usize) -> usize {
        (t % robots as Time) as usize
    }
}

impl Dynamics for SsyncBlocker {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        let robots = obs.robots();
        out.reset(self.ring.edge_count());
        out.fill();
        if robots.is_empty() {
            return;
        }
        let active = self.activated_robot(obs.time(), robots.len());
        let node = robots[active].node;
        out.remove(self.ring.edge_towards(node, GlobalDir::Clockwise));
        out.remove(self.ring.edge_towards(node, GlobalDir::CounterClockwise));
    }

    /// Adaptive but stateless — the blocked pair is a pure function of the
    /// observation — so point queries are answered directly and the
    /// blocker stays on the sparse path.
    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        let robots = obs.robots();
        if robots.is_empty() {
            for q in queries.iter_mut() {
                q.present = true;
            }
            return true;
        }
        let node = robots[self.activated_robot(obs.time(), robots.len())].node;
        let cw = self.ring.edge_towards(node, GlobalDir::Clockwise);
        let ccw = self.ring.edge_towards(node, GlobalDir::CounterClockwise);
        for q in queries.iter_mut() {
            q.present = q.edge != cw && q.edge != ccw;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_engine::{
        Algorithm, LocalDir, RobotPlacement, RoundRobinSingle, Simulator, View,
    };
    use dynring_graph::NodeId;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    /// Tries hard to move: points at any present edge.
    #[derive(Debug, Clone)]
    struct Eager;

    impl Algorithm for Eager {
        type State = ();

        fn name(&self) -> &str {
            "eager"
        }

        fn initial_state(&self) {}

        fn compute(&self, _s: &mut (), view: &View) -> LocalDir {
            if view.exists_edge_ahead() {
                view.dir()
            } else if view.exists_edge_behind() {
                view.dir().opposite()
            } else {
                view.dir()
            }
        }
    }

    #[test]
    fn ssync_freezes_every_robot() {
        let r = ring(6);
        let mut sim = Simulator::new(
            r.clone(),
            Eager,
            SsyncBlocker::new(r),
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(2)),
                RobotPlacement::at(NodeId::new(4)),
            ],
        )
        .expect("valid setup");
        sim.set_activation(RoundRobinSingle);
        let trace = sim.run_recording(300);
        assert_eq!(trace.visited_nodes().len(), 3, "nobody may move");
        assert!(trace.rounds().iter().all(|rec| rec.robots.iter().all(|r| !r.moved)));
    }

    #[test]
    fn same_dynamics_under_fsync_cannot_freeze_three_robots() {
        // Under FSYNC the blocker only removes the activated… i.e. every
        // robot is active each round but the dynamics still only removes
        // the edges of robot (t mod k): the others walk freely. This is the
        // gap between SSYNC and FSYNC made visible.
        let r = ring(6);
        let mut sim = Simulator::new(
            r.clone(),
            Eager,
            SsyncBlocker::new(r),
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(2)),
                RobotPlacement::at(NodeId::new(4)),
            ],
        )
        .expect("valid setup");
        let trace = sim.run_recording(100);
        assert!(trace.covers_all_nodes());
    }

    #[test]
    fn schedule_is_cot_for_two_separated_robots() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(6);
        let mut sim = Simulator::new(
            r.clone(),
            Eager,
            Capturing::new(SsyncBlocker::new(r)),
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(3)),
            ],
        )
        .expect("valid setup");
        sim.set_activation(RoundRobinSingle);
        sim.run(200);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        let verdict = certify_connected_over_time(&script, 200, 2);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "verdict {verdict:?}"
        );
    }
}
