//! A greedy, budget-constrained slowdown adversary.

use dynring_graph::{EdgeId, EdgeSet, RingTopology, Time};

use dynring_engine::{Dynamics, EdgeProbe, Observation};

/// Removes, each round, every edge currently pointed to by a robot —
/// subject to a per-edge absence budget that keeps the schedule
/// connected-over-time.
///
/// Each edge may stay absent for at most `budget` consecutive rounds; once
/// the budget is exhausted the edge is forced present for one round (then
/// the budget resets). An optional `exempt` edge may stay absent forever
/// (the allowed eventual missing edge).
///
/// Only an edge removed last round has a nonzero absence run, and the
/// blocker removes only pointed edges, so it keeps the runs of at most `k`
/// edges: a round costs O(k + n/64) for `k` robots on `n` edges.
///
/// This adversary is the natural "try hardest within the rules" strategy
/// and serves as an ablation baseline: it slows `PEF_3+` down by roughly a
/// factor of `budget` but cannot prevent exploration (Theorem 3.1), while
/// single robots and robot pairs lose even against the far weaker
/// confiners.
#[derive(Debug, Clone)]
pub struct PointedEdgeBlocker {
    ring: RingTopology,
    budget: Time,
    exempt: Option<EdgeId>,
    /// The edges removed last round (never `exempt`) with their absence
    /// runs; every other edge's run is 0.
    removed: Vec<(EdgeId, Time)>,
    /// Scratch for this round's `removed`.
    next: Vec<(EdgeId, Time)>,
}

impl PointedEdgeBlocker {
    /// Creates the blocker with the given consecutive-absence `budget`
    /// (≥ 1) and optional always-absent `exempt` edge.
    ///
    /// # Panics
    ///
    /// Panics when `budget == 0` or `exempt` is not an edge of `ring`.
    pub fn new(ring: RingTopology, budget: Time, exempt: Option<EdgeId>) -> Self {
        assert!(budget >= 1, "budget must be at least 1");
        if let Some(e) = exempt {
            ring.check_edge(e).unwrap_or_else(|err| panic!("{err}"));
        }
        PointedEdgeBlocker {
            ring,
            budget,
            exempt,
            removed: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The per-edge consecutive-absence budget.
    pub fn budget(&self) -> Time {
        self.budget
    }
}

impl Dynamics for PointedEdgeBlocker {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        out.fill();
        if let Some(e) = self.exempt {
            out.remove(e);
        }
        self.next.clear();
        for e in obs.pointed() {
            // Absent already: the exempt edge, or pointed by an earlier
            // robot and removed this round.
            if !out.contains(e) {
                continue;
            }
            let run = self
                .removed
                .iter()
                .find(|(edge, _)| *edge == e)
                .map_or(0, |&(_, run)| run);
            if run < self.budget {
                out.remove(e);
                self.next.push((e, run + 1));
            }
        }
        std::mem::swap(&mut self.removed, &mut self.next);
    }

    /// Sparse probing is not offered: a round is already just a word fill
    /// plus at most `k` removals, so the engine reads the whole snapshot
    /// through [`Dynamics::edges_at_into`].
    fn probe_edges(&mut self, _obs: &Observation<'_>, _queries: &mut [EdgeProbe]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_engine::{Algorithm, LocalDir, RobotPlacement, Simulator, View};
    use dynring_graph::NodeId;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[derive(Debug, Clone)]
    struct KeepDir;

    impl Algorithm for KeepDir {
        type State = ();

        fn name(&self) -> &str {
            "keep-dir"
        }

        fn initial_state(&self) {}

        fn compute(&self, _s: &mut (), view: &View) -> LocalDir {
            view.dir()
        }
    }

    #[test]
    fn blocker_slows_but_cannot_stop_a_direction_keeper() {
        let r = ring(6);
        let adversary = PointedEdgeBlocker::new(r.clone(), 4, None);
        let mut sim = Simulator::new(
            r,
            KeepDir,
            adversary,
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let trace = sim.run_recording(6 * 5 + 10);
        // Budget 4 ⇒ the robot crosses one edge every 5 rounds: the ring is
        // fully covered within 6 × 5 rounds.
        assert!(trace.covers_all_nodes(), "{}", trace.ascii_chart());
        let moves = trace
            .rounds()
            .iter()
            .filter(|rec| rec.robots[0].moved)
            .count();
        assert!((6..=10).contains(&moves), "moves {moves}");
    }

    #[test]
    fn budget_keeps_schedule_connected_over_time() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(5);
        let adversary = Capturing::new(PointedEdgeBlocker::new(r.clone(), 3, None));
        let mut sim = Simulator::new(
            r,
            KeepDir,
            adversary,
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(2)),
            ],
        )
        .expect("valid setup");
        sim.run(120);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        let verdict = certify_connected_over_time(&script, 120, 3);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "verdict {verdict:?}"
        );
    }

    #[test]
    fn exempt_edge_stays_dead() {
        use dynring_engine::Capturing;
        use dynring_graph::{EdgeSchedule, TailBehavior};

        let r = ring(4);
        let adversary = Capturing::new(PointedEdgeBlocker::new(
            r.clone(),
            2,
            Some(EdgeId::new(1)),
        ));
        let mut sim = Simulator::new(
            r,
            KeepDir,
            adversary,
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        sim.run(50);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        for t in 0..50 {
            assert!(!script.is_present(EdgeId::new(1), t));
        }
    }

    #[test]
    #[should_panic(expected = "budget must be at least 1")]
    fn zero_budget_rejected() {
        let _ = PointedEdgeBlocker::new(ring(3), 0, None);
    }
}
