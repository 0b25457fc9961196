//! The ASYNC execution model: fully independent Look, Compute and Move
//! phases.
//!
//! In ASYNC (§1 of the paper, after Flocchini–Prencipe–Santoro) each robot
//! executes its Look-Compute-Move cycle at its own pace: the snapshot it
//! acts upon may be arbitrarily stale by the time it moves. We discretize:
//! every tick the scheduler picks a subset of robots, and each picked robot
//! advances its *next pending phase* (Look → Compute → Move → Look → …)
//! against the tick's snapshot.
//!
//! This module exists to reproduce the reason the paper restricts itself to
//! FSYNC: the adversary that removes the edge a robot is about to traverse
//! *at its Move tick* ([`MoveBlocker`], after Di Luna et al.) freezes every
//! deterministic algorithm — even a single robot — while keeping every edge
//! recurrent (the blocked edge is only absent during Move ticks, one tick
//! in three per robot).
//!
//! The adversary is the round engine's [`Dynamics`]: each tick it sees an
//! [`Observation`] that also carries every robot's pending phase
//! ([`Observation::phases`]), so [`crate::Oblivious`] plays a pure
//! schedule here as in the round simulator.

use dynring_graph::{EdgeSet, NodeId, RingTopology, Time};

use crate::round::{Robot, RoundBuffers};
use crate::ssync::fill_activation;
use crate::{
    ActivationPolicy, Algorithm, Dynamics, EdgeProbe, EngineError, FullActivation, Observation,
    RobotId, RobotPlacement, View,
};

/// Which phase a robot will execute at its next activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Next activation takes a snapshot.
    Look,
    /// Next activation runs the algorithm on the stored (stale) snapshot.
    Compute,
    /// Next activation attempts to cross the pointed edge.
    Move,
}

#[derive(Debug, Clone)]
enum Phase {
    Look,
    Compute { view: View },
    Move,
}

impl Phase {
    fn kind(&self) -> PhaseKind {
        match self {
            Phase::Look => PhaseKind::Look,
            Phase::Compute { .. } => PhaseKind::Compute,
            Phase::Move => PhaseKind::Move,
        }
    }
}

/// The ASYNC impossibility adversary: every tick, remove exactly the edges
/// pointed to by robots whose pending phase is **Move**.
///
/// Each such edge is absent only during Move ticks of an adjacent robot —
/// at most one tick in three per robot under fair scheduling — so every
/// edge recurs and the produced evolving graph is connected-over-time. Yet
/// no Move ever succeeds: every deterministic algorithm freezes, for any
/// number of robots (including one). This is why dynamic-ring exploration
/// needs FSYNC.
#[derive(Debug, Clone)]
pub struct MoveBlocker {
    ring: RingTopology,
}

impl MoveBlocker {
    /// Creates the blocker.
    pub fn new(ring: RingTopology) -> Self {
        MoveBlocker { ring }
    }
}

/// Under the round models the observation has no pending phases, so the
/// blocker removes nothing there.
impl Dynamics for MoveBlocker {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        out.fill();
        for (robot, phase) in obs.robots().iter().zip(obs.phases()) {
            if *phase == PhaseKind::Move {
                out.remove(self.ring.edge_towards(robot.node, robot.global_dir()));
            }
        }
    }

    /// Adaptive but *stateless*: the blocked set is a pure function of the
    /// observation, so point queries are answered by scanning the ≤ k
    /// robots — the impossibility adversary runs on the sparse path too.
    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        for q in queries.iter_mut() {
            q.present = !obs.robots().iter().zip(obs.phases()).any(|(robot, phase)| {
                *phase == PhaseKind::Move
                    && self.ring.edge_towards(robot.node, robot.global_dir()) == q.edge
            });
        }
        true
    }
}

/// One robot's tick record in an ASYNC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncRobotTick {
    /// Which robot.
    pub id: RobotId,
    /// The phase executed this tick, `None` when not activated.
    pub executed: Option<PhaseKind>,
    /// Position after the tick.
    pub node: NodeId,
    /// Whether a Move phase crossed an edge this tick.
    pub moved: bool,
}

/// The ASYNC counterpart of [`crate::Simulator`].
///
/// Each activated robot advances exactly one phase per tick; three
/// activations complete one Look-Compute-Move cycle. Under
/// [`FullActivation`] with a static graph this emulates a (slowed-down)
/// FSYNC execution; under adversarial scheduling and dynamics it exhibits
/// the ASYNC impossibility.
pub struct AsyncSimulator<A: Algorithm, D> {
    ring: RingTopology,
    algorithm: A,
    dynamics: D,
    activation: Box<dyn ActivationPolicy>,
    time: Time,
    robots: Vec<Robot<A::State>>,
    phases: Vec<Phase>,
    // The pending phases handed to the adversary, reused across ticks.
    kind_buf: Vec<PhaseKind>,
    buf: RoundBuffers,
}

impl<A: Algorithm, D: Dynamics> AsyncSimulator<A, D> {
    /// Builds an ASYNC simulator (same validation as
    /// [`crate::Simulator::new`]).
    ///
    /// # Errors
    ///
    /// See [`crate::Simulator::new`].
    pub fn new(
        ring: RingTopology,
        algorithm: A,
        dynamics: D,
        placements: Vec<RobotPlacement>,
    ) -> Result<Self, EngineError> {
        crate::simulator::check_well_initiated(&ring, &placements)?;
        crate::simulator::check_setup(&ring, dynamics.ring(), &placements)?;
        Ok(AsyncSimulator {
            buf: RoundBuffers::new(&ring),
            ring,
            robots: placements
                .iter()
                .map(|p| Robot::placed(p, algorithm.initial_state()))
                .collect(),
            algorithm,
            dynamics,
            activation: Box::new(FullActivation),
            time: 0,
            phases: vec![Phase::Look; placements.len()],
            kind_buf: Vec::new(),
        })
    }

    /// Replaces the activation policy.
    pub fn set_activation<P: ActivationPolicy + 'static>(&mut self, policy: P) {
        self.activation = Box::new(policy);
    }

    /// Current tick.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Current positions, in robot-id order.
    pub fn positions(&self) -> Vec<NodeId> {
        self.positions_iter().collect()
    }

    /// Current positions, in robot-id order, without allocating.
    pub fn positions_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.robots.iter().map(|r| r.node)
    }

    /// Pending phase of each robot.
    pub fn phases(&self) -> Vec<PhaseKind> {
        self.phases.iter().map(Phase::kind).collect()
    }

    /// The shared tick body; pushes per-robot records into `records` when
    /// provided (see [`AsyncSimulator::tick_quiet`] for the silent path).
    /// A Look phase is [`Robot::look`] and a Move phase [`Robot::cross`],
    /// each against this tick's snapshot.
    fn tick_impl(&mut self, mut records: Option<&mut Vec<AsyncRobotTick>>) {
        let t = self.time;
        // A Look or Move phase reads only its robot's two adjacent edges,
        // so the quiet path offers those as point queries.
        let probe = records.is_none();
        let buf = &mut self.buf;
        buf.observe(&self.ring, &self.robots, probe);
        self.kind_buf.clear();
        self.kind_buf.extend(self.phases.iter().map(Phase::kind));
        let obs = Observation::new(t, &self.ring, &buf.snaps).with_phases(&self.kind_buf);
        let probed = probe && self.dynamics.probe_edges(&obs, &mut buf.probes);
        if !probed {
            self.dynamics.edges_at_into(&obs, &mut buf.edges);
        }
        let all_active =
            fill_activation(&mut *self.activation, t, self.robots.len(), &mut buf.active);
        for (i, (robot, phase)) in self.robots.iter_mut().zip(&mut self.phases).enumerate() {
            let executed = (all_active || buf.active[i]).then(|| phase.kind());
            let present = || buf.present(&self.ring, probed, i, robot);
            let mut moved = false;
            *phase = match (executed, std::mem::replace(phase, Phase::Look)) {
                (None, pending) => pending,
                (Some(_), Phase::Look) => Phase::Compute {
                    view: robot.look(present(), buf.occupancy[robot.node.index()] > 1),
                },
                (Some(_), Phase::Compute { view }) => {
                    robot.dir = self.algorithm.compute(&mut robot.state, &view);
                    Phase::Move
                }
                (Some(_), Phase::Move) => {
                    moved = robot.cross(&self.ring, present());
                    Phase::Look
                }
            };
            if let Some(records) = records.as_deref_mut() {
                records.push(AsyncRobotTick {
                    id: RobotId::new(i),
                    executed,
                    node: robot.node,
                    moved,
                });
            }
        }
        self.time += 1;
    }

    /// Executes one tick; each activated robot advances one phase.
    pub fn tick(&mut self) -> Vec<AsyncRobotTick> {
        let mut records = Vec::with_capacity(self.robots.len());
        self.tick_impl(Some(&mut records));
        records
    }

    /// Executes one tick without materializing records — the
    /// allocation-free fast path.
    pub fn tick_quiet(&mut self) {
        self.tick_impl(None);
    }

    /// Runs `ticks` ticks, returning the set of visited nodes (including
    /// starts).
    pub fn run_collecting_visits(&mut self, ticks: u64) -> Vec<NodeId> {
        let mut seen = vec![false; self.ring.node_count()];
        for r in &self.robots {
            seen[r.node.index()] = true;
        }
        for _ in 0..ticks {
            self.tick_quiet();
            for r in &self.robots {
                seen[r.node.index()] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_i, &s)| s).map(|(i, &_s)| NodeId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalDir, Oblivious};
    use dynring_graph::AlwaysPresent;

    /// Keeps its direction forever.
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

    /// Bounces on missing edges.
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

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[test]
    fn three_ticks_complete_one_cycle_on_static_ring() {
        let r = ring(5);
        let mut sim = AsyncSimulator::new(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r)),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        assert_eq!(sim.phases(), vec![PhaseKind::Look]);
        sim.tick(); // Look
        assert_eq!(sim.phases(), vec![PhaseKind::Compute]);
        sim.tick(); // Compute
        assert_eq!(sim.phases(), vec![PhaseKind::Move]);
        let rec = sim.tick(); // Move (ccw, default dir left)
        assert!(rec[0].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(4)]);
        // Three more ticks: another full cycle.
        sim.tick();
        sim.tick();
        sim.tick();
        assert_eq!(sim.positions(), vec![NodeId::new(3)]);
    }

    #[test]
    fn async_emulates_fsync_on_static_graphs() {
        // On a static ring (view staleness is harmless), 3 ASYNC ticks with
        // full activation = 1 FSYNC round.
        use crate::Simulator;
        let r = ring(6);
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(3)),
        ];
        let mut fsync = Simulator::new(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r.clone())),
            placements.clone(),
        )
        .expect("valid setup");
        let mut asim = AsyncSimulator::new(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r)),
            placements,
        )
        .expect("valid setup");
        for _ in 0..10 {
            fsync.step();
            asim.tick();
            asim.tick();
            asim.tick();
            assert_eq!(fsync.positions(), asim.positions());
        }
    }

    #[test]
    fn move_blocker_freezes_a_single_robot() {
        // The headline: under ASYNC even ONE robot is frozen by a
        // connected-over-time adversary — the edge it wants is removed
        // exactly at its Move ticks (one tick in three).
        let r = ring(5);
        let mut sim = AsyncSimulator::new(
            r.clone(),
            Bounce,
            MoveBlocker::new(r),
            vec![RobotPlacement::at(NodeId::new(2))],
        )
        .expect("valid setup");
        let visited = sim.run_collecting_visits(300);
        assert_eq!(visited, vec![NodeId::new(2)], "the robot must never move");
    }

    #[test]
    fn move_blocker_freezes_teams_of_any_size() {
        let r = ring(8);
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(3)),
            RobotPlacement::at(NodeId::new(6)),
        ];
        let mut sim = AsyncSimulator::new(r.clone(), Bounce, MoveBlocker::new(r), placements)
            .expect("valid setup");
        let visited = sim.run_collecting_visits(600);
        assert_eq!(visited.len(), 3, "nobody may leave their start node");
    }

    #[test]
    fn move_blocker_schedule_is_connected_over_time() {
        // Capture what the blocker actually plays and certify it: each
        // edge is absent only during Move ticks of an adjacent robot.
        use crate::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(6);
        let mut sim = AsyncSimulator::new(
            r.clone(),
            Bounce,
            Capturing::new(MoveBlocker::new(r)),
            vec![RobotPlacement::at(NodeId::new(1))],
        )
        .expect("valid setup");
        sim.run_collecting_visits(300);
        assert_eq!(sim.dynamics.frames().len(), 300);
        let script = sim.dynamics.to_script(TailBehavior::AllPresent);
        let verdict = certify_connected_over_time(&script, 300, 4);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn quiet_probe_ticks_match_recorded_ticks() {
        // tick_quiet answers through Dynamics::probe_edges; tick
        // materializes the full snapshot. Both must agree — including for
        // the MoveBlocker, whose probe implementation is adaptive.
        use dynring_graph::BernoulliSchedule;

        let r = ring(11);
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(4)),
            RobotPlacement::at(NodeId::new(8)),
        ];
        let make_bernoulli = || {
            AsyncSimulator::new(
                r.clone(),
                Bounce,
                Oblivious::new(BernoulliSchedule::new(r.clone(), 0.45, 31).expect("valid p")),
                placements.clone(),
            )
            .expect("valid setup")
        };
        let mut quiet = make_bernoulli();
        let mut recorded = make_bernoulli();
        for _ in 0..300 {
            quiet.tick_quiet();
            recorded.tick();
            assert_eq!(quiet.positions(), recorded.positions());
            assert_eq!(quiet.phases(), recorded.phases());
        }

        let make_blocker = || {
            AsyncSimulator::new(r.clone(), Bounce, MoveBlocker::new(r.clone()), placements.clone())
                .expect("valid setup")
        };
        let mut quiet = make_blocker();
        let mut recorded = make_blocker();
        for _ in 0..120 {
            quiet.tick_quiet();
            recorded.tick();
            assert_eq!(quiet.positions(), recorded.positions());
        }
    }

    #[test]
    fn the_adversary_sees_the_phases_pending_before_each_tick() {
        // The ASYNC observation carries each robot's pending phase as it
        // stands before the tick; the round simulator hands over none.
        use crate::{AdaptiveFn, RoundRobinSingle, Simulator};
        use std::cell::RefCell;

        let r = ring(7);
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(3)),
        ];
        let seen = RefCell::new(Vec::new());
        let record = |obs: &Observation<'_>| {
            seen.borrow_mut().push(obs.phases().to_vec());
            EdgeSet::full_for(obs.ring())
        };
        let mut sim = AsyncSimulator::new(
            r.clone(),
            Bounce,
            AdaptiveFn::new(r.clone(), record),
            placements.clone(),
        )
        .expect("valid setup");
        // One robot per tick, so the two robots' phases drift apart.
        sim.set_activation(RoundRobinSingle);
        for tick in 0..30 {
            let before = sim.phases();
            if tick % 2 == 0 {
                sim.tick();
            } else {
                sim.tick_quiet();
            }
            assert_eq!(seen.borrow().last(), Some(&before), "tick {tick}");
        }
        assert!(seen.borrow().iter().any(|p| p[0] != p[1]));

        seen.borrow_mut().clear();
        let mut round = Simulator::new(r.clone(), Bounce, AdaptiveFn::new(r, record), placements)
            .expect("valid setup");
        round.run(10);
        round.step();
        assert_eq!(seen.borrow().len(), 11);
        assert!(seen.borrow().iter().all(Vec::is_empty));
    }

    #[test]
    fn stale_views_mislead_the_has_moved_bookkeeping() {
        // A PEF_3+-style predictor "HasMoved ← ExistsEdge(dir)" is only
        // correct when Look and Move share a snapshot. Under ASYNC, an edge
        // present at Look time can be gone at Move time: the robot believes
        // it moved but did not. This test pins that wedge.
        use dynring_graph::{AbsenceIntervals, EdgeId};

        #[derive(Debug, Clone)]
        struct Predictor;

        impl Algorithm for Predictor {
            type State = bool; // "I think I will move"

            fn name(&self) -> &str {
                "predictor"
            }

            fn initial_state(&self) -> bool {
                false
            }

            fn compute(&self, state: &mut bool, view: &View) -> LocalDir {
                *state = view.exists_edge_ahead();
                view.dir()
            }
        }

        let r = ring(4);
        // Robot at v0 pointing left (ccw) → edge e3. Present at the Look
        // and Compute ticks (0, 1), removed at the Move tick (2).
        let mut schedule = AbsenceIntervals::new(r.clone());
        schedule.remove_during(EdgeId::new(3), 2, 3);
        let mut sim = AsyncSimulator::new(
            r,
            Predictor,
            Oblivious::new(schedule),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        sim.tick(); // Look: sees e3 present
        sim.tick(); // Compute: predicts a move
        let rec = sim.tick(); // Move: e3 gone — stays put
        assert!(!rec[0].moved);
        assert!(sim.robots[0].state, "the robot *believes* it moved");
        assert_eq!(sim.positions(), vec![NodeId::new(0)]);
    }
}
