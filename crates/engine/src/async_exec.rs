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

use dynring_graph::{EdgeSet, NodeId, RingTopology, Time};

use crate::{
    ActivationPolicy, Algorithm, EdgeProbe, EngineError, FullActivation, LocalDir, RobotId,
    RobotPlacement, RobotSnapshot, View,
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

/// What the ASYNC adversary sees before choosing a tick's snapshot: the
/// configuration *plus* each robot's pending phase (the classical ASYNC
/// adversary knows who is about to move).
#[derive(Debug, Clone, Copy)]
pub struct AsyncObservation<'a> {
    time: Time,
    ring: &'a RingTopology,
    robots: &'a [RobotSnapshot],
    phases: &'a [PhaseKind],
}

impl<'a> AsyncObservation<'a> {
    /// Current tick.
    pub fn time(&self) -> Time {
        self.time
    }

    /// The ring.
    pub fn ring(&self) -> &'a RingTopology {
        self.ring
    }

    /// Robot snapshots in id order.
    pub fn robots(&self) -> &'a [RobotSnapshot] {
        self.robots
    }

    /// Pending phase of each robot, in id order.
    pub fn phases(&self) -> &'a [PhaseKind] {
        self.phases
    }
}

/// The ASYNC adversary: chooses each tick's snapshot, aware of pending
/// phases.
pub trait AsyncDynamics {
    /// The ring being scheduled.
    fn ring(&self) -> &RingTopology;

    /// The snapshot for this tick.
    fn edges_at(&mut self, obs: &AsyncObservation<'_>) -> EdgeSet;

    /// Writes the snapshot into `out` without allocating (the tick
    /// engine's hot path; the default delegates to
    /// [`AsyncDynamics::edges_at`]).
    fn edges_at_into(&mut self, obs: &AsyncObservation<'_>, out: &mut EdgeSet) {
        *out = self.edges_at(obs);
    }

    /// Sparse fast path, mirroring [`crate::Dynamics::probe_edges`]: on
    /// quiet ticks the engine offers the snapshot as O(robots) point
    /// queries; answering them (and returning `true`) skips the O(n)
    /// snapshot scan. The default returns `false` without touching queries
    /// or state — "fall back to [`AsyncDynamics::edges_at_into`] for this
    /// tick". Exactly one of the two methods is called per tick, and
    /// answers must agree with what `edges_at_into` would have produced.
    fn probe_edges(&mut self, _obs: &AsyncObservation<'_>, _queries: &mut [EdgeProbe]) -> bool {
        false
    }
}

/// Phase-oblivious adapter for plain schedules.
#[derive(Debug, Clone)]
pub struct ObliviousAsync<S> {
    schedule: S,
}

impl<S: dynring_graph::EdgeSchedule> ObliviousAsync<S> {
    /// Wraps a pure schedule.
    pub fn new(schedule: S) -> Self {
        ObliviousAsync { schedule }
    }
}

impl<S: dynring_graph::EdgeSchedule> AsyncDynamics for ObliviousAsync<S> {
    fn ring(&self) -> &RingTopology {
        self.schedule.ring()
    }

    fn edges_at(&mut self, obs: &AsyncObservation<'_>) -> EdgeSet {
        self.schedule.edges_at(obs.time())
    }

    fn edges_at_into(&mut self, obs: &AsyncObservation<'_>, out: &mut EdgeSet) {
        self.schedule.edges_at_into(obs.time(), out);
    }

    fn probe_edges(&mut self, obs: &AsyncObservation<'_>, queries: &mut [EdgeProbe]) -> bool {
        crate::dynamics::answer_probes_from_schedule(&self.schedule, obs.time(), queries);
        true
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

impl AsyncDynamics for MoveBlocker {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at(&mut self, obs: &AsyncObservation<'_>) -> EdgeSet {
        let mut set = EdgeSet::empty_for(&self.ring);
        self.edges_at_into(obs, &mut set);
        set
    }

    fn edges_at_into(&mut self, obs: &AsyncObservation<'_>, out: &mut EdgeSet) {
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
    fn probe_edges(&mut self, obs: &AsyncObservation<'_>, queries: &mut [EdgeProbe]) -> bool {
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
    nodes: Vec<NodeId>,
    chiralities: Vec<crate::Chirality>,
    dirs: Vec<LocalDir>,
    states: Vec<A::State>,
    phases: Vec<Phase>,
    moved_last: Vec<bool>,
    // Persistent scratch buffers (see `Simulator`): reused across ticks so
    // the quiet path is allocation-free.
    snap_buf: Vec<RobotSnapshot>,
    kind_buf: Vec<PhaseKind>,
    edge_buf: EdgeSet,
    occupancy_buf: Vec<usize>,
    // Nodes with a nonzero occupancy count, cleared sparsely (O(robots)
    // per tick instead of O(n); see `Simulator`).
    touched_buf: Vec<u32>,
    active_buf: Vec<bool>,
    probe_buf: Vec<EdgeProbe>,
}

impl<A: Algorithm, D: AsyncDynamics> AsyncSimulator<A, D> {
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
        let k = placements.len();
        let edge_buf = EdgeSet::empty(ring.edge_count());
        let occupancy_buf = vec![0usize; ring.node_count()];
        Ok(AsyncSimulator {
            ring,
            states: (0..k).map(|_| algorithm.initial_state()).collect(),
            algorithm,
            dynamics,
            activation: Box::new(FullActivation),
            time: 0,
            nodes: placements.iter().map(|p| p.node).collect(),
            chiralities: placements.iter().map(|p| p.chirality).collect(),
            dirs: placements.iter().map(|p| p.initial_dir).collect(),
            phases: (0..k).map(|_| Phase::Look).collect(),
            moved_last: vec![false; k],
            snap_buf: Vec::new(),
            kind_buf: Vec::new(),
            edge_buf,
            occupancy_buf,
            touched_buf: Vec::new(),
            active_buf: Vec::new(),
            probe_buf: Vec::new(),
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
        self.nodes.clone()
    }

    /// Current positions, in robot-id order, without allocating.
    pub fn positions_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Pending phase of each robot.
    pub fn phases(&self) -> Vec<PhaseKind> {
        self.phases.iter().map(Phase::kind).collect()
    }

    /// The shared tick body; pushes per-robot records into `records` when
    /// provided (see [`AsyncSimulator::tick_quiet`] for the silent path).
    fn tick_impl(&mut self, mut records: Option<&mut Vec<AsyncRobotTick>>) {
        let t = self.time;
        self.snap_buf.clear();
        for i in 0..self.nodes.len() {
            self.snap_buf.push(RobotSnapshot {
                id: RobotId::new(i),
                node: self.nodes[i],
                chirality: self.chiralities[i],
                dir: self.dirs[i],
                moved_last_round: self.moved_last[i],
            });
        }
        self.kind_buf.clear();
        self.kind_buf.extend(self.phases.iter().map(Phase::kind));
        let mut probed = false;
        {
            let obs = AsyncObservation {
                time: t,
                ring: &self.ring,
                robots: &self.snap_buf,
                phases: &self.kind_buf,
            };
            if records.is_none() {
                // Sparse fast path: robot i's (left, right) adjacent edges
                // at probe_buf[2i], probe_buf[2i + 1] — the only edges any
                // Look or Move phase can read this tick.
                self.probe_buf.clear();
                for i in 0..self.nodes.len() {
                    let chi = self.chiralities[i];
                    for dir in [LocalDir::Left, LocalDir::Right] {
                        self.probe_buf.push(EdgeProbe::new(
                            self.ring.edge_towards(self.nodes[i], chi.to_global(dir)),
                        ));
                    }
                }
                probed = self.dynamics.probe_edges(&obs, &mut self.probe_buf);
            }
            if !probed {
                self.dynamics.edges_at_into(&obs, &mut self.edge_buf);
            }
        }
        let all_active = self.activation.is_full();
        if !all_active {
            self.activation
                .activate_into(t, self.nodes.len(), &mut self.active_buf);
        }
        // Occupancy for Look phases, from the configuration at tick
        // start, refreshed in O(robots) — see
        // `crate::simulator::refresh_occupancy`.
        crate::simulator::refresh_occupancy(
            &mut self.occupancy_buf,
            &mut self.touched_buf,
            self.nodes.iter().map(|node| node.index()),
        );
        let edges = &self.edge_buf;
        // Pre-sliced activation vector (see `Simulator::step_impl`).
        let active: &[bool] = if all_active { &[] } else { &self.active_buf };
        debug_assert!(all_active || active.len() == self.nodes.len());
        // The tick body indexes every per-robot column (`nodes`, `phases`,
        // `dirs`, `states`, …) by robot id; an iterator over one of them
        // would not simplify anything.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.nodes.len() {
            if !(all_active || active[i]) {
                if let Some(records) = records.as_deref_mut() {
                    records.push(AsyncRobotTick {
                        id: RobotId::new(i),
                        executed: None,
                        node: self.nodes[i],
                        moved: false,
                    });
                }
                continue;
            }
            let executed = self.phases[i].kind();
            let mut moved = false;
            self.phases[i] = match std::mem::replace(&mut self.phases[i], Phase::Look) {
                Phase::Look => {
                    let node = self.nodes[i];
                    let chi = self.chiralities[i];
                    let (left, right) = if probed {
                        (self.probe_buf[2 * i].present, self.probe_buf[2 * i + 1].present)
                    } else {
                        (
                            edges.contains(
                                self.ring.edge_towards(node, chi.to_global(LocalDir::Left)),
                            ),
                            edges.contains(
                                self.ring.edge_towards(node, chi.to_global(LocalDir::Right)),
                            ),
                        )
                    };
                    let others = self.occupancy_buf[node.index()] > 1;
                    Phase::Compute {
                        view: View::new(self.dirs[i], left, right, others),
                    }
                }
                Phase::Compute { view } => {
                    self.dirs[i] = self.algorithm.compute(&mut self.states[i], &view);
                    Phase::Move
                }
                Phase::Move => {
                    let node = self.nodes[i];
                    // The pointed edge is the adjacent edge in the current
                    // direction — one of the tick's two probe queries.
                    let pointed_present = if probed {
                        match self.dirs[i] {
                            LocalDir::Left => self.probe_buf[2 * i].present,
                            LocalDir::Right => self.probe_buf[2 * i + 1].present,
                        }
                    } else {
                        let global = self.chiralities[i].to_global(self.dirs[i]);
                        edges.contains(self.ring.edge_towards(node, global))
                    };
                    if pointed_present {
                        let global = self.chiralities[i].to_global(self.dirs[i]);
                        self.nodes[i] = self.ring.neighbor(node, global);
                        moved = true;
                    }
                    self.moved_last[i] = moved;
                    Phase::Look
                }
            };
            if let Some(records) = records.as_deref_mut() {
                records.push(AsyncRobotTick {
                    id: RobotId::new(i),
                    executed: Some(executed),
                    node: self.nodes[i],
                    moved,
                });
            }
        }
        self.time += 1;
    }

    /// Executes one tick; each activated robot advances one phase.
    pub fn tick(&mut self) -> Vec<AsyncRobotTick> {
        let mut records = Vec::with_capacity(self.nodes.len());
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
        for node in &self.nodes {
            seen[node.index()] = true;
        }
        for _ in 0..ticks {
            self.tick_quiet();
            for node in &self.nodes {
                seen[node.index()] = true;
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
            ObliviousAsync::new(AlwaysPresent::new(r)),
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
        use crate::{Oblivious, Simulator};
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
            ObliviousAsync::new(AlwaysPresent::new(r)),
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
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::{ScriptedSchedule, TailBehavior};

        struct CapturingAsync<D> {
            inner: D,
            frames: Vec<EdgeSet>,
        }

        impl<D: AsyncDynamics> AsyncDynamics for CapturingAsync<D> {
            fn ring(&self) -> &RingTopology {
                self.inner.ring()
            }

            fn edges_at(&mut self, obs: &AsyncObservation<'_>) -> EdgeSet {
                let set = self.inner.edges_at(obs);
                self.frames.push(set.clone());
                set
            }
        }

        let r = ring(6);
        let dynamics = CapturingAsync {
            inner: MoveBlocker::new(r.clone()),
            frames: Vec::new(),
        };
        let mut sim = AsyncSimulator::new(
            r.clone(),
            Bounce,
            dynamics,
            vec![RobotPlacement::at(NodeId::new(1))],
        )
        .expect("valid setup");
        sim.run_collecting_visits(300);
        let frames = std::mem::take(&mut sim.dynamics.frames);
        let script = ScriptedSchedule::new(r, frames, TailBehavior::AllPresent)
            .expect("frames from the same ring");
        let verdict = certify_connected_over_time(&script, 300, 4);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn quiet_probe_ticks_match_recorded_ticks() {
        // tick_quiet answers through AsyncDynamics::probe_edges; tick
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
                ObliviousAsync::new(
                    BernoulliSchedule::new(r.clone(), 0.45, 31).expect("valid p"),
                ),
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
            ObliviousAsync::new(schedule),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        sim.tick(); // Look: sees e3 present
        sim.tick(); // Compute: predicts a move
        let rec = sim.tick(); // Move: e3 gone — stays put
        assert!(!rec[0].moved);
        assert!(sim.states[0], "the robot *believes* it moved");
        assert_eq!(sim.positions(), vec![NodeId::new(0)]);
    }
}
