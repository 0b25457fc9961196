//! The synchronous round simulator.

use dynring_graph::{GlobalDir, NodeId, RingTopology, Time};

use crate::{
    ActivationPolicy, Algorithm, Dynamics, EdgeProbe, EngineError, ExecutionTrace, FullActivation,
    LocalDir, Observation, RobotId, RobotPlacement, RobotRound, RobotSnapshot, RoundRecord, View,
};

/// Rebuilds the robots-per-node occupancy table for one round (shared by
/// [`Simulator`] and [`crate::async_exec::AsyncSimulator`]). On rings
/// much larger than the team the table is cleared sparsely — `touched`
/// remembers the ≤ k entries with a nonzero count — so the refresh is
/// O(robots) regardless of ring size. On small rings a straight memset
/// beats the bookkeeping; the strategy is fixed per simulator (`n` and
/// `k` never change), so the branch is free.
pub(crate) fn refresh_occupancy<I>(occupancy: &mut [usize], touched: &mut Vec<u32>, nodes: I)
where
    I: ExactSizeIterator<Item = usize>,
{
    if occupancy.len() <= 4 * nodes.len() {
        occupancy.iter_mut().for_each(|c| *c = 0);
        for node in nodes {
            occupancy[node] += 1;
        }
    } else {
        for &node in touched.iter() {
            occupancy[node as usize] = 0;
        }
        touched.clear();
        for node in nodes {
            if occupancy[node] == 0 {
                touched.push(node as u32);
            }
            occupancy[node] += 1;
        }
    }
}

/// The first-cover rule of [`crate::BatchCoverage`] for one run: the first
/// time at which every node has been occupied at least once, the starting
/// configuration included (as in [`crate::ExecutionTrace`]).
#[derive(Debug, Clone)]
pub struct CoverTracker {
    seen: Vec<bool>,
    missing: usize,
    first_cover: Option<Time>,
}

impl CoverTracker {
    /// A tracker over `node_count` nodes, none visited yet.
    pub fn new(node_count: usize) -> Self {
        CoverTracker {
            seen: vec![false; node_count],
            missing: node_count,
            first_cover: None,
        }
    }

    /// Folds the configuration at time `t` (call with increasing `t`,
    /// starting at 0); returns whether every node has now been visited.
    pub fn observe(&mut self, t: Time, positions: impl IntoIterator<Item = NodeId>) -> bool {
        for p in positions {
            let seen = &mut self.seen[p.index()];
            if !*seen {
                *seen = true;
                self.missing -= 1;
                if self.missing == 0 {
                    self.first_cover = Some(t);
                }
            }
        }
        self.missing == 0
    }

    /// Time of the first complete cover, if it happened.
    pub fn first_cover(&self) -> Option<Time> {
        self.first_cover
    }
}

/// The well-initiated checks of §2.4, shared by [`Simulator`] and
/// [`crate::async_exec::AsyncSimulator`]: strictly fewer robots than
/// nodes, on distinct nodes of the ring. [`check_setup`] follows.
pub(crate) fn check_well_initiated(
    ring: &RingTopology,
    placements: &[RobotPlacement],
) -> Result<(), EngineError> {
    let nodes = ring.node_count();
    if placements.len() >= nodes {
        return Err(EngineError::TooManyRobots {
            robots: placements.len(),
            nodes,
        });
    }
    let mut seen = vec![false; nodes];
    for p in placements {
        if !ring.contains_node(p.node) {
            return Err(EngineError::NodeOutOfRange {
                node: p.node,
                nodes,
            });
        }
        if seen[p.node.index()] {
            return Err(EngineError::InitialTower { node: p.node });
        }
        seen[p.node.index()] = true;
    }
    Ok(())
}

/// The checks every setup needs: a non-empty team on nodes of the ring,
/// which the dynamics (`driven`) must also drive.
pub(crate) fn check_setup(
    ring: &RingTopology,
    driven: &RingTopology,
    placements: &[RobotPlacement],
) -> Result<(), EngineError> {
    let nodes = ring.node_count();
    if placements.is_empty() {
        return Err(EngineError::NoRobots);
    }
    if driven.node_count() != nodes {
        return Err(EngineError::RingMismatch {
            expected: nodes,
            found: driven.node_count(),
        });
    }
    match placements.iter().find(|p| !ring.contains_node(p.node)) {
        Some(p) => Err(EngineError::NodeOutOfRange {
            node: p.node,
            nodes,
        }),
        None => Ok(()),
    }
}

/// One robot's live data inside the simulator.
#[derive(Debug, Clone)]
struct RobotCore<S> {
    id: RobotId,
    node: NodeId,
    chirality: crate::Chirality,
    dir: LocalDir,
    state: S,
    moved_last_round: bool,
}

/// Executes the paper's synchronous rounds: one [`Algorithm`] (robots are
/// uniform), one [`Dynamics`] (the adversary), an [`ActivationPolicy`]
/// (FSYNC by default), and `k` robots on a ring.
///
/// See the crate documentation for the precise round semantics. The
/// simulator validates *well-initiated* executions (§2.4): strictly fewer
/// robots than nodes, towerless initial configuration. Experiments that
/// deliberately start otherwise (e.g. self-stabilization probes) use
/// [`Simulator::new_arbitrary`].
pub struct Simulator<A: Algorithm, D> {
    ring: RingTopology,
    algorithm: A,
    dynamics: D,
    robots: Vec<RobotCore<A::State>>,
    time: Time,
    activation: Box<dyn ActivationPolicy>,
    // Persistent scratch buffers: one warm-up round allocates them, every
    // later round reuses the allocations (the quiet path is then
    // allocation-free for allocation-free dynamics/activation).
    snap_buf: Vec<RobotSnapshot>,
    edge_buf: dynring_graph::EdgeSet,
    occupancy_buf: Vec<usize>,
    // Nodes with a nonzero occupancy count, so the table is cleared
    // sparsely (O(robots) instead of O(n) per round).
    touched_buf: Vec<u32>,
    active_buf: Vec<bool>,
    probe_buf: Vec<EdgeProbe>,
}

impl<A: Algorithm, D: std::fmt::Debug> std::fmt::Display for Simulator<A, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulator({} robots, {}, t={})",
            self.robots.len(),
            self.ring,
            self.time
        )
    }
}

impl<A: Algorithm, D: Dynamics> Simulator<A, D> {
    /// Builds a simulator for a *well-initiated* execution.
    ///
    /// # Errors
    ///
    /// - [`EngineError::NoRobots`] when `placements` is empty;
    /// - [`EngineError::TooManyRobots`] unless `k < n` (§2.4);
    /// - [`EngineError::InitialTower`] when two placements share a node;
    /// - [`EngineError::NodeOutOfRange`] for an invalid node;
    /// - [`EngineError::RingMismatch`] when the dynamics drives another
    ///   ring.
    pub fn new(
        ring: RingTopology,
        algorithm: A,
        dynamics: D,
        placements: Vec<RobotPlacement>,
    ) -> Result<Self, EngineError> {
        check_well_initiated(&ring, &placements)?;
        Self::new_arbitrary(ring, algorithm, dynamics, placements)
    }

    /// Builds a simulator without the well-initiated checks (`k < n`,
    /// towerless start). Node-range, non-emptiness and ring-match are still
    /// validated.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoRobots`], [`EngineError::NodeOutOfRange`] or
    /// [`EngineError::RingMismatch`].
    pub fn new_arbitrary(
        ring: RingTopology,
        algorithm: A,
        dynamics: D,
        placements: Vec<RobotPlacement>,
    ) -> Result<Self, EngineError> {
        check_setup(&ring, dynamics.ring(), &placements)?;
        let robots = placements
            .iter()
            .enumerate()
            .map(|(i, p)| RobotCore {
                id: RobotId::new(i),
                node: p.node,
                chirality: p.chirality,
                dir: p.initial_dir,
                state: algorithm.initial_state(),
                moved_last_round: false,
            })
            .collect();
        let edge_buf = dynring_graph::EdgeSet::empty(ring.edge_count());
        let occupancy_buf = vec![0usize; ring.node_count()];
        Ok(Simulator {
            ring,
            algorithm,
            dynamics,
            robots,
            time: 0,
            activation: Box::new(FullActivation),
            snap_buf: Vec::new(),
            edge_buf,
            occupancy_buf,
            touched_buf: Vec::new(),
            active_buf: Vec::new(),
            probe_buf: Vec::new(),
        })
    }

    /// Replaces the activation policy (FSYNC by default).
    pub fn set_activation<P: ActivationPolicy + 'static>(&mut self, policy: P) {
        self.activation = Box::new(policy);
    }

    /// Current time `t` (number of executed rounds).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The ring.
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The dynamics (adversary).
    pub fn dynamics(&self) -> &D {
        &self.dynamics
    }

    /// Mutable access to the dynamics, e.g. to inspect adversary state.
    pub fn dynamics_mut(&mut self) -> &mut D {
        &mut self.dynamics
    }

    /// Number of robots `k`.
    pub fn robot_count(&self) -> usize {
        self.robots.len()
    }

    /// Current positions, in robot-id order.
    pub fn positions(&self) -> Vec<NodeId> {
        self.positions_iter().collect()
    }

    /// Current positions, in robot-id order, without allocating.
    pub fn positions_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.robots.iter().map(|r| r.node)
    }

    /// Snapshot of every robot in the current configuration.
    pub fn snapshots(&self) -> Vec<RobotSnapshot> {
        self.robots
            .iter()
            .map(|r| RobotSnapshot {
                id: r.id,
                node: r.node,
                chirality: r.chirality,
                dir: r.dir,
                moved_last_round: r.moved_last_round,
            })
            .collect()
    }

    /// The persistent algorithm state of robot `id` (observer-side
    /// debugging; robots themselves never expose state to each other).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn state_of(&self, id: RobotId) -> &A::State {
        &self.robots[id.index()].state
    }

    /// Overwrites the persistent state of robot `id` — for
    /// self-stabilization probes that start from *arbitrary* states (the
    /// robots' memory is adversarially corrupted before round 0).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn set_state_of(&mut self, id: RobotId, state: A::State) {
        self.robots[id.index()].state = state;
    }

    /// The global direction robot `id` currently points to.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn global_dir_of(&self, id: RobotId) -> GlobalDir {
        let r = &self.robots[id.index()];
        r.chirality.to_global(r.dir)
    }

    /// The shared round body: advances `(G_t, γ_t) → (G_{t+1}, γ_{t+1})`
    /// using the persistent scratch buffers. When `rows` is `Some`, the
    /// per-robot records are pushed into it (the recording path); when
    /// `None`, nothing is materialized (the quiet path).
    ///
    /// On the quiet path the round only ever reads the ≤ 2 edges adjacent
    /// to each robot, so the snapshot is first offered to
    /// [`Dynamics::probe_edges`] as O(robots) point queries; only when the
    /// dynamics declines (adaptive full-set adversaries, recorders) does
    /// the O(n) [`Dynamics::edges_at_into`] scan run. The recording path
    /// always materializes the full snapshot — the [`RoundRecord`] needs
    /// it.
    fn step_impl(&mut self, mut rows: Option<&mut Vec<RobotRound>>) {
        let t = self.time;
        // The adversary chooses G_t after observing γ_t.
        self.snap_buf.clear();
        self.snap_buf.extend(self.robots.iter().map(|r| RobotSnapshot {
            id: r.id,
            node: r.node,
            chirality: r.chirality,
            dir: r.dir,
            moved_last_round: r.moved_last_round,
        }));
        let mut probed = false;
        let obs = Observation::new(t, &self.ring, &self.snap_buf);
        // The probe path pays ~one schedule query per probe; when the
        // team's 2·k adjacent edges rival the ring size the O(n) word
        // fill is the cheaper way to answer the same reads, so dense
        // teams fall back to the full snapshot even on the quiet path.
        let probes_are_sparse = 2 * self.robots.len() < self.ring.node_count();
        if rows.is_none() && probes_are_sparse {
            // Sparse fast path: queries 2·k — robot i's (left, right) pair
            // at probe_buf[2i], probe_buf[2i + 1].
            self.probe_buf.clear();
            for r in &self.snap_buf {
                for dir in [LocalDir::Left, LocalDir::Right] {
                    self.probe_buf.push(EdgeProbe::new(
                        self.ring.edge_towards(r.node, r.chirality.to_global(dir)),
                    ));
                }
            }
            probed = self.dynamics.probe_edges(&obs, &mut self.probe_buf);
        }
        if !probed {
            self.dynamics.edges_at_into(&obs, &mut self.edge_buf);
        }
        let all_active = self.activation.is_full();
        if !all_active {
            self.activation
                .activate_into(t, self.robots.len(), &mut self.active_buf);
        }

        // Occupancy during the Look phase (the configuration γ_t),
        // refreshed in O(robots) — see `refresh_occupancy`.
        refresh_occupancy(
            &mut self.occupancy_buf,
            &mut self.touched_buf,
            self.robots.iter().map(|r| r.node.index()),
        );

        let edges = &self.edge_buf;
        // Pre-slice the activation vector: under FSYNC it is never read,
        // otherwise `activate_into` filled exactly one slot per robot.
        let active: &[bool] = if all_active { &[] } else { &self.active_buf };
        debug_assert!(all_active || active.len() == self.robots.len());
        for (i, robot) in self.robots.iter_mut().enumerate() {
            let node_before = robot.node;
            let dir_before = robot.dir;
            let activated = all_active || active[i];
            let (dir_after, moved, node_after) = if activated {
                // Look.
                let (edge_left, edge_right) = if probed {
                    (self.probe_buf[2 * i].present, self.probe_buf[2 * i + 1].present)
                } else {
                    (
                        edges.contains(
                            self.ring
                                .edge_towards(robot.node, robot.chirality.to_global(LocalDir::Left)),
                        ),
                        edges.contains(
                            self.ring
                                .edge_towards(robot.node, robot.chirality.to_global(LocalDir::Right)),
                        ),
                    )
                };
                let others = self.occupancy_buf[robot.node.index()] > 1;
                let view = View::new(robot.dir, edge_left, edge_right, others);
                // Compute.
                let dir_after = self.algorithm.compute(&mut robot.state, &view);
                robot.dir = dir_after;
                // Move: cross the pointed edge iff present in the same
                // snapshot. The pointed edge is the adjacent edge in the
                // computed direction — exactly one of the two Look queries.
                let pointed_present = match dir_after {
                    LocalDir::Left => edge_left,
                    LocalDir::Right => edge_right,
                };
                if pointed_present {
                    let global_after = robot.chirality.to_global(dir_after);
                    let dest = self.ring.neighbor(robot.node, global_after);
                    robot.node = dest;
                    robot.moved_last_round = true;
                    (dir_after, true, dest)
                } else {
                    robot.moved_last_round = false;
                    (dir_after, false, node_before)
                }
            } else {
                (dir_before, false, node_before)
            };
            if let Some(rows) = rows.as_deref_mut() {
                rows.push(RobotRound {
                    id: robot.id,
                    node_before,
                    dir_before,
                    global_dir_before: robot.chirality.to_global(dir_before),
                    dir_after,
                    global_dir_after: robot.chirality.to_global(dir_after),
                    moved,
                    node_after,
                    activated,
                });
            }
        }
        self.time += 1;
    }

    /// Executes one full round `(G_t, γ_t) → (G_{t+1}, γ_{t+1})` and
    /// returns its record.
    pub fn step(&mut self) -> RoundRecord {
        let t = self.time;
        let mut rows = Vec::with_capacity(self.robots.len());
        self.step_impl(Some(&mut rows));
        RoundRecord {
            time: t,
            edges: self.edge_buf.clone(),
            robots: rows,
        }
    }

    /// Executes one round without materializing a [`RoundRecord`] — the
    /// allocation-free fast path. Positions, states and time advance
    /// exactly as with [`Simulator::step`].
    pub fn step_quiet(&mut self) {
        self.step_impl(None);
    }

    /// Executes `rounds` rounds on the quiet path, discarding all records
    /// (memory-light; use [`Simulator::run_with`] or
    /// [`Simulator::run_recording`] to observe).
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_quiet();
        }
    }

    /// Executes `rounds` rounds, passing each record to `f`.
    pub fn run_with(&mut self, rounds: u64, mut f: impl FnMut(&RoundRecord)) {
        for _ in 0..rounds {
            let record = self.step();
            f(&record);
        }
    }

    /// Executes `rounds` rounds and returns the full [`ExecutionTrace`]
    /// (including the configuration the simulator was in when called).
    pub fn run_recording(&mut self, rounds: u64) -> ExecutionTrace {
        let mut trace = ExecutionTrace::new(self.ring.clone(), self.snapshots());
        for _ in 0..rounds {
            trace.push(self.step());
        }
        trace
    }

    /// Runs until `stop` returns `true` for the post-round configuration or
    /// `max_rounds` elapse; returns the number of rounds executed.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut stop: impl FnMut(&Simulator<A, D>) -> bool,
    ) -> u64 {
        for executed in 0..max_rounds {
            self.step_quiet();
            if stop(self) {
                return executed + 1;
            }
        }
        max_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chirality, Oblivious};
    use dynring_graph::{AbsenceIntervals, AlwaysPresent, EdgeId};

    /// Keeps its direction forever (Rule 1 alone).
    #[derive(Debug, Clone)]
    struct KeepDir;

    impl Algorithm for KeepDir {
        type State = ();

        fn name(&self) -> &str {
            "keep-dir"
        }

        fn initial_state(&self) {}

        fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
            view.dir()
        }
    }

    /// Counts how many times it has computed, in its persistent state.
    #[derive(Debug, Clone)]
    struct Counter;

    impl Algorithm for Counter {
        type State = u64;

        fn name(&self) -> &str {
            "counter"
        }

        fn initial_state(&self) -> u64 {
            0
        }

        fn compute(&self, state: &mut u64, view: &View) -> LocalDir {
            *state += 1;
            view.dir()
        }
    }

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    fn static_sim(
        n: usize,
        placements: Vec<RobotPlacement>,
    ) -> Simulator<KeepDir, Oblivious<AlwaysPresent>> {
        let r = ring(n);
        Simulator::new(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r)),
            placements,
        )
        .expect("valid setup")
    }

    #[test]
    fn validation_rejects_bad_setups() {
        let r = ring(3);
        let dynamics = || Oblivious::new(AlwaysPresent::new(ring(3)));
        assert_eq!(
            Simulator::new(r.clone(), KeepDir, dynamics(), vec![]).err(),
            Some(EngineError::NoRobots)
        );
        let three = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(1)),
            RobotPlacement::at(NodeId::new(2)),
        ];
        assert_eq!(
            Simulator::new(r.clone(), KeepDir, dynamics(), three).err(),
            Some(EngineError::TooManyRobots {
                robots: 3,
                nodes: 3
            })
        );
        let tower = vec![
            RobotPlacement::at(NodeId::new(1)),
            RobotPlacement::at(NodeId::new(1)),
        ];
        assert_eq!(
            Simulator::new(r.clone(), KeepDir, dynamics(), tower).err(),
            Some(EngineError::InitialTower {
                node: NodeId::new(1)
            })
        );
        let out = vec![RobotPlacement::at(NodeId::new(9))];
        assert_eq!(
            Simulator::new(r.clone(), KeepDir, dynamics(), out).err(),
            Some(EngineError::NodeOutOfRange {
                node: NodeId::new(9),
                nodes: 3
            })
        );
        let mismatched = Oblivious::new(AlwaysPresent::new(ring(4)));
        assert_eq!(
            Simulator::new(
                r,
                KeepDir,
                mismatched,
                vec![RobotPlacement::at(NodeId::new(0))]
            )
            .err(),
            Some(EngineError::RingMismatch {
                expected: 3,
                found: 4
            })
        );
    }

    #[test]
    fn arbitrary_allows_towers_and_saturation() {
        let r = ring(2);
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)),
            RobotPlacement::at(NodeId::new(0)),
        ];
        let sim = Simulator::new_arbitrary(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r)),
            placements,
        );
        assert!(sim.is_ok());
    }

    #[test]
    fn default_direction_walks_counter_clockwise() {
        // Standard chirality + initial dir left = counter-clockwise.
        let mut sim = static_sim(5, vec![RobotPlacement::at(NodeId::new(0))]);
        let rec = sim.step();
        assert!(rec.robots[0].moved);
        assert_eq!(rec.robots[0].node_after, NodeId::new(4));
        assert_eq!(sim.positions(), vec![NodeId::new(4)]);
        assert_eq!(sim.time(), 1);
    }

    #[test]
    fn mirrored_chirality_walks_clockwise() {
        let mut sim = static_sim(
            5,
            vec![RobotPlacement::at(NodeId::new(0)).with_chirality(Chirality::Mirrored)],
        );
        sim.step();
        assert_eq!(sim.positions(), vec![NodeId::new(1)]);
    }

    #[test]
    fn missing_edge_blocks_the_move() {
        let r = ring(4);
        let mut sched = AbsenceIntervals::new(r.clone());
        // Robot at v0 pointing left (ccw) → edge e3; remove it at t=0 only.
        sched.remove_during(EdgeId::new(3), 0, 1);
        let mut sim = Simulator::new(
            r,
            KeepDir,
            Oblivious::new(sched),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let rec = sim.step();
        assert!(!rec.robots[0].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(0)]);
        let rec = sim.step();
        assert!(rec.robots[0].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(3)]);
    }

    #[test]
    fn opposite_robots_swap_without_tower() {
        // Two robots on adjacent nodes pointing at each other cross the same
        // edge in opposite directions and swap — no tower forms on nodes.
        let mut sim = static_sim(
            4,
            vec![
                // v0 pointing right (cw) → towards v1.
                RobotPlacement::at(NodeId::new(0)).with_dir(LocalDir::Right),
                // v1 pointing left (ccw) → towards v0.
                RobotPlacement::at(NodeId::new(1)),
            ],
        );
        let rec = sim.step();
        assert_eq!(sim.positions(), vec![NodeId::new(1), NodeId::new(0)]);
        assert!(rec.towers_after().is_empty());
    }

    #[test]
    fn look_sees_colocated_robots() {
        // Robot 1 walks onto robot 0's node; at the next Look both see
        // "other robots".
        #[derive(Debug, Clone)]
        struct RecordOthers;

        impl Algorithm for RecordOthers {
            type State = Vec<bool>;

            fn name(&self) -> &str {
                "record-others"
            }

            fn initial_state(&self) -> Vec<bool> {
                Vec::new()
            }

            fn compute(&self, state: &mut Vec<bool>, view: &View) -> LocalDir {
                state.push(view.other_robots_on_current_node());
                view.dir()
            }
        }

        let r = ring(5);
        // r0 at v0 pointing left (→ v4); r1 at v1 pointing left (→ v0)…
        // instead park r0 by removing its pointed edge forever.
        let mut sched = AbsenceIntervals::new(r.clone());
        sched.remove_from(EdgeId::new(4), 0); // v0's ccw edge
        let mut sim = Simulator::new(
            r,
            RecordOthers,
            Oblivious::new(sched),
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(1)),
            ],
        )
        .expect("valid setup");
        sim.run(2);
        // Round 0: r1 moves v1→v0 (edge e0 present, pointing ccw). Round 1:
        // both on v0, both see others=true.
        assert_eq!(sim.positions(), vec![NodeId::new(0), NodeId::new(0)]);
        let s0 = sim.state_of(RobotId::new(0)).clone();
        let s1 = sim.state_of(RobotId::new(1)).clone();
        assert_eq!(s0, vec![false, true]);
        assert_eq!(s1, vec![false, true]);
    }

    #[test]
    fn state_persists_between_rounds() {
        let r = ring(4);
        let mut sim = Simulator::new(
            r.clone(),
            Counter,
            Oblivious::new(AlwaysPresent::new(r)),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        sim.run(7);
        assert_eq!(*sim.state_of(RobotId::new(0)), 7);
    }

    #[test]
    fn run_recording_produces_full_trace() {
        let mut sim = static_sim(6, vec![RobotPlacement::at(NodeId::new(3))]);
        let trace = sim.run_recording(6);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.positions_at(0), vec![NodeId::new(3)]);
        // Counter-clockwise walk: 3,2,1,0,5,4,3.
        assert_eq!(trace.positions_at(6), vec![NodeId::new(3)]);
        assert!(trace.covers_all_nodes());
    }

    #[test]
    fn run_until_stops_early() {
        let mut sim = static_sim(8, vec![RobotPlacement::at(NodeId::new(0))]);
        let executed = sim.run_until(100, |s| s.positions()[0] == NodeId::new(4));
        assert_eq!(executed, 4);
        assert_eq!(sim.time(), 4);
    }

    #[test]
    fn ssync_inactive_robots_do_nothing() {
        let mut sim = static_sim(
            6,
            vec![
                RobotPlacement::at(NodeId::new(0)),
                RobotPlacement::at(NodeId::new(3)),
            ],
        );
        sim.set_activation(crate::RoundRobinSingle);
        let rec0 = sim.step(); // activates r0 only
        assert!(rec0.robots[0].activated && rec0.robots[0].moved);
        assert!(!rec0.robots[1].activated && !rec0.robots[1].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(5), NodeId::new(3)]);
        let rec1 = sim.step(); // activates r1 only
        assert!(!rec1.robots[0].activated);
        assert!(rec1.robots[1].activated && rec1.robots[1].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(5), NodeId::new(2)]);
    }

    #[test]
    fn multigraph_two_ring_moves_through_both_parallel_edges() {
        // On the 2-node multigraph ring both directions lead to the other
        // node, through *different* edges: v0's cw edge is e0, its ccw
        // edge is e1.
        let r = ring(2);
        let mut sched = AbsenceIntervals::new(r.clone());
        sched.remove_from(EdgeId::new(0), 0); // only e1 ever present
        let mut sim = Simulator::new(
            r,
            KeepDir,
            Oblivious::new(sched),
            vec![RobotPlacement::at(NodeId::new(0))], // dir left = ccw = e1
        )
        .expect("valid setup");
        let rec = sim.step();
        assert!(rec.robots[0].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(1)]);
        // From v1, ccw edge is e0 (dead): the robot stalls forever after.
        let rec = sim.step();
        assert!(!rec.robots[0].moved);
        assert_eq!(sim.positions(), vec![NodeId::new(1)]);
    }

    #[test]
    fn multigraph_two_ring_with_all_edges_oscillates() {
        let r = ring(2);
        let mut sim = static_sim(2, vec![RobotPlacement::at(NodeId::new(0))]);
        let _ = &r;
        sim.run(5);
        // Five ccw hops on a 2-ring: ends at v1.
        assert_eq!(sim.positions(), vec![NodeId::new(1)]);
    }

    #[test]
    fn quiet_probe_path_matches_recorded_path_on_stochastic_dynamics() {
        // The quiet path answers rounds through Dynamics::probe_edges (O(k)
        // point queries); the recorded path materializes full snapshots.
        // Both must advance positions, directions and time identically.
        use dynring_graph::BernoulliSchedule;

        #[derive(Debug, Clone)]
        struct Bounce;

        impl Algorithm for Bounce {
            type State = u32;

            fn name(&self) -> &str {
                "bounce"
            }

            fn initial_state(&self) -> u32 {
                0
            }

            fn compute(&self, state: &mut u32, view: &View) -> LocalDir {
                *state += 1;
                if view.exists_edge_ahead() {
                    view.dir()
                } else {
                    view.dir().opposite()
                }
            }
        }

        let r = ring(17);
        let make = || {
            let schedule = BernoulliSchedule::new(r.clone(), 0.4, 0xBEEF).expect("valid p");
            Simulator::new(
                r.clone(),
                Bounce,
                Oblivious::new(schedule),
                vec![
                    RobotPlacement::at(NodeId::new(0)),
                    RobotPlacement::at(NodeId::new(5)).with_dir(LocalDir::Right),
                    RobotPlacement::at(NodeId::new(11)).with_chirality(Chirality::Mirrored),
                ],
            )
            .expect("valid setup")
        };
        let mut quiet = make();
        let mut recorded = make();
        for _ in 0..400 {
            quiet.step_quiet();
            recorded.step();
            assert_eq!(quiet.positions(), recorded.positions());
        }
        for id in 0..3 {
            assert_eq!(
                quiet.state_of(RobotId::new(id)),
                recorded.state_of(RobotId::new(id))
            );
        }
    }

    #[test]
    fn dense_teams_fall_back_to_the_full_fill_and_stay_equivalent() {
        // With 2k >= n the probe path would query as many edges as the
        // ring holds, so the quiet path takes the word fill instead —
        // behaviour must stay identical to the recorded (always full
        // fill) path.
        use dynring_graph::BernoulliSchedule;

        #[derive(Debug, Clone)]
        struct Bounce;

        impl Algorithm for Bounce {
            type State = u32;

            fn name(&self) -> &str {
                "bounce"
            }

            fn initial_state(&self) -> u32 {
                0
            }

            fn compute(&self, state: &mut u32, view: &View) -> LocalDir {
                *state += 1;
                if view.exists_edge_ahead() {
                    view.dir()
                } else {
                    view.dir().opposite()
                }
            }
        }

        for (n, k) in [(5usize, 4usize), (8, 4), (9, 8)] {
            let r = ring(n);
            let make = || {
                let schedule = BernoulliSchedule::new(r.clone(), 0.4, 0xD1CE).expect("valid p");
                let placements = (0..k)
                    .map(|i| RobotPlacement::at(NodeId::new(i)))
                    .collect();
                Simulator::new(r.clone(), Bounce, Oblivious::new(schedule), placements)
                    .expect("valid setup")
            };
            let mut quiet = make();
            let mut recorded = make();
            for round in 0..200 {
                quiet.step_quiet();
                recorded.step();
                assert_eq!(
                    quiet.positions(),
                    recorded.positions(),
                    "n={n} k={k} round={round}"
                );
            }
            for id in 0..k {
                assert_eq!(
                    quiet.state_of(RobotId::new(id)),
                    recorded.state_of(RobotId::new(id)),
                    "n={n} k={k} robot={id}"
                );
            }
        }
    }

    #[test]
    fn quiet_path_falls_back_when_dynamics_refuses_probes() {
        // Recurrent needs the full snapshot every round; the quiet path
        // must fall back to edges_at_into and stay equivalent.
        use crate::Recurrent;
        use dynring_graph::BernoulliSchedule;

        let r = ring(9);
        let make = || {
            let schedule = BernoulliSchedule::new(r.clone(), 0.2, 7).expect("valid p");
            Simulator::new(
                r.clone(),
                KeepDir,
                Recurrent::new(Oblivious::new(schedule), 5, None),
                vec![RobotPlacement::at(NodeId::new(2))],
            )
            .expect("valid setup")
        };
        let mut quiet = make();
        let mut recorded = make();
        for _ in 0..200 {
            quiet.step_quiet();
            recorded.step();
            assert_eq!(quiet.positions(), recorded.positions());
        }
    }

    #[test]
    fn global_dir_of_reports_translated_direction() {
        let sim = static_sim(
            4,
            vec![RobotPlacement::at(NodeId::new(0)).with_chirality(Chirality::Mirrored)],
        );
        assert_eq!(sim.global_dir_of(RobotId::new(0)), GlobalDir::Clockwise);
    }

    #[test]
    fn cover_tracker_first_cover_is_the_time_the_last_node_is_reached() {
        let mut cover = CoverTracker::new(3);
        assert!(!cover.observe(0, [NodeId::new(0)]));
        assert!(!cover.observe(1, [NodeId::new(1), NodeId::new(1)]));
        assert_eq!(cover.first_cover(), None);
        assert!(cover.observe(2, [NodeId::new(2)]));
        assert!(cover.observe(3, [NodeId::new(0)]));
        assert_eq!(cover.first_cover(), Some(2));
    }

    #[test]
    fn cover_tracker_counts_a_spread_start_as_covered_at_time_zero() {
        let mut cover = CoverTracker::new(2);
        assert!(cover.observe(0, [NodeId::new(1), NodeId::new(0)]));
        assert_eq!(cover.first_cover(), Some(0));
    }
}
