//! The paper's round rule (§2.3), stated once.
//!
//! [`round`] steps a team the caller holds — no simulator, no dynamics —
//! so a checker can step any configuration under any edge set.
//! [`crate::Simulator`] runs it every round, and
//! [`crate::async_exec::AsyncSimulator`] runs its Look and Move halves
//! ([`Robot::look`], [`Robot::cross`]) as separate ASYNC phases.

use dynring_graph::{EdgeId, EdgeSet, NodeId, RingTopology};

use crate::{
    Algorithm, Chirality, EdgeProbe, LocalDir, RobotId, RobotPlacement, RobotSnapshot, View,
};

/// One robot as a round reads and writes it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Robot<S> {
    /// Current node.
    pub node: NodeId,
    /// The robot's fixed chirality.
    pub chirality: Chirality,
    /// Current direction variable (local frame).
    pub dir: LocalDir,
    /// The algorithm's persistent state.
    pub state: S,
    /// Whether the robot's last Move crossed an edge. Under FSYNC that is
    /// the previous round. Under SSYNC a robot that sits a round out keeps
    /// the flag of its last activation; under ASYNC the flag is the result
    /// of its last Move phase.
    pub moved_last_round: bool,
}

impl<S> Robot<S> {
    /// A robot at its placement, in `state`, that has not moved yet.
    pub(crate) fn placed(p: &RobotPlacement, state: S) -> Self {
        Robot {
            node: p.node,
            chirality: p.chirality,
            dir: p.initial_dir,
            state,
            moved_last_round: false,
        }
    }

    /// The observer's snapshot of this robot as robot `id`.
    pub(crate) fn snapshot(&self, id: usize) -> RobotSnapshot {
        RobotSnapshot {
            id: RobotId::new(id),
            node: self.node,
            chirality: self.chirality,
            dir: self.dir,
            moved_last_round: self.moved_last_round,
        }
    }

    /// The robot's (left, right) adjacent edges, in its own frame.
    pub(crate) fn adjacent_edges(&self, ring: &RingTopology) -> [EdgeId; 2] {
        [LocalDir::Left, LocalDir::Right]
            .map(|dir| ring.edge_towards(self.node, self.chirality.to_global(dir)))
    }

    /// Look: the robot's [`View`] of `G_t`, where `present` says whether
    /// its (left, right) adjacent edges are in `G_t` and `others` whether
    /// another robot stands on its node.
    pub fn look(&self, present: (bool, bool), others: bool) -> View {
        View::new(self.dir, present.0, present.1, others)
    }

    /// Move: crosses the adjacent edge its direction points to iff
    /// `present` — the same (left, right) answers as the Look — holds it,
    /// and records the outcome in [`Robot::moved_last_round`]. Returns
    /// whether the robot moved.
    pub fn cross(&mut self, ring: &RingTopology, present: (bool, bool)) -> bool {
        let moved = match self.dir {
            LocalDir::Left => present.0,
            LocalDir::Right => present.1,
        };
        if moved {
            self.node = ring.neighbor(self.node, self.chirality.to_global(self.dir));
        }
        self.moved_last_round = moved;
        moved
    }
}

/// One synchronous round `γ_t → γ_{t+1}` under the snapshot `G_t`: every
/// activated robot Looks, Computes and Moves against the same `G_t`.
///
/// - `present(i, robot)` answers robot `i`'s (left, right) adjacent edges
///   in `G_t`;
/// - `occupancy[v]` is the number of robots on node `v` in `γ_t`;
/// - `active` is `None` under FSYNC, else robot `i` acts iff `active[i]`.
///   An inactive robot keeps its node, direction, state and
///   [`Robot::moved_last_round`].
///
/// # Panics
///
/// Panics when `occupancy` does not cover a robot's node or `active`
/// is shorter than `robots`.
pub fn round<A: Algorithm>(
    ring: &RingTopology,
    algorithm: &A,
    robots: &mut [Robot<A::State>],
    present: impl FnMut(usize, &Robot<A::State>) -> (bool, bool),
    occupancy: &[usize],
    active: Option<&[bool]>,
) {
    round_each(
        ring,
        algorithm,
        robots,
        present,
        occupancy,
        active,
        |_, _, _, _| {},
    );
}

/// [`round`], handing robot `i` to `done(i, (node, dir), robot, moved)` as
/// soon as its turn ends: `(node, dir)` is where it Looked from, `moved`
/// is `None` if it sat the round out and else whether its Move crossed an
/// edge. A recorder reads each robot there, in the same pass as the rule.
pub(crate) fn round_each<A: Algorithm>(
    ring: &RingTopology,
    algorithm: &A,
    robots: &mut [Robot<A::State>],
    mut present: impl FnMut(usize, &Robot<A::State>) -> (bool, bool),
    occupancy: &[usize],
    active: Option<&[bool]>,
    mut done: impl FnMut(usize, (NodeId, LocalDir), &Robot<A::State>, Option<bool>),
) {
    for (i, robot) in robots.iter_mut().enumerate() {
        let before = (robot.node, robot.dir);
        let mut moved = None;
        if active.is_none_or(|active| active[i]) {
            let present = present(i, robot);
            let view = robot.look(present, occupancy[robot.node.index()] > 1);
            robot.dir = algorithm.compute(&mut robot.state, &view);
            moved = Some(robot.cross(ring, present));
        }
        done(i, before, robot, moved);
    }
}

/// The scratch both simulators reuse every round; after one warm-up round
/// the quiet path allocates nothing (for allocation-free dynamics and
/// activation).
pub(crate) struct RoundBuffers {
    /// The observer's snapshots of `γ_t`, in robot-id order.
    pub(crate) snaps: Vec<RobotSnapshot>,
    /// Robot `i`'s (left, right) adjacent-edge queries at `2i`, `2i + 1`.
    pub(crate) probes: Vec<EdgeProbe>,
    /// The full snapshot `G_t`, when the dynamics filled it.
    pub(crate) edges: EdgeSet,
    /// Robots per node in `γ_t`.
    pub(crate) occupancy: Vec<usize>,
    // Nodes with a nonzero occupancy count, so the table is cleared
    // sparsely (O(robots) instead of O(n) per round).
    touched: Vec<u32>,
    /// The activation vector, filled only when not every robot acts.
    pub(crate) active: Vec<bool>,
}

impl RoundBuffers {
    pub(crate) fn new(ring: &RingTopology) -> Self {
        RoundBuffers {
            snaps: Vec::new(),
            probes: Vec::new(),
            edges: EdgeSet::empty(ring.edge_count()),
            occupancy: vec![0; ring.node_count()],
            touched: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Reads `γ_t` off `robots`: their snapshots, their occupancy and,
    /// when `probe`, the 2·k adjacent-edge queries of the sparse path.
    // Forced inline (with `refresh_occupancy`): left out of line, the call
    // and its spills around a k-robot round cost the recorded path 3–5%.
    #[inline(always)]
    pub(crate) fn observe<S>(&mut self, ring: &RingTopology, robots: &[Robot<S>], probe: bool) {
        self.snaps.clear();
        self.snaps
            .extend(robots.iter().enumerate().map(|(i, r)| r.snapshot(i)));
        if probe {
            self.probes.clear();
            for r in robots {
                self.probes
                    .extend(r.adjacent_edges(ring).map(EdgeProbe::new));
            }
        }
        self.refresh_occupancy(robots);
    }

    /// Rebuilds the occupancy table. On rings much larger than the team
    /// the table is cleared sparsely — `touched` remembers the ≤ k entries
    /// with a nonzero count — so the refresh is O(robots) regardless of
    /// ring size. On small rings a straight memset beats the bookkeeping;
    /// `n` and `k` never change within a run, so the branch is free.
    #[inline(always)]
    fn refresh_occupancy<S>(&mut self, robots: &[Robot<S>]) {
        if self.occupancy.len() <= 4 * robots.len() {
            self.occupancy.iter_mut().for_each(|c| *c = 0);
            for r in robots {
                self.occupancy[r.node.index()] += 1;
            }
        } else {
            for &node in &self.touched {
                self.occupancy[node as usize] = 0;
            }
            self.touched.clear();
            for r in robots {
                let count = &mut self.occupancy[r.node.index()];
                if *count == 0 {
                    self.touched.push(r.node.index() as u32);
                }
                *count += 1;
            }
        }
    }

    /// Robot `i`'s (left, right) answers in `G_t`: its two probes when
    /// the dynamics `probed`, else its adjacent edges in the full snapshot.
    pub(crate) fn present<S>(
        &self,
        ring: &RingTopology,
        probed: bool,
        i: usize,
        robot: &Robot<S>,
    ) -> (bool, bool) {
        if probed {
            return (self.probes[2 * i].present, self.probes[2 * i + 1].present);
        }
        let [left, right] = robot.adjacent_edges(ring);
        (self.edges.contains(left), self.edges.contains(right))
    }
}
