//! The Theorem 4.1 adversary: two robots cannot perpetually explore a
//! connected-over-time ring of four or more nodes.

use std::fmt;

use dynring_graph::{EdgeId, EdgeSet, GlobalDir, NodeId, RingTopology, Time};

use dynring_engine::{Dynamics, EdgeProbe, Observation};

/// The four phases of the Figure 2 construction. In each phase a specific
/// set of edges is removed until the *designated* robot performs the only
/// move available to it; then the next phase starts.
///
/// With `u, v, w` three consecutive nodes (clockwise), `r1` the robot
/// starting on `u` and `r2` the robot starting on `v`:
///
/// | phase | removed edges          | designated move |
/// |-------|------------------------|-----------------|
/// | A     | `e_ul, e_vl(=e_ur)`    | `r2 : v → w`    |
/// | B     | `e_ul, e_wl(=e_vr), e_wr` | `r1 : u → v` |
/// | C     | `e_wl(=e_vr), e_wr`    | `r1 : v → u`    |
/// | D     | `e_ul, e_ur, e_wr`     | `r2 : w → v`    |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfinerPhase {
    /// Items 1–2 of the proof: expel `r2` from `v` towards `w`.
    A,
    /// Items 3–4: pull `r1` from `u` onto `v`.
    B,
    /// Items 5–6: push `r1` back from `v` to `u`.
    C,
    /// Items 7–8: pull `r2` back from `w` onto `v`.
    D,
}

impl ConfinerPhase {
    fn next(self) -> ConfinerPhase {
        match self {
            ConfinerPhase::A => ConfinerPhase::B,
            ConfinerPhase::B => ConfinerPhase::C,
            ConfinerPhase::C => ConfinerPhase::D,
            ConfinerPhase::D => ConfinerPhase::A,
        }
    }
}

impl fmt::Display for ConfinerPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            ConfinerPhase::A => 'A',
            ConfinerPhase::B => 'B',
            ConfinerPhase::C => 'C',
            ConfinerPhase::D => 'D',
        };
        write!(f, "{c}")
    }
}

#[derive(Debug, Clone)]
enum State {
    /// Waiting for the first observation to anchor `u, v, w`.
    Init,
    /// Running the phase machine.
    Running {
        phase: ConfinerPhase,
        /// Rounds spent in the current phase without the designated move.
        waited: Time,
    },
    /// A designated robot refused its only exit for `patience` rounds: by
    /// determinism it would refuse forever. The adversary keeps the current
    /// blocks; the Lemma 4.1 construction ([`crate::lemma41`]) takes over
    /// as the counterexample witness.
    Stalemate {
        phase: ConfinerPhase,
        since: Time,
    },
    /// The initial configuration was not two robots on adjacent nodes; the
    /// construction does not apply and all edges stay present.
    Inapplicable,
}

/// The adaptive adversary from the proof of Theorem 4.1 (Figure 2).
///
/// Requires exactly two robots initially on *adjacent* nodes (the proof's
/// initial configuration); it then cycles the four [`ConfinerPhase`]s
/// forever. Invariants maintained regardless of the algorithm under test:
///
/// - both robots stay inside the zone `{u, v, w}` for the entire run: the
///   two boundary edges (`e_ul`, `e_wr`) are always removed in the next
///   snapshot before a robot standing at `u` or `w` could cross them;
/// - the robots never share a node (no tower ever forms);
/// - as long as the phases keep cycling — which they must for any algorithm
///   honouring Lemma 4.1 — every edge is removed only during finitely many
///   finite intervals, so the captured schedule is connected-over-time.
///
/// If the algorithm under test instead *refuses* a designated move for
/// [`TwoRobotConfiner::patience`] consecutive rounds, the adversary
/// declares a [`TwoRobotConfiner::stalemate`]: determinism implies the
/// robot would refuse forever, which is precisely the premise of
/// Lemma 4.1 — and [`crate::lemma41::PrimedWitness`] then synthesizes the
/// 8-node connected-over-time counterexample for that behaviour. Either
/// way, no deterministic algorithm escapes: that is Theorem 4.1.
#[derive(Debug, Clone)]
pub struct TwoRobotConfiner {
    ring: RingTopology,
    patience: Time,
    state: State,
    /// Zone anchors, set at the first observation.
    zone: Option<Zone>,
    cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct Zone {
    u: NodeId,
    v: NodeId,
    w: NodeId,
    /// Index (0/1) of the robot playing `r1` (starts on `u`).
    r1: usize,
    /// Index (0/1) of the robot playing `r2` (starts on `v`).
    r2: usize,
}

impl TwoRobotConfiner {
    /// Creates the adversary. `patience` bounds how long a phase waits for
    /// the designated move before declaring a stalemate (Lemma 4.1
    /// guarantees a bound exists for every correct algorithm).
    pub fn new(ring: RingTopology, patience: Time) -> Self {
        assert!(patience >= 1, "patience must be at least 1");
        TwoRobotConfiner {
            ring,
            patience,
            state: State::Init,
            zone: None,
            cycles: 0,
        }
    }

    /// The confinement zone `(u, v, w)`, once anchored.
    pub fn zone(&self) -> Option<(NodeId, NodeId, NodeId)> {
        self.zone.map(|z| (z.u, z.v, z.w))
    }

    /// Number of completed four-phase cycles.
    pub fn cycles_completed(&self) -> u64 {
        self.cycles
    }

    /// The phase and start round of a declared stalemate, if any.
    pub fn stalemate(&self) -> Option<(ConfinerPhase, Time)> {
        match self.state {
            State::Stalemate { phase, since } => Some((phase, since)),
            _ => None,
        }
    }

    /// The configured patience.
    pub fn patience(&self) -> Time {
        self.patience
    }

    /// `true` when the initial configuration allowed the construction (two
    /// robots on adjacent nodes).
    pub fn is_applicable(&self) -> bool {
        !matches!(self.state, State::Inapplicable)
    }

    /// The current phase, when running.
    pub fn phase(&self) -> Option<ConfinerPhase> {
        match self.state {
            State::Running { phase, .. } => Some(phase),
            State::Stalemate { phase, .. } => Some(phase),
            _ => None,
        }
    }

    /// The ≤ 3 edges `phase` removes, in a fixed buffer (first `len`
    /// entries) so both [`Dynamics`] entry points stay allocation-free.
    fn blocked_edges(&self, zone: Zone, phase: ConfinerPhase) -> ([EdgeId; 3], usize) {
        let eul = self.ring.edge_towards(zone.u, GlobalDir::CounterClockwise);
        let eur = self.ring.edge_towards(zone.u, GlobalDir::Clockwise); // = e_vl
        let evr = self.ring.edge_towards(zone.v, GlobalDir::Clockwise); // = e_wl
        let ewr = self.ring.edge_towards(zone.w, GlobalDir::Clockwise);
        match phase {
            ConfinerPhase::A => ([eul, eur, eur], 2),
            ConfinerPhase::B => ([eul, evr, ewr], 3),
            ConfinerPhase::C => ([evr, ewr, ewr], 2),
            ConfinerPhase::D => ([eul, eur, ewr], 3),
        }
    }

    /// Whether the designated move of `phase` has been completed, judging
    /// from the observed positions.
    fn designated_done(&self, zone: Zone, phase: ConfinerPhase, obs: &Observation<'_>) -> bool {
        let p1 = obs.robots()[zone.r1].node;
        let p2 = obs.robots()[zone.r2].node;
        match phase {
            ConfinerPhase::A => p2 == zone.w,
            ConfinerPhase::B => p1 == zone.v,
            ConfinerPhase::C => p1 == zone.u,
            ConfinerPhase::D => p2 == zone.v,
        }
    }
}

impl Dynamics for TwoRobotConfiner {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        let decision = self.advance(obs);
        out.reset(self.ring.edge_count());
        out.fill();
        if let Some((zone, phase)) = decision {
            let (blocked, len) = self.blocked_edges(zone, phase);
            for &e in &blocked[..len] {
                out.remove(e);
            }
        }
    }

    /// Theorem 4.1's confiner blocks ≤ 3 zone edges per round with an
    /// O(1) state advance, so it answers point queries directly and stays
    /// on the sparse path.
    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        match self.advance(obs) {
            None => {
                for q in queries.iter_mut() {
                    q.present = true;
                }
            }
            Some((zone, phase)) => {
                let (blocked, len) = self.blocked_edges(zone, phase);
                for q in queries.iter_mut() {
                    q.present = !blocked[..len].contains(&q.edge);
                }
            }
        }
        true
    }
}

impl TwoRobotConfiner {
    /// Advances the anchor/phase state machine for the round observed in
    /// `obs`; returns the zone and the phase to play, or `None` when the
    /// adversary is inapplicable (every edge stays present). Both
    /// [`Dynamics`] entry points go through here, so the full-snapshot and
    /// sparse paths cannot drift.
    fn advance(&mut self, obs: &Observation<'_>) -> Option<(Zone, ConfinerPhase)> {
        // Anchor the zone on the first observation.
        if matches!(self.state, State::Init) {
            self.state = match self.anchor(obs) {
                Some(zone) => {
                    self.zone = Some(zone);
                    State::Running {
                        phase: ConfinerPhase::A,
                        waited: 0,
                    }
                }
                None => State::Inapplicable,
            };
        }

        let zone = self.zone?;

        // Advance the phase machine on observed designated moves.
        if let State::Running { phase, waited } = self.state {
            if self.designated_done(zone, phase, obs) {
                let next = phase.next();
                if next == ConfinerPhase::A {
                    self.cycles += 1;
                }
                self.state = State::Running {
                    phase: next,
                    waited: 0,
                };
            } else if waited >= self.patience {
                self.state = State::Stalemate {
                    phase,
                    since: obs.time(),
                };
            } else {
                self.state = State::Running {
                    phase,
                    waited: waited + 1,
                };
            }
        }

        let phase = match self.state {
            State::Running { phase, .. } | State::Stalemate { phase, .. } => phase,
            _ => unreachable!("zone anchored implies running or stalemate"),
        };
        Some((zone, phase))
    }
    fn anchor(&self, obs: &Observation<'_>) -> Option<Zone> {
        let robots = obs.robots();
        if robots.len() != 2 {
            return None;
        }
        let (p0, p1) = (robots[0].node, robots[1].node);
        if self.ring.neighbor(p0, GlobalDir::Clockwise) == p1 {
            Some(Zone {
                u: p0,
                v: p1,
                w: self.ring.neighbor(p1, GlobalDir::Clockwise),
                r1: 0,
                r2: 1,
            })
        } else if self.ring.neighbor(p1, GlobalDir::Clockwise) == p0 {
            Some(Zone {
                u: p1,
                v: p0,
                w: self.ring.neighbor(p0, GlobalDir::Clockwise),
                r1: 1,
                r2: 0,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_engine::{Algorithm, LocalDir, RobotPlacement, Simulator, View};

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    /// Turns back whenever the pointed edge is missing — the canonical
    /// "always honours Lemma 4.1" behaviour.
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

    /// Never changes direction.
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

    fn adjacent_placements(u: usize, v: usize) -> Vec<RobotPlacement> {
        vec![
            RobotPlacement::at(NodeId::new(u)),
            RobotPlacement::at(NodeId::new(v)),
        ]
    }

    #[test]
    fn bouncing_robots_cycle_and_stay_confined() {
        let r = ring(7);
        let adversary = TwoRobotConfiner::new(r.clone(), 50);
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(2, 3))
            .expect("valid setup");
        let trace = sim.run_recording(400);
        let visited = trace.visited_nodes();
        assert!(
            visited.len() <= 3,
            "two robots must stay within the zone, visited {visited:?}"
        );
        assert_eq!(
            sim.dynamics().zone(),
            Some((NodeId::new(2), NodeId::new(3), NodeId::new(4)))
        );
        assert!(sim.dynamics().cycles_completed() >= 3, "phases must cycle");
        assert!(sim.dynamics().stalemate().is_none());
        assert_eq!(trace.max_tower_size(), 0, "no tower may ever form");
    }

    #[test]
    fn cycling_capture_is_connected_over_time() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::{certify_connected_over_time, CotVerdict};
        use dynring_graph::TailBehavior;

        let r = ring(6);
        let adversary = Capturing::new(TwoRobotConfiner::new(r.clone(), 50));
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(0, 1))
            .expect("valid setup");
        sim.run(600);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        // The phase machine revisits each edge within a bounded number of
        // rounds: certify with a generous bound.
        let verdict = certify_connected_over_time(&script, 600, 64);
        assert!(
            matches!(verdict, CotVerdict::Certified { missing_edge: None, .. }),
            "verdict {verdict:?}"
        );
    }

    #[test]
    fn stubborn_robots_stalemate_but_stay_confined() {
        let r = ring(8);
        let adversary = TwoRobotConfiner::new(r.clone(), 20);
        // Both robots point clockwise: phase A (r2 cw move) succeeds, phase
        // B (r1 cw move) succeeds, phase C demands r1 go ccw — refused.
        let placements = vec![
            RobotPlacement::at(NodeId::new(0)).with_dir(LocalDir::Right),
            RobotPlacement::at(NodeId::new(1)).with_dir(LocalDir::Right),
        ];
        let mut sim =
            Simulator::new(r, Stubborn, adversary, placements).expect("valid setup");
        let trace = sim.run_recording(300);
        assert!(trace.visited_nodes().len() <= 3);
        let (phase, _since) = sim.dynamics().stalemate().expect("must stalemate");
        assert_eq!(phase, ConfinerPhase::C);
        assert_eq!(trace.max_tower_size(), 0);
    }

    #[test]
    fn non_adjacent_start_is_inapplicable() {
        let r = ring(6);
        let adversary = TwoRobotConfiner::new(r.clone(), 10);
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(0, 3))
            .expect("valid setup");
        sim.run(5);
        assert!(!sim.dynamics().is_applicable());
        assert_eq!(sim.dynamics().zone(), None);
    }

    #[test]
    fn reversed_robot_order_is_anchored_correctly() {
        let r = ring(6);
        let adversary = TwoRobotConfiner::new(r.clone(), 50);
        // robot 0 sits clockwise *after* robot 1: r1 = robot 1.
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(4, 3))
            .expect("valid setup");
        let trace = sim.run_recording(300);
        assert_eq!(
            sim.dynamics().zone(),
            Some((NodeId::new(3), NodeId::new(4), NodeId::new(5)))
        );
        assert!(trace.visited_nodes().len() <= 3);
    }

    #[test]
    fn on_three_ring_confinement_is_vacuous() {
        // n = 3: the "zone" is the whole ring, consistent with Theorem 4.2.
        let r = ring(3);
        let adversary = TwoRobotConfiner::new(r.clone(), 50);
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(0, 1))
            .expect("valid setup");
        let trace = sim.run_recording(200);
        assert!(trace.covers_all_nodes());
    }

    #[test]
    fn boundary_edges_recur_while_cycling() {
        use dynring_engine::Capturing;
        use dynring_graph::classes::max_recurrence_gaps;
        use dynring_graph::TailBehavior;

        let r = ring(5);
        let adversary = Capturing::new(TwoRobotConfiner::new(r.clone(), 50));
        let mut sim = Simulator::new(r, Bounce, adversary, adjacent_placements(1, 2))
            .expect("valid setup");
        sim.run(400);
        let script = sim.dynamics().to_script(TailBehavior::AllPresent);
        let gaps = max_recurrence_gaps(&script, 400);
        // Zone: u=1, v=2, w=3. Boundary edges e_ul = e0, e_wr = e3.
        assert!(gaps[0] < 400, "e_ul must recur, gaps {gaps:?}");
        assert!(gaps[3] < 400, "e_wr must recur, gaps {gaps:?}");
    }
}
