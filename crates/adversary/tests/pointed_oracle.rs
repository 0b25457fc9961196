//! Reference model for `PointedEdgeBlocker`.
//!
//! The blocker keeps absence runs only for the edges it removed last
//! round. The per-edge loop it replaced, which kept a run for every edge
//! and walked all of them every round, lives on here as the oracle: both
//! must choose the same snapshot every round, for budgets 1 to 4, with an
//! exempt edge that robots point at, with two robots pointing at one edge,
//! and with towers.

use dynring_adversary::PointedEdgeBlocker;
use dynring_engine::{Chirality, Dynamics, LocalDir, Observation, RobotId, RobotSnapshot};
use dynring_graph::{EdgeId, EdgeSet, NodeId, RingTopology, Time};

/// The per-edge loop: every edge keeps its absence run; a pointed edge is
/// removed while its run is below the budget, every other run restarts.
struct BlockerOracle {
    ring: RingTopology,
    budget: Time,
    exempt: Option<EdgeId>,
    absent_run: Vec<Time>,
}

impl BlockerOracle {
    fn new(ring: RingTopology, budget: Time, exempt: Option<EdgeId>) -> Self {
        let edges = ring.edge_count();
        BlockerOracle {
            ring,
            budget,
            exempt,
            absent_run: vec![0; edges],
        }
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        let pointed = obs.pointed_edges();
        let mut out = EdgeSet::full_for(&self.ring);
        for e in self.ring.edges() {
            let run = &mut self.absent_run[e.index()];
            if Some(e) == self.exempt {
                out.remove(e);
                continue;
            }
            if pointed.contains(e) && *run < self.budget {
                out.remove(e);
                *run += 1;
            } else {
                *run = 0;
            }
        }
        out
    }
}

/// SplitMix64: a small deterministic source for the robot walks.
struct Mix(u64);

impl Mix {
    fn next(&mut self, below: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    }
}

fn robot(id: usize, node: usize, mirrored: bool, right: bool) -> RobotSnapshot {
    RobotSnapshot {
        id: RobotId::new(id),
        node: NodeId::new(node),
        chirality: if mirrored {
            Chirality::Mirrored
        } else {
            Chirality::Standard
        },
        dir: if right {
            LocalDir::Right
        } else {
            LocalDir::Left
        },
        moved_last_round: false,
    }
}

/// Plays `rounds` configurations from `next` against both blockers and
/// asserts every snapshot agrees.
fn assert_matches_oracle(
    n: usize,
    budget: Time,
    exempt: Option<EdgeId>,
    rounds: usize,
    mut next: impl FnMut(usize) -> Vec<RobotSnapshot>,
) {
    let ring = RingTopology::new(n).expect("valid ring");
    let mut blocker = PointedEdgeBlocker::new(ring.clone(), budget, exempt);
    let mut oracle = BlockerOracle::new(ring.clone(), budget, exempt);
    let mut out = EdgeSet::empty(0);
    for t in 0..rounds {
        let robots = next(t);
        let obs = Observation::new(t as Time, &ring, &robots);
        blocker.edges_at_into(&obs, &mut out);
        assert_eq!(
            out,
            oracle.edges_at(&obs),
            "n={n} budget={budget} exempt={exempt:?} round {t} robots {robots:?}"
        );
    }
}

#[test]
fn random_walks_match_the_per_edge_loop() {
    // Robots mostly stay put, so edges stay pointed at across rounds and
    // their budgets run out; small rings make towers and shared edges
    // common, large ones put pointed edges in every word.
    for n in [2, 3, 4, 5, 8, 63, 64, 65, 130] {
        for k in 1..=4 {
            for budget in 1..=4 {
                for exempt in [None, Some(EdgeId::new(0)), Some(EdgeId::new(n - 1))] {
                    let mut mix = Mix((n * 1000 + k * 100) as u64 + budget);
                    let mut robots: Vec<RobotSnapshot> = (0..k)
                        .map(|i| robot(i, mix.next(n), mix.next(2) == 1, mix.next(2) == 1))
                        .collect();
                    assert_matches_oracle(n, budget, exempt, 400, |_| {
                        for (i, r) in robots.iter_mut().enumerate() {
                            match mix.next(8) {
                                0 => {
                                    *r = robot(
                                        i,
                                        mix.next(n),
                                        mix.next(2) == 1,
                                        r.dir == LocalDir::Right,
                                    )
                                }
                                1 => r.dir = r.dir.opposite(),
                                2 => r.node = NodeId::new((r.node.index() + 1) % n),
                                _ => {}
                            }
                        }
                        robots.clone()
                    });
                }
            }
        }
    }
}

#[test]
fn a_pointed_exempt_edge_stays_absent() {
    // Robot 0 points at the exempt edge 2 for good; robot 1 points at
    // edge 4 for good, which the budget forces back every `budget + 1`
    // rounds.
    for budget in 1..=4 {
        assert_matches_oracle(7, budget, Some(EdgeId::new(2)), 40, |_| {
            vec![robot(0, 2, false, true), robot(1, 4, false, true)]
        });
    }
}

#[test]
fn two_robots_pointing_at_one_edge_share_its_budget() {
    // A robot at v3 pointing clockwise and one at v4 pointing
    // counter-clockwise both point at edge 3; a third joins some rounds.
    for budget in 1..=4 {
        assert_matches_oracle(6, budget, None, 40, |t| {
            let mut robots = vec![robot(0, 3, false, true), robot(1, 4, false, false)];
            if t % 3 == 0 {
                robots.push(robot(2, 4, true, true));
            }
            robots
        });
    }
}

#[test]
fn towers_match_the_per_edge_loop() {
    // Three robots on one node: two point one way, one the other; every
    // few rounds the tower splits its directions differently.
    for budget in 1..=4 {
        for exempt in [None, Some(EdgeId::new(5))] {
            assert_matches_oracle(9, budget, exempt, 60, |t| {
                let flip = (t / 5) % 2 == 0;
                vec![
                    robot(0, 5, false, flip),
                    robot(1, 5, true, flip),
                    robot(2, 5, false, !flip),
                ]
            });
        }
    }
}
