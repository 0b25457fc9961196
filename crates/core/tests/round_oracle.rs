//! Exhaustive oracle for the engine's round rule, [`dynring_engine::round`].
//!
//! `oracle_round` re-models one round of §2.3 from the paper alone: node
//! `v`'s clockwise edge is `e_v` and its counter-clockwise edge is
//! `e_(v−1 mod n)`, a robot's left is counter-clockwise unless its
//! chirality is mirrored, and every activated robot Looks, Computes (with
//! the algorithm's own `compute`) and Moves against the same snapshot and
//! the same pre-round occupancy. `round` must agree with it, robot for
//! robot, on every configuration of k ≤ 3 robots on n ≤ 4 nodes and of
//! k ≤ 2 robots on n = 5 — towers included, both chiralities, both
//! directions, every state an algorithm is started from — under every edge
//! set, for the whole portfolio.
//!
//! Activation: for k ≤ 2 every configuration meets every activation
//! subset. At k = 3 each (configuration, edge set) pair meets FSYNC and one
//! SSYNC subset, rotating through all eight with the configuration and the
//! edge set (so the 2-node ring, with only four edge sets, meets all eight
//! too), to keep the debug test within a few seconds. Every scope checks
//! that it met every subset.
//!
//! The moved flag is written, never read, by the rule; robot `i` enters
//! with bit `i mod n` of the edge set as its flag, so every configuration
//! and activation subset meets both values.

use dynring_core::baselines::{
    AlternateDirection, AlwaysTurnOnTower, BounceOnMissingEdge, KeepDirection, RandomDirection,
};
use dynring_core::{Pef1, Pef2, Pef3Plus, Pef3State};
use dynring_engine::{round, Algorithm, Chirality, LocalDir, Robot, View};
use dynring_graph::{EdgeId, NodeId, RingTopology};

/// Is bit `e` of the edge set `edges` set?
fn has(edges: u32, e: usize) -> bool {
    edges >> e & 1 == 1
}

/// One round by arithmetic alone: `robots` enters as a copy of `before`
/// and leaves as the next configuration; `edges` holds `e_i` at bit `i`,
/// and robot `i` acts iff `active[i]`.
fn oracle_round<A: Algorithm>(
    n: usize,
    algorithm: &A,
    before: &[Robot<A::State>],
    robots: &mut [Robot<A::State>],
    edges: u32,
    active: &[bool],
) {
    for (i, r) in robots.iter_mut().enumerate() {
        if !active[i] {
            continue;
        }
        let v = before[i].node.index();
        let (cw_edge, ccw_edge) = (has(edges, v), has(edges, (v + n - 1) % n));
        let standard = r.chirality == Chirality::Standard;
        let (left, right) = if standard {
            (ccw_edge, cw_edge)
        } else {
            (cw_edge, ccw_edge)
        };
        let others = before.iter().filter(|b| b.node.index() == v).count() > 1;
        r.dir = algorithm.compute(&mut r.state, &View::new(r.dir, left, right, others));
        let (ahead, clockwise) = match r.dir {
            LocalDir::Left => (left, !standard),
            LocalDir::Right => (right, standard),
        };
        if ahead {
            r.node = NodeId::new(if clockwise {
                (v + 1) % n
            } else {
                (v + n - 1) % n
            });
        }
        r.moved_last_round = ahead;
    }
}

/// Every robot record on `n` nodes with a state from `states`.
fn robot_choices<S: Clone>(n: usize, states: &[S]) -> Vec<Robot<S>> {
    let mut out = Vec::new();
    for v in 0..n {
        for chirality in [Chirality::Standard, Chirality::Mirrored] {
            for dir in [LocalDir::Left, LocalDir::Right] {
                for state in states {
                    out.push(Robot {
                        node: NodeId::new(v),
                        chirality,
                        dir,
                        state: state.clone(),
                        moved_last_round: false,
                    });
                }
            }
        }
    }
    out
}

/// Checks `round` against the oracle on every configuration of `k` robots
/// on `n` nodes; returns the number of rounds compared.
fn check_scope<A: Algorithm>(algorithm: &A, states: &[A::State], n: usize, k: usize) -> usize
where
    A::State: Clone + PartialEq + std::fmt::Debug,
{
    let ring = RingTopology::new(n).expect("valid ring");
    let choices = robot_choices(n, states);
    let mut config = vec![choices[0].clone(); k];
    let (mut engine, mut oracle) = (config.clone(), config.clone());
    let mut occupancy = vec![0usize; n];
    let (mut checked, mut met) = (0, 0u32);
    let subsets: u32 = 1 << k;
    let full = subsets - 1;
    for index in 0..choices.len().pow(k as u32) {
        let mut rest = index;
        for robot in config.iter_mut() {
            *robot = choices[rest % choices.len()].clone();
            rest /= choices.len();
        }
        occupancy.iter_mut().for_each(|c| *c = 0);
        for robot in &config {
            occupancy[robot.node.index()] += 1;
        }
        for edges in 0..1u32 << n {
            for (i, robot) in config.iter_mut().enumerate() {
                robot.moved_last_round = has(edges, i % n);
            }
            let present = |_: usize, r: &Robot<A::State>| {
                let edge = |d: LocalDir| {
                    let e: EdgeId = ring.edge_towards(r.node, r.chirality.to_global(d));
                    has(edges, e.index())
                };
                (edge(LocalDir::Left), edge(LocalDir::Right))
            };
            for mask in 0..subsets {
                if k == 3 && mask != full && mask as usize != (edges as usize + index) % 8 {
                    continue;
                }
                met |= 1 << mask;
                let active = [0, 1, 2].map(|i| mask >> i & 1 == 1);
                let active = &active[..k];
                engine.clone_from_slice(&config);
                oracle.clone_from_slice(&config);
                let subset = (mask != full).then_some(active);
                round(&ring, algorithm, &mut engine, present, &occupancy, subset);
                oracle_round(n, algorithm, &config, &mut oracle, edges, active);
                assert_eq!(
                    engine,
                    oracle,
                    "{} n={n} from {config:?} edges={edges:0n$b} active={active:?}",
                    algorithm.name()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(met, (1 << subsets) - 1, "n={n} k={k}: activation subsets missed");
    checked
}

/// Every scope of the module doc for one algorithm.
fn check_algorithm<A: Algorithm>(algorithm: A, states: &[A::State])
where
    A::State: Clone + PartialEq + std::fmt::Debug,
{
    let mut checked = 0;
    for n in 2..=4 {
        for k in 1..=3 {
            checked += check_scope(&algorithm, states, n, k);
        }
    }
    for k in 1..=2 {
        checked += check_scope(&algorithm, states, 5, k);
    }
    assert!(checked > 0);
}

#[test]
fn pef3plus_round_matches_the_oracle() {
    let states = [false, true].map(|has_moved_previous_step| Pef3State {
        has_moved_previous_step,
    });
    check_algorithm(Pef3Plus, &states);
}

#[test]
fn pef2_and_pef1_rounds_match_the_oracle() {
    check_algorithm(Pef2, &[()]);
    check_algorithm(Pef1, &[()]);
}

#[test]
fn baseline_rounds_match_the_oracle() {
    check_algorithm(KeepDirection, &[()]);
    check_algorithm(BounceOnMissingEdge, &[()]);
    check_algorithm(AlwaysTurnOnTower, &[()]);
    check_algorithm(AlternateDirection, &[()]);
}

/// Counters 0 and 4 turn seed 7 right, 1 and 5 turn it left.
#[test]
fn random_direction_round_matches_the_oracle_from_counters_0_and_1() {
    check_algorithm(RandomDirection::new(7), &[0, 1]);
}

#[test]
fn random_direction_round_matches_the_oracle_from_counters_4_and_5() {
    check_algorithm(RandomDirection::new(7), &[4, 5]);
}
