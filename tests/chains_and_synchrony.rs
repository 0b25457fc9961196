//! Two closing remarks of the paper, executed:
//!
//! 1. *"A connected-over-time chain can be seen as a connected-over-time
//!    ring with a missing edge. So, our results are also valid on
//!    connected-over-time chains."* — Table 1 on chains.
//! 2. The synchrony hierarchy: the same task is solvable under FSYNC,
//!    impossible under SSYNC (Di Luna et al.) and impossible under ASYNC
//!    even for a single robot facing a connected-over-time adversary.

use dynring::analysis::VisitLedger;
use dynring::engine::async_exec::{AsyncSimulator, MoveBlocker};
use dynring::engine::{Oblivious, RobotPlacement, Simulator};
use dynring::graph::generators::{self, RandomCotConfig};
use dynring::graph::EdgeId;
use dynring::{
    NodeId, Pef1, Pef3Plus, RingTopology, SingleRobotConfiner, TwoRobotConfiner,
};

/// A random connected-over-time *chain* of `n` nodes: the ring with edge
/// `n-1` never present.
fn chain_schedule(
    n: usize,
    horizon: u64,
    seed: u64,
) -> dynring::graph::ScriptedSchedule {
    let ring = RingTopology::new(n).expect("valid ring");
    let cfg = RandomCotConfig {
        presence_probability: 0.55,
        recurrence_bound: 8,
        eventual_missing: Some((EdgeId::new(n - 1), 0)),
    };
    generators::random_connected_over_time(&ring, horizon, &cfg, seed).expect("valid config")
}

#[test]
fn pef3_explores_connected_over_time_chains() {
    for (n, seed) in [(5usize, 1u64), (7, 2), (9, 3)] {
        let ring = RingTopology::new(n).expect("valid ring");
        let horizon = 400 * n as u64;
        let schedule = chain_schedule(n, horizon, seed);
        let placements = (0..3)
            .map(|i| RobotPlacement::at(NodeId::new(i * (n - 1) / 2)))
            .collect();
        let mut sim = Simulator::new(ring, Pef3Plus, Oblivious::new(schedule), placements)
            .expect("valid setup");
        let trace = sim.run_recording(horizon);
        let ledger = VisitLedger::from_trace(&trace);
        assert!(
            ledger.covers() >= 3,
            "chain n={n}: only {} covers",
            ledger.covers()
        );
    }
}

#[test]
fn pef1_explores_the_two_node_chain() {
    let ring = RingTopology::new(2).expect("valid ring");
    let schedule = chain_schedule(2, 500, 9);
    let mut sim = Simulator::new(
        ring,
        Pef1,
        Oblivious::new(schedule),
        vec![RobotPlacement::at(NodeId::new(0))],
    )
    .expect("valid setup");
    let trace = sim.run_recording(500);
    let ledger = VisitLedger::from_trace(&trace);
    assert!(ledger.covers() >= 3, "{} covers", ledger.covers());
}

#[test]
fn confiners_also_defeat_robots_on_chains() {
    // The impossibility side transfers to chains too: the Theorem 5.1
    // adversary never needs the chain's missing edge anyway (as long as
    // the anchor pair avoids it, which we arrange by starting away from
    // the break).
    let n = 7;
    let ring = RingTopology::new(n).expect("valid ring");
    let adversary = SingleRobotConfiner::new(ring.clone());
    let mut sim = Simulator::new(
        ring,
        dynring::algorithms::baselines::BounceOnMissingEdge,
        adversary,
        vec![RobotPlacement::at(NodeId::new(3))],
    )
    .expect("valid setup");
    let trace = sim.run_recording(500);
    assert!(trace.visited_nodes().len() <= 2);

    let ring = RingTopology::new(7).expect("valid ring");
    let adversary = TwoRobotConfiner::new(ring.clone(), 64);
    let mut sim = Simulator::new(
        ring,
        dynring::algorithms::baselines::BounceOnMissingEdge,
        adversary,
        vec![
            RobotPlacement::at(NodeId::new(2)),
            RobotPlacement::at(NodeId::new(3)),
        ],
    )
    .expect("valid setup");
    let trace = sim.run_recording(700);
    assert!(trace.visited_nodes().len() <= 3);
}

#[test]
fn synchrony_hierarchy_fsync_vs_async() {
    // FSYNC, k = 3: explores a random connected-over-time ring.
    let n = 6;
    let ring = RingTopology::new(n).expect("valid ring");
    let horizon = 1500;
    let cfg = RandomCotConfig::default();
    let schedule = generators::random_connected_over_time(&ring, horizon, &cfg, 31)
        .expect("valid config");
    let placements: Vec<RobotPlacement> = (0..3)
        .map(|i| RobotPlacement::at(NodeId::new(i * 2)))
        .collect();
    let mut fsync = Simulator::new(
        ring.clone(),
        Pef3Plus,
        Oblivious::new(schedule.clone()),
        placements.clone(),
    )
    .expect("valid setup");
    let trace = fsync.run_recording(horizon);
    assert!(trace.covers_all_nodes(), "FSYNC must explore");

    // ASYNC, same algorithm and team, against the move blocker: frozen.
    let mut asim = AsyncSimulator::new(
        ring.clone(),
        Pef3Plus,
        MoveBlocker::new(ring.clone()),
        placements.clone(),
    )
    .expect("valid setup");
    let visited = asim.run_collecting_visits(1500);
    assert_eq!(visited.len(), 3, "ASYNC move blocker must freeze everyone");

    // ASYNC with benign dynamics still works for this algorithm on a
    // static ring — the impossibility is the adversary's doing, not the
    // model bookkeeping.
    let mut benign = AsyncSimulator::new(
        ring.clone(),
        Pef3Plus,
        Oblivious::new(dynring::graph::AlwaysPresent::new(ring)),
        placements,
    )
    .expect("valid setup");
    let visited = benign.run_collecting_visits(600);
    assert_eq!(visited.len(), n, "benign ASYNC run explores the static ring");
}
