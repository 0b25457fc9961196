//! The serial first-cover kernel: one replica on the quiet path, stopped
//! at its first cover. It reports exactly the `first_cover` of the
//! recording harness ([`crate::run_scenario`]) — pinned equal for every
//! dynamics, scheduler and algorithm — without recording a round.

use dynring_engine::async_exec::AsyncSimulator;
use dynring_engine::{CoverTracker, Dynamics, RobotPlacement, RoundRobinSingle, Simulator};
use dynring_graph::{RingTopology, Time};

use crate::scenario::{
    build_dynamics, with_algorithm, AlgorithmChoice, Scenario, ScenarioError, SchedulerChoice,
};

/// One serial replica: everything but what it plays against.
#[derive(Debug, Clone, Copy)]
pub struct SerialReplica<'a> {
    /// The algorithm under test.
    pub algorithm: AlgorithmChoice,
    /// The ring.
    pub ring: &'a RingTopology,
    /// Initial placements.
    pub placements: &'a [RobotPlacement],
    /// Rounds before the replica is declared uncovered.
    pub horizon: Time,
}

impl SerialReplica<'_> {
    /// First cover on the round simulator against `dynamics` under
    /// `scheduler`, within `horizon` rounds.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Engine`] when the placements are ill-formed for
    /// the ring.
    pub fn first_cover<D: Dynamics>(
        &self,
        dynamics: D,
        scheduler: SchedulerChoice,
    ) -> Result<Option<Time>, ScenarioError> {
        with_algorithm!(self.algorithm, |algorithm| {
            let mut sim = Simulator::new(
                self.ring.clone(),
                algorithm,
                dynamics,
                self.placements.to_vec(),
            )?;
            if scheduler == SchedulerChoice::SsyncRoundRobin {
                sim.set_activation(RoundRobinSingle);
            }
            let mut cover = CoverTracker::new(self.ring.node_count());
            if !cover.observe(0, sim.positions_iter()) {
                sim.run_until(self.horizon, |sim| {
                    cover.observe(sim.time(), sim.positions_iter())
                });
            }
            Ok(cover.first_cover())
        })
    }

    /// The ASYNC twin: the phase-split simulator against `dynamics`, for
    /// `3 × horizon` ticks (one Look-Compute-Move cycle per round). The
    /// first cover is counted in ticks.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Engine`] when the placements are ill-formed for
    /// the ring.
    pub fn first_cover_async<D: Dynamics>(
        &self,
        dynamics: D,
    ) -> Result<Option<Time>, ScenarioError> {
        with_algorithm!(self.algorithm, |algorithm| {
            let mut sim = AsyncSimulator::new(
                self.ring.clone(),
                algorithm,
                dynamics,
                self.placements.to_vec(),
            )?;
            let ticks = self.horizon.saturating_mul(3);
            let mut cover = CoverTracker::new(self.ring.node_count());
            let mut t = 0;
            while !cover.observe(t, sim.positions_iter()) && t < ticks {
                sim.tick_quiet();
                t += 1;
            }
            Ok(cover.first_cover())
        })
    }
}

/// The `first_cover` of [`crate::run_scenario`] on `scenario`, computed by
/// the serial kernel (same dynamics, same SSYNC-blocker activation rule).
///
/// # Errors
///
/// See [`crate::run_scenario`].
pub fn first_cover(scenario: &Scenario) -> Result<Option<Time>, ScenarioError> {
    let ring = RingTopology::new(scenario.ring_size)?;
    let placements = scenario.placement.build(scenario.ring_size);
    let dynamics = build_dynamics(&ring, scenario.dynamics, scenario.seed)?;
    let replica = SerialReplica {
        algorithm: scenario.algorithm,
        ring: &ring,
        placements: &placements,
        horizon: scenario.horizon,
    };
    replica.first_cover(
        dynamics,
        scenario.scheduler.played_against(scenario.dynamics),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, DynamicsChoice, PlacementSpec};

    fn suite(n: usize) -> Vec<DynamicsChoice> {
        vec![
            DynamicsChoice::Static,
            DynamicsChoice::BernoulliRecurrent { p: 0.4, bound: 6 },
            DynamicsChoice::Markov {
                p_off: 0.3,
                p_on: 0.2,
            },
            DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 5,
                edge: n / 2,
                from: 20,
            },
            DynamicsChoice::SweepingOutage { dwell: 2 },
            DynamicsChoice::TIntervalConnected { stability: 3 },
            DynamicsChoice::AlternatingHoles,
            DynamicsChoice::PointedBlocker { budget: 3 },
            DynamicsChoice::SingleConfiner,
            DynamicsChoice::TwoConfiner { patience: 32 },
            DynamicsChoice::SsyncBlocker,
        ]
    }

    #[test]
    fn the_kernel_reports_the_recording_harness_first_cover_everywhere() {
        // The recording harness is the reference: every suite member (all
        // eleven) under both schedulers, for the whole portfolio, on a
        // small ring and on one wider than a 64-edge word.
        let portfolio = AlgorithmChoice::portfolio();
        let mut covered = 0;
        for n in [5usize, 70] {
            assert_eq!(suite(n).len(), 11);
            for (k, seed, placement) in [
                (1, 3u64, PlacementSpec::EvenlySpaced { count: 1 }),
                (2, 11, PlacementSpec::Adjacent { count: 2, start: 1 }),
                (3, 0xBEEF, PlacementSpec::EvenlySpaced { count: 3 }),
            ] {
                for dynamics in suite(n) {
                    for scheduler in [SchedulerChoice::Fsync, SchedulerChoice::SsyncRoundRobin] {
                        for &algorithm in &portfolio {
                            let scenario =
                                Scenario::new(n, placement.clone(), algorithm, dynamics, 240)
                                    .with_seed(seed)
                                    .with_scheduler(scheduler);
                            let reference = run_scenario(&scenario).expect("valid scenario");
                            assert_eq!(
                                first_cover(&scenario).expect("valid scenario"),
                                reference.first_cover,
                                "n={n} k={k} seed={seed} {} {} {}",
                                dynamics.name(),
                                scheduler.name(),
                                algorithm.name()
                            );
                            covered += usize::from(reference.first_cover.is_some());
                        }
                    }
                }
            }
        }
        // Not a vacuous comparison: most runs cover, some never do.
        assert!(covered > 600, "{covered}");
        assert!(covered < 2 * 3 * 11 * 2 * 8, "{covered}");
    }

    #[test]
    fn the_kernel_refuses_what_the_harness_refuses() {
        let bad_edge = Scenario::new(
            4,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 4,
                edge: 9,
                from: 0,
            },
            10,
        );
        assert!(matches!(
            first_cover(&bad_edge),
            Err(ScenarioError::BadEdge { index: 9 })
        ));
        let too_many = Scenario::new(
            3,
            PlacementSpec::EvenlySpaced { count: 3 },
            AlgorithmChoice::Pef3Plus,
            DynamicsChoice::Static,
            10,
        );
        assert!(matches!(
            first_cover(&too_many),
            Err(ScenarioError::Engine(_))
        ));
    }

    #[test]
    fn async_static_runs_count_ticks_and_stop_at_the_cover() {
        let ring = RingTopology::new(6).expect("valid ring");
        let placements = PlacementSpec::EvenlySpaced { count: 2 }.build(6);
        let replica = SerialReplica {
            algorithm: AlgorithmChoice::KeepDirection,
            ring: &ring,
            placements: &placements,
            horizon: 100,
        };
        let static_ring =
            || dynring_engine::Oblivious::new(dynring_graph::AlwaysPresent::new(ring.clone()));
        let sync = replica
            .first_cover(static_ring(), SchedulerChoice::Fsync)
            .expect("valid setup")
            .expect("covers");
        let ticks = replica
            .first_cover_async(static_ring())
            .expect("valid setup")
            .expect("covers");
        // Full activation on a static ring: one round per three ticks.
        assert_eq!(ticks, 3 * sync);
    }
}
