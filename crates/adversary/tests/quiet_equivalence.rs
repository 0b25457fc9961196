//! Quiet-path equivalence on probe-refusing dynamics.
//!
//! `Recurrent`, `Capturing` and `PointedEdgeBlocker` decline
//! `Dynamics::probe_edges` (the first two need the full snapshot every
//! round, the blocker chooses a whole one), so the engine's quiet path
//! falls back to `edges_at_into`. These tests pin that the fallback is exact: the same
//! scenario driven through `step_quiet()` (the quiet path) and through
//! `step()` (the recording path, which always materializes the full
//! snapshot) produces identical traces round for round — positions,
//! directions, moved flags, algorithm state, and, for `Capturing`, the
//! recorded frames themselves.

use dynring_adversary::PointedEdgeBlocker;
use dynring_engine::{
    Algorithm, Capturing, Chirality, Dynamics, LocalDir, Oblivious, Recurrent, RobotId,
    RobotPlacement, Simulator, View,
};
use dynring_graph::{BernoulliSchedule, EdgeId, NodeId, RingTopology, TailBehavior};

/// Bounces on missing edges, counting computes in its persistent state —
/// direction, movement and state all depend on the presence bits, so any
/// quiet/recorded divergence in the snapshot shows up in the trace.
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

fn ring(n: usize) -> RingTopology {
    RingTopology::new(n).expect("valid ring")
}

fn placements(n: usize, k: usize) -> Vec<RobotPlacement> {
    (0..k)
        .map(|i| {
            let chirality = if i % 2 == 0 {
                Chirality::Standard
            } else {
                Chirality::Mirrored
            };
            RobotPlacement::at(NodeId::new(i * n / k)).with_chirality(chirality)
        })
        .collect()
}

/// Runs two identical simulators — one on the quiet path, one on the
/// recording path — and asserts the full observable trace is identical.
fn assert_quiet_matches_recorded<D: Dynamics>(
    make: impl Fn() -> Simulator<Bounce, D>,
    rounds: u64,
) {
    let mut quiet = make();
    let mut recorded = make();
    for round in 0..rounds {
        quiet.step_quiet();
        recorded.step();
        assert_eq!(
            quiet.snapshots(),
            recorded.snapshots(),
            "round {round}: quiet and recorded configurations diverged"
        );
        assert_eq!(quiet.time(), recorded.time(), "round {round}");
    }
    for id in 0..quiet.robot_count() {
        assert_eq!(
            quiet.state_of(RobotId::new(id)),
            recorded.state_of(RobotId::new(id)),
            "robot {id}: algorithm state diverged"
        );
    }
}

#[test]
fn recurrent_quiet_trace_matches_recorded_trace() {
    let n = 11;
    let r = ring(n);
    assert_quiet_matches_recorded(
        || {
            let schedule = BernoulliSchedule::new(r.clone(), 0.25, 0xA11CE).expect("valid p");
            Simulator::new(
                r.clone(),
                Bounce,
                Recurrent::new(Oblivious::new(schedule), 5, Some(EdgeId::new(2))),
                placements(n, 3),
            )
            .expect("valid setup")
        },
        300,
    );
}

#[test]
fn pointed_edge_blocker_quiet_trace_matches_recorded_trace() {
    for (budget, exempt) in [(1u64, None), (4, Some(EdgeId::new(0)))] {
        let n = 9;
        let r = ring(n);
        assert_quiet_matches_recorded(
            || {
                Simulator::new(
                    r.clone(),
                    Bounce,
                    PointedEdgeBlocker::new(r.clone(), budget, exempt),
                    placements(n, 2),
                )
                .expect("valid setup")
            },
            300,
        );
    }
}

#[test]
fn capturing_quiet_trace_and_frames_match_recorded() {
    // Capturing must record the same frames on both paths: the quiet
    // path's fallback hands it the same per-round snapshots the
    // recording path materializes.
    let n = 10;
    let r = ring(n);
    let make = || {
        let schedule = BernoulliSchedule::new(r.clone(), 0.5, 0xBEEF).expect("valid p");
        Simulator::new(
            r.clone(),
            Bounce,
            Capturing::new(Oblivious::new(schedule)),
            placements(n, 3),
        )
        .expect("valid setup")
    };
    let mut quiet = make();
    let mut recorded = make();
    for round in 0..200 {
        quiet.step_quiet();
        recorded.step();
        assert_eq!(quiet.snapshots(), recorded.snapshots(), "round {round}");
    }
    let quiet_frames = quiet.dynamics().frames();
    let recorded_frames = recorded.dynamics().frames();
    assert_eq!(quiet_frames.len(), 200, "quiet path must capture every round");
    assert_eq!(quiet_frames, recorded_frames, "captured frames diverged");
    assert_eq!(
        quiet.dynamics().to_script(TailBehavior::AllPresent),
        recorded.dynamics().to_script(TailBehavior::AllPresent),
    );
}
