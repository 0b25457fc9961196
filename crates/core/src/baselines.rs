//! Baseline algorithms used for ablations and comparative experiments.
//!
//! None of these solve perpetual exploration on the full
//! connected-over-time class; each one isolates a design decision of
//! `PEF_3+`:
//!
//! - [`KeepDirection`] is Rule 1 alone — it suffices *only* when no
//!   eventual missing edge exists (Lemma 3.2's hypothesis);
//! - [`BounceOnMissingEdge`] is the classic static-ring explorer — the
//!   adversary traps it by blinking edges (a robot turning on a missing
//!   edge leaks no progress guarantee);
//! - [`AlwaysTurnOnTower`] violates Rule 2 (the tower-breaking asymmetry):
//!   both robots of a tower turn, so sentinels cannot form;
//! - [`AlternateDirection`] and [`RandomDirection`] are sanity-check
//!   strawmen (the latter stays deterministic through a seeded counter, as
//!   the model requires determinism).

use serde::{Deserialize, Serialize};

use dynring_engine::{Algorithm, BatchAlgorithm, LaneWord, LocalDir, View, ViewWords};

/// Rule 1 alone: never change direction.
///
/// Explores any connected-over-time ring *without* eventual missing edge
/// (every edge recurs, so the robot keeps progressing in one global
/// direction), but parks forever at an eventual missing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KeepDirection;

impl Algorithm for KeepDirection {
    type State = ();

    fn name(&self) -> &str {
        "keep-direction"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        view.dir()
    }
}

/// Lane-word circuit at any arity: the identity.
impl<W: LaneWord> BatchAlgorithm<W> for KeepDirection {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        view.dir
    }

    fn lane_state(&self, _state: &(), lane: u32) {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
    }
}

/// The classic static-ring strategy: turn back whenever the pointed edge is
/// missing.
///
/// Complete on static chains; on highly dynamic rings the adversary blinks
/// edges to shake the robot back and forth without progress (and Theorem
/// 5.1's adversary confines it to two nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BounceOnMissingEdge;

impl Algorithm for BounceOnMissingEdge {
    type State = ();

    fn name(&self) -> &str {
        "bounce-on-missing"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        if view.exists_edge_ahead() {
            view.dir()
        } else {
            view.dir().opposite()
        }
    }
}

/// Lane-word circuit at any arity: flip exactly where the ahead edge is
/// missing.
impl<W: LaneWord> BatchAlgorithm<W> for BounceOnMissingEdge {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        view.dir ^ !view.exists_edge_ahead()
    }

    fn lane_state(&self, _state: &(), lane: u32) {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
    }
}

/// `PEF_3+` without Rule 2: *every* robot involved in a tower turns back,
/// mover or not.
///
/// Ablation target: without the mover/stayer asymmetry, the sentinel role
/// cannot be handed over — when an explorer reaches an extremity of the
/// eventual missing edge, the sentinel turns away with it and the extremity
/// is abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AlwaysTurnOnTower;

impl Algorithm for AlwaysTurnOnTower {
    type State = ();

    fn name(&self) -> &str {
        "always-turn-on-tower"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        if view.other_robots_on_current_node() {
            view.dir().opposite()
        } else {
            view.dir()
        }
    }
}

/// Lane-word circuit at any arity: flip exactly in the tower lanes.
impl<W: LaneWord> BatchAlgorithm<W> for AlwaysTurnOnTower {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        view.dir ^ view.others
    }

    fn lane_state(&self, _state: &(), lane: u32) {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
    }
}

/// Flips direction every round, regardless of anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AlternateDirection;

impl Algorithm for AlternateDirection {
    type State = ();

    fn name(&self) -> &str {
        "alternate-direction"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        view.dir().opposite()
    }
}

/// Lane-word circuit at any arity: complement.
impl<W: LaneWord> BatchAlgorithm<W> for AlternateDirection {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        !view.dir
    }

    fn lane_state(&self, _state: &(), lane: u32) {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
    }
}

/// Pseudo-random direction choice, deterministic given the seed (the model
/// forbids true randomness): round `i` hashes `(seed, i)` to pick a
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomDirection {
    seed: u64,
}

impl RandomDirection {
    /// Creates the baseline with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomDirection { seed }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Algorithm for RandomDirection {
    type State = u64;

    fn name(&self) -> &str {
        "random-direction"
    }

    fn initial_state(&self) -> u64 {
        0
    }

    fn compute(&self, round: &mut u64, _view: &View) -> LocalDir {
        let h = mix64(self.seed ^ *round);
        *round += 1;
        if h & 1 == 0 {
            LocalDir::Left
        } else {
            LocalDir::Right
        }
    }
}

/// Lane-word form at any arity: the direction stream ignores the view,
/// and when every lane computes together the per-lane counters stay
/// equal — one shared counter and one hash serve all `W::LANES` lanes
/// (the chosen direction is broadcast). The batch engine's activation
/// keeps this invariant: a robot acts in every lane or in none, so a
/// round bumps the counter once or leaves it alone.
impl<W: LaneWord> BatchAlgorithm<W> for RandomDirection {
    type BatchState = u64;

    fn initial_batch_state(&self) -> u64 {
        0
    }

    fn compute_word(&self, round: &mut u64, _view: &ViewWords<W>) -> W {
        let h = mix64(self.seed ^ *round);
        *round += 1;
        W::splat(h & 1 == 1)
    }

    fn lane_state(&self, round: &u64, lane: u32) -> u64 {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        *round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(dir: LocalDir, left: bool, right: bool, others: bool) -> View {
        View::new(dir, left, right, others)
    }

    #[test]
    fn keep_direction_never_turns() {
        let alg = KeepDirection;
        let mut s = ();
        for v in [
            view(LocalDir::Left, false, false, true),
            view(LocalDir::Left, true, true, true),
            view(LocalDir::Left, false, true, false),
        ] {
            assert_eq!(alg.compute(&mut s, &v), LocalDir::Left);
        }
    }

    #[test]
    fn bounce_turns_exactly_on_missing_pointed_edge() {
        let alg = BounceOnMissingEdge;
        let mut s = ();
        assert_eq!(
            alg.compute(&mut s, &view(LocalDir::Left, true, false, false)),
            LocalDir::Left
        );
        assert_eq!(
            alg.compute(&mut s, &view(LocalDir::Left, false, true, false)),
            LocalDir::Right
        );
        // Both edges missing: still flips (and then cannot move anyway).
        assert_eq!(
            alg.compute(&mut s, &view(LocalDir::Left, false, false, false)),
            LocalDir::Right
        );
    }

    #[test]
    fn always_turn_on_tower_ignores_moved_flag() {
        let alg = AlwaysTurnOnTower;
        let mut s = ();
        assert_eq!(
            alg.compute(&mut s, &view(LocalDir::Right, true, true, true)),
            LocalDir::Left
        );
        assert_eq!(
            alg.compute(&mut s, &view(LocalDir::Right, true, true, false)),
            LocalDir::Right
        );
    }

    #[test]
    fn alternate_flips_every_round() {
        let alg = AlternateDirection;
        let mut s = ();
        let v = view(LocalDir::Left, true, true, false);
        assert_eq!(alg.compute(&mut s, &v), LocalDir::Right);
        // View dir would have been updated by the engine; simulate that.
        let v = view(LocalDir::Right, true, true, false);
        assert_eq!(alg.compute(&mut s, &v), LocalDir::Left);
    }

    #[test]
    fn random_direction_is_deterministic_per_seed() {
        let a = RandomDirection::new(7);
        let b = RandomDirection::new(7);
        let c = RandomDirection::new(8);
        let v = view(LocalDir::Left, true, true, false);
        let run = |alg: RandomDirection| {
            let mut s = alg.initial_state();
            (0..32).map(|_| alg.compute(&mut s, &v)).collect::<Vec<_>>()
        };
        assert_eq!(run(a), run(b));
        assert_ne!(run(a), run(c));
    }

    #[test]
    fn random_direction_uses_both_directions() {
        let alg = RandomDirection::new(3);
        let mut s = alg.initial_state();
        let v = view(LocalDir::Left, true, true, false);
        let dirs: Vec<LocalDir> = (0..64).map(|_| alg.compute(&mut s, &v)).collect();
        assert!(dirs.contains(&LocalDir::Left));
        assert!(dirs.contains(&LocalDir::Right));
    }
}
