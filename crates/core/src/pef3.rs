//! `PEF_3+` — Algorithm 1 of the paper: perpetual exploration in FSYNC with
//! three or more robots, on connected-over-time rings of size `n > k`.

use serde::{Deserialize, Serialize};

use dynring_engine::{Algorithm, BatchAlgorithm, LaneWord, LocalDir, View, ViewWords};

/// Persistent state of a `PEF_3+` robot: the single boolean
/// `HasMovedPreviousStep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Pef3State {
    /// Whether the robot moved during its previous Look-Compute-Move cycle.
    pub has_moved_previous_step: bool,
}

/// Algorithm 1, `PEF_3+` (*Perpetual Exploration in FSYNC with 3 or more
/// robots*).
///
/// The three rules of §3.1:
///
/// 1. **Rule 1** — a robot keeps its direction while not involved in a
///    tower;
/// 2. **Rule 2** — a robot that did *not* move and is joined by another
///    robot keeps its direction (it becomes the *sentinel*);
/// 3. **Rule 3** — a robot that moved onto another robot turns back (the
///    *explorer* bounces off the sentinel).
///
/// The literal pseudocode:
///
/// ```text
/// 1: if HasMovedPreviousStep ∧ ExistsOtherRobotsOnCurrentNode() then
/// 2:     dir ← opposite(dir)
/// 3: end if
/// 4: HasMovedPreviousStep ← ExistsEdge(dir)
/// ```
///
/// Line 4 evaluates `ExistsEdge` with the *new* direction; because the Move
/// phase uses the same snapshot `G_t`, the assigned value equals "this robot
/// will move during this round", i.e. exactly `HasMovedPreviousStep` as seen
/// by the next round.
///
/// Guarantees proved in the paper (and checked by the validators in
/// `dynring-analysis`):
///
/// - no tower ever involves three or more robots (Lemma 3.4);
/// - the two robots of a tower point to opposite global directions while it
///   exists (Lemma 3.3);
/// - with an eventual missing edge, one robot eventually sits forever at
///   each extremity pointing to the dead edge (Lemma 3.7) — the *sentinels*
///   — while the remaining robots shuttle across the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Pef3Plus;

impl Pef3Plus {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Pef3Plus
    }
}

impl Algorithm for Pef3Plus {
    type State = Pef3State;

    fn name(&self) -> &str {
        "PEF_3+"
    }

    fn initial_state(&self) -> Pef3State {
        Pef3State {
            has_moved_previous_step: false,
        }
    }

    fn compute(&self, state: &mut Pef3State, view: &View) -> LocalDir {
        let mut dir = view.dir();
        if state.has_moved_previous_step && view.other_robots_on_current_node() {
            dir = dir.opposite();
        }
        state.has_moved_previous_step = view.exists_edge(dir);
        dir
    }
}

/// The branch-free lane-word circuit at any arity: `HasMovedPreviousStep`
/// is stored bit-sliced as one lane word, and the three rules become
/// three word ops — `flip = moved ∧ others`, `dir ← dir ⊕ flip`,
/// `moved ← ExistsEdge(dir)` (the ahead-select on the *new* direction).
impl<W: LaneWord> BatchAlgorithm<W> for Pef3Plus {
    type BatchState = W;

    fn initial_batch_state(&self) -> W {
        W::ZERO
    }

    fn compute_word(&self, state: &mut W, view: &ViewWords<W>) -> W {
        let flip = *state & view.others;
        let dir = view.dir ^ flip;
        *state = (dir & view.edge_right) | (!dir & view.edge_left);
        dir
    }

    fn lane_state(&self, state: &W, lane: u32) -> Pef3State {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        Pef3State {
            has_moved_previous_step: state.get(lane as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(dir: LocalDir, left: bool, right: bool, others: bool) -> View {
        View::new(dir, left, right, others)
    }

    #[test]
    fn keeps_direction_when_isolated() {
        let alg = Pef3Plus::new();
        let mut s = alg.initial_state();
        let d = alg.compute(&mut s, &view(LocalDir::Left, true, true, false));
        assert_eq!(d, LocalDir::Left);
        assert!(s.has_moved_previous_step);
    }

    #[test]
    fn rule2_sentinel_keeps_direction() {
        // Did not move last step, another robot arrives: keep direction.
        let alg = Pef3Plus::new();
        let mut s = Pef3State {
            has_moved_previous_step: false,
        };
        let d = alg.compute(&mut s, &view(LocalDir::Right, true, true, true));
        assert_eq!(d, LocalDir::Right);
    }

    #[test]
    fn rule3_explorer_turns_back() {
        // Moved last step and landed on another robot: turn back.
        let alg = Pef3Plus::new();
        let mut s = Pef3State {
            has_moved_previous_step: true,
        };
        let d = alg.compute(&mut s, &view(LocalDir::Right, true, true, true));
        assert_eq!(d, LocalDir::Left);
    }

    #[test]
    fn has_moved_tracks_edge_in_new_direction() {
        let alg = Pef3Plus::new();
        // Explorer flips from right to left; only the right edge exists, so
        // after the flip the robot cannot move: HasMoved becomes false.
        let mut s = Pef3State {
            has_moved_previous_step: true,
        };
        let d = alg.compute(&mut s, &view(LocalDir::Right, false, true, true));
        assert_eq!(d, LocalDir::Left);
        assert!(!s.has_moved_previous_step);

        // Isolated robot pointing right with the right edge present: moves.
        let mut s = Pef3State {
            has_moved_previous_step: false,
        };
        let d = alg.compute(&mut s, &view(LocalDir::Right, false, true, false));
        assert_eq!(d, LocalDir::Right);
        assert!(s.has_moved_previous_step);
    }

    #[test]
    fn blocked_sentinel_never_sets_has_moved() {
        // A sentinel pointing at a missing edge keeps dir and HasMoved stays
        // false forever — so it can never be forced to turn (Rule 2 only).
        let alg = Pef3Plus::new();
        let mut s = alg.initial_state();
        for _ in 0..5 {
            let d = alg.compute(&mut s, &view(LocalDir::Left, false, true, true));
            assert_eq!(d, LocalDir::Left);
            assert!(!s.has_moved_previous_step);
        }
    }

    #[test]
    fn no_flip_without_other_robots_even_after_moving() {
        let alg = Pef3Plus::new();
        let mut s = Pef3State {
            has_moved_previous_step: true,
        };
        let d = alg.compute(&mut s, &view(LocalDir::Left, true, false, false));
        assert_eq!(d, LocalDir::Left);
    }
}
