//! `PEF_2` — §4.2: perpetual exploration of 3-node connected-over-time
//! rings with two robots.

use serde::{Deserialize, Serialize};

use dynring_engine::{Algorithm, BatchAlgorithm, LaneWord, LocalDir, View, ViewWords};

/// `PEF_2` (§4.2): two fully synchronous robots on a 3-node
/// connected-over-time ring.
///
/// The rule, verbatim from the paper: *"If at a time `t`, a robot is
/// isolated on a node with only one adjacent edge, then it points to this
/// edge. Otherwise (i.e., none of the adjacent edges is present, both
/// adjacent edges are present, or the other robot is present on the same
/// node), the robot keeps its current direction."*
///
/// The robot needs no persistent memory beyond its direction variable
/// (which the engine owns), so the state is `()`.
///
/// Correctness (Theorem 4.2) hinges on `n = 3`: whenever a tower forms, all
/// three nodes were visited between the previous and the current instant;
/// and when the robots stay isolated, the single-edge rule steers some
/// robot towards the unvisited node. Theorem 4.1 shows no algorithm — this
/// one included — can cope with `n ≥ 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Pef2;

impl Pef2 {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Pef2
    }
}

impl Algorithm for Pef2 {
    type State = ();

    fn name(&self) -> &str {
        "PEF_2"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        if view.is_isolated() {
            if let Some(single) = view.single_present_edge() {
                return single;
            }
        }
        view.dir()
    }
}

/// The branch-free lane-word circuit at any arity: the retarget mask
/// selects lanes that are isolated with exactly one present edge
/// (`¬others ∧ (left ⊕ right)`); in those lanes the new direction *is*
/// the right-presence bit (right present ⇒ `Right`, else the single edge
/// is left ⇒ `Left`), everywhere else the direction is kept.
impl<W: LaneWord> BatchAlgorithm<W> for Pef2 {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        let retarget = !view.others & (view.edge_left ^ view.edge_right);
        (view.dir & !retarget) | (view.edge_right & retarget)
    }

    fn lane_state(&self, _state: &(), lane: u32) {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_with_single_edge_points_to_it() {
        let alg = Pef2::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Left, false, true, false));
        assert_eq!(d, LocalDir::Right);
        let d = alg.compute(&mut s, &View::new(LocalDir::Right, true, false, false));
        assert_eq!(d, LocalDir::Left);
    }

    #[test]
    fn keeps_direction_with_both_edges() {
        let alg = Pef2::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Left, true, true, false));
        assert_eq!(d, LocalDir::Left);
    }

    #[test]
    fn keeps_direction_with_no_edge() {
        let alg = Pef2::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Right, false, false, false));
        assert_eq!(d, LocalDir::Right);
    }

    #[test]
    fn keeps_direction_in_a_tower_even_with_single_edge() {
        let alg = Pef2::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Left, false, true, true));
        assert_eq!(d, LocalDir::Left);
    }
}
