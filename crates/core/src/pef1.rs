//! `PEF_1` — §5.2: perpetual exploration of 2-node connected-over-time
//! rings with a single robot.

use serde::{Deserialize, Serialize};

use dynring_engine::{Algorithm, BatchAlgorithm, LaneWord, LocalDir, View, ViewWords};

/// `PEF_1` (§5.2): one fully synchronous robot on a 2-node
/// connected-over-time ring.
///
/// The paper: *"As soon as at least one adjacent edge to the current node of
/// the robot is present, its variable `dir` points arbitrarily to one of
/// these edges."* Both readings of a size-2 ring are supported by the
/// engine: the multigraph ring (two parallel edges) and the 2-node chain
/// (the second edge never present).
///
/// "Arbitrarily" is made deterministic the natural way: keep the current
/// direction when its edge is present, otherwise point to the other one.
/// On a 2-node ring *any* present adjacent edge leads to the other node, so
/// every move completes an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Pef1;

impl Pef1 {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Pef1
    }
}

impl Algorithm for Pef1 {
    type State = ();

    fn name(&self) -> &str {
        "PEF_1"
    }

    fn initial_state(&self) {}

    fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
        if view.exists_edge_ahead() {
            view.dir()
        } else if view.exists_edge_behind() {
            view.dir().opposite()
        } else {
            view.dir()
        }
    }
}

/// The branch-free lane-word circuit at any arity: turn exactly in the
/// lanes where the ahead edge is missing but the behind edge is present —
/// `dir ← dir ⊕ (¬ahead ∧ behind)`.
impl<W: LaneWord> BatchAlgorithm<W> for Pef1 {
    type BatchState = ();

    fn initial_batch_state(&self) {}

    fn compute_word(&self, _state: &mut (), view: &ViewWords<W>) -> W {
        view.dir ^ (!view.exists_edge_ahead() & view.exists_edge_behind())
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
    fn keeps_dir_when_its_edge_is_present() {
        let alg = Pef1::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Left, true, true, false));
        assert_eq!(d, LocalDir::Left);
    }

    #[test]
    fn switches_to_the_only_present_edge() {
        let alg = Pef1::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Left, false, true, false));
        assert_eq!(d, LocalDir::Right);
    }

    #[test]
    fn keeps_dir_when_no_edge_is_present() {
        let alg = Pef1::new();
        let mut s = ();
        let d = alg.compute(&mut s, &View::new(LocalDir::Right, false, false, false));
        assert_eq!(d, LocalDir::Right);
    }
}
