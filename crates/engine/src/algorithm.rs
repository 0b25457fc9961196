//! The deterministic robot algorithm abstraction, scalar and batch forms.

use std::fmt;

use dynring_graph::LaneWord;

use crate::{LocalDir, View, ViewWords};

/// A deterministic robot algorithm, executed identically by every robot
/// (robots are *uniform*) with no access to identifiers (robots are
/// *anonymous*).
///
/// The algorithm owns two things:
///
/// - a persistent [`Algorithm::State`] (the robot's memory across rounds);
/// - the Compute rule: given the state and the Look-phase [`View`], update
///   the state and return the new direction.
///
/// The engine stores the direction variable and performs the Move phase; an
/// algorithm therefore *only* decides directions — exactly the paper's
/// "designing an algorithm consists in choosing when we want a robot to
/// keep its direction and when we want it to change its direction".
///
/// Determinism is required: [`Algorithm::compute`] must be a pure function
/// of `(state, view)` (up to its own state update). Pseudo-random baselines
/// keep a seeded counter in their state to stay deterministic.
pub trait Algorithm {
    /// The robot's persistent memory.
    type State: Clone + fmt::Debug + PartialEq;

    /// A short human-readable name (used in reports and benches).
    fn name(&self) -> &str;

    /// The state every robot starts with.
    fn initial_state(&self) -> Self::State;

    /// The Compute phase: observe `view`, update `state`, return the new
    /// direction (the Move phase will cross that edge iff it is present in
    /// the same snapshot the view was taken from).
    fn compute(&self, state: &mut Self::State, view: &View) -> LocalDir;
}

impl<A: Algorithm> Algorithm for &A {
    type State = A::State;

    fn name(&self) -> &str {
        (**self).name()
    }

    fn initial_state(&self) -> Self::State {
        (**self).initial_state()
    }

    fn compute(&self, state: &mut Self::State, view: &View) -> LocalDir {
        (**self).compute(state, view)
    }
}

/// The lane-word form of an [`Algorithm`], for the lockstep batch engine
/// ([`crate::BatchSimulator`]): one Compute call advances the same robot
/// in `W::LANES` independent replicas at once. The arity `W`
/// ([`LaneWord`]) defaults to `u64`, so `A: BatchAlgorithm` keeps meaning
/// the original 64-lane form.
///
/// The contract mirrors the scalar one lane by lane: for every lane `l`,
/// [`BatchAlgorithm::compute_word`] must behave exactly as
/// [`Algorithm::compute`] on the scalar view [`ViewWords::lane`]`(l)` and
/// the scalar state [`BatchAlgorithm::lane_state`]`(l)` — same returned
/// direction (lane `l` of the result, [`ViewWords::dir_bit`] encoding),
/// same state update. The batch engine's lane-vs-serial equivalence
/// proptests pin this for every implementation.
///
/// Implementations fall in two camps:
///
/// - **boolean circuits** over the view words (the portfolio algorithms:
///   `PEF_1`/`PEF_2`/`PEF_3+` and the baselines) — branch-free,
///   `W::LANES` replicas per word operation, with the per-robot state
///   itself stored bit-sliced (e.g. `PEF_3+`'s `HasMovedPreviousStep` is
///   one lane word);
/// - **the scalar fallback** [`PerLane`], which keeps one scalar state
///   per lane and loops [`Algorithm::compute`] over the lanes — every
///   algorithm works in the batch engine from day one, just without the
///   word-level speedup.
pub trait BatchAlgorithm<W: LaneWord = u64>: Algorithm {
    /// One robot's persistent memory across all `W::LANES` lanes
    /// (bit-sliced for circuit implementations, `Vec<State>` for the
    /// scalar fallback).
    type BatchState: Clone + fmt::Debug;

    /// The batch state with every lane at [`Algorithm::initial_state`].
    fn initial_batch_state(&self) -> Self::BatchState;

    /// The Compute phase for all `W::LANES` lanes of one robot: observe
    /// `view`, update `state`, return the new direction word (lane `l`
    /// set ⇔ lane `l` now points `Right`).
    fn compute_word(&self, state: &mut Self::BatchState, view: &ViewWords<W>) -> W;

    /// The scalar state of lane `lane` (observer-side: equivalence tests
    /// and Monte Carlo inspection).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `lane ≥ W::LANES`.
    fn lane_state(&self, state: &Self::BatchState, lane: u32) -> Self::State;
}

/// The lane-by-lane scalar fallback: runs any [`Algorithm`] in the batch
/// engine by keeping one scalar state per lane and calling
/// [`Algorithm::compute`] once per lane.
///
/// No word-level speedup — the point is universality: an algorithm
/// without a boolean-circuit [`BatchAlgorithm`] implementation still gets
/// the batch engine's shared Look phase (one slice ladder per edge for
/// all lanes of a plane) and its SoA bookkeeping, at any arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerLane<A>(pub A);

impl<A: Algorithm> Algorithm for PerLane<A> {
    type State = A::State;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn initial_state(&self) -> Self::State {
        self.0.initial_state()
    }

    fn compute(&self, state: &mut Self::State, view: &View) -> LocalDir {
        self.0.compute(state, view)
    }
}

impl<A: Algorithm, W: LaneWord> BatchAlgorithm<W> for PerLane<A> {
    type BatchState = Vec<A::State>;

    fn initial_batch_state(&self) -> Self::BatchState {
        (0..W::LANES).map(|_| self.0.initial_state()).collect()
    }

    fn compute_word(&self, state: &mut Self::BatchState, view: &ViewWords<W>) -> W {
        debug_assert_eq!(state.len(), W::LANES, "one scalar state per lane");
        let mut dir = W::ZERO;
        for (lane, slot) in state.iter_mut().enumerate() {
            let scalar = view.lane(lane as u32);
            dir.set(lane, ViewWords::dir_bit(self.0.compute(slot, &scalar)) == 1);
        }
        dir
    }

    fn lane_state(&self, state: &Self::BatchState, lane: u32) -> Self::State {
        state[lane as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Bouncer;

    impl Algorithm for Bouncer {
        type State = u32;

        fn name(&self) -> &str {
            "bouncer"
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

    #[test]
    fn state_persists_across_compute_calls() {
        let alg = Bouncer;
        let mut state = alg.initial_state();
        let view = View::new(LocalDir::Left, true, true, false);
        let d1 = alg.compute(&mut state, &view);
        let d2 = alg.compute(&mut state, &view);
        assert_eq!(state, 2);
        assert_eq!(d1, LocalDir::Left);
        assert_eq!(d2, LocalDir::Left);
    }

    #[test]
    fn per_lane_fallback_matches_scalar_compute_in_every_lane() {
        let batch = PerLane(Bouncer);
        let mut batch_state = BatchAlgorithm::<u64>::initial_batch_state(&batch);
        // A different view per lane: cycle the 16 observable combinations.
        let views: Vec<View> = (0..16u32)
            .map(|bits| {
                View::new(
                    ViewWords::dir_from_bit(bits & 1 == 1),
                    bits & 2 != 0,
                    bits & 4 != 0,
                    bits & 8 != 0,
                )
            })
            .collect();
        let words: ViewWords = ViewWords::from_lanes(&views);
        let mut scalar_states: Vec<u32> = (0..64).map(|_| Bouncer.initial_state()).collect();
        for round in 0..5 {
            let dir_word = BatchAlgorithm::<u64>::compute_word(&batch, &mut batch_state, &words);
            for lane in 0..64u32 {
                let view = words.lane(lane);
                let expected = Bouncer.compute(&mut scalar_states[lane as usize], &view);
                assert_eq!(
                    ViewWords::dir_from_bit((dir_word >> lane) & 1 == 1),
                    expected,
                    "round {round} lane {lane}"
                );
                assert_eq!(
                    BatchAlgorithm::<u64>::lane_state(&batch, &batch_state, lane),
                    scalar_states[lane as usize],
                    "round {round} lane {lane} state"
                );
            }
        }
    }

    #[test]
    fn per_lane_fallback_runs_at_every_arity() {
        use dynring_graph::{LaneWord, Lanes128, Lanes256};

        fn check<W: LaneWord>() {
            let batch = PerLane(Bouncer);
            let mut batch_state: Vec<u32> = BatchAlgorithm::<W>::initial_batch_state(&batch);
            assert_eq!(batch_state.len(), W::LANES);
            let views: Vec<View> = (0..16u32)
                .map(|bits| {
                    View::new(
                        ViewWords::dir_from_bit(bits & 1 == 1),
                        bits & 2 != 0,
                        bits & 4 != 0,
                        bits & 8 != 0,
                    )
                })
                .collect();
            let words: ViewWords<W> = ViewWords::from_lanes(&views);
            let mut scalar_states: Vec<u32> =
                (0..W::LANES).map(|_| Bouncer.initial_state()).collect();
            let dir_word = batch.compute_word(&mut batch_state, &words);
            for (lane, state) in scalar_states.iter_mut().enumerate() {
                let view = words.lane(lane as u32);
                let expected = Bouncer.compute(state, &view);
                assert_eq!(
                    ViewWords::dir_from_bit(dir_word.get(lane)),
                    expected,
                    "lane {lane}"
                );
            }
        }
        check::<u64>();
        check::<Lanes128>();
        check::<Lanes256>();
    }

    #[test]
    fn reference_impl_delegates() {
        let alg = Bouncer;
        let by_ref: &Bouncer = &alg;
        assert_eq!(by_ref.name(), "bouncer");
        let mut state = by_ref.initial_state();
        let view = View::new(LocalDir::Left, false, true, false);
        assert_eq!(by_ref.compute(&mut state, &view), LocalDir::Right);
    }
}
