//! Generators for evolving-ring dynamics.
//!
//! All generators are deterministic given a seed. Each random generator is
//! a [`FrameStream`]: frame `t` is drawn only when it is asked for, so a run
//! that stops at round `t` pays for `t` frames, not a horizon's worth. The
//! [`ScriptedSchedule`] generators collect their first `horizon` frames
//! from the same streams, so both forms are bit-identical over the script.
//! The repair step [`RecurrenceRepair`] upgrades any frame sequence, online,
//! into one with a *hard* per-edge recurrence bound, which is what the
//! finite-horizon connected-over-time certificates in [`crate::classes`]
//! check for.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::{
    EdgeId, EdgeSchedule, EdgeSet, GraphError, RingTopology, ScriptedSchedule, TailBehavior, Time,
};

/// A schedule drawn one frame at a time, in time order.
pub trait FrameStream {
    /// The ring whose edges the stream drives.
    fn ring(&self) -> &RingTopology;

    /// Writes the next frame into `out`, re-targeted to the ring's universe.
    fn next_frame(&mut self, out: &mut EdgeSet);
}

/// A [`FrameStream`] whose state lives in a closure that adds the next
/// frame's present edges to a cleared set.
struct FnStream<F> {
    ring: RingTopology,
    next: F,
}

impl<F: FnMut(&RingTopology, &mut EdgeSet)> FrameStream for FnStream<F> {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn next_frame(&mut self, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        (self.next)(&self.ring, out);
    }
}

fn stream<F: FnMut(&RingTopology, &mut EdgeSet)>(ring: &RingTopology, next: F) -> FnStream<F> {
    FnStream {
        ring: ring.clone(),
        next,
    }
}

/// The first `horizon` frames of `stream`, then `tail`.
fn script(mut stream: impl FrameStream, horizon: Time, tail: TailBehavior) -> ScriptedSchedule {
    let frames = (0..horizon)
        .map(|_| {
            let mut frame = EdgeSet::empty_for(stream.ring());
            stream.next_frame(&mut frame);
            frame
        })
        .collect();
    ScriptedSchedule::new(stream.ring().clone(), frames, tail).expect("frames built for this ring")
}

/// The online recurrence-repair step: no edge (except `exempt`) stays
/// absent for `bound` or more consecutive frames. Whenever an edge has
/// been absent for `bound - 1` frames, it is forced present in the next.
///
/// The leading window counts: an edge absent since the first frame is
/// forced present at frame `bound - 1` at the latest.
#[derive(Debug, Clone)]
pub struct RecurrenceRepair {
    bound: Time,
    exempt: Option<EdgeId>,
    absent_run: Vec<Time>,
}

impl RecurrenceRepair {
    /// A fresh repair over `edges` edges.
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0` or when `exempt` is not one of the edges.
    pub fn new(edges: usize, bound: Time, exempt: Option<EdgeId>) -> Self {
        assert!(bound >= 1, "recurrence bound must be at least 1");
        if let Some(e) = exempt {
            assert!(
                e.index() < edges,
                "exempt edge {e} outside a ring of {edges} edges"
            );
        }
        RecurrenceRepair {
            bound,
            exempt,
            absent_run: vec![0; edges],
        }
    }

    /// Repairs the next frame in place.
    pub fn apply(&mut self, frame: &mut EdgeSet) {
        for (index, run) in self.absent_run.iter_mut().enumerate() {
            let e = EdgeId::new(index);
            if Some(e) == self.exempt {
                continue;
            }
            if frame.contains(e) {
                *run = 0;
            } else if *run + 1 >= self.bound {
                frame.insert(e);
                *run = 0;
            } else {
                *run += 1;
            }
        }
    }
}

/// Configuration for [`random_connected_over_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomCotConfig {
    /// Per-instant, per-edge presence probability.
    pub presence_probability: f64,
    /// Hard recurrence bound enforced by repair: every (non-missing) edge is
    /// present at least once in every window of this many instants.
    pub recurrence_bound: Time,
    /// Optional eventual missing edge: `(edge, from)` kills `edge` forever
    /// starting at time `from`.
    pub eventual_missing: Option<(EdgeId, Time)>,
}

impl Default for RandomCotConfig {
    fn default() -> Self {
        RandomCotConfig {
            presence_probability: 0.5,
            recurrence_bound: 8,
            eventual_missing: None,
        }
    }
}

/// The stream behind [`random_connected_over_time`]: per frame, Bernoulli
/// presence drawn edge by edge, then the [`RecurrenceRepair`] step (the
/// missing edge exempt), then the eventual missing edge removed from its
/// kill time on.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] for a bad probability and
/// [`GraphError::EdgeOutOfRange`] for a bad missing edge.
pub fn random_cot_stream(
    ring: &RingTopology,
    config: &RandomCotConfig,
    seed: u64,
) -> Result<impl FrameStream, GraphError> {
    let p = config.presence_probability;
    GraphError::check_probability(p)?;
    let missing = config.eventual_missing;
    if let Some((edge, _)) = missing {
        ring.check_edge(edge)?;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let exempt = missing.map(|(edge, _)| edge);
    let mut repair = RecurrenceRepair::new(ring.edge_count(), config.recurrence_bound, exempt);
    let mut t: Time = 0;
    Ok(stream(ring, move |ring, out| {
        for e in ring.edges() {
            if rng.random_bool(p) {
                out.insert(e);
            }
        }
        repair.apply(out);
        if let Some((edge, from)) = missing {
            if t >= from {
                out.remove(edge);
            }
        }
        t += 1;
    }))
}

/// Generates a random connected-over-time ring schedule over
/// `[0, horizon)`: the first `horizon` frames of [`random_cot_stream`]
/// (Bernoulli presence, recurrence repair, optional eventual missing
/// edge). The tail behaviour is [`TailBehavior::Cycle`] with the eventual
/// missing edge re-applied, so the *infinite* schedule is genuinely
/// connected-over-time.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] for a bad probability and
/// [`GraphError::EdgeOutOfRange`] for a bad missing edge.
pub fn random_connected_over_time(
    ring: &RingTopology,
    horizon: Time,
    config: &RandomCotConfig,
    seed: u64,
) -> Result<ScriptedSchedule, GraphError> {
    let mut script = script(
        random_cot_stream(ring, config, seed)?,
        horizon,
        TailBehavior::Cycle,
    );
    if let Some((edge, _)) = config.eventual_missing {
        // Cycling would resurrect the missing edge; holding an explicit tail
        // frame keeps it dead while every other edge stays present forever.
        let mut tail_frame = EdgeSet::full_for(ring);
        tail_frame.remove(edge);
        script.push_frame(tail_frame)?;
        script.set_tail(TailBehavior::HoldLast);
    }
    Ok(script)
}

/// Markov on/off dynamics as a stream: each edge is an independent
/// two-state chain, every edge present at the start.
///
/// `p_off` is the probability that a present edge disappears at the next
/// instant; `p_on` the probability that an absent edge reappears. High
/// `1 - p_off` models *stable* links (long presence runs), low `p_on` models
/// long outages.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] unless both probabilities are
/// within `[0, 1]`.
pub fn markov_stream(
    ring: &RingTopology,
    p_off: f64,
    p_on: f64,
    seed: u64,
) -> Result<impl FrameStream, GraphError> {
    GraphError::check_probability(p_off)?;
    GraphError::check_probability(p_on)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = vec![true; ring.edge_count()];
    Ok(stream(ring, move |_, out| {
        for (i, on) in state.iter_mut().enumerate() {
            if *on {
                out.insert(EdgeId::new(i));
                if rng.random_bool(p_off) {
                    *on = false;
                }
            } else if rng.random_bool(p_on) {
                *on = true;
            }
        }
    }))
}

/// The first `horizon` frames of [`markov_stream`], all edges present
/// afterwards.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] unless both probabilities are
/// within `[0, 1]`.
pub fn markov_on_off(
    ring: &RingTopology,
    horizon: Time,
    p_off: f64,
    p_on: f64,
    seed: u64,
) -> Result<ScriptedSchedule, GraphError> {
    Ok(script(
        markov_stream(ring, p_off, p_on, seed)?,
        horizon,
        TailBehavior::AllPresent,
    ))
}

/// Captures any schedule over `[0, horizon)` and repairs it, frame by
/// frame, to a hard recurrence bound ([`RecurrenceRepair`]).
pub fn enforce_recurrence<S: EdgeSchedule>(
    schedule: &S,
    horizon: Time,
    bound: Time,
    exempt: Option<EdgeId>,
) -> ScriptedSchedule {
    let mut repair = RecurrenceRepair::new(schedule.ring().edge_count(), bound, exempt);
    let mut t = 0;
    let repaired = stream(schedule.ring(), |_, out| {
        schedule.edges_at_into(t, out);
        repair.apply(out);
        t += 1;
    });
    script(repaired, horizon, TailBehavior::AllPresent)
}

/// A *T-interval-connected* ring stream (Kuhn–Lynch–Oshman class, as used
/// by Ilcinkas–Wade for rings): at every instant at most one edge is
/// absent, and the absent edge changes only after at least `stability`
/// instants during which the full ring is present, so the intersection of
/// any window of `stability + 1` consecutive snapshots is connected.
pub fn t_interval_stream(ring: &RingTopology, stability: Time, seed: u64) -> impl FrameStream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut victim, mut outage_left, mut cooldown_left) = (EdgeId::new(0), 0, 0);
    stream(ring, move |ring, out| {
        if outage_left == 0 && cooldown_left == 0 {
            // Pick an edge to suppress for a while, then a full-ring
            // cool-down so window intersections stay connected.
            victim = EdgeId::new(rng.random_range(0..ring.edge_count()));
            outage_left = rng.random_range(1..=stability.max(1));
            cooldown_left = stability;
        }
        out.fill();
        if outage_left > 0 {
            out.remove(victim);
            outage_left -= 1;
        } else {
            cooldown_left -= 1;
        }
    })
}

/// The first `horizon` frames of [`t_interval_stream`], all edges present
/// afterwards.
pub fn t_interval_connected(
    ring: &RingTopology,
    horizon: Time,
    stability: Time,
    seed: u64,
) -> ScriptedSchedule {
    script(
        t_interval_stream(ring, stability, seed),
        horizon,
        TailBehavior::AllPresent,
    )
}

/// A deterministic "sweeping outage": edge `t / dwell mod n` is absent at
/// time `t`. Every edge recurs with gap at most `n · dwell`, so the schedule
/// is connected-over-time; the moving hole stresses algorithms the way the
/// proofs' hand-built schedules do.
pub fn sweeping_outage(ring: &RingTopology, dwell: Time) -> ScriptedSchedule {
    assert!(dwell >= 1, "dwell must be at least 1");
    let n = ring.edge_count() as Time;
    let frames = (0..n * dwell)
        .map(|t| {
            let mut set = EdgeSet::full_for(ring);
            set.remove(EdgeId::new(((t / dwell) % n) as usize));
            set
        })
        .collect();
    ScriptedSchedule::new(ring.clone(), frames, TailBehavior::Cycle)
        .expect("frames built for this ring")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[test]
    fn random_cot_respects_recurrence_bound() {
        let r = ring(6);
        let cfg = RandomCotConfig {
            presence_probability: 0.3,
            recurrence_bound: 5,
            eventual_missing: None,
        };
        let s = random_connected_over_time(&r, 200, &cfg, 11).expect("valid config");
        let gaps = classes::max_recurrence_gaps(&s, 200);
        for (e, gap) in gaps.iter().enumerate() {
            assert!(*gap <= 5, "edge {e} has gap {gap}");
        }
    }

    #[test]
    fn random_cot_eventual_missing_edge_stays_dead() {
        let r = ring(5);
        let cfg = RandomCotConfig {
            presence_probability: 0.6,
            recurrence_bound: 4,
            eventual_missing: Some((EdgeId::new(2), 50)),
        };
        let s = random_connected_over_time(&r, 100, &cfg, 3).expect("valid config");
        for t in 50..300 {
            assert!(!s.is_present(EdgeId::new(2), t), "dead edge alive at {t}");
        }
        // Other edges keep recurring past the script end.
        for e in [0usize, 1, 3, 4] {
            let present_late = (100..200).any(|t| s.is_present(EdgeId::new(e), t));
            assert!(present_late, "edge {e} should recur after the script");
        }
    }

    #[test]
    fn random_cot_is_reproducible() {
        let r = ring(4);
        let cfg = RandomCotConfig::default();
        let a = random_connected_over_time(&r, 64, &cfg, 99).expect("valid");
        let b = random_connected_over_time(&r, 64, &cfg, 99).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn markov_produces_runs() {
        let r = ring(4);
        let s = markov_on_off(&r, 300, 0.05, 0.2, 17).expect("valid probabilities");
        assert_eq!(s.frame_count(), 300);
        // With p_off = 0.05 runs should be long: expect at least one run of
        // ≥ 5 consecutive presences for edge 0.
        let mut run = 0;
        let mut best = 0;
        for t in 0..300u64 {
            if s.is_present(EdgeId::new(0), t) {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        assert!(best >= 5, "longest run {best}");
    }

    /// `frames` repaired in order by one [`RecurrenceRepair`].
    fn repair_recurrence(
        r: &RingTopology,
        mut frames: Vec<EdgeSet>,
        bound: Time,
        exempt: Option<EdgeId>,
    ) -> Vec<EdgeSet> {
        let mut repair = RecurrenceRepair::new(r.edge_count(), bound, exempt);
        frames.iter_mut().for_each(|frame| repair.apply(frame));
        frames
    }

    #[test]
    fn repair_recurrence_bounds_leading_gap() {
        let r = ring(3);
        let frames = vec![EdgeSet::empty_for(&r); 10];
        let repaired = repair_recurrence(&r, frames, 3, None);
        // Every edge must be present at frames 2, 5, 8 (forced).
        for e in r.edges() {
            for t in [2usize, 5, 8] {
                assert!(repaired[t].contains(e), "edge {e} absent at forced {t}");
            }
        }
    }

    #[test]
    fn repair_recurrence_exempts_missing_edge() {
        let r = ring(3);
        let frames = vec![EdgeSet::empty_for(&r); 9];
        let repaired = repair_recurrence(&r, frames, 2, Some(EdgeId::new(1)));
        for frame in &repaired {
            assert!(!frame.contains(EdgeId::new(1)));
        }
    }

    #[test]
    fn t_interval_connected_has_at_most_one_absent_edge() {
        let r = ring(7);
        let s = t_interval_connected(&r, 150, 4, 5);
        for t in 0..150 {
            assert!(s.edges_at(t).absent_count() <= 1, "two holes at {t}");
        }
        let t_conn = classes::t_interval_connectivity(&s, 150);
        assert!(t_conn >= 5, "T-interval connectivity {t_conn}");
    }

    #[test]
    fn sweeping_outage_cycles_the_hole() {
        let r = ring(4);
        let s = sweeping_outage(&r, 3);
        assert_eq!(s.edges_at(0).absent(). next(), Some(EdgeId::new(0)));
        assert_eq!(s.edges_at(3).absent().next(), Some(EdgeId::new(1)));
        assert_eq!(s.edges_at(11).absent().next(), Some(EdgeId::new(3)));
        // Cycle tail.
        assert_eq!(s.edges_at(12).absent().next(), Some(EdgeId::new(0)));
        let gaps = classes::max_recurrence_gaps(&s, 48);
        assert!(gaps.iter().all(|&g| g <= 3));
    }

    #[test]
    fn enforce_recurrence_on_bernoulli() {
        let r = ring(5);
        let raw = crate::BernoulliSchedule::new(r.clone(), 0.2, 8).expect("valid p");
        let repaired = enforce_recurrence(&raw, 120, 6, None);
        let gaps = classes::max_recurrence_gaps(&repaired, 120);
        assert!(gaps.iter().all(|&g| g <= 6), "gaps {gaps:?}");
    }
}
