//! Dynamics: how the adversary chooses each snapshot `G_t`.
//!
//! The paper's adversary is *online and adaptive*: it may pick the edges of
//! `G_t` after observing the full configuration `γ_t` (robot positions and
//! states) — this is exactly how the impossibility proofs operate. The
//! [`Dynamics`] trait models that; [`Oblivious`] plugs in the pure
//! time-indexed schedules of `dynring-graph`, [`Streamed`] plays its
//! generated frame streams, [`Recurrent`] repairs any dynamics to a hard
//! recurrence bound online, and [`Capturing`] records the
//! emitted snapshots so adaptive runs can be replayed as pure schedules
//! (feeding the convergence framework).

use dynring_graph::generators::{FrameStream, RecurrenceRepair};
use dynring_graph::{
    EdgeId, EdgeSchedule, EdgeSet, NodeId, RingTopology, ScriptedSchedule, TailBehavior, Time,
};

use crate::RobotSnapshot;

/// What the adversary sees before choosing `G_t`: the time and the full
/// configuration `γ_t` (positions, directions, chirality, moved-flags of
/// every robot).
///
/// Algorithm-internal state is *not* exposed; the paper's adversaries never
/// need it (they know the deterministic algorithm and can simulate it).
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    time: Time,
    ring: &'a RingTopology,
    robots: &'a [RobotSnapshot],
}

impl<'a> Observation<'a> {
    /// Assembles an observation.
    pub fn new(time: Time, ring: &'a RingTopology, robots: &'a [RobotSnapshot]) -> Self {
        Observation { time, ring, robots }
    }

    /// Current time `t` (the snapshot being chosen is `G_t`).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The ring.
    pub fn ring(&self) -> &'a RingTopology {
        self.ring
    }

    /// All robot snapshots, in robot-id order.
    pub fn robots(&self) -> &'a [RobotSnapshot] {
        self.robots
    }

    /// Number of robots standing on `node`.
    pub fn robots_at(&self, node: NodeId) -> usize {
        self.robots.iter().filter(|r| r.node == node).count()
    }

    /// Position of robot `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn position(&self, index: usize) -> NodeId {
        self.robots[index].node
    }

    /// The set of edges currently pointed to by at least one robot (each
    /// robot points to the adjacent edge in its direction).
    pub fn pointed_edges(&self) -> EdgeSet {
        let mut set = EdgeSet::empty_for(self.ring);
        self.pointed_edges_into(&mut set);
        set
    }

    /// Writes the pointed-edge set into `out` without allocating.
    pub fn pointed_edges_into(&self, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        for r in self.robots {
            out.insert(self.ring.edge_towards(r.node, r.global_dir()));
        }
    }
}

/// One point presence query answered by [`Dynamics::probe_edges`]: the
/// engine fills in `edge`, the dynamics fills in `present`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProbe {
    /// The queried edge.
    pub edge: EdgeId,
    /// The answer: is `edge` present in `G_t`? Written by the dynamics.
    pub present: bool,
}

impl EdgeProbe {
    /// A query for `edge`, not yet answered.
    pub fn new(edge: EdgeId) -> Self {
        EdgeProbe {
            edge,
            present: false,
        }
    }
}

/// The adversary: chooses the snapshot `G_t` each round, possibly adaptively.
pub trait Dynamics {
    /// The ring whose edges are being scheduled.
    fn ring(&self) -> &RingTopology;

    /// Chooses the edge set of `G_t` given the observation of `γ_t`.
    ///
    /// Called exactly once per round, with strictly increasing times, so
    /// implementations may keep sequential state.
    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet;

    /// Writes the snapshot `G_t` into `out` without allocating.
    ///
    /// The round engine calls this (never [`Dynamics::edges_at`]) so a
    /// pooled scratch set is reused across rounds. The default delegates to
    /// `edges_at`; allocation-free adversaries override it and exactly one
    /// of the two methods must carry the real choice logic per
    /// implementation (the paper's adversaries implement `edges_at_into`
    /// and derive `edges_at` from it).
    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        *out = self.edges_at(obs);
    }

    /// The sparse fast path: answers point presence queries about `G_t`
    /// without materializing the whole snapshot.
    ///
    /// A round of `k` robots only ever reads the ≤ `2k` edges adjacent to
    /// robot positions, so on the quiet path (no record materialized) the
    /// engine first offers the round to this method. A dynamics that can
    /// answer point queries — pure schedules with random access in time —
    /// fills every query's `present` field, returns `true`, and the O(n)
    /// snapshot scan is skipped entirely: the per-round cost becomes
    /// O(robots), independent of ring size.
    ///
    /// The contract mirrors [`Dynamics::edges_at_into`]: the engine calls
    /// **exactly one** of `probe_edges` / `edges_at_into` per round, with
    /// strictly increasing times, and the answers must agree with what
    /// `edges_at_into` would have produced for the same observation.
    ///
    /// The default returns `false` **without touching queries or state** —
    /// "unsupported, fall back to `edges_at_into` for this round" — so
    /// stateful adversaries that need the full snapshot to advance their
    /// bookkeeping (recurrence repair, recording, the paper's confiners)
    /// are unaffected. Implementations that return `false` must do the
    /// same.
    fn probe_edges(&mut self, _obs: &Observation<'_>, _queries: &mut [EdgeProbe]) -> bool {
        false
    }
}

impl<D: Dynamics + ?Sized> Dynamics for &mut D {
    fn ring(&self) -> &RingTopology {
        (**self).ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        (**self).edges_at(obs)
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        (**self).edges_at_into(obs, out);
    }

    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        (**self).probe_edges(obs, queries)
    }
}

impl<D: Dynamics + ?Sized> Dynamics for Box<D> {
    fn ring(&self) -> &RingTopology {
        (**self).ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        (**self).edges_at(obs)
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        (**self).edges_at_into(obs, out);
    }

    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        (**self).probe_edges(obs, queries)
    }
}

/// An oblivious adversary: plays a pure time-indexed [`EdgeSchedule`],
/// ignoring the robots entirely.
#[derive(Debug, Clone)]
pub struct Oblivious<S> {
    schedule: S,
}

impl<S: EdgeSchedule> Oblivious<S> {
    /// Wraps a schedule.
    pub fn new(schedule: S) -> Self {
        Oblivious { schedule }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &S {
        &self.schedule
    }

    /// Unwraps the schedule.
    pub fn into_inner(self) -> S {
        self.schedule
    }
}

impl<S: EdgeSchedule> Dynamics for Oblivious<S> {
    fn ring(&self) -> &RingTopology {
        self.schedule.ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        self.schedule.edges_at(obs.time())
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        self.schedule.edges_at_into(obs.time(), out);
    }

    /// Pure schedules have random access in time, so every point query is
    /// answered directly — the canonical sparse path.
    ///
    /// Schedules with word-level random access
    /// ([`EdgeSchedule::sampled_presence_word`], e.g. the bit-sliced
    /// Bernoulli sampler) are queried one 64-edge word at a time with a
    /// last-word memo: the two adjacent-edge probes of one robot usually
    /// share a word, so consecutive probes reuse the sampled word instead
    /// of re-running the slice ladder per probe. Schedules without word
    /// access fall back to per-probe [`EdgeSchedule::is_present`].
    fn probe_edges(&mut self, obs: &Observation<'_>, queries: &mut [EdgeProbe]) -> bool {
        answer_probes_from_schedule(&self.schedule, obs.time(), queries);
        true
    }
}

/// Answers point presence queries against a pure schedule, one 64-edge
/// word at a time when the schedule has word-level random access
/// ([`EdgeSchedule::sampled_presence_word`]) and per-probe
/// [`EdgeSchedule::is_present`] otherwise. The single-word memo exploits
/// the probe layout: the two adjacent-edge probes of one robot share a
/// word unless the robot sits on a word boundary. Shared by
/// [`Oblivious`] and the ASYNC `ObliviousAsync`.
pub(crate) fn answer_probes_from_schedule<S: EdgeSchedule>(
    schedule: &S,
    t: dynring_graph::Time,
    queries: &mut [EdgeProbe],
) {
    let mut memo: Option<(usize, u64)> = None;
    for q in queries.iter_mut() {
        let index = q.edge.index();
        let word = index / 64;
        let bits = match memo {
            Some((w, bits)) if w == word => Some(bits),
            _ => {
                let sampled = schedule.sampled_presence_word(t, word);
                if let Some(bits) = sampled {
                    memo = Some((word, bits));
                }
                sampled
            }
        };
        q.present = match bits {
            Some(bits) => (bits >> (index % 64)) & 1 == 1,
            None => schedule.is_present(q.edge, t),
        };
    }
}

/// Online recurrence repair: whatever `inner` decides, every edge (except an
/// optional exempt one) is forced present before its absence run reaches
/// `bound` — the [`RecurrenceRepair`] step applied to each snapshot.
///
/// Wrapping an adversary in `Recurrent` *guarantees* the produced evolving
/// graph is connected-over-time with recurrence bound `bound` — the
/// adversary keeps all its power subject to the paper's fairness
/// obligation.
#[derive(Debug, Clone)]
pub struct Recurrent<D> {
    inner: D,
    repair: RecurrenceRepair,
}

impl<D: Dynamics> Recurrent<D> {
    /// Wraps `inner` with recurrence bound `bound` (≥ 1). `exempt` names an
    /// edge allowed to stay absent forever (the eventual missing edge).
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0` or when `exempt` is not an edge of the ring.
    pub fn new(inner: D, bound: Time, exempt: Option<EdgeId>) -> Self {
        let repair = RecurrenceRepair::new(inner.ring().edge_count(), bound, exempt);
        Recurrent { inner, repair }
    }

    /// The wrapped dynamics.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

// `Recurrent` keeps the refusing `probe_edges` default on purpose: its
// per-edge absence-run bookkeeping must observe the *full* snapshot every
// round, so sparse probing is not legal for it (same for `Capturing`,
// which records whole frames).
impl<D: Dynamics> Dynamics for Recurrent<D> {
    fn ring(&self) -> &RingTopology {
        self.inner.ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        let mut set = EdgeSet::empty_for(self.inner.ring());
        self.edges_at_into(obs, &mut set);
        set
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        self.inner.edges_at_into(obs, out);
        self.repair.apply(out);
    }
}

/// An oblivious adversary over a [`FrameStream`] positioned at time 0: one
/// frame per round, drawn when its round comes. It keeps the refusing
/// `probe_edges` default, since a stream draws every frame whole anyway.
#[derive(Debug, Clone)]
pub struct Streamed<S>(pub S);

impl<S: FrameStream> Dynamics for Streamed<S> {
    fn ring(&self) -> &RingTopology {
        self.0.ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        let mut set = EdgeSet::empty_for(self.0.ring());
        self.edges_at_into(obs, &mut set);
        set
    }

    fn edges_at_into(&mut self, _obs: &Observation<'_>, out: &mut EdgeSet) {
        self.0.next_frame(out);
    }
}

/// Records every snapshot emitted by `inner`, so the (possibly adaptive)
/// run can be replayed later as a pure [`ScriptedSchedule`] — the bridge
/// from adaptive adversaries to the convergence framework.
#[derive(Debug, Clone)]
pub struct Capturing<D> {
    inner: D,
    frames: Vec<EdgeSet>,
}

impl<D: Dynamics> Capturing<D> {
    /// Wraps `inner` with an empty capture buffer.
    pub fn new(inner: D) -> Self {
        Capturing {
            inner,
            frames: Vec::new(),
        }
    }

    /// The frames captured so far.
    pub fn frames(&self) -> &[EdgeSet] {
        &self.frames
    }

    /// The wrapped dynamics.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Builds a pure schedule replaying the captured frames.
    pub fn to_script(&self, tail: TailBehavior) -> ScriptedSchedule {
        ScriptedSchedule::new(self.inner.ring().clone(), self.frames.clone(), tail)
            .expect("captured frames share the dynamics' ring")
    }
}

impl<D: Dynamics> Dynamics for Capturing<D> {
    fn ring(&self) -> &RingTopology {
        self.inner.ring()
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        let set = self.inner.edges_at(obs);
        self.frames.push(set.clone());
        set
    }

    fn edges_at_into(&mut self, obs: &Observation<'_>, out: &mut EdgeSet) {
        // Recording inherently allocates one frame per round; the inner
        // adversary still runs allocation-free.
        self.inner.edges_at_into(obs, out);
        self.frames.push(out.clone());
    }
}

/// Adaptive dynamics from a closure — convenient for tests and one-off
/// adversaries.
pub struct AdaptiveFn<F> {
    ring: RingTopology,
    f: F,
}

impl<F: FnMut(&Observation<'_>) -> EdgeSet> AdaptiveFn<F> {
    /// Wraps a closure choosing each snapshot.
    pub fn new(ring: RingTopology, f: F) -> Self {
        AdaptiveFn { ring, f }
    }
}

impl<F: FnMut(&Observation<'_>) -> EdgeSet> Dynamics for AdaptiveFn<F> {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn edges_at(&mut self, obs: &Observation<'_>) -> EdgeSet {
        (self.f)(obs)
    }
}

impl<F> std::fmt::Debug for AdaptiveFn<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveFn").field("ring", &self.ring).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chirality, LocalDir, RobotId};
    use dynring_graph::{AbsenceIntervals, AlwaysPresent, GlobalDir};

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    fn snap(id: usize, node: usize, dir: LocalDir) -> RobotSnapshot {
        RobotSnapshot {
            id: RobotId::new(id),
            node: NodeId::new(node),
            chirality: Chirality::Standard,
            dir,
            moved_last_round: false,
        }
    }

    #[test]
    fn observation_queries() {
        let r = ring(5);
        let robots = vec![
            snap(0, 1, LocalDir::Right),
            snap(1, 1, LocalDir::Left),
            snap(2, 3, LocalDir::Left),
        ];
        let obs = Observation::new(7, &r, &robots);
        assert_eq!(obs.time(), 7);
        assert_eq!(obs.robots_at(NodeId::new(1)), 2);
        assert_eq!(obs.robots_at(NodeId::new(0)), 0);
        assert_eq!(obs.position(2), NodeId::new(3));
        // r0 at v1 pointing right (cw) → e1; r1 at v1 pointing left (ccw) →
        // e0; r2 at v3 pointing left → e2.
        let pointed = obs.pointed_edges();
        assert!(pointed.contains(EdgeId::new(0)));
        assert!(pointed.contains(EdgeId::new(1)));
        assert!(pointed.contains(EdgeId::new(2)));
        assert_eq!(pointed.len(), 3);
    }

    #[test]
    fn oblivious_plays_the_schedule() {
        let mut g = AbsenceIntervals::new(ring(3));
        g.remove_during(EdgeId::new(1), 2, 4);
        let mut dyns = Oblivious::new(g);
        let r = ring(3);
        let robots: Vec<RobotSnapshot> = Vec::new();
        for t in 0..6u64 {
            let obs = Observation::new(t, &r, &robots);
            let set = dyns.edges_at(&obs);
            assert_eq!(set.contains(EdgeId::new(1)), !(2..4).contains(&t));
        }
    }

    #[test]
    fn recurrent_forces_presence() {
        // Inner adversary: always removes everything.
        let r = ring(3);
        let inner = AdaptiveFn::new(r.clone(), |obs| EdgeSet::empty_for(obs.ring()));
        let mut dyns = Recurrent::new(inner, 3, None);
        let robots: Vec<RobotSnapshot> = Vec::new();
        let mut history = Vec::new();
        for t in 0..9u64 {
            let obs = Observation::new(t, &r, &robots);
            history.push(dyns.edges_at(&obs));
        }
        // Every edge must appear at times 2, 5, 8 (forced by bound 3).
        for e in r.edges() {
            for t in [2usize, 5, 8] {
                assert!(history[t].contains(e), "edge {e} missing at forced {t}");
            }
            for t in [0usize, 1, 3, 4, 6, 7] {
                assert!(!history[t].contains(e), "edge {e} present at {t}");
            }
        }
    }

    #[test]
    fn recurrent_exempts_missing_edge() {
        let r = ring(3);
        let inner = AdaptiveFn::new(r.clone(), |obs| EdgeSet::empty_for(obs.ring()));
        let mut dyns = Recurrent::new(inner, 2, Some(EdgeId::new(0)));
        let robots: Vec<RobotSnapshot> = Vec::new();
        for t in 0..8u64 {
            let obs = Observation::new(t, &r, &robots);
            let set = dyns.edges_at(&obs);
            assert!(!set.contains(EdgeId::new(0)), "exempt edge forced at {t}");
        }
    }

    #[test]
    fn capturing_replays_identically() {
        let r = ring(4);
        let inner = Oblivious::new(AlwaysPresent::new(r.clone()));
        let mut dyns = Capturing::new(Recurrent::new(inner, 4, None));
        let robots: Vec<RobotSnapshot> = Vec::new();
        for t in 0..5u64 {
            let obs = Observation::new(t, &r, &robots);
            dyns.edges_at(&obs);
        }
        let script = dyns.to_script(TailBehavior::AllPresent);
        assert_eq!(script.frame_count(), 5);
        for t in 0..5u64 {
            assert!(script.edges_at(t).is_full());
        }
    }

    #[test]
    fn oblivious_probe_answers_match_the_snapshot() {
        let mut g = AbsenceIntervals::new(ring(5));
        g.remove_during(EdgeId::new(1), 2, 6);
        g.remove_from(EdgeId::new(3), 4);
        let mut dyns = Oblivious::new(g);
        let r = ring(5);
        let robots: Vec<RobotSnapshot> = Vec::new();
        for t in 0..10u64 {
            let obs = Observation::new(t, &r, &robots);
            let snapshot = dyns.edges_at(&obs);
            let mut queries: Vec<EdgeProbe> = r.edges().map(EdgeProbe::new).collect();
            assert!(dyns.probe_edges(&obs, &mut queries));
            for q in &queries {
                assert_eq!(q.present, snapshot.contains(q.edge), "t={t} e={}", q.edge);
            }
        }
    }

    #[test]
    fn recurrent_and_capturing_refuse_probes() {
        // Full-set bookkeeping (absence runs, recorded frames) makes the
        // sparse path illegal for these wrappers: they must decline without
        // touching the queries.
        let r = ring(3);
        let robots: Vec<RobotSnapshot> = Vec::new();
        let obs = Observation::new(0, &r, &robots);
        let mut queries = vec![EdgeProbe::new(EdgeId::new(0))];
        let untouched = queries.clone();

        let inner = Oblivious::new(AlwaysPresent::new(r.clone()));
        let mut recurrent = Recurrent::new(inner.clone(), 4, None);
        assert!(!recurrent.probe_edges(&obs, &mut queries));
        assert_eq!(queries, untouched);

        let mut capturing = Capturing::new(inner);
        assert!(!capturing.probe_edges(&obs, &mut queries));
        assert_eq!(queries, untouched);
        assert!(capturing.frames().is_empty());
    }

    #[test]
    fn adaptive_fn_sees_robots() {
        // Remove the edge clockwise of every robot.
        let r = ring(6);
        let mut dyns = AdaptiveFn::new(r.clone(), |obs| {
            let mut set = EdgeSet::full_for(obs.ring());
            for robot in obs.robots() {
                set.remove(obs.ring().edge_towards(robot.node, GlobalDir::Clockwise));
            }
            set
        });
        let robots = vec![snap(0, 2, LocalDir::Left)];
        let obs = Observation::new(0, &r, &robots);
        let set = dyns.edges_at(&obs);
        assert!(!set.contains(EdgeId::new(2)));
        assert_eq!(set.len(), 5);
    }
}
