//! Edge-presence schedules: the "dynamics" of an evolving graph.
//!
//! A schedule is a total function `(edge, time) ↦ present?`. The paper's
//! evolving graph `G = {G_0, G_1, …}` is recovered by taking
//! [`EdgeSchedule::edges_at`] for each instant. The proofs repeatedly use the
//! operator `G \ {(e_1, τ_1), …, (e_k, τ_k)}` (remove edge `e_i` during time
//! set `τ_i`); [`RemovalTable`], [`Minus`] and [`AbsenceIntervals`] implement
//! exactly that operator.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{EdgeId, EdgeSet, GraphError, RingTopology, Time};

/// A half-open interval of time `[start, end)`; `end = None` means "forever".
///
/// The paper writes inclusive time sets `{t, …, t′}`; the equivalent here is
/// `TimeInterval::bounded(t, t′ + 1)`.
///
/// ```rust
/// use dynring_graph::TimeInterval;
/// let i = TimeInterval::bounded(3, 7);
/// assert!(i.contains(3) && i.contains(6) && !i.contains(7));
/// assert!(TimeInterval::from_instant(5).contains(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeInterval {
    start: Time,
    end: Option<Time>,
}

impl TimeInterval {
    /// The bounded interval `[start, end)`. An interval with `end <= start`
    /// is empty (it contains no instant); empty intervals are accepted and
    /// behave as no-ops when inserted into a [`RemovalTable`].
    pub fn bounded(start: Time, end: Time) -> Self {
        TimeInterval {
            start,
            end: Some(end),
        }
    }

    /// The unbounded interval `[start, ∞)`.
    pub fn from_instant(start: Time) -> Self {
        TimeInterval { start, end: None }
    }

    /// Start of the interval (inclusive).
    pub fn start(&self) -> Time {
        self.start
    }

    /// End of the interval (exclusive), `None` when unbounded.
    pub fn end(&self) -> Option<Time> {
        self.end
    }

    /// `true` when the interval contains no instant.
    pub fn is_empty(&self) -> bool {
        matches!(self.end, Some(end) if end <= self.start)
    }

    /// `true` when the interval is `[start, ∞)`.
    pub fn is_unbounded(&self) -> bool {
        self.end.is_none()
    }

    /// `true` when `t` lies in the interval.
    pub fn contains(&self, t: Time) -> bool {
        t >= self.start && self.end.is_none_or(|end| t < end)
    }

    /// `true` when the two intervals overlap or touch (so that merging them
    /// yields a single interval).
    pub fn touches(&self, other: &TimeInterval) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        let (a, b) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        a.end.is_none_or(|end| end >= b.start)
    }

    /// Merges two touching intervals into their union.
    ///
    /// # Panics
    ///
    /// Panics if the intervals neither overlap nor touch.
    pub fn merge(&self, other: &TimeInterval) -> TimeInterval {
        assert!(self.touches(other), "cannot merge disjoint intervals");
        let start = self.start.min(other.start);
        let end = match (self.end, other.end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        TimeInterval { start, end }
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(f, "[{}, {})", self.start, end),
            None => write!(f, "[{}, ∞)", self.start),
        }
    }
}

/// Per-edge table of *absence* intervals — the `\ {(e, τ)}` operator.
///
/// Intervals for a given edge are kept sorted, non-empty and merged, so the
/// table is a canonical representation of "when is each edge forcibly
/// absent".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemovalTable {
    absences: BTreeMap<EdgeId, Vec<TimeInterval>>,
}

impl RemovalTable {
    /// An empty table (nothing removed).
    pub fn new() -> Self {
        RemovalTable::default()
    }

    /// Marks `edge` absent during `interval`. Empty intervals are ignored.
    pub fn insert(&mut self, edge: EdgeId, interval: TimeInterval) {
        if interval.is_empty() {
            return;
        }
        let entry = self.absences.entry(edge).or_default();
        entry.push(interval);
        entry.sort_by_key(|iv| iv.start());
        // Merge touching intervals to keep the representation canonical.
        let mut merged: Vec<TimeInterval> = Vec::with_capacity(entry.len());
        for iv in entry.drain(..) {
            match merged.last_mut() {
                Some(last) if last.touches(&iv) => *last = last.merge(&iv),
                _ => merged.push(iv),
            }
        }
        *entry = merged;
    }

    /// `true` when `edge` is marked absent at time `t`.
    pub fn is_absent(&self, edge: EdgeId, t: Time) -> bool {
        let Some(intervals) = self.absences.get(&edge) else {
            return false;
        };
        // Binary search on start times; the candidate interval is the last
        // one starting at or before `t`.
        let idx = intervals.partition_point(|iv| iv.start() <= t);
        idx > 0 && intervals[idx - 1].contains(t)
    }

    /// The (canonical) absence intervals recorded for `edge`.
    pub fn intervals(&self, edge: EdgeId) -> &[TimeInterval] {
        self.absences.get(&edge).map_or(&[], Vec::as_slice)
    }

    /// Iterates over `(edge, intervals)` pairs in edge order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[TimeInterval])> + '_ {
        self.absences.iter().map(|(&e, v)| (e, v.as_slice()))
    }

    /// Edges that are absent forever after some time (unbounded interval).
    pub fn eventually_missing(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.absences.iter().filter_map(|(&e, ivs)| {
            ivs.iter().any(TimeInterval::is_unbounded).then_some(e)
        })
    }

    /// `true` when the table removes nothing.
    pub fn is_empty(&self) -> bool {
        self.absences.is_empty()
    }
}

/// A total edge-presence function: the dynamics of an evolving graph.
///
/// Implementations must be *pure*: the same `(edge, t)` always yields the
/// same answer. Adaptive adversaries (whose choices depend on robot
/// configurations) live one level up, in `dynring-engine`'s `Dynamics`
/// trait; any adaptive run can be captured back into a pure
/// [`ScriptedSchedule`].
pub trait EdgeSchedule {
    /// The ring whose edges this schedule drives.
    fn ring(&self) -> &RingTopology;

    /// `true` when `edge` is present at time `t`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `edge` is not an edge of
    /// [`EdgeSchedule::ring`] (hot-path implementations downgrade the
    /// check to a debug assertion; use [`EdgeSchedule::try_is_present`]
    /// when validity is not guaranteed).
    fn is_present(&self, edge: EdgeId, t: Time) -> bool;

    /// Fallible presence query: returns [`GraphError::EdgeOutOfRange`]
    /// instead of panicking on a foreign edge, so callers that cannot
    /// guarantee validity keep the error-handling path.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] when `edge` is not an edge of
    /// [`EdgeSchedule::ring`].
    fn try_is_present(&self, edge: EdgeId, t: Time) -> Result<bool, GraphError> {
        self.ring().check_edge(edge)?;
        Ok(self.is_present(edge, t))
    }

    /// The snapshot `E_t`: every edge present at time `t`.
    fn edges_at(&self, t: Time) -> EdgeSet {
        let mut set = EdgeSet::empty_for(self.ring());
        self.edges_at_into(t, &mut set);
        set
    }

    /// Writes the snapshot `E_t` into `out` without allocating.
    ///
    /// `out` is re-targeted to this schedule's universe ([`EdgeSet::reset`])
    /// so any scratch set can be passed in; its allocation is reused. The
    /// default implementation queries [`EdgeSchedule::is_present`] per
    /// edge; implementations with a cheaper snapshot representation should
    /// override it — this is the hot path of the round engine.
    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        out.reset(self.ring().edge_count());
        for e in self.ring().edges() {
            if self.is_present(e, t) {
                out.insert(e);
            }
        }
    }

    /// Samples the single 64-edge presence word `word` — the memberships
    /// of edges `[64·word, 64·word + 64)` — of the snapshot `E_t`, when
    /// the schedule has cheap word-level random access.
    ///
    /// Returns `None` when the schedule has no such access (the default);
    /// callers then fall back to per-edge [`EdgeSchedule::is_present`]
    /// queries or the full [`EdgeSchedule::edges_at_into`] scan. A
    /// `Some(bits)` answer must be **bit-for-bit** the corresponding word
    /// of `edges_at(t)`, including the masked tail: bits at positions at
    /// or beyond the universe are zero.
    ///
    /// This is the sparse-sampling entry point for large rings: consumers
    /// that only need the few words covering robot positions (the engine's
    /// probe path) request exactly those instead of filling all
    /// `n.div_ceil(64)` words.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `word` is not a word index of the
    /// ring (`word ≥ edge_count().div_ceil(64)`).
    fn sampled_presence_word(&self, _t: Time, _word: usize) -> Option<u64> {
        None
    }

    /// Union of the snapshots over `[0, horizon)` — a finite-horizon
    /// approximation of the underlying graph's edge set `E_G`.
    fn footprint(&self, horizon: Time) -> EdgeSet {
        let mut acc = EdgeSet::empty_for(self.ring());
        let mut frame = EdgeSet::empty_for(self.ring());
        for t in 0..horizon {
            self.edges_at_into(t, &mut frame);
            acc.union_with(&frame);
        }
        acc
    }
}

impl<S: EdgeSchedule + ?Sized> EdgeSchedule for &S {
    fn ring(&self) -> &RingTopology {
        (**self).ring()
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        (**self).is_present(edge, t)
    }

    fn try_is_present(&self, edge: EdgeId, t: Time) -> Result<bool, GraphError> {
        (**self).try_is_present(edge, t)
    }

    fn edges_at(&self, t: Time) -> EdgeSet {
        (**self).edges_at(t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        (**self).edges_at_into(t, out);
    }

    fn sampled_presence_word(&self, t: Time, word: usize) -> Option<u64> {
        (**self).sampled_presence_word(t, word)
    }
}

impl<S: EdgeSchedule + ?Sized> EdgeSchedule for Box<S> {
    fn ring(&self) -> &RingTopology {
        (**self).ring()
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        (**self).is_present(edge, t)
    }

    fn try_is_present(&self, edge: EdgeId, t: Time) -> Result<bool, GraphError> {
        (**self).try_is_present(edge, t)
    }

    fn edges_at(&self, t: Time) -> EdgeSet {
        (**self).edges_at(t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        (**self).edges_at_into(t, out);
    }

    fn sampled_presence_word(&self, t: Time, word: usize) -> Option<u64> {
        (**self).sampled_presence_word(t, word)
    }
}

/// The static ring: every edge present at every instant.
///
/// This is the graph `G` used as the starting point of both impossibility
/// proofs ("all the edges of `U_G` are present at each time").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlwaysPresent {
    ring: RingTopology,
}

impl AlwaysPresent {
    /// Creates the static schedule over `ring`.
    pub fn new(ring: RingTopology) -> Self {
        AlwaysPresent { ring }
    }
}

impl EdgeSchedule for AlwaysPresent {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn is_present(&self, edge: EdgeId, _t: Time) -> bool {
        self.ring
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        true
    }

    fn edges_at(&self, _t: Time) -> EdgeSet {
        EdgeSet::full_for(&self.ring)
    }

    fn edges_at_into(&self, _t: Time, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        out.fill();
    }

    fn sampled_presence_word(&self, _t: Time, word: usize) -> Option<u64> {
        Some(presence_word_mask(self.ring.edge_count(), word))
    }
}

/// The mask of meaningful bits in 64-edge word `word` of a ring with
/// `universe` edges (the [`EdgeSet`] masked-tail invariant at word level).
///
/// # Panics
///
/// Panics when `word` is not a word index of the ring.
fn presence_word_mask(universe: usize, word: usize) -> u64 {
    assert!(
        word < universe.div_ceil(64),
        "word {word} outside universe of {universe} edges"
    );
    let bits = universe - word * 64;
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// What a [`ScriptedSchedule`] does after its recorded frames run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TailBehavior {
    /// Repeat the last frame forever (an eventual fixed graph).
    HoldLast,
    /// Cycle through the frames again (periodic continuation).
    Cycle,
    /// All edges present forever (the safe, connected-over-time default).
    #[default]
    AllPresent,
    /// All edges absent forever. **Not** connected-over-time; intended for
    /// negative tests only.
    AllAbsent,
}

/// A schedule given explicitly as a finite list of snapshots plus a
/// [`TailBehavior`] for all later instants.
///
/// This is the workhorse for captured adversarial runs, generated random
/// dynamics, and the convergence framework.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedSchedule {
    ring: RingTopology,
    frames: Vec<EdgeSet>,
    tail: TailBehavior,
}

impl ScriptedSchedule {
    /// Creates a scripted schedule from explicit frames.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::FrameSizeMismatch`] when any frame's universe
    /// differs from the ring's edge count.
    pub fn new(
        ring: RingTopology,
        frames: Vec<EdgeSet>,
        tail: TailBehavior,
    ) -> Result<Self, GraphError> {
        for frame in &frames {
            if frame.universe() != ring.edge_count() {
                return Err(GraphError::FrameSizeMismatch {
                    expected: ring.edge_count(),
                    found: frame.universe(),
                });
            }
        }
        Ok(ScriptedSchedule { ring, frames, tail })
    }

    /// An empty script (tail behaviour applies from time 0).
    pub fn empty(ring: RingTopology, tail: TailBehavior) -> Self {
        ScriptedSchedule {
            ring,
            frames: Vec::new(),
            tail,
        }
    }

    /// Records `schedule`'s first `horizon` snapshots into a script.
    pub fn capture<S: EdgeSchedule>(schedule: &S, horizon: Time, tail: TailBehavior) -> Self {
        let frames = (0..horizon).map(|t| schedule.edges_at(t)).collect();
        ScriptedSchedule {
            ring: schedule.ring().clone(),
            frames,
            tail,
        }
    }

    /// Appends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::FrameSizeMismatch`] when the frame's universe
    /// differs from the ring's edge count.
    pub fn push_frame(&mut self, frame: EdgeSet) -> Result<(), GraphError> {
        if frame.universe() != self.ring.edge_count() {
            return Err(GraphError::FrameSizeMismatch {
                expected: self.ring.edge_count(),
                found: frame.universe(),
            });
        }
        self.frames.push(frame);
        Ok(())
    }

    /// Number of explicitly recorded frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The recorded frames.
    pub fn frames(&self) -> &[EdgeSet] {
        &self.frames
    }

    /// The configured tail behaviour.
    pub fn tail(&self) -> TailBehavior {
        self.tail
    }

    /// Replaces the tail behaviour.
    pub fn set_tail(&mut self, tail: TailBehavior) {
        self.tail = tail;
    }

    /// The single source of truth for "what plays at time `t`": a recorded
    /// frame, the full ring, or the empty ring. Both [`EdgeSchedule`]
    /// query paths go through this, so per-edge and whole-snapshot views
    /// cannot drift.
    fn frame_at(&self, t: Time) -> ScriptedFrame<'_> {
        let len = self.frames.len() as Time;
        if t < len {
            return ScriptedFrame::Recorded(&self.frames[t as usize]);
        }
        match self.tail {
            TailBehavior::HoldLast => match self.frames.last() {
                Some(last) => ScriptedFrame::Recorded(last),
                None => ScriptedFrame::Full,
            },
            TailBehavior::Cycle => match self.frames.get((t % len.max(1)) as usize) {
                Some(frame) => ScriptedFrame::Recorded(frame),
                None => ScriptedFrame::Full,
            },
            TailBehavior::AllPresent => ScriptedFrame::Full,
            TailBehavior::AllAbsent => ScriptedFrame::Empty,
        }
    }
}

/// What a [`ScriptedSchedule`] plays at one instant.
enum ScriptedFrame<'a> {
    Recorded(&'a EdgeSet),
    Full,
    Empty,
}

impl EdgeSchedule for ScriptedSchedule {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        self.ring
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        match self.frame_at(t) {
            ScriptedFrame::Recorded(frame) => frame.contains(edge),
            ScriptedFrame::Full => true,
            ScriptedFrame::Empty => false,
        }
    }

    fn edges_at(&self, t: Time) -> EdgeSet {
        let mut out = EdgeSet::empty_for(&self.ring);
        self.edges_at_into(t, &mut out);
        out
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        match self.frame_at(t) {
            ScriptedFrame::Recorded(frame) => out.copy_from(frame),
            ScriptedFrame::Full => {
                out.reset(self.ring.edge_count());
                out.fill();
            }
            ScriptedFrame::Empty => out.reset(self.ring.edge_count()),
        }
    }
}

/// A periodically varying graph (the class studied in Flocchini–Mans–Santoro
/// and Ilcinkas–Wade): the frame at time `t` is `frames[t mod p]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    ring: RingTopology,
    frames: Vec<EdgeSet>,
}

impl PeriodicSchedule {
    /// Creates a periodic schedule cycling through `frames`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyPeriod`] when `frames` is empty and
    /// [`GraphError::FrameSizeMismatch`] when a frame has the wrong universe.
    pub fn new(ring: RingTopology, frames: Vec<EdgeSet>) -> Result<Self, GraphError> {
        if frames.is_empty() {
            return Err(GraphError::EmptyPeriod);
        }
        for frame in &frames {
            if frame.universe() != ring.edge_count() {
                return Err(GraphError::FrameSizeMismatch {
                    expected: ring.edge_count(),
                    found: frame.universe(),
                });
            }
        }
        Ok(PeriodicSchedule { ring, frames })
    }

    /// The period `p`.
    pub fn period(&self) -> usize {
        self.frames.len()
    }
}

impl EdgeSchedule for PeriodicSchedule {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        self.ring
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        self.frames[(t % self.frames.len() as Time) as usize].contains(edge)
    }

    fn edges_at(&self, t: Time) -> EdgeSet {
        self.frames[(t % self.frames.len() as Time) as usize].clone()
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        out.copy_from(&self.frames[(t % self.frames.len() as Time) as usize]);
    }
}

/// `inner` with extra absences applied — the proofs' `G \ {(e, τ), …}`.
///
/// ```rust
/// use dynring_graph::{AlwaysPresent, EdgeSchedule, EdgeId, Minus,
///                     RingTopology, TimeInterval};
///
/// # fn main() -> Result<(), dynring_graph::GraphError> {
/// let ring = RingTopology::new(4)?;
/// let mut g = Minus::new(AlwaysPresent::new(ring));
/// g.remove(EdgeId::new(1), TimeInterval::bounded(2, 5));
/// assert!(g.is_present(EdgeId::new(1), 1));
/// assert!(!g.is_present(EdgeId::new(1), 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Minus<S> {
    inner: S,
    removals: RemovalTable,
}

impl<S: EdgeSchedule> Minus<S> {
    /// Wraps `inner` with an empty removal table.
    pub fn new(inner: S) -> Self {
        Minus {
            inner,
            removals: RemovalTable::new(),
        }
    }

    /// Marks `edge` absent during `interval`.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the inner ring.
    pub fn remove(&mut self, edge: EdgeId, interval: TimeInterval) -> &mut Self {
        self.inner
            .ring()
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        self.removals.insert(edge, interval);
        self
    }

    /// The wrapped schedule.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The removal table.
    pub fn removals(&self) -> &RemovalTable {
        &self.removals
    }

    /// Unwraps, returning the inner schedule and the removal table.
    pub fn into_parts(self) -> (S, RemovalTable) {
        (self.inner, self.removals)
    }
}

impl<S: EdgeSchedule> EdgeSchedule for Minus<S> {
    fn ring(&self) -> &RingTopology {
        self.inner.ring()
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        self.inner.is_present(edge, t) && !self.removals.is_absent(edge, t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        self.inner.edges_at_into(t, out);
        for (edge, _) in self.removals.iter() {
            if self.removals.is_absent(edge, t) {
                out.remove(edge);
            }
        }
    }
}

/// A static ring from which edges are carved out by absence intervals.
///
/// Equivalent to `Minus<AlwaysPresent>` but ubiquitous enough in the proofs
/// to deserve its own named type: "all edges are always present except …".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbsenceIntervals {
    ring: RingTopology,
    removals: RemovalTable,
}

impl AbsenceIntervals {
    /// A static ring with no absences yet.
    pub fn new(ring: RingTopology) -> Self {
        AbsenceIntervals {
            ring,
            removals: RemovalTable::new(),
        }
    }

    /// Marks `edge` absent during `[start, end)`. Empty intervals are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the ring.
    pub fn remove_during(&mut self, edge: EdgeId, start: Time, end: Time) -> &mut Self {
        self.remove(edge, TimeInterval::bounded(start, end))
    }

    /// Marks `edge` absent forever from `start` on — an *eventual missing
    /// edge*.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the ring.
    pub fn remove_from(&mut self, edge: EdgeId, start: Time) -> &mut Self {
        self.remove(edge, TimeInterval::from_instant(start))
    }

    /// Marks `edge` absent during `interval`.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the ring.
    pub fn remove(&mut self, edge: EdgeId, interval: TimeInterval) -> &mut Self {
        self.ring
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        self.removals.insert(edge, interval);
        self
    }

    /// The removal table.
    pub fn removals(&self) -> &RemovalTable {
        &self.removals
    }
}

impl EdgeSchedule for AbsenceIntervals {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        self.ring
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        !self.removals.is_absent(edge, t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        out.fill();
        for (edge, _) in self.removals.iter() {
            if self.removals.is_absent(edge, t) {
                out.remove(edge);
            }
        }
    }
}

/// `inner` with one designated *eventual missing edge*: `edge` is absent
/// forever from time `from` on.
///
/// On a ring this is the extreme point of the connected-over-time class: the
/// eventual underlying graph is the chain obtained by deleting `edge`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WithEventualMissing<S> {
    inner: S,
    edge: EdgeId,
    from: Time,
}

impl<S: EdgeSchedule> WithEventualMissing<S> {
    /// Kills `edge` forever from time `from` on.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the inner ring.
    pub fn new(inner: S, edge: EdgeId, from: Time) -> Self {
        inner
            .ring()
            .check_edge(edge)
            .unwrap_or_else(|e| panic!("{e}"));
        WithEventualMissing { inner, edge, from }
    }

    /// The designated eventual missing edge.
    pub fn missing_edge(&self) -> EdgeId {
        self.edge
    }

    /// The time from which the edge is gone.
    pub fn missing_from(&self) -> Time {
        self.from
    }

    /// The wrapped schedule.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: EdgeSchedule> EdgeSchedule for WithEventualMissing<S> {
    fn ring(&self) -> &RingTopology {
        self.inner.ring()
    }

    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        if edge == self.edge && t >= self.from {
            return false;
        }
        self.inner.is_present(edge, t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        self.inner.edges_at_into(t, out);
        if t >= self.from {
            out.remove(self.edge);
        }
    }
}

/// Memoryless random dynamics: each `(edge, t)` is present independently
/// with probability `p`, decided by a deterministic hash of
/// `(seed, edge, t)` — so the schedule is pure, reproducible and offers
/// random access in time.
///
/// Almost surely every edge recurs infinitely often (for `p > 0`), making
/// the infinite schedule connected-over-time with probability 1; over a
/// finite horizon, pair it with
/// [`crate::generators::enforce_recurrence`] for a hard guarantee.
///
/// # The word-parallel bit-sliced sampler
///
/// Presence bits are drawn 64 edges at a time. `p` is quantized to
/// `p_k = round(p · 2^K) / 2^K` with `K = 16`
/// ([`BernoulliSchedule::SLICE_RESOLUTION_BITS`]) and trailing zero bits
/// of the numerator are stripped, leaving a `k ≤ K`-bit pattern
/// `b_1 b_2 … b_k` (MSB first). One fresh `mix64` word `r_j` is drawn
/// per `(time, 64-edge word, level j)` and combined LSB-first through the
/// AND/OR ladder
///
/// ```text
/// acc ← 0;  for j = k … 1:  acc ← if b_j { r_j | acc } else { r_j & acc }
/// ```
///
/// which realizes, in every bit lane simultaneously, the comparison
/// "k fresh random bits < p_k" — i.e. 64 independent Bernoulli(`p_k`)
/// draws per level-`k` ladder, at `k` hashes per 64 edges instead of 64.
/// Common probabilities are cheap: `p = 0.5` needs one hash per word,
/// `p = 0.75` two. The trade-off is resolution: realized rates are exact
/// multiples of `2^-16` (error ≤ `2^-17`, far below statistical noise at
/// any feasible horizon).
///
/// This sampler defines the schedule's deterministic stream (changing `K`
/// would change every snapshot). The pre-word-parallel per-edge stream
/// survives, in this module's tests only, as the reference the
/// distribution-equivalence tests compare the sampler against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernoulliSchedule {
    ring: RingTopology,
    presence_probability: f64,
    seed: u64,
}

/// How a [`BernoulliSchedule`] realizes its probability: degenerate
/// constants, or an AND/OR ladder over `levels` random words following the
/// bits of `pattern` (bit `j` of `pattern` is consumed at ladder level
/// `j`, i.e. LSB first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlicePlan {
    /// `p` quantizes to 0: no edge is ever present.
    Never,
    /// `p` quantizes to 1: every edge is always present.
    Always,
    /// The general case: `levels` slice words realize `pattern / 2^levels`.
    Sliced {
        /// Numerator of the realized probability (odd, `< 2^levels`).
        pattern: u64,
        /// Number of slice words (≤ [`BernoulliSchedule::SLICE_RESOLUTION_BITS`]).
        levels: u32,
    },
}

impl SlicePlan {
    /// Quantizes `p` to a sampling plan at the sampler's resolution
    /// (shared by the per-edge and per-replica streams).
    fn quantize(p: f64) -> SlicePlan {
        let scale = 1u64 << BernoulliSchedule::SLICE_RESOLUTION_BITS;
        let scaled = (p * scale as f64).round() as u64;
        if scaled == 0 {
            SlicePlan::Never
        } else if scaled >= scale {
            SlicePlan::Always
        } else {
            let strip = scaled.trailing_zeros();
            SlicePlan::Sliced {
                pattern: scaled >> strip,
                levels: BernoulliSchedule::SLICE_RESOLUTION_BITS - strip,
            }
        }
    }

    /// Hash draws the plan spends per ladder pass (0 for the degenerate
    /// probabilities).
    fn levels(self) -> u32 {
        match self {
            SlicePlan::Never | SlicePlan::Always => 0,
            SlicePlan::Sliced { levels, .. } => levels,
        }
    }

    /// Runs the AND/OR slice ladder, drawing one fresh random word per
    /// level through `draw`: every bit lane of the result is an
    /// independent Bernoulli(`p_k`) sample.
    fn ladder(self, mut draw: impl FnMut(u32) -> u64) -> u64 {
        match self {
            SlicePlan::Never => 0,
            SlicePlan::Always => u64::MAX,
            SlicePlan::Sliced { pattern, levels } => {
                let mut acc = 0u64;
                for level in 0..levels {
                    let r = draw(level);
                    acc = if (pattern >> level) & 1 == 1 {
                        r | acc
                    } else {
                        r & acc
                    };
                }
                acc
            }
        }
    }
}

impl BernoulliSchedule {
    /// Probability resolution of the bit-sliced sampler: realized rates
    /// are exact multiples of `2^-SLICE_RESOLUTION_BITS`.
    pub const SLICE_RESOLUTION_BITS: u32 = 16;

    /// Creates Bernoulli dynamics with presence probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidProbability`] unless `0 ≤ p ≤ 1`.
    pub fn new(ring: RingTopology, p: f64, seed: u64) -> Result<Self, GraphError> {
        GraphError::check_probability(p)?;
        Ok(BernoulliSchedule {
            ring,
            presence_probability: p,
            seed,
        })
    }

    /// The presence probability `p`.
    pub fn presence_probability(&self) -> f64 {
        self.presence_probability
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of hash draws the sampler spends per 64-edge word (0 for
    /// the degenerate probabilities) — the cost side of the
    /// precision/cost trade-off.
    pub fn slice_levels(&self) -> u32 {
        self.slice_plan().levels()
    }

    /// Quantizes `p` to the sampling plan. Cheap enough to recompute per
    /// call, which keeps the struct free of derived fields (and the serde
    /// representation unchanged).
    fn slice_plan(&self) -> SlicePlan {
        SlicePlan::quantize(self.presence_probability)
    }

    /// One fresh random word per `(seed, t, 64-edge word, ladder level)`.
    fn slice_word(&self, t: Time, word: usize, level: u32) -> u64 {
        let lane = ((word as u64) << 32) | u64::from(level);
        mix64(mix64(self.seed ^ mix64(t)) ^ lane)
    }

    /// Samples the presence bits of edges `[64·word, 64·word + 64)` at
    /// time `t` in one AND/OR ladder pass.
    fn sample_word(&self, plan: SlicePlan, t: Time, word: usize) -> u64 {
        plan.ladder(|level| self.slice_word(t, word, level))
    }

    /// The presence decision without the edge-validity check (hot path):
    /// the edge's lane of its word's ladder.
    fn present_unchecked(&self, edge: EdgeId, t: Time) -> bool {
        let i = edge.index();
        (self.sample_word(self.slice_plan(), t, i / 64) >> (i % 64)) & 1 == 1
    }
}

/// The reference per-edge sampler: the exact pre-word-parallel stream,
/// kept for the distribution-equivalence tests.
#[cfg(test)]
impl BernoulliSchedule {
    /// The exact integer threshold equivalent of the historical f64
    /// compare: for **every** 64-bit hash `h`,
    /// `h < threshold  ⇔  ((h >> 11) as f64 / 2^53) < p`.
    ///
    /// `None` encodes "always present" (`p = 1`, whose threshold `2^64`
    /// does not fit in a `u64`). The equivalence holds because the f64
    /// compare only reads `h >> 11` (an exactly representable 53-bit
    /// integer), `p · 2^53` is exact (scaling by a power of two), and
    /// `m < p · 2^53  ⇔  m < ceil(p · 2^53)` for integer `m`.
    fn reference_threshold(p: f64) -> Option<u64> {
        debug_assert!((0.0..=1.0).contains(&p));
        let t53 = (p * (1u64 << 53) as f64).ceil() as u64;
        if t53 >= 1u64 << 53 {
            None
        } else {
            Some(t53 << 11)
        }
    }

    /// Presence under the reference (pre-word-parallel) per-edge stream: one
    /// `mix64` per `(edge, t)`, compared against the integer threshold.
    /// Statistically equivalent to the word-parallel stream (both are
    /// Bernoulli(≈`p`)) but bit-for-bit different.
    ///
    /// # Panics
    ///
    /// Panics when `edge` is not an edge of the ring.
    fn reference_is_present(&self, edge: EdgeId, t: Time) -> bool {
        self.ring.check_edge(edge).unwrap_or_else(|e| panic!("{e}"));
        let h = mix64(self.seed ^ mix64((edge.raw() as u64) << 32 ^ t));
        match Self::reference_threshold(self.presence_probability) {
            None => true,
            Some(threshold) => h < threshold,
        }
    }
}

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl EdgeSchedule for BernoulliSchedule {
    fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// # Panics
    ///
    /// Only debug builds panic on a foreign edge: this is the sparse-probe
    /// hot path, so release builds skip the range check. Use
    /// [`EdgeSchedule::try_is_present`] for the checked,
    /// [`GraphError`]-returning variant.
    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        debug_assert!(
            self.ring.check_edge(edge).is_ok(),
            "edge {edge} outside ring with {} edges",
            self.ring.edge_count()
        );
        self.present_unchecked(edge, t)
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        out.reset(self.ring.edge_count());
        let plan = self.slice_plan();
        for word in 0..out.word_count() {
            out.set_word(word, self.sample_word(plan, t, word));
        }
    }

    /// One slice-ladder pass for the requested word only — bit-for-bit
    /// the word [`EdgeSchedule::edges_at_into`] would have written (tail
    /// bits masked), at `slice_levels` hashes instead of a full-ring fill.
    fn sampled_presence_word(&self, t: Time, word: usize) -> Option<u64> {
        let mask = presence_word_mask(self.ring.edge_count(), word);
        Some(self.sample_word(self.slice_plan(), t, word) & mask)
    }
}

/// The **per-replica** Bernoulli stream: the bit-sliced sampler of
/// [`BernoulliSchedule`] with the 64 lanes of each ladder word reassigned
/// from *64 edges* to *64 independent replicas of one edge*.
///
/// [`BernoulliReplicas::presence_word`] returns, for one `(edge, t)`, a
/// word whose bit `l` is an independent Bernoulli(`p_k`) draw — the
/// presence of `edge` at `t` in replica `l`. One slice ladder
/// (`slice_levels` hashes) therefore feeds all 64 replicas at once, which
/// is what makes the lockstep batch engine's stochastic Look phase cost
/// one ladder per *edge* per round instead of one per *replica*.
///
/// Every lane is a well-defined pure schedule in its own right:
/// [`BernoulliReplicas::lane`] derives the scalar [`BernoulliLane`] view
/// of lane `l`, and the batch engine's lane `l` is bit-for-bit the serial
/// engine run against that schedule. Lanes draw from disjoint bit
/// positions of shared hash words, so they are pairwise independent
/// Bernoulli streams with a common `(seed, edge, t, level)` keying — the
/// replica analogue of "one `mix64` per 64 edges per level".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernoulliReplicas {
    ring: RingTopology,
    presence_probability: f64,
    seed: u64,
}

impl BernoulliReplicas {
    /// Creates the 64-replica Bernoulli stream with presence probability
    /// `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidProbability`] unless `0 ≤ p ≤ 1`.
    pub fn new(ring: RingTopology, p: f64, seed: u64) -> Result<Self, GraphError> {
        GraphError::check_probability(p)?;
        Ok(BernoulliReplicas {
            ring,
            presence_probability: p,
            seed,
        })
    }

    /// The ring whose edges are scheduled (identically keyed in every
    /// replica, independently sampled per replica).
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The presence probability `p`.
    pub fn presence_probability(&self) -> f64 {
        self.presence_probability
    }

    /// The base seed shared by all 64 lanes.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hash draws per `(edge, t)` ladder pass — the cost of feeding all
    /// 64 replicas one edge's presence bits.
    pub fn slice_levels(&self) -> u32 {
        SlicePlan::quantize(self.presence_probability).levels()
    }

    /// The hash prefix shared by every draw at time `t` (hoisted out of
    /// the per-edge loop on the hot path), mixed `mix64`-strong.
    fn time_prefix(&self, t: Time) -> u64 {
        mix64(self.seed ^ mix64(t))
    }

    /// One draw: a single widening-multiply fold (the wyhash "mum"
    /// primitive) of the `(edge, level)` key against the golden-ratio
    /// constant. The replica stream's snapshot fill is hash-throughput
    /// bound — one draw per edge per level feeds all 64 replicas — so
    /// this stream deliberately uses a one-multiply mixer where the
    /// per-edge stream uses the three-multiply `mix64`; the per-round
    /// prefix stays `mix64`-strong, and the lane rate/independence tests
    /// hold the stream to Bernoulli(`p_k`) empirically.
    fn draw(prefix: u64, edge: usize, level: u32) -> u64 {
        let key = prefix ^ (((edge as u64) << 32) | u64::from(level));
        let product = u128::from(key) * u128::from(0x9e37_79b9_7f4a_7c15u64);
        (product as u64) ^ ((product >> 64) as u64)
    }

    /// The presence word of `edge` at time `t`: bit `l` is the presence
    /// of `edge` in replica `l`.
    ///
    /// # Panics
    ///
    /// Debug builds panic on a foreign edge (hot path: release builds
    /// skip the range check).
    pub fn presence_word(&self, edge: EdgeId, t: Time) -> u64 {
        debug_assert!(
            self.ring.check_edge(edge).is_ok(),
            "edge {edge} outside ring with {} edges",
            self.ring.edge_count()
        );
        let prefix = self.time_prefix(t);
        let e = edge.index();
        SlicePlan::quantize(self.presence_probability)
            .ladder(|level| Self::draw(prefix, e, level))
    }

    /// Writes the presence word of every edge at time `t` into `out`
    /// (`out[e]` is [`BernoulliReplicas::presence_word`] of edge `e`) —
    /// the batch engine's whole-snapshot fill.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the ring's edge count.
    pub fn presence_words_into(&self, t: Time, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.ring.edge_count(),
            "presence buffer must hold one word per edge"
        );
        match SlicePlan::quantize(self.presence_probability) {
            SlicePlan::Never => out.fill(0),
            SlicePlan::Always => out.fill(u64::MAX),
            SlicePlan::Sliced { pattern, levels } => {
                // The ladder inlined with `pattern`/`levels` hoisted out
                // of the per-edge loop: at p = 0.5 this is exactly one
                // `mix64` per edge for all 64 replicas.
                let prefix = self.time_prefix(t);
                for (e, slot) in out.iter_mut().enumerate() {
                    let mut acc = 0u64;
                    for level in 0..levels {
                        let r = Self::draw(prefix, e, level);
                        acc = if (pattern >> level) & 1 == 1 { r | acc } else { r & acc };
                    }
                    *slot = acc;
                }
            }
        }
    }

    /// The sparse counterpart of
    /// [`BernoulliReplicas::presence_words_into`]: writes the presence
    /// words of just the listed edges into their slots of `out`
    /// (`out[e]` for each `e` in `edges`; other slots are untouched).
    /// Duplicate edges are allowed — the stream is a pure function of
    /// `(edge, t)`, so repeated draws store the same word. Bit-for-bit
    /// identical to the full fill, with the same plan/prefix hoisting.
    ///
    /// # Panics
    ///
    /// Panics when an edge index is at or beyond `out.len()`; `out` is
    /// expected to span the ring's edges as in the full fill.
    pub fn presence_words_sparse_into(&self, t: Time, edges: &[u32], out: &mut [u64]) {
        match SlicePlan::quantize(self.presence_probability) {
            SlicePlan::Never => {
                for &e in edges {
                    out[e as usize] = 0;
                }
            }
            SlicePlan::Always => {
                for &e in edges {
                    out[e as usize] = u64::MAX;
                }
            }
            SlicePlan::Sliced { pattern, levels } => {
                let prefix = self.time_prefix(t);
                for &e in edges {
                    let mut acc = 0u64;
                    for level in 0..levels {
                        let r = Self::draw(prefix, e as usize, level);
                        acc = if (pattern >> level) & 1 == 1 { r | acc } else { r & acc };
                    }
                    out[e as usize] = acc;
                }
            }
        }
    }

    /// The compact-list counterpart of
    /// [`BernoulliReplicas::presence_words_sparse_into`]: writes the
    /// presence word of `edges[i]` into `out[i]` (not `out[edges[i]]`),
    /// so a caller can gather a handful of edges into a small dense
    /// buffer instead of scattering into a ring-sized one. Duplicate
    /// edges are allowed. Bit-for-bit identical to the full fill.
    ///
    /// # Panics
    ///
    /// Panics when `out` is shorter than `edges`.
    pub fn presence_list_words_into(&self, t: Time, edges: &[u32], out: &mut [u64]) {
        assert!(
            out.len() >= edges.len(),
            "compact presence buffer must hold one word per listed edge"
        );
        match SlicePlan::quantize(self.presence_probability) {
            SlicePlan::Never => out[..edges.len()].fill(0),
            SlicePlan::Always => out[..edges.len()].fill(u64::MAX),
            SlicePlan::Sliced { pattern, levels } => {
                let prefix = self.time_prefix(t);
                for (&e, slot) in edges.iter().zip(out.iter_mut()) {
                    let mut acc = 0u64;
                    for level in 0..levels {
                        let r = Self::draw(prefix, e as usize, level);
                        acc = if (pattern >> level) & 1 == 1 { r | acc } else { r & acc };
                    }
                    *slot = acc;
                }
            }
        }
    }

    /// The fused Look-phase gather of the lockstep batch engine: for each
    /// of the 64 lane positions `positions[l]` (node indices on the
    /// ring), packs the presence bit of that lane's clockwise edge (edge
    /// `positions[l]`) and counter-clockwise edge (edge
    /// `positions[l] − 1 mod n`) into bit `l` of the returned
    /// `(clockwise, counter_clockwise)` pair.
    ///
    /// Bit-for-bit identical to drawing each edge's
    /// [`BernoulliReplicas::presence_word`] and masking out bit `l`, but
    /// with the slice plan and time prefix hoisted and **no intermediate
    /// edge-list or word buffers** — per round and lane the engine pays
    /// exactly `2 · slice_levels` widening multiplies and nothing else,
    /// which is what keeps the wide-arity batch round sampling-bound
    /// rather than memory-bound.
    ///
    /// # Panics
    ///
    /// Debug builds panic when a position is not a node of the ring
    /// (hot path: release builds skip the range check).
    pub fn presence_pair_bits(&self, t: Time, positions: &[u32]) -> (u64, u64) {
        let n = self.ring.node_count() as u32;
        debug_assert!(
            positions.iter().all(|&v| v < n),
            "lane positions must be nodes of the ring with {n} nodes"
        );
        match SlicePlan::quantize(self.presence_probability) {
            SlicePlan::Never => (0, 0),
            SlicePlan::Always => (u64::MAX, u64::MAX),
            SlicePlan::Sliced { pattern, levels } => {
                let prefix = self.time_prefix(t);
                let mut cw = 0u64;
                let mut ccw = 0u64;
                let mut mask = 1u64;
                if levels == 1 {
                    // One-level ladders (p = 0.5 among them) are the hot
                    // case: the quantizer strips trailing zeros so the
                    // pattern LSB is always set, and a one-level ladder
                    // *is* its draw — no accumulator, no pattern branch.
                    for &v in positions {
                        let e_cw = v as usize;
                        let e_ccw = (if v == 0 { n - 1 } else { v - 1 }) as usize;
                        cw |= Self::draw(prefix, e_cw, 0) & mask;
                        ccw |= Self::draw(prefix, e_ccw, 0) & mask;
                        mask = mask.rotate_left(1);
                    }
                    return (cw, ccw);
                }
                for &v in positions {
                    let e_cw = v as usize;
                    let e_ccw = (if v == 0 { n - 1 } else { v - 1 }) as usize;
                    let mut acc_cw = 0u64;
                    let mut acc_ccw = 0u64;
                    for level in 0..levels {
                        let r_cw = Self::draw(prefix, e_cw, level);
                        let r_ccw = Self::draw(prefix, e_ccw, level);
                        if (pattern >> level) & 1 == 1 {
                            acc_cw |= r_cw;
                            acc_ccw |= r_ccw;
                        } else {
                            acc_cw &= r_cw;
                            acc_ccw &= r_ccw;
                        }
                    }
                    cw |= acc_cw & mask;
                    ccw |= acc_ccw & mask;
                    mask = mask.rotate_left(1);
                }
                (cw, ccw)
            }
        }
    }

    /// The scalar schedule of lane `lane`: a pure [`EdgeSchedule`] whose
    /// presence bits are exactly this stream's bit `lane` — the derived
    /// per-replica seed of the serial-equivalence contract.
    ///
    /// # Panics
    ///
    /// Panics when `lane ≥` [`crate::LANES_PER_WORD`].
    pub fn lane(&self, lane: u32) -> BernoulliLane {
        assert!(
            (lane as usize) < crate::lane::LANES_PER_WORD,
            "replica lanes are 0..{}, got {lane}",
            crate::lane::LANES_PER_WORD
        );
        BernoulliLane {
            replicas: self.clone(),
            lane,
        }
    }
}

/// One lane of a [`BernoulliReplicas`] stream as a pure scalar
/// [`EdgeSchedule`]: `is_present(e, t)` is bit `lane` of
/// [`BernoulliReplicas::presence_word`]. A serial simulator driven by
/// this schedule reproduces the batch engine's lane `lane` bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernoulliLane {
    replicas: BernoulliReplicas,
    lane: u32,
}

impl BernoulliLane {
    /// The lane index (0..64).
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The replica stream this lane is a view of.
    pub fn replicas(&self) -> &BernoulliReplicas {
        &self.replicas
    }
}

impl EdgeSchedule for BernoulliLane {
    fn ring(&self) -> &RingTopology {
        &self.replicas.ring
    }

    /// # Panics
    ///
    /// Debug builds panic on a foreign edge (sparse-probe hot path; use
    /// [`EdgeSchedule::try_is_present`] for the checked variant).
    fn is_present(&self, edge: EdgeId, t: Time) -> bool {
        (self.replicas.presence_word(edge, t) >> self.lane) & 1 == 1
    }

    fn edges_at_into(&self, t: Time, out: &mut EdgeSet) {
        out.reset(self.replicas.ring.edge_count());
        let plan = SlicePlan::quantize(self.replicas.presence_probability);
        let prefix = self.replicas.time_prefix(t);
        for e in 0..self.replicas.ring.edge_count() {
            let word = plan.ladder(|level| BernoulliReplicas::draw(prefix, e, level));
            if (word >> self.lane) & 1 == 1 {
                out.insert(EdgeId::new(e));
            }
        }
    }
}

/// A bank of independent [`BernoulliReplicas`] streams over the same ring
/// and probability — the wide-arity presence source for the batch engine.
///
/// Plane `w` (a 64-lane block) is the stream seeded `seeds[w]`, so global
/// lane `l` of the bank is lane `l % 64` of stream `l / 64`. A wide batch
/// is thereby a *composite* of ordinary 64-lane batches: running the bank
/// at 128 or 256 lanes produces, plane by plane, exactly the bits a
/// 64-lane run over each seed would — the arity-independence half of the
/// lane-vs-serial equivalence contract.
#[derive(Debug, Clone, PartialEq)]
pub struct BernoulliReplicaBank {
    streams: Vec<BernoulliReplicas>,
}

impl BernoulliReplicaBank {
    /// Creates one 64-lane stream per entry of `seeds`, all over `ring`
    /// with presence probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidProbability`] unless `0 ≤ p ≤ 1`.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty.
    pub fn new(ring: RingTopology, p: f64, seeds: &[u64]) -> Result<Self, GraphError> {
        assert!(!seeds.is_empty(), "a replica bank needs at least one plane seed");
        let streams = seeds
            .iter()
            .map(|&seed| BernoulliReplicas::new(ring.clone(), p, seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BernoulliReplicaBank { streams })
    }

    /// The ring shared by every plane.
    pub fn ring(&self) -> &RingTopology {
        self.streams[0].ring()
    }

    /// Number of 64-lane planes (words) in the bank.
    pub fn words(&self) -> usize {
        self.streams.len()
    }

    /// Total lane count: `64 · words()`.
    pub fn lanes(&self) -> usize {
        self.streams.len() * crate::lane::LANES_PER_WORD
    }

    /// The 64-lane stream of plane `word`.
    ///
    /// # Panics
    ///
    /// Panics when `word ≥ words()`.
    pub fn stream(&self, word: usize) -> &BernoulliReplicas {
        &self.streams[word]
    }

    /// The scalar schedule of global lane `lane`: lane `lane % 64` of
    /// plane `lane / 64` — the serial-equivalence reference at any arity.
    ///
    /// # Panics
    ///
    /// Panics when `lane ≥ lanes()`.
    pub fn lane(&self, lane: u32) -> BernoulliLane {
        let per = crate::lane::LANES_PER_WORD as u32;
        assert!(
            (lane as usize) < self.lanes(),
            "replica lanes are 0..{}, got {lane}",
            self.lanes()
        );
        self.streams[(lane / per) as usize].lane(lane % per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[test]
    fn interval_membership() {
        let iv = TimeInterval::bounded(2, 5);
        assert!(!iv.contains(1));
        assert!(iv.contains(2));
        assert!(iv.contains(4));
        assert!(!iv.contains(5));
        assert!(!iv.is_empty());
        assert!(TimeInterval::bounded(3, 3).is_empty());
        assert!(TimeInterval::from_instant(0).contains(u64::MAX));
    }

    #[test]
    fn interval_touching_and_merge() {
        let a = TimeInterval::bounded(0, 3);
        let b = TimeInterval::bounded(3, 6);
        let c = TimeInterval::bounded(7, 9);
        assert!(a.touches(&b));
        assert!(!a.touches(&c));
        assert_eq!(a.merge(&b), TimeInterval::bounded(0, 6));
        let unbounded = TimeInterval::from_instant(5);
        assert!(b.touches(&unbounded));
        assert_eq!(b.merge(&unbounded), TimeInterval::from_instant(3));
    }

    #[test]
    fn removal_table_merges_intervals() {
        let mut table = RemovalTable::new();
        let e = EdgeId::new(0);
        table.insert(e, TimeInterval::bounded(0, 3));
        table.insert(e, TimeInterval::bounded(5, 8));
        table.insert(e, TimeInterval::bounded(2, 6)); // bridges the two
        assert_eq!(table.intervals(e), &[TimeInterval::bounded(0, 8)]);
        assert!(table.is_absent(e, 7));
        assert!(!table.is_absent(e, 8));
    }

    #[test]
    fn removal_table_ignores_empty_interval() {
        let mut table = RemovalTable::new();
        table.insert(EdgeId::new(1), TimeInterval::bounded(4, 4));
        assert!(table.is_empty());
    }

    #[test]
    fn removal_table_eventually_missing() {
        let mut table = RemovalTable::new();
        table.insert(EdgeId::new(2), TimeInterval::bounded(0, 9));
        table.insert(EdgeId::new(3), TimeInterval::from_instant(4));
        let missing: Vec<_> = table.eventually_missing().collect();
        assert_eq!(missing, vec![EdgeId::new(3)]);
    }

    #[test]
    fn always_present_snapshots_are_full() {
        let g = AlwaysPresent::new(ring(5));
        assert!(g.edges_at(0).is_full());
        assert!(g.edges_at(99).is_full());
        assert!(g.is_present(EdgeId::new(4), 12));
        assert!(g.footprint(3).is_full());
    }

    #[test]
    fn scripted_schedule_plays_frames_then_tail() {
        let r = ring(3);
        let frames = vec![
            EdgeSet::from_indices(3, [0]),
            EdgeSet::from_indices(3, [1, 2]),
        ];
        let s = ScriptedSchedule::new(r.clone(), frames.clone(), TailBehavior::AllPresent)
            .expect("valid script");
        assert_eq!(s.edges_at(0), frames[0]);
        assert_eq!(s.edges_at(1), frames[1]);
        assert!(s.edges_at(2).is_full());
        assert_eq!(s.frame_count(), 2);
    }

    #[test]
    fn scripted_tail_behaviours() {
        let r = ring(2);
        let frames = vec![
            EdgeSet::from_indices(2, [0]),
            EdgeSet::from_indices(2, [1]),
        ];
        let hold = ScriptedSchedule::new(r.clone(), frames.clone(), TailBehavior::HoldLast)
            .expect("valid");
        assert_eq!(hold.edges_at(10), frames[1]);
        let cycle =
            ScriptedSchedule::new(r.clone(), frames.clone(), TailBehavior::Cycle).expect("valid");
        assert_eq!(cycle.edges_at(4), frames[0]);
        assert_eq!(cycle.edges_at(5), frames[1]);
        let absent =
            ScriptedSchedule::new(r.clone(), frames, TailBehavior::AllAbsent).expect("valid");
        assert!(absent.edges_at(7).is_empty());
    }

    #[test]
    fn scripted_rejects_mismatched_frames() {
        let r = ring(4);
        let err = ScriptedSchedule::new(r, vec![EdgeSet::empty(3)], TailBehavior::AllPresent);
        assert_eq!(
            err,
            Err(GraphError::FrameSizeMismatch {
                expected: 4,
                found: 3
            })
        );
    }

    #[test]
    fn capture_round_trips_a_schedule() {
        let mut src = AbsenceIntervals::new(ring(4));
        src.remove_during(EdgeId::new(2), 1, 3);
        let cap = ScriptedSchedule::capture(&src, 5, TailBehavior::AllPresent);
        for t in 0..5 {
            assert_eq!(cap.edges_at(t), src.edges_at(t), "frame {t}");
        }
    }

    #[test]
    fn periodic_schedule_cycles() {
        let r = ring(2);
        let frames = vec![
            EdgeSet::from_indices(2, [0]),
            EdgeSet::from_indices(2, [1]),
            EdgeSet::from_indices(2, [0, 1]),
        ];
        let p = PeriodicSchedule::new(r, frames.clone()).expect("valid period");
        assert_eq!(p.period(), 3);
        for t in 0..12u64 {
            assert_eq!(p.edges_at(t), frames[(t % 3) as usize]);
        }
    }

    #[test]
    fn periodic_rejects_empty() {
        assert_eq!(
            PeriodicSchedule::new(ring(2), vec![]),
            Err(GraphError::EmptyPeriod)
        );
    }

    #[test]
    fn minus_applies_removals() {
        let mut g = Minus::new(AlwaysPresent::new(ring(4)));
        g.remove(EdgeId::new(1), TimeInterval::bounded(2, 4));
        g.remove(EdgeId::new(1), TimeInterval::bounded(6, 7));
        assert!(g.is_present(EdgeId::new(1), 1));
        assert!(!g.is_present(EdgeId::new(1), 3));
        assert!(g.is_present(EdgeId::new(1), 5));
        assert!(!g.is_present(EdgeId::new(1), 6));
        assert!(g.is_present(EdgeId::new(0), 3));
    }

    #[test]
    fn absence_intervals_eventual_missing_edge() {
        let mut g = AbsenceIntervals::new(ring(5));
        g.remove_from(EdgeId::new(3), 10);
        assert!(g.is_present(EdgeId::new(3), 9));
        assert!(!g.is_present(EdgeId::new(3), 10));
        assert!(!g.is_present(EdgeId::new(3), 1_000_000));
        let missing: Vec<_> = g.removals().eventually_missing().collect();
        assert_eq!(missing, vec![EdgeId::new(3)]);
    }

    #[test]
    fn with_eventual_missing_wrapper() {
        let g = WithEventualMissing::new(AlwaysPresent::new(ring(4)), EdgeId::new(0), 5);
        assert!(g.is_present(EdgeId::new(0), 4));
        assert!(!g.is_present(EdgeId::new(0), 5));
        assert_eq!(g.missing_edge(), EdgeId::new(0));
        assert_eq!(g.missing_from(), 5);
    }

    // NOTE: PR 2 replaced the per-edge f64 Bernoulli stream with the
    // word-parallel bit-sliced sampler, which defines a *new* deterministic
    // stream. The Bernoulli tests below assert stream-independent
    // properties (determinism, seed sensitivity, extremes, rate) and were
    // re-validated against the new stream; nothing here pins exact
    // snapshots of the old one.
    #[test]
    fn bernoulli_is_deterministic_and_seed_sensitive() {
        let a = BernoulliSchedule::new(ring(6), 0.5, 42).expect("valid p");
        let b = BernoulliSchedule::new(ring(6), 0.5, 42).expect("valid p");
        let c = BernoulliSchedule::new(ring(6), 0.5, 43).expect("valid p");
        let snap_a: Vec<_> = (0..50).map(|t| a.edges_at(t)).collect();
        let snap_b: Vec<_> = (0..50).map(|t| b.edges_at(t)).collect();
        assert_eq!(snap_a, snap_b);
        let snap_c: Vec<_> = (0..50).map(|t| c.edges_at(t)).collect();
        assert_ne!(snap_a, snap_c);
    }

    #[test]
    fn bernoulli_extremes() {
        let never = BernoulliSchedule::new(ring(3), 0.0, 1).expect("valid p");
        let always = BernoulliSchedule::new(ring(3), 1.0, 1).expect("valid p");
        for t in 0..20 {
            assert!(never.edges_at(t).is_empty());
            assert!(always.edges_at(t).is_full());
        }
    }

    #[test]
    fn bernoulli_rejects_bad_probability() {
        assert!(matches!(
            BernoulliSchedule::new(ring(3), 1.5, 0),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let g = BernoulliSchedule::new(ring(10), 0.7, 7).expect("valid p");
        let total: usize = (0..1000).map(|t| g.edges_at(t).len()).sum();
        let rate = total as f64 / (1000.0 * 10.0);
        assert!((rate - 0.7).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn slice_plan_cost_follows_probability_resolution() {
        let levels = |p: f64| {
            BernoulliSchedule::new(ring(3), p, 0)
                .expect("valid p")
                .slice_levels()
        };
        // p = 1/2 costs one hash per 64-edge word, p = 3/4 two, and the
        // degenerate probabilities none.
        assert_eq!(levels(0.5), 1);
        assert_eq!(levels(0.75), 2);
        assert_eq!(levels(0.0), 0);
        assert_eq!(levels(1.0), 0);
        // Arbitrary probabilities cap out at the quantization resolution.
        assert!(levels(0.1) <= BernoulliSchedule::SLICE_RESOLUTION_BITS);
        assert!(levels(0.33) <= BernoulliSchedule::SLICE_RESOLUTION_BITS);
    }

    #[test]
    fn bernoulli_word_fill_matches_point_queries() {
        // The acceptance contract of the sparse probe path: `is_present`
        // and `edges_at_into` are two views of one stream.
        for p in [0.1, 0.37, 0.5, 0.9] {
            let g = BernoulliSchedule::new(ring(130), p, 99).expect("valid p");
            for t in 0..50 {
                let set = g.edges_at(t);
                for e in g.ring().edges() {
                    assert_eq!(set.contains(e), g.is_present(e, t), "p={p} t={t} e={e}");
                }
            }
        }
    }

    #[test]
    fn sampled_word_matches_snapshot_word_extraction() {
        // The sparse-sampling contract: a sampled word is bit-for-bit the
        // corresponding word of the full snapshot, including the masked
        // tail at n % 64 != 0.
        for n in [2usize, 63, 64, 65, 127, 130] {
            for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let g = BernoulliSchedule::new(ring(n), p, 0xABCD).expect("valid p");
                for t in 0..20u64 {
                    let snapshot = g.edges_at(t);
                    for word in 0..snapshot.word_count() {
                        assert_eq!(
                            g.sampled_presence_word(t, word),
                            Some(snapshot.as_words()[word]),
                            "n={n} p={p} t={t} word={word}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn always_present_sampled_word_is_the_masked_full_word() {
        let g = AlwaysPresent::new(ring(67));
        assert_eq!(g.sampled_presence_word(5, 0), Some(u64::MAX));
        assert_eq!(g.sampled_presence_word(5, 1), Some(0b111));
        let snapshot = g.edges_at(5);
        assert_eq!(g.sampled_presence_word(5, 1), Some(snapshot.as_words()[1]));
    }

    #[test]
    fn sampled_word_defaults_to_none_for_frame_schedules() {
        // Calling through a generic bound on `&S` exercises the
        // forwarding impls, which must propagate the answer unchanged.
        fn via_forwarding<S: EdgeSchedule>(s: S) -> Option<u64> {
            s.sampled_presence_word(0, 0)
        }
        let s = ScriptedSchedule::empty(ring(3), TailBehavior::AllPresent);
        assert_eq!(s.sampled_presence_word(0, 0), None);
        assert_eq!(via_forwarding(&s), None);
        let boxed: Box<dyn EdgeSchedule> = Box::new(s);
        assert_eq!(boxed.sampled_presence_word(0, 0), None);
        let g = BernoulliSchedule::new(ring(3), 0.5, 1).expect("valid p");
        assert_eq!(via_forwarding(&g), g.sampled_presence_word(0, 0));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn sampled_word_panics_out_of_range() {
        let g = BernoulliSchedule::new(ring(64), 0.5, 1).expect("valid p");
        let _ = g.sampled_presence_word(0, 1);
    }

    #[test]
    fn sparse_fill_matches_point_and_full_fills_for_every_edge_and_lane() {
        // The three replica-word surfaces — point query, full fill,
        // sparse fill (with duplicate edges in the list) — are one
        // stream.
        for p in [0.0, 0.3, 0.5, 0.75, 1.0] {
            let replicas = BernoulliReplicas::new(ring(13), p, 0xFACE).expect("valid p");
            let edges: Vec<u32> = (0..13u32).chain([0, 5, 5, 12]).collect();
            let mut full = vec![0u64; 13];
            let mut sparse = vec![0u64; 13];
            for t in 0..30u64 {
                replicas.presence_words_into(t, &mut full);
                sparse.fill(0);
                replicas.presence_words_sparse_into(t, &edges, &mut sparse);
                assert_eq!(full, sparse, "p={p} t={t}");
                for e in replicas.ring().edges() {
                    assert_eq!(
                        full[e.index()],
                        replicas.presence_word(e, t),
                        "p={p} t={t} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn integer_threshold_matches_f64_compare_exactly() {
        // The historical compare mapped h to (h >> 11) / 2^53; its decision
        // can only flip at 2^11-aligned hash values. Sweep every alignment
        // in a window around each probability's threshold (with low bits 0,
        // 1 and all-ones) plus a pseudo-random sample of the full range.
        let old = |h: u64, p: f64| ((h >> 11) as f64 / (1u64 << 53) as f64) < p;
        let new = |h: u64, p: f64| match BernoulliSchedule::reference_threshold(p) {
            None => true,
            Some(threshold) => h < threshold,
        };
        #[allow(clippy::approx_constant)]
        let ps = [
            0.0,
            1e-17,
            f64::EPSILON,
            0.1,
            0.25,
            1.0 / 3.0,
            0.5,
            0.7,
            0.9,
            0.999_999,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        for &p in &ps {
            let t53 = (p * (1u64 << 53) as f64).ceil() as u64;
            let lo = t53.saturating_sub(64);
            let hi = (t53 + 64).min(1u64 << 53);
            for m in lo..hi {
                for h in [m << 11, (m << 11) | 1, (m << 11) | 0x7ff] {
                    assert_eq!(new(h, p), old(h, p), "p={p} h={h:#018x}");
                }
            }
            let mut state = 0x1234_5678_9abc_def0u64;
            for _ in 0..4096 {
                state = mix64(state);
                assert_eq!(new(state, p), old(state, p), "p={p} h={state:#018x}");
            }
        }
    }

    #[test]
    fn word_and_reference_streams_share_the_rate() {
        // Distribution equivalence: the bit-sliced stream and the reference
        // per-edge stream are different bit sequences drawn from the same
        // Bernoulli(p) distribution. The bound, 4.5 sigma plus the
        // sampler's 2^-17 quantization, is a chi-square test at 20.25.
        // Sixteen seeds per p: as many cases as the integration proptest
        // runs on the word stream alone.
        let seeds = std::iter::once(2024).chain((1..16).map(mix64));
        let cases = seeds.flat_map(|seed| [0.1, 0.5, 0.9].map(|p| (p, seed)));
        for (p, seed) in cases {
            let g = BernoulliSchedule::new(ring(64), p, seed).expect("valid p");
            let horizon = 400u64;
            let mut word_hits = 0usize;
            let mut reference_hits = 0usize;
            for t in 0..horizon {
                for e in g.ring().edges() {
                    word_hits += usize::from(g.is_present(e, t));
                    reference_hits += usize::from(g.reference_is_present(e, t));
                }
            }
            let samples = (64 * horizon) as f64;
            let sigma = (p * (1.0 - p) / samples).sqrt();
            let quantization = 1.0 / (1u64 << 17) as f64;
            for (label, hits) in [("word", word_hits), ("reference", reference_hits)] {
                let rate = hits as f64 / samples;
                assert!(
                    (rate - p).abs() < 4.5 * sigma + quantization,
                    "{label} rate {rate} too far from {p} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn replica_lanes_match_the_word_stream() {
        // The serial-equivalence contract: lane l's scalar schedule reads
        // exactly bit l of the presence word, through both query paths.
        for p in [0.0, 0.3, 0.5, 1.0] {
            let replicas = BernoulliReplicas::new(ring(9), p, 0xFACADE).expect("valid p");
            for t in 0..40u64 {
                for e in replicas.ring().edges() {
                    let word = replicas.presence_word(e, t);
                    for lane in [0u32, 1, 31, 63] {
                        let scalar = replicas.lane(lane);
                        assert_eq!(
                            scalar.is_present(e, t),
                            (word >> lane) & 1 == 1,
                            "p={p} t={t} e={e} lane={lane}"
                        );
                        assert_eq!(
                            scalar.edges_at(t).contains(e),
                            scalar.is_present(e, t),
                            "p={p} t={t} e={e} lane={lane} (snapshot path)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replica_word_fill_matches_point_queries() {
        let replicas = BernoulliReplicas::new(ring(13), 0.4, 99).expect("valid p");
        let mut buf = vec![0u64; 13];
        for t in 0..30u64 {
            replicas.presence_words_into(t, &mut buf);
            for e in replicas.ring().edges() {
                assert_eq!(buf[e.index()], replicas.presence_word(e, t), "t={t} e={e}");
            }
        }
    }

    #[test]
    fn replica_lanes_are_distinct_and_rate_correct() {
        // Lanes are independent Bernoulli streams: distinct realizations,
        // shared rate.
        let p = 0.5;
        let replicas = BernoulliReplicas::new(ring(16), p, 2026).expect("valid p");
        let horizon = 500u64;
        let mut lane_bits: Vec<Vec<bool>> = Vec::new();
        for lane in [0u32, 7, 63] {
            let s = replicas.lane(lane);
            let bits: Vec<bool> = (0..horizon)
                .flat_map(|t| s.ring().edges().map(move |e| (e, t)))
                .map(|(e, t)| s.is_present(e, t))
                .collect();
            let rate = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
            assert!((rate - p).abs() < 0.03, "lane {lane} rate {rate}");
            lane_bits.push(bits);
        }
        assert_ne!(lane_bits[0], lane_bits[1]);
        assert_ne!(lane_bits[1], lane_bits[2]);
    }

    #[test]
    fn replicas_reject_bad_probability() {
        assert!(matches!(
            BernoulliReplicas::new(ring(3), -0.1, 0),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn replica_slice_cost_matches_the_edge_stream() {
        for p in [0.0, 0.5, 0.75, 0.1, 1.0] {
            let edges = BernoulliSchedule::new(ring(4), p, 0).expect("valid p");
            let lanes = BernoulliReplicas::new(ring(4), p, 0).expect("valid p");
            assert_eq!(edges.slice_levels(), lanes.slice_levels(), "p={p}");
        }
    }

    #[test]
    fn try_is_present_reports_foreign_edges() {
        let g = BernoulliSchedule::new(ring(4), 0.5, 1).expect("valid p");
        assert!(matches!(
            g.try_is_present(EdgeId::new(9), 0),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        assert!(g.try_is_present(EdgeId::new(2), 3).is_ok());
        // The trait default covers every schedule type.
        let s = AlwaysPresent::new(ring(4));
        assert_eq!(s.try_is_present(EdgeId::new(1), 0), Ok(true));
        assert!(s.try_is_present(EdgeId::new(4), 0).is_err());
    }

    #[test]
    fn schedule_trait_object_usable_through_references() {
        let g = AlwaysPresent::new(ring(3));
        fn takes_schedule<S: EdgeSchedule>(s: S) -> usize {
            s.edges_at(0).len()
        }
        assert_eq!(takes_schedule(&g), 3);
        let boxed: Box<dyn EdgeSchedule> = Box::new(g);
        assert_eq!(takes_schedule(&boxed), 3);
    }

    #[test]
    fn serde_round_trip_scripted() {
        let r = ring(3);
        let s = ScriptedSchedule::new(
            r,
            vec![EdgeSet::from_indices(3, [0, 2])],
            TailBehavior::Cycle,
        )
        .expect("valid script");
        let json = serde_json::to_string(&s).expect("serialize");
        let back: ScriptedSchedule = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(s, back);
    }
}
