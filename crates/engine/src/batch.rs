//! The bit-sliced lockstep engine, generic over lane arity.
//!
//! Monte Carlo workloads (cover-time distributions, survival rates over
//! thousands of Bernoulli seeds) run the *same scenario* under many
//! independent stochastic schedules. [`BatchSimulator`] executes
//! `W::LANES` such replicas in lockstep, one bit **lane** per replica,
//! where `W` is a [`LaneWord`] — `u64` (the original 64-lane engine, and
//! the default), `Lanes128` or `Lanes256`:
//!
//! - the four observable bits of each robot's [`crate::View`] (left edge,
//!   right edge, other robots, direction) are stored structure-of-arrays
//!   as one lane word per robot ([`crate::ViewWords`]);
//! - the Compute phase is one [`BatchAlgorithm::compute_word`] call per
//!   robot — a boolean circuit over whole words for the portfolio
//!   algorithms, a lane-by-lane scalar loop for [`crate::PerLane`];
//! - stochastic presence bits come one 64-lane **plane** at a time from
//!   [`BatchDynamics`]: lane `l` lives in plane `l / 64`, and each plane
//!   is fed by its own independent [`dynring_graph::BernoulliReplicas`]
//!   stream (bundled as a [`dynring_graph::BernoulliReplicaBank`] at wide
//!   arities), so one AND/OR slice ladder per edge feeds 64 replicas and
//!   plane `w` of a wide run is bit-for-bit the 64-lane run of seed
//!   block `w`;
//! - only positions are inherently per-lane integers; moves are applied
//!   in a short per-lane loop driven by the `moved` word, plane by plane.
//!
//! Every lane is bit-for-bit a serial [`crate::Simulator`] run against
//! the lane's derived scalar schedule
//! ([`dynring_graph::BernoulliReplicas::lane`]) — pinned by equivalence
//! proptests across the whole algorithm portfolio.
//!
//! Scheduling: FSYNC by default (the paper's model for all possibility
//! results). [`BatchSimulator::set_activation`] installs a word-parallel
//! SSYNC policy ([`crate::BatchActivation`]): each round every robot gets
//! an activation word — one bit per lane, structurally identical to the
//! presence words — and inactive lanes skip Look-Compute-Move exactly as
//! the serial engine's inactive robots do. The built-in deterministic
//! policies are lane-uniform, so a fully-inactive robot is skipped
//! outright; lane-mixed words route through
//! [`BatchAlgorithm::compute_word_masked`].

use dynring_graph::{
    BernoulliReplicaBank, BernoulliReplicas, EdgeSchedule, EdgeSet, LaneWord, NodeId,
    RingTopology, Time,
};

use crate::{
    BatchActivation, BatchAlgorithm, Chirality, EngineError, FullActivation, LocalDir, RobotId,
    RobotPlacement, RobotSnapshot, ViewWords,
};

/// Lanes per 64-bit plane; [`LaneWord`] arities are whole multiples.
pub const LANES: usize = 64;

/// The batch adversary: supplies, each round, the presence words of one
/// 64-lane **plane** at a time — bit `j` of a plane-`w` word is "present
/// in replica `64·w + j`".
///
/// Mirrors [`crate::Dynamics`] one level up: each plane is queried
/// exactly once per round, planes in increasing order, with strictly
/// increasing times across rounds. Batch dynamics are oblivious by
/// construction (the replicas diverge, so there is no single
/// configuration to adapt to); adaptive adversaries stay on the serial
/// engine.
pub trait BatchDynamics<W: LaneWord = u64> {
    /// The ring whose edges are scheduled.
    fn ring(&self) -> &RingTopology;

    /// Number of planes this dynamics can serve. The engine requires at
    /// least `W::WORDS`; the default is exactly that (right for dynamics
    /// that are uniform or derived per plane). A seeded bank with a fixed
    /// plane count overrides this with its real width.
    fn plane_count(&self) -> usize {
        W::WORDS
    }

    /// Writes one presence word per edge for plane `plane` at time `t`
    /// (`out.len()` is the ring's edge count) — the full snapshot fill.
    fn presence_plane_into(&mut self, t: Time, plane: usize, out: &mut [u64]);

    /// Whether this dynamics supports the fused demand-driven gather
    /// ([`BatchDynamics::presence_gather`]). Support is a static property
    /// of the dynamics — the engine reads it once at construction (and on
    /// [`BatchSimulator::set_sparse_fill`]) and never mid-run. The
    /// default is `false`: "full fills only".
    fn supports_sparse_gather(&self) -> bool {
        false
    }

    /// The fused demand-driven gather: for the 64 lane positions of one
    /// robot in plane `plane` (`positions[l]` is lane `plane·64 + l`'s
    /// node index), packs the presence bits of the two adjacent ring
    /// edges directly — bit `l` of the first word is the clockwise edge
    /// `e_v`, bit `l` of the second the counter-clockwise edge
    /// `e_{v-1 mod n}`. Answers must be bit-for-bit the masked reads the
    /// engine would have made against a [`BatchDynamics::presence_plane_into`]
    /// snapshot for the same `(t, plane)`, so the two strategies are
    /// interchangeable per round.
    ///
    /// On large rings this replaces an `n`-word snapshot per plane with
    /// `2·k` inline draws per plane and **no intermediate buffers at
    /// all** — the cache behaviour the wide arities live on. Dynamics
    /// with per-edge random access (the pure replica streams, point-query
    /// schedules) should answer this; the default panics, guarded by
    /// [`BatchDynamics::supports_sparse_gather`].
    fn presence_gather(&mut self, _t: Time, _plane: usize, _positions: &[u32]) -> (u64, u64) {
        unreachable!("presence_gather requires supports_sparse_gather() == true")
    }
}

impl BatchDynamics for BernoulliReplicas {
    fn ring(&self) -> &RingTopology {
        BernoulliReplicas::ring(self)
    }

    fn presence_plane_into(&mut self, t: Time, plane: usize, out: &mut [u64]) {
        debug_assert_eq!(plane, 0, "a single replica stream is one plane");
        BernoulliReplicas::presence_words_into(self, t, out);
    }

    fn supports_sparse_gather(&self) -> bool {
        true
    }

    fn presence_gather(&mut self, t: Time, plane: usize, positions: &[u32]) -> (u64, u64) {
        debug_assert_eq!(plane, 0, "a single replica stream is one plane");
        self.presence_pair_bits(t, positions)
    }
}

impl<W: LaneWord> BatchDynamics<W> for BernoulliReplicaBank {
    fn ring(&self) -> &RingTopology {
        BernoulliReplicaBank::ring(self)
    }

    fn plane_count(&self) -> usize {
        self.words()
    }

    fn presence_plane_into(&mut self, t: Time, plane: usize, out: &mut [u64]) {
        self.stream(plane).presence_words_into(t, out);
    }

    fn supports_sparse_gather(&self) -> bool {
        true
    }

    fn presence_gather(&mut self, t: Time, plane: usize, positions: &[u32]) -> (u64, u64) {
        self.stream(plane).presence_pair_bits(t, positions)
    }
}

/// Plays one pure scalar schedule identically in every lane: presence
/// words are all-ones or all-zeros per edge, the same in every plane.
///
/// Useful for deterministic dynamics (static rings, scripted outages)
/// where the replicas only differ through the algorithm's own state —
/// and as the degenerate reference in equivalence tests.
#[derive(Debug, Clone)]
pub struct UniformBatch<S> {
    schedule: S,
    frame: EdgeSet,
    /// The time `frame` holds, so multi-plane rounds pay one
    /// `edges_at_into` instead of one per plane.
    frame_time: Option<Time>,
}

impl<S: EdgeSchedule> UniformBatch<S> {
    /// Wraps a pure schedule.
    pub fn new(schedule: S) -> Self {
        let frame = EdgeSet::empty(schedule.ring().edge_count());
        UniformBatch {
            schedule,
            frame,
            frame_time: None,
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &S {
        &self.schedule
    }
}

impl<S: EdgeSchedule, W: LaneWord> BatchDynamics<W> for UniformBatch<S> {
    fn ring(&self) -> &RingTopology {
        self.schedule.ring()
    }

    fn presence_plane_into(&mut self, t: Time, _plane: usize, out: &mut [u64]) {
        if self.frame_time != Some(t) {
            self.schedule.edges_at_into(t, &mut self.frame);
            self.frame_time = Some(t);
        }
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = if self.frame.contains(dynring_graph::EdgeId::new(e)) {
                u64::MAX
            } else {
                0
            };
        }
    }

    fn supports_sparse_gather(&self) -> bool {
        true
    }

    /// Pure schedules are lane-uniform, so the gather reads the cached
    /// frame bitset (one [`EdgeSchedule::edges_at_into`] per round shared
    /// across robots and planes) and broadcasts each edge's bit to the
    /// lane.
    fn presence_gather(&mut self, t: Time, _plane: usize, positions: &[u32]) -> (u64, u64) {
        if self.frame_time != Some(t) {
            self.schedule.edges_at_into(t, &mut self.frame);
            self.frame_time = Some(t);
        }
        let n = self.schedule.ring().node_count() as u32;
        let mut cw = 0u64;
        let mut ccw = 0u64;
        let mut mask = 1u64;
        for &v in positions {
            if self.frame.contains(dynring_graph::EdgeId::new(v as usize)) {
                cw |= mask;
            }
            let e = ccw_edge(v, n) as usize;
            if self.frame.contains(dynring_graph::EdgeId::new(e)) {
                ccw |= mask;
            }
            mask = mask.rotate_left(1);
        }
        (cw, ccw)
    }
}

/// `W::LANES` independent replicas of one scenario, executed in lockstep.
///
/// All replicas share the ring, the algorithm and the initial placements;
/// they differ only through the dynamics' per-lane presence bits (and the
/// divergence those induce). See the module docs for the layout and the
/// crate docs for the round semantics — each lane runs exactly the
/// paper's Look-Compute-Move round under the installed activation policy
/// (FSYNC unless [`BatchSimulator::set_activation`] says otherwise).
pub struct BatchSimulator<A: BatchAlgorithm<W>, D: BatchDynamics<W>, W: LaneWord = u64> {
    ring: RingTopology,
    algorithm: A,
    dynamics: D,
    time: Time,
    /// Per-robot fixed chirality (shared by all lanes).
    chirality: Vec<Chirality>,
    /// Robot-major positions: `positions[r * W::LANES + l]` is robot
    /// `r`'s node index in lane `l`.
    positions: Vec<u32>,
    /// Per-robot direction word (lane set ⇔ `Right`).
    dirs: Vec<W>,
    /// Per-robot moved-last-round word.
    moved: Vec<W>,
    /// Per-robot batch state.
    states: Vec<A::BatchState>,
    /// Full-fill presence snapshot of the current round, plane-major:
    /// plane `w` of edge `e` at `snap_words[w * edge_count + e]`.
    snap_words: Vec<u64>,
    /// Per-robot "other robots on my node" scratch words.
    others_words: Vec<W>,
    /// Per-lane occupancy scratch (used when the team is too large for
    /// pairwise comparison), cleared sparsely via `occ_touched`.
    occ: Vec<u8>,
    occ_touched: Vec<u32>,
    /// Whether the Look phase gathers presence on demand through
    /// [`BatchDynamics::presence_gather`] instead of filling `snap_words`
    /// — auto-set at construction from the dynamics' capability and the
    /// ring/team shape, overridable via
    /// [`BatchSimulator::set_sparse_fill`] (clamped to the capability).
    sparse_fill: bool,
    /// The SSYNC activation policy ([`FullActivation`] by default).
    activation: Box<dyn BatchActivation<W> + Send>,
    /// Cached [`BatchActivation::is_full`] — the FSYNC fast path skips
    /// activation words entirely.
    activation_full: bool,
}

/// Team sizes up to this bound detect towers by pairwise position
/// comparison (`k·(k-1)/2` word-free compares per lane); larger teams use
/// the sparse occupancy scratch.
const PAIRWISE_OCCUPANCY_MAX: usize = 8;

/// The sparse gather is on by default only when the worst-case gathered
/// edge count per plane (`2·k·64`: every lane of every robot on its own
/// node, two adjacent edges each) stays below this fraction of the ring —
/// both strategies scale linearly in the plane count, so the cutover is
/// the same at every arity. `2` means "at most half the ring's words".
const SPARSE_FILL_HEADROOM: usize = 2;

/// Whether a freshly built batch simulator with `robots` robots on an
/// `edges`-edge ring starts on the demand-driven sparse gather, given
/// a dynamics that supports it — the size cutover
/// [`BatchSimulator::new`] applies, exposed so out-of-band telemetry
/// can label batch units `sparse` vs `full` without building one.
pub fn sparse_fill_default(robots: usize, edges: usize) -> bool {
    SPARSE_FILL_HEADROOM * 2 * robots * LANES <= edges
}

/// The counter-clockwise edge at node `v`: `e_{v-1 mod n}` (the clockwise
/// edge is `e_v`). Explicit modular arithmetic — `n` is a `u32` node
/// count ≥ 2, so `v == 0` wraps to `n - 1`.
#[inline]
fn ccw_edge(v: u32, n: u32) -> u32 {
    if v == 0 { n - 1 } else { v - 1 }
}

impl<A: BatchAlgorithm<W>, D: BatchDynamics<W>, W: LaneWord> BatchSimulator<A, D, W> {
    /// Builds a batch simulator for a *well-initiated* execution (same
    /// validation as [`crate::Simulator::new`], applied to the shared
    /// placements).
    ///
    /// # Errors
    ///
    /// See [`crate::Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics when the dynamics serves fewer planes than the arity needs
    /// ([`BatchDynamics::plane_count`]` < W::WORDS`) — a construction
    /// bug, not a runtime condition.
    pub fn new(
        ring: RingTopology,
        algorithm: A,
        dynamics: D,
        placements: Vec<RobotPlacement>,
    ) -> Result<Self, EngineError> {
        if placements.is_empty() {
            return Err(EngineError::NoRobots);
        }
        if placements.len() >= ring.node_count() {
            return Err(EngineError::TooManyRobots {
                robots: placements.len(),
                nodes: ring.node_count(),
            });
        }
        if dynamics.ring().node_count() != ring.node_count() {
            return Err(EngineError::RingMismatch {
                expected: ring.node_count(),
                found: dynamics.ring().node_count(),
            });
        }
        assert!(
            dynamics.plane_count() >= W::WORDS,
            "dynamics serves {} presence planes but a {}-lane batch needs {}",
            dynamics.plane_count(),
            W::LANES,
            W::WORDS
        );
        let mut seen = vec![false; ring.node_count()];
        for p in &placements {
            if !ring.contains_node(p.node) {
                return Err(EngineError::NodeOutOfRange {
                    node: p.node,
                    nodes: ring.node_count(),
                });
            }
            if seen[p.node.index()] {
                return Err(EngineError::InitialTower { node: p.node });
            }
            seen[p.node.index()] = true;
        }
        let k = placements.len();
        let mut positions = Vec::with_capacity(k * W::LANES);
        for p in &placements {
            positions.extend(std::iter::repeat_n(p.node.index() as u32, W::LANES));
        }
        let sparse_fill =
            dynamics.supports_sparse_gather() && sparse_fill_default(k, ring.edge_count());
        let dirs = placements
            .iter()
            .map(|p| match p.initial_dir {
                LocalDir::Left => W::ZERO,
                LocalDir::Right => W::ONES,
            })
            .collect();
        let states = (0..k).map(|_| algorithm.initial_batch_state()).collect();
        let snap_words = vec![0u64; W::WORDS * ring.edge_count()];
        let occ = vec![0u8; ring.node_count()];
        Ok(BatchSimulator {
            chirality: placements.iter().map(|p| p.chirality).collect(),
            ring,
            algorithm,
            dynamics,
            time: 0,
            positions,
            dirs,
            moved: vec![W::ZERO; k],
            states,
            snap_words,
            others_words: vec![W::ZERO; k],
            occ,
            occ_touched: Vec::new(),
            sparse_fill,
            activation: Box::new(FullActivation),
            activation_full: true,
        })
    }

    /// Whether the snapshot fill is currently demand-driven (see
    /// [`BatchSimulator::set_sparse_fill`]).
    pub fn sparse_fill(&self) -> bool {
        self.sparse_fill
    }

    /// Forces the Look-phase presence strategy. The default is automatic:
    /// sparse when the dynamics supports the fused gather and the
    /// worst-case gathered edge count per plane (`2·k·64`) fits in half
    /// the ring, full otherwise. Both strategies produce bit-for-bit
    /// identical executions (the gather packs the same per-edge bits the
    /// full fill would have exposed), so this knob only trades
    /// throughput. Enabling sparse over a dynamics without
    /// [`BatchDynamics::supports_sparse_gather`] is harmless: the
    /// request is clamped to the capability and the full fill stays.
    pub fn set_sparse_fill(&mut self, enabled: bool) {
        self.sparse_fill = enabled && self.dynamics.supports_sparse_gather();
    }

    /// Installs an SSYNC activation policy (word-parallel; FSYNC —
    /// [`FullActivation`] — until called). Lane `l` of each robot's
    /// activation word must match what the serial engine's
    /// [`crate::ActivationPolicy`] would decide for that robot in that
    /// lane's replica, which the built-in lane-uniform policies guarantee
    /// by construction.
    pub fn set_activation<P: BatchActivation<W> + Send + 'static>(&mut self, policy: P) {
        self.activation_full = policy.is_full();
        self.activation = Box::new(policy);
    }

    /// Current time `t` (rounds executed, identical in every lane).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The ring.
    pub fn ring(&self) -> &RingTopology {
        &self.ring
    }

    /// The algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The batch dynamics.
    pub fn dynamics(&self) -> &D {
        &self.dynamics
    }

    /// Number of robots `k` (per replica).
    pub fn robot_count(&self) -> usize {
        self.chirality.len()
    }

    /// Positions of lane `lane`, in robot-id order.
    ///
    /// # Panics
    ///
    /// Panics when `lane ≥ W::LANES`.
    pub fn positions_of(&self, lane: u32) -> Vec<NodeId> {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        (0..self.robot_count())
            .map(|r| NodeId::new(self.positions[r * W::LANES + lane as usize] as usize))
            .collect()
    }

    /// Direction of robot `robot` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `robot` or `lane` is out of range.
    pub fn dir_of(&self, robot: RobotId, lane: u32) -> LocalDir {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        ViewWords::dir_from_bit(self.dirs[robot.index()].get(lane as usize))
    }

    /// Whether robot `robot` moved last round in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `robot` or `lane` is out of range.
    pub fn moved_of(&self, robot: RobotId, lane: u32) -> bool {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        self.moved[robot.index()].get(lane as usize)
    }

    /// The moved-last-round word of robot `robot` (lane `l` ⇔ replica
    /// `l`).
    ///
    /// # Panics
    ///
    /// Panics when `robot` is out of range.
    pub fn moved_word(&self, robot: RobotId) -> W {
        self.moved[robot.index()]
    }

    /// The scalar algorithm state of robot `robot` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `robot` or `lane` is out of range.
    pub fn lane_state(&self, robot: RobotId, lane: u32) -> A::State {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        self.algorithm.lane_state(&self.states[robot.index()], lane)
    }

    /// The full configuration of lane `lane`, as the serial engine would
    /// report it.
    ///
    /// # Panics
    ///
    /// Panics when `lane ≥ W::LANES`.
    pub fn lane_snapshots(&self, lane: u32) -> Vec<RobotSnapshot> {
        assert!(
            (lane as usize) < W::LANES,
            "lanes are 0..{}, got {lane}",
            W::LANES
        );
        (0..self.robot_count())
            .map(|r| RobotSnapshot {
                id: RobotId::new(r),
                node: NodeId::new(self.positions[r * W::LANES + lane as usize] as usize),
                chirality: self.chirality[r],
                dir: ViewWords::dir_from_bit(self.dirs[r].get(lane as usize)),
                moved_last_round: self.moved[r].get(lane as usize),
            })
            .collect()
    }

    /// Fills `others_words`: lane `l` of word `r` ⇔ robot `r` shares its
    /// node with another robot in lane `l` (the Look phase's weak
    /// multiplicity bit), from the pre-round configuration.
    fn compute_others(&mut self) {
        let k = self.robot_count();
        self.others_words.iter_mut().for_each(|w| *w = W::ZERO);
        if k == 1 {
            return;
        }
        if k <= PAIRWISE_OCCUPANCY_MAX {
            // Pairwise position equality, lane-major over each pair: two
            // contiguous lane columns compared element-wise plane by
            // plane — a branch-free (and vectorizable) equality scan.
            for a in 0..k {
                for b in (a + 1)..k {
                    let pa = &self.positions[a * W::LANES..(a + 1) * W::LANES];
                    let pb = &self.positions[b * W::LANES..(b + 1) * W::LANES];
                    let mut eq = W::ZERO;
                    for (plane, (wa, wb)) in
                        pa.chunks_exact(LANES).zip(pb.chunks_exact(LANES)).enumerate()
                    {
                        // Byte-at-a-time packing keeps the shift
                        // distances small and lets the compiler pack the
                        // compares.
                        let mut eqw = 0u64;
                        for (chunk, (ca, cb)) in
                            wa.chunks_exact(8).zip(wb.chunks_exact(8)).enumerate()
                        {
                            let mut byte = 0u8;
                            for i in 0..8 {
                                byte |= u8::from(ca[i] == cb[i]) << i;
                            }
                            eqw |= u64::from(byte) << (chunk * 8);
                        }
                        eq.set_word(plane, eqw);
                    }
                    self.others_words[a] = self.others_words[a] | eq;
                    self.others_words[b] = self.others_words[b] | eq;
                }
            }
        } else {
            // Large teams: per-lane occupancy counts with sparse undo.
            for lane in 0..W::LANES {
                for &node in self.occ_touched.iter() {
                    self.occ[node as usize] = 0;
                }
                self.occ_touched.clear();
                for r in 0..k {
                    let node = self.positions[r * W::LANES + lane];
                    if self.occ[node as usize] == 0 {
                        self.occ_touched.push(node);
                    }
                    self.occ[node as usize] = self.occ[node as usize].saturating_add(1);
                }
                for r in 0..k {
                    let node = self.positions[r * W::LANES + lane];
                    if self.occ[node as usize] > 1 {
                        self.others_words[r].set(lane, true);
                    }
                }
            }
        }
    }

    /// Executes one lockstep round in all `W::LANES` lanes: one presence
    /// pass per plane (a fused on-demand gather on large rings, a
    /// snapshot fill otherwise), one `compute_word` per active robot,
    /// one short per-lane move loop.
    pub fn step(&mut self) {
        let t = self.time;
        let ec = self.ring.edge_count();
        let k = self.robot_count();
        let sparse_round = self.sparse_fill;
        if !sparse_round {
            for w in 0..W::WORDS {
                self.dynamics
                    .presence_plane_into(t, w, &mut self.snap_words[w * ec..(w + 1) * ec]);
            }
        }
        self.compute_others();
        let n = self.ring.node_count() as u32;
        for r in 0..k {
            let act = if self.activation_full {
                W::ONES
            } else {
                self.activation.activation_word(t, k, r)
            };
            if act == W::ZERO {
                // Fully inactive robot: exactly the serial engine's
                // inactive branch — dir, moved-last-round, state and
                // position all persist untouched.
                continue;
            }
            // Look: gather the two adjacent presence bits of every lane,
            // plane by plane. At node v the clockwise edge is e_v and the
            // counter-clockwise edge is e_{v-1 mod n}; chirality maps
            // them to left/right. The sparse gather hands the lane
            // positions straight to the dynamics (no intermediate
            // buffers); the full fill masks bit `l mod 64` out of each
            // edge's plane word in `snap_words`. Reading `positions` here
            // is pre-round by construction: robot `r`'s lanes are only
            // written in its own Move section below.
            let mut cw = W::ZERO;
            let mut ccw = W::ZERO;
            for w in 0..W::WORDS {
                let lanes_at = r * W::LANES + w * LANES;
                let (cw_bits, ccw_bits) = if sparse_round {
                    self.dynamics
                        .presence_gather(t, w, &self.positions[lanes_at..lanes_at + LANES])
                } else {
                    let snap = &self.snap_words[w * ec..(w + 1) * ec];
                    let lane_pos = &self.positions[lanes_at..lanes_at + LANES];
                    let mut cw_bits = 0u64;
                    let mut ccw_bits = 0u64;
                    let mut mask = 1u64;
                    for &v in lane_pos {
                        cw_bits |= snap[v as usize] & mask;
                        ccw_bits |= snap[ccw_edge(v, n) as usize] & mask;
                        mask = mask.rotate_left(1);
                    }
                    (cw_bits, ccw_bits)
                };
                cw.set_word(w, cw_bits);
                ccw.set_word(w, ccw_bits);
            }
            let (edge_left, edge_right) = match self.chirality[r] {
                Chirality::Standard => (ccw, cw),
                Chirality::Mirrored => (cw, ccw),
            };
            let view = ViewWords {
                dir: self.dirs[r],
                edge_left,
                edge_right,
                others: self.others_words[r],
            };
            // Compute: all lanes in one call; inactive lanes (if any)
            // keep their direction bit and state through the masked form.
            let dir_after = if act == W::ONES {
                self.algorithm.compute_word(&mut self.states[r], &view)
            } else {
                self.algorithm
                    .compute_word_masked(&mut self.states[r], &view, act)
            };
            // Move: cross the pointed edge iff present in the same
            // snapshot — the adjacent edge in the *new* direction —
            // restricted to the activated lanes.
            let moved = ((dir_after & edge_right) | (!dir_after & edge_left)) & act;
            // Lane set ⇔ the move (if any) goes globally clockwise.
            let cw_word = match self.chirality[r] {
                Chirality::Standard => dir_after,
                Chirality::Mirrored => !dir_after,
            };
            // Branch-free position update in every lane: the (moved, cw)
            // bit pair selects the step — 0 mod n for parked lanes, +1
            // for clockwise moves, n-1 for counter-clockwise ones.
            let step_table = [0u32, 0, n - 1, 1];
            for w in 0..W::WORDS {
                let mbits = moved.word(w);
                if mbits == 0 {
                    // No lane of this plane moved: positions all keep.
                    continue;
                }
                let cbits = cw_word.word(w);
                let lanes_at = r * W::LANES + w * LANES;
                let lane_pos = &mut self.positions[lanes_at..lanes_at + LANES];
                // Indexed bit extraction instead of a running shift: no
                // loop-carried dependency, so the lane updates pipeline.
                for (l, v) in lane_pos.iter_mut().enumerate() {
                    let idx = ((((mbits >> l) & 1) << 1) | ((cbits >> l) & 1)) as usize;
                    let nv = *v + step_table[idx];
                    *v = if nv >= n { nv - n } else { nv };
                }
            }
            self.dirs[r] = dir_after;
            self.moved[r] = moved | (self.moved[r] & !act);
        }
        self.time += 1;
    }

    /// Executes `rounds` lockstep rounds (`rounds × W::LANES`
    /// replica-rounds).
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until every lane tracked by `coverage` has completed its
    /// first cover or `max_rounds` elapse; returns the rounds executed.
    ///
    /// # Panics
    ///
    /// Panics when `coverage` was built for a different ring size.
    pub fn run_covering(&mut self, max_rounds: u64, coverage: &mut BatchCoverage<W>) -> u64 {
        for executed in 0..max_rounds {
            if coverage.all_covered() {
                return executed;
            }
            self.step();
            coverage.observe(self);
        }
        max_rounds
    }
}

/// First-cover tracking across all `W::LANES` lanes of a
/// [`BatchSimulator`]: which rounds each replica first visited every
/// node.
///
/// Kept outside the simulator so pure-throughput runs pay nothing for it.
#[derive(Debug, Clone)]
pub struct BatchCoverage<W: LaneWord = u64> {
    /// Per node: the lanes that have visited it.
    visited: Vec<W>,
    /// Per lane: nodes not yet visited.
    remaining: Vec<u32>,
    /// Per lane: round of the first complete cover.
    first_cover: Vec<Option<Time>>,
}

impl<W: LaneWord> BatchCoverage<W> {
    /// Starts tracking from `sim`'s current configuration (the occupied
    /// nodes count as visited, as in [`crate::ExecutionTrace`]).
    pub fn new<A: BatchAlgorithm<W>, D: BatchDynamics<W>>(sim: &BatchSimulator<A, D, W>) -> Self {
        let n = sim.ring().node_count();
        let mut coverage = BatchCoverage {
            visited: vec![W::ZERO; n],
            remaining: vec![n as u32; W::LANES],
            first_cover: vec![None; W::LANES],
        };
        coverage.observe(sim);
        coverage
    }

    /// Folds `sim`'s current positions into the ledger; call once after
    /// every [`BatchSimulator::step`].
    pub fn observe<A: BatchAlgorithm<W>, D: BatchDynamics<W>>(
        &mut self,
        sim: &BatchSimulator<A, D, W>,
    ) {
        let t = sim.time();
        let k = sim.robot_count();
        for r in 0..k {
            let lane_pos = &sim.positions[r * W::LANES..(r + 1) * W::LANES];
            for (lane, &v) in lane_pos.iter().enumerate() {
                let seen = &mut self.visited[v as usize];
                if !seen.get(lane) {
                    seen.set(lane, true);
                    self.remaining[lane] -= 1;
                    if self.remaining[lane] == 0 && self.first_cover[lane].is_none() {
                        self.first_cover[lane] = Some(t);
                    }
                }
            }
        }
    }

    /// Round of lane `lane`'s first complete cover, if it happened.
    ///
    /// # Panics
    ///
    /// Panics when `lane ≥ W::LANES`.
    pub fn first_cover(&self, lane: u32) -> Option<Time> {
        self.first_cover[lane as usize]
    }

    /// First-cover rounds of all `W::LANES` lanes.
    pub fn first_covers(&self) -> &[Option<Time>] {
        &self.first_cover
    }

    /// Lanes that have completed a cover, as a lane mask.
    pub fn covered_lanes(&self) -> W {
        let mut mask = W::ZERO;
        for (lane, c) in self.first_cover.iter().enumerate() {
            if c.is_some() {
                mask.set(lane, true);
            }
        }
        mask
    }

    /// `true` when every lane has covered the ring.
    pub fn all_covered(&self) -> bool {
        self.first_cover.iter().all(|c| c.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Algorithm, EveryKth, Oblivious, PerLane, RoundRobinSingle, Simulator, View,
    };
    use dynring_graph::{AbsenceIntervals, AlwaysPresent, EdgeId, Lanes128, Lanes256};

    /// Keeps its direction forever.
    #[derive(Debug, Clone, Copy)]
    struct KeepDir;

    impl Algorithm for KeepDir {
        type State = ();

        fn name(&self) -> &str {
            "keep-dir"
        }

        fn initial_state(&self) {}

        fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
            view.dir()
        }
    }

    /// Bounces on missing edges, counting computes.
    #[derive(Debug, Clone, Copy)]
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

    fn spread(n: usize, k: usize) -> Vec<RobotPlacement> {
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

    fn bank<W: LaneWord>(r: &RingTopology, p: f64, seed: u64) -> BernoulliReplicaBank {
        let seeds: Vec<u64> = (0..W::WORDS as u64).map(|w| seed ^ (w << 8)).collect();
        BernoulliReplicaBank::new(r.clone(), p, &seeds).expect("valid p")
    }

    #[test]
    fn validation_mirrors_the_serial_engine() {
        let r = ring(3);
        let dynamics = || UniformBatch::new(AlwaysPresent::new(ring(3)));
        assert!(matches!(
            BatchSimulator::<_, _, u64>::new(r.clone(), PerLane(KeepDir), dynamics(), vec![]),
            Err(EngineError::NoRobots)
        ));
        let tower = vec![
            RobotPlacement::at(NodeId::new(1)),
            RobotPlacement::at(NodeId::new(1)),
        ];
        assert!(matches!(
            BatchSimulator::<_, _, u64>::new(r.clone(), PerLane(KeepDir), dynamics(), tower),
            Err(EngineError::InitialTower { .. })
        ));
        let mismatched = UniformBatch::new(AlwaysPresent::new(ring(4)));
        assert!(matches!(
            BatchSimulator::<_, _, u64>::new(
                r,
                PerLane(KeepDir),
                mismatched,
                vec![RobotPlacement::at(NodeId::new(0))]
            ),
            Err(EngineError::RingMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dynamics serves 1 presence planes but a 256-lane batch needs 4")]
    fn narrow_banks_are_rejected_at_construction() {
        let r = ring(8);
        let narrow = bank::<u64>(&r, 0.5, 3);
        let _ = BatchSimulator::<_, _, Lanes256>::new(
            r,
            PerLane(KeepDir),
            narrow,
            vec![RobotPlacement::at(NodeId::new(0))],
        );
    }

    #[test]
    fn uniform_static_lanes_all_walk_identically() {
        let r = ring(6);
        let mut batch = BatchSimulator::<_, _, u64>::new(
            r.clone(),
            PerLane(KeepDir),
            UniformBatch::new(AlwaysPresent::new(r.clone())),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let mut serial = Simulator::new(
            r.clone(),
            KeepDir,
            Oblivious::new(AlwaysPresent::new(r)),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        for _ in 0..10 {
            batch.step();
            serial.step_quiet();
            for lane in [0u32, 17, 63] {
                assert_eq!(batch.positions_of(lane), serial.positions());
            }
        }
        assert_eq!(batch.time(), 10);
    }

    #[test]
    fn uniform_scripted_outage_matches_serial_in_every_lane() {
        // A deterministic blink forces direction changes through the
        // Bounce circuit-free fallback; all lanes must track the serial
        // run exactly (positions, dirs, moved flags, states).
        let r = ring(5);
        let mut schedule = AbsenceIntervals::new(r.clone());
        schedule.remove_during(EdgeId::new(4), 0, 3);
        schedule.remove_during(EdgeId::new(1), 2, 6);
        let placements = spread(5, 2);
        let mut batch = BatchSimulator::<_, _, u64>::new(
            r.clone(),
            PerLane(Bounce),
            UniformBatch::new(schedule.clone()),
            placements.clone(),
        )
        .expect("valid setup");
        let mut serial = Simulator::new(r, Bounce, Oblivious::new(schedule), placements)
            .expect("valid setup");
        for round in 0..30 {
            batch.step();
            serial.step_quiet();
            for lane in [0u32, 40] {
                let snaps = batch.lane_snapshots(lane);
                let reference = serial.snapshots();
                assert_eq!(snaps, reference, "round {round} lane {lane}");
                for robot in 0..2 {
                    assert_eq!(
                        batch.lane_state(RobotId::new(robot), lane),
                        *serial.state_of(RobotId::new(robot)),
                        "round {round} lane {lane} robot {robot}"
                    );
                }
            }
        }
    }

    #[test]
    fn bernoulli_lanes_match_their_derived_serial_schedules() {
        // The core lockstep contract on stochastic dynamics, including a
        // team large enough to take the occupancy (non-pairwise) path.
        for (n, k) in [(9usize, 3usize), (23, 11)] {
            let r = ring(n);
            let replicas = BernoulliReplicas::new(r.clone(), 0.45, 0xBEEF).expect("valid p");
            let placements = spread(n, k);
            let mut batch = BatchSimulator::new(
                r.clone(),
                PerLane(Bounce),
                replicas.clone(),
                placements.clone(),
            )
            .expect("valid setup");
            let mut serials: Vec<_> = (0..LANES as u32)
                .map(|lane| {
                    Simulator::new(
                        r.clone(),
                        Bounce,
                        Oblivious::new(replicas.lane(lane)),
                        placements.clone(),
                    )
                    .expect("valid setup")
                })
                .collect();
            for round in 0..60 {
                batch.step();
                for (lane, serial) in serials.iter_mut().enumerate() {
                    serial.step_quiet();
                    assert_eq!(
                        batch.positions_of(lane as u32),
                        serial.positions(),
                        "n={n} k={k} round {round} lane {lane}"
                    );
                }
            }
        }
    }

    /// The wide-arity half of the lockstep contract: every lane of a
    /// 128- and 256-lane bank run matches the serial run of that lane's
    /// derived scalar schedule, and plane 0 is bit-for-bit the 64-lane
    /// run of the same seed.
    #[test]
    fn wide_bernoulli_lanes_match_their_derived_serial_schedules() {
        fn check<W: LaneWord>() {
            let (n, k) = (11usize, 3usize);
            let r = ring(n);
            let b = bank::<W>(&r, 0.45, 0xF00D);
            let placements = spread(n, k);
            let mut batch = BatchSimulator::<_, _, W>::new(
                r.clone(),
                PerLane(Bounce),
                b.clone(),
                placements.clone(),
            )
            .expect("valid setup");
            // Sampled lanes: plane boundaries and interiors of each plane.
            let lanes: Vec<u32> = (0..W::WORDS as u32)
                .flat_map(|w| [w * 64, w * 64 + 1, w * 64 + 63])
                .collect();
            let mut serials: Vec<_> = lanes
                .iter()
                .map(|&lane| {
                    Simulator::new(
                        r.clone(),
                        Bounce,
                        Oblivious::new(b.lane(lane)),
                        placements.clone(),
                    )
                    .expect("valid setup")
                })
                .collect();
            let mut narrow = BatchSimulator::new(
                r.clone(),
                PerLane(Bounce),
                b.stream(0).clone(),
                placements.clone(),
            )
            .expect("valid setup");
            for round in 0..50 {
                batch.step();
                narrow.step();
                for (&lane, serial) in lanes.iter().zip(serials.iter_mut()) {
                    serial.step_quiet();
                    assert_eq!(
                        batch.lane_snapshots(lane),
                        serial.snapshots(),
                        "round {round} lane {lane}"
                    );
                }
                for lane in [0u32, 31, 63] {
                    assert_eq!(
                        batch.lane_snapshots(lane),
                        narrow.lane_snapshots(lane),
                        "round {round}: plane 0 must equal the 64-lane run"
                    );
                }
            }
        }
        check::<Lanes128>();
        check::<Lanes256>();
    }

    /// SSYNC lockstep: under the built-in lane-uniform activation
    /// policies, every lane matches a serial run with the same policy —
    /// at every arity, with a stateful fallback algorithm so frozen
    /// states are also checked.
    #[test]
    fn ssync_activation_matches_serial_in_every_lane() {
        fn check<W: LaneWord, P>(make_policy: fn() -> P)
        where
            P: crate::ActivationPolicy + BatchActivation<W> + Send + 'static,
        {
            let (n, k) = (9usize, 3usize);
            let r = ring(n);
            let b = bank::<W>(&r, 0.5, 0xAB);
            let placements = spread(n, k);
            let mut batch = BatchSimulator::<_, _, W>::new(
                r.clone(),
                PerLane(Bounce),
                b.clone(),
                placements.clone(),
            )
            .expect("valid setup");
            batch.set_activation(make_policy());
            let lanes: Vec<u32> = (0..W::WORDS as u32).flat_map(|w| [w * 64, w * 64 + 63]).collect();
            let mut serials: Vec<_> = lanes
                .iter()
                .map(|&lane| {
                    let mut sim = Simulator::new(
                        r.clone(),
                        Bounce,
                        Oblivious::new(b.lane(lane)),
                        placements.clone(),
                    )
                    .expect("valid setup");
                    sim.set_activation(make_policy());
                    sim
                })
                .collect();
            for round in 0..60 {
                batch.step();
                for (&lane, serial) in lanes.iter().zip(serials.iter_mut()) {
                    serial.step_quiet();
                    assert_eq!(
                        batch.lane_snapshots(lane),
                        serial.snapshots(),
                        "round {round} lane {lane}"
                    );
                    for robot in 0..k {
                        assert_eq!(
                            batch.lane_state(RobotId::new(robot), lane),
                            *serial.state_of(RobotId::new(robot)),
                            "round {round} lane {lane} robot {robot}"
                        );
                    }
                }
            }
        }
        check::<u64, _>(|| RoundRobinSingle);
        check::<u64, _>(|| EveryKth::new(2));
        check::<Lanes128, _>(|| RoundRobinSingle);
        check::<Lanes256, _>(|| EveryKth::new(3));
    }

    /// A deliberately lane-mixed activation policy: lane `l` activates
    /// robot `r` at time `t` iff `(l + r + t)` is even. Forces the
    /// masked compute path; each lane must still match a serial run
    /// under the equivalent scalar policy.
    #[derive(Clone, Copy)]
    struct ParityMixed;

    impl<W: LaneWord> BatchActivation<W> for ParityMixed {
        fn activation_word(&mut self, time: Time, _robots: usize, robot: usize) -> W {
            let mut word = W::ZERO;
            for lane in 0..W::LANES {
                word.set(lane, (lane + robot + time as usize).is_multiple_of(2));
            }
            word
        }
    }

    /// The scalar view of one lane of [`ParityMixed`].
    struct ParityLane(usize);

    impl crate::ActivationPolicy for ParityLane {
        fn activate(&mut self, time: Time, robots: usize) -> Vec<bool> {
            (0..robots)
                .map(|r| (self.0 + r + time as usize).is_multiple_of(2))
                .collect()
        }
    }

    #[test]
    fn lane_mixed_activation_routes_through_the_masked_compute() {
        let (n, k) = (9usize, 3usize);
        let r = ring(n);
        let replicas = BernoulliReplicas::new(r.clone(), 0.5, 7).expect("valid p");
        let placements = spread(n, k);
        let mut batch = BatchSimulator::new(
            r.clone(),
            PerLane(Bounce),
            replicas.clone(),
            placements.clone(),
        )
        .expect("valid setup");
        batch.set_activation(ParityMixed);
        for lane in [0u32, 1, 13, 63] {
            let mut serial = Simulator::new(
                r.clone(),
                Bounce,
                Oblivious::new(replicas.lane(lane)),
                placements.clone(),
            )
            .expect("valid setup");
            serial.set_activation(ParityLane(lane as usize));
            let mut batch = BatchSimulator::new(
                r.clone(),
                PerLane(Bounce),
                replicas.clone(),
                placements.clone(),
            )
            .expect("valid setup");
            batch.set_activation(ParityMixed);
            for round in 0..40 {
                batch.step();
                serial.step_quiet();
                assert_eq!(
                    batch.lane_snapshots(lane),
                    serial.snapshots(),
                    "round {round} lane {lane}"
                );
            }
        }
    }

    /// Exhaustive wraparound check of the adjacent-edge computation: at
    /// node 0 the ccw edge is `n - 1`, at node `n - 1` it is `n - 2`, and
    /// in between it is `v - 1` — for every ring size the engine accepts.
    #[test]
    fn ccw_edge_wraps_exhaustively() {
        for n in 2u32..=130 {
            for v in 0..n {
                let expected = (u64::from(v) + u64::from(n) - 1) % u64::from(n);
                assert_eq!(u64::from(ccw_edge(v, n)), expected, "n={n} v={v}");
            }
            assert_eq!(ccw_edge(0, n), n - 1, "node 0 wraps to the last edge");
            assert_eq!(ccw_edge(n - 1, n), n - 2, "node n-1 stays in range");
        }
    }

    /// Robots sitting on the wrap boundary (nodes 0 and n−1) must consult
    /// the correct edges in both directions: a scripted outage of edge
    /// n−1 (node 0's ccw edge) and edge 0 (node 0's cw edge) steers both
    /// chirality variants identically in batch and serial.
    #[test]
    fn boundary_nodes_read_the_wrapped_edges() {
        for n in [4usize, 5, 64, 65] {
            let r = ring(n);
            let mut schedule = AbsenceIntervals::new(r.clone());
            schedule.remove_during(EdgeId::new(n - 1), 0, 7);
            schedule.remove_during(EdgeId::new(0), 3, 11);
            schedule.remove_during(EdgeId::new(n - 2), 5, 9);
            for chirality in [Chirality::Standard, Chirality::Mirrored] {
                for node in [0usize, n - 1] {
                    let placements =
                        vec![RobotPlacement::at(NodeId::new(node)).with_chirality(chirality)];
                    let mut batch = BatchSimulator::<_, _, u64>::new(
                        r.clone(),
                        PerLane(Bounce),
                        UniformBatch::new(schedule.clone()),
                        placements.clone(),
                    )
                    .expect("valid setup");
                    let mut serial = Simulator::new(
                        r.clone(),
                        Bounce,
                        Oblivious::new(schedule.clone()),
                        placements,
                    )
                    .expect("valid setup");
                    for round in 0..25 {
                        batch.step();
                        serial.step_quiet();
                        assert_eq!(
                            batch.positions_of(0),
                            serial.positions(),
                            "n={n} chirality={chirality:?} start={node} round={round}"
                        );
                    }
                }
            }
        }
    }

    /// A dynamics that supports only the full fill: the default `false`
    /// for `supports_sparse_gather`.
    struct FullFillOnly(BernoulliReplicas);

    impl BatchDynamics for FullFillOnly {
        fn ring(&self) -> &RingTopology {
            BernoulliReplicas::ring(&self.0)
        }

        fn presence_plane_into(&mut self, t: Time, _plane: usize, out: &mut [u64]) {
            self.0.presence_words_into(t, out);
        }
    }

    #[test]
    fn sparse_fill_is_bit_identical_to_full_fill() {
        // The fill contract: forcing the strategy either way changes
        // nothing observable — positions, dirs, moved flags and states
        // stay bit-for-bit equal, on stochastic and deterministic
        // dynamics alike.
        for (n, k) in [(9usize, 3usize), (23, 11), (130, 2)] {
            let r = ring(n);
            let replicas = BernoulliReplicas::new(r.clone(), 0.45, 0xCAFE).expect("valid p");
            let placements = spread(n, k);
            let make = |sparse: bool| {
                let mut sim = BatchSimulator::new(
                    r.clone(),
                    PerLane(Bounce),
                    replicas.clone(),
                    placements.clone(),
                )
                .expect("valid setup");
                sim.set_sparse_fill(sparse);
                sim
            };
            let mut sparse = make(true);
            let mut full = make(false);
            assert!(sparse.sparse_fill() && !full.sparse_fill());
            for round in 0..80 {
                sparse.step();
                full.step();
                for lane in [0u32, 13, 63] {
                    assert_eq!(
                        sparse.lane_snapshots(lane),
                        full.lane_snapshots(lane),
                        "n={n} k={k} round={round} lane={lane}"
                    );
                    for robot in 0..k {
                        assert_eq!(
                            sparse.lane_state(RobotId::new(robot), lane),
                            full.lane_state(RobotId::new(robot), lane),
                            "n={n} k={k} round={round} lane={lane} robot={robot}"
                        );
                    }
                }
            }
        }
    }

    /// The same fill contract at the wide arities, over a bank.
    #[test]
    fn wide_sparse_fill_is_bit_identical_to_full_fill() {
        fn check<W: LaneWord>() {
            let (n, k) = (67usize, 2usize);
            let r = ring(n);
            let b = bank::<W>(&r, 0.45, 0x5EED);
            let placements = spread(n, k);
            let make = |sparse: bool| {
                let mut sim = BatchSimulator::<_, _, W>::new(
                    r.clone(),
                    PerLane(Bounce),
                    b.clone(),
                    placements.clone(),
                )
                .expect("valid setup");
                sim.set_sparse_fill(sparse);
                sim
            };
            let mut sparse = make(true);
            let mut full = make(false);
            for round in 0..60 {
                sparse.step();
                full.step();
                for lane in [0u32, 63, W::LANES as u32 - 1] {
                    assert_eq!(
                        sparse.lane_snapshots(lane),
                        full.lane_snapshots(lane),
                        "round={round} lane={lane}"
                    );
                }
            }
        }
        check::<Lanes128>();
        check::<Lanes256>();
    }

    #[test]
    fn sparse_fill_works_on_uniform_deterministic_dynamics() {
        let r = ring(70);
        let mut schedule = AbsenceIntervals::new(r.clone());
        schedule.remove_during(EdgeId::new(69), 0, 5);
        schedule.remove_during(EdgeId::new(1), 2, 9);
        let placements = spread(70, 2);
        let make = |sparse: bool| {
            let mut sim = BatchSimulator::<_, _, u64>::new(
                r.clone(),
                PerLane(Bounce),
                UniformBatch::new(schedule.clone()),
                placements.clone(),
            )
            .expect("valid setup");
            sim.set_sparse_fill(sparse);
            sim
        };
        let mut sparse = make(true);
        let mut full = make(false);
        for round in 0..40 {
            sparse.step();
            full.step();
            assert_eq!(sparse.lane_snapshots(0), full.lane_snapshots(0), "round {round}");
        }
    }

    #[test]
    fn sparse_fill_is_clamped_to_the_gather_capability() {
        let r = ring(40);
        let replicas = BernoulliReplicas::new(r.clone(), 0.5, 99).expect("valid p");
        let placements = spread(40, 1);
        let mut refusing = BatchSimulator::new(
            r.clone(),
            PerLane(Bounce),
            FullFillOnly(replicas.clone()),
            placements.clone(),
        )
        .expect("valid setup");
        refusing.set_sparse_fill(true);
        assert!(
            !refusing.sparse_fill(),
            "a dynamics without gather support must stay on the full fill"
        );
        let mut reference =
            BatchSimulator::new(r, PerLane(Bounce), replicas, placements).expect("valid setup");
        reference.set_sparse_fill(false);
        for _ in 0..30 {
            refusing.step();
            reference.step();
            assert_eq!(refusing.lane_snapshots(7), reference.lane_snapshots(7));
        }
    }

    #[test]
    fn sparse_fill_auto_threshold_follows_ring_and_team_size() {
        // 2·k·64 touched edges per plane need SPARSE_FILL_HEADROOM×
        // headroom: with k = 1 the cutover sits at n = 256 — at every
        // arity, since both fills scale linearly in the plane count.
        let make = |n: usize, k: usize| {
            let r = ring(n);
            let replicas = BernoulliReplicas::new(r.clone(), 0.5, 1).expect("valid p");
            BatchSimulator::new(r, PerLane(KeepDir), replicas, spread(n, k))
                .expect("valid setup")
        };
        assert!(!make(64, 1).sparse_fill());
        assert!(!make(255, 1).sparse_fill());
        assert!(make(256, 1).sparse_fill());
        assert!(make(4096, 3).sparse_fill());
        assert!(!make(4096, 17).sparse_fill());
        let wide = BatchSimulator::<_, _, Lanes256>::new(
            ring(256),
            PerLane(KeepDir),
            bank::<Lanes256>(&ring(256), 0.5, 1),
            spread(256, 1),
        )
        .expect("valid setup");
        assert!(wide.sparse_fill(), "the cutover is per plane, not per arity");
        let big = ring(4096);
        let gatherless = BatchSimulator::new(
            big.clone(),
            PerLane(KeepDir),
            FullFillOnly(BernoulliReplicas::new(big, 0.5, 1).expect("valid p")),
            spread(4096, 1),
        )
        .expect("valid setup");
        assert!(
            !gatherless.sparse_fill(),
            "the capability gates the auto-threshold"
        );
    }

    #[test]
    fn coverage_tracks_first_covers_per_lane() {
        // Single robot on a static 4-ring covers in exactly 3 rounds in
        // every lane.
        let r = ring(4);
        let mut batch = BatchSimulator::<_, _, u64>::new(
            r.clone(),
            PerLane(KeepDir),
            UniformBatch::new(AlwaysPresent::new(r)),
            vec![RobotPlacement::at(NodeId::new(0))],
        )
        .expect("valid setup");
        let mut coverage = BatchCoverage::new(&batch);
        assert_eq!(coverage.covered_lanes(), 0);
        let executed = batch.run_covering(100, &mut coverage);
        assert_eq!(executed, 3);
        assert!(coverage.all_covered());
        for lane in 0..LANES as u32 {
            assert_eq!(coverage.first_cover(lane), Some(3), "lane {lane}");
        }
    }

    #[test]
    fn wide_coverage_matches_the_plane_wise_narrow_runs() {
        let r = ring(7);
        let b = bank::<Lanes256>(&r, 0.6, 42);
        let placements = spread(7, 3);
        let mut wide = BatchSimulator::<_, _, Lanes256>::new(
            r.clone(),
            PerLane(Bounce),
            b.clone(),
            placements.clone(),
        )
        .expect("valid setup");
        let mut wide_cov = BatchCoverage::new(&wide);
        let horizon = 300u64;
        for _ in 0..horizon {
            wide.step();
            wide_cov.observe(&wide);
        }
        assert_eq!(wide_cov.first_covers().len(), 256);
        for plane in 0..4usize {
            let mut narrow = BatchSimulator::new(
                r.clone(),
                PerLane(Bounce),
                b.stream(plane).clone(),
                placements.clone(),
            )
            .expect("valid setup");
            let mut cov = BatchCoverage::new(&narrow);
            for _ in 0..horizon {
                narrow.step();
                cov.observe(&narrow);
            }
            for lane in 0..64usize {
                assert_eq!(
                    wide_cov.first_cover((plane * 64 + lane) as u32),
                    cov.first_cover(lane as u32),
                    "plane {plane} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn coverage_matches_a_serial_visit_ledger_per_lane() {
        let r = ring(7);
        let replicas = BernoulliReplicas::new(r.clone(), 0.6, 31).expect("valid p");
        let placements = spread(7, 3);
        let mut batch = BatchSimulator::new(
            r.clone(),
            PerLane(Bounce),
            replicas.clone(),
            placements.clone(),
        )
        .expect("valid setup");
        let mut coverage = BatchCoverage::new(&batch);
        let horizon = 200u64;
        for _ in 0..horizon {
            batch.step();
            coverage.observe(&batch);
        }
        for lane in [0u32, 9, 63] {
            // Serial reference: run the lane's schedule, tracking visits.
            let mut serial = Simulator::new(
                r.clone(),
                Bounce,
                Oblivious::new(replicas.lane(lane)),
                placements.clone(),
            )
            .expect("valid setup");
            let mut cover = crate::CoverTracker::new(7);
            cover.observe(0, serial.positions_iter());
            for t in 1..=horizon {
                serial.step_quiet();
                cover.observe(t, serial.positions_iter());
            }
            assert_eq!(
                coverage.first_cover(lane),
                cover.first_cover(),
                "lane {lane}"
            );
        }
    }
}
