//! Look-Compute-Move execution engine for robots on evolving rings.
//!
//! This crate implements §2.2–§2.3 of Bournat, Dubois & Petit (ICDCS 2017):
//! uniform, anonymous robots with persistent memory, individual chirality,
//! and local weak multiplicity detection, executing synchronous
//! Look-Compute-Move rounds on an evolving ring.
//!
//! # Round semantics (faithful to the paper)
//!
//! The round that transitions the system from `(G_t, γ_t)` to
//! `(G_{t+1}, γ_{t+1})` proceeds in three atomic phases, all against the
//! *same* snapshot `G_t`:
//!
//! 1. **Look** — each robot evaluates `ExistsEdge(dir)`,
//!    `ExistsEdge(opposite dir)` and `ExistsOtherRobotsOnCurrentNode()` in
//!    `G_t` (its [`View`]);
//! 2. **Compute** — the deterministic [`Algorithm`] updates the robot's
//!    persistent state and direction from the view alone;
//! 3. **Move** — the robot crosses the edge in its (new) direction iff that
//!    edge is present in `G_t`, otherwise it stays put.
//!
//! The adversary picks `G_t` *before* the round, but may do so adaptively,
//! after observing the full configuration `γ_t` (an [`Observation`]); see
//! [`Dynamics`]. Oblivious schedules from `dynring-graph` plug in through
//! [`Oblivious`].
//!
//! # Example
//!
//! ```rust
//! use dynring_engine::{Algorithm, LocalDir, Oblivious, RobotPlacement,
//!                      Simulator, View};
//! use dynring_graph::{AlwaysPresent, NodeId, RingTopology};
//!
//! /// A robot that never turns: it keeps walking in its initial direction.
//! #[derive(Debug, Clone)]
//! struct KeepGoing;
//!
//! impl Algorithm for KeepGoing {
//!     type State = ();
//!     fn name(&self) -> &str { "keep-going" }
//!     fn initial_state(&self) {}
//!     fn compute(&self, _state: &mut (), view: &View) -> LocalDir {
//!         view.dir()
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ring = RingTopology::new(5)?;
//! let dynamics = Oblivious::new(AlwaysPresent::new(ring.clone()));
//! let mut sim = Simulator::new(
//!     ring,
//!     KeepGoing,
//!     dynamics,
//!     vec![RobotPlacement::at(NodeId::new(0))],
//! )?;
//! let trace = sim.run_recording(10);
//! assert_eq!(trace.rounds().len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod async_exec;
mod batch;
mod direction;
mod dynamics;
mod error;
mod robot;
mod simulator;
mod ssync;
mod trace;
mod view;

pub use algorithm::{Algorithm, BatchAlgorithm, PerLane};
pub use batch::{
    sparse_fill_default, BatchCoverage, BatchDynamics, BatchSimulator, UniformBatch, LANES,
};
pub use direction::{Chirality, LocalDir};
pub use dynamics::{
    AdaptiveFn, Capturing, Dynamics, EdgeProbe, Oblivious, Observation, Recurrent, Streamed,
};
pub use error::EngineError;
pub use robot::{RobotId, RobotPlacement, RobotSnapshot};
pub use simulator::{CoverTracker, Simulator};
pub use ssync::{ActivationPolicy, BatchActivation, EveryKth, FullActivation, RoundRobinSingle};
pub use trace::{ExecutionTrace, RobotRound, RoundRecord, Tower};
pub use view::{View, ViewWords};

// The batch engine's arity vocabulary, re-exported so downstream crates can
// pick a lane width without importing dynring-graph directly.
pub use dynring_graph::{LaneWord, LaneWords, Lanes128, Lanes256, LANES_PER_WORD};
