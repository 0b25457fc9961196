//! Specification checking and experiment harness for the `dynring`
//! reproduction of Bournat, Dubois & Petit (ICDCS 2017).
//!
//! - [`coverage`] — visit ledgers and rolling cover counting;
//! - [`verdict`] — success criteria and exploration outcomes;
//! - [`invariants`] — executable validators for Lemmas 3.3, 3.4, 3.7 and
//!   Rule 1;
//! - [`scenario`] — the uniform recording runner over the algorithm
//!   portfolio × the dynamics suite (including the proof adversaries);
//! - [`serial`] — the quiet first-cover kernel behind campaign units;
//! - [`table1`] — the end-to-end Table 1 reproduction;
//! - [`grid`] — parameter sweeps (cover time vs `n`, `k`, dynamicity);
//! - [`monte_carlo`] — replica sweeps on the lane-parallel lockstep
//!   engine, 64/128/256 lanes per group (cover-time histograms, survival
//!   rates);
//! - [`report`] — text / Markdown / CSV rendering;
//! - [`seeds`] — the shared seed-derivation contract of every sweep;
//! - [`stats`] — summary statistics.
//!
//! # Example: reproduce one Table 1 cell
//!
//! ```rust
//! use dynring_analysis::scenario::{
//!     run_scenario, AlgorithmChoice, DynamicsChoice, PlacementSpec, Scenario,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // k = 3 robots on an n = 8 connected-over-time ring: Possible (Thm 3.1).
//! let scenario = Scenario::new(
//!     8,
//!     PlacementSpec::EvenlySpaced { count: 3 },
//!     AlgorithmChoice::Pef3Plus,
//!     DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
//!     800,
//! );
//! let report = run_scenario(&scenario)?;
//! assert!(report.is_perpetual());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod coverage;
pub mod grid;
pub mod invariants;
pub mod monte_carlo;
pub mod parallel;
pub mod report;
pub mod scenario;
pub mod seeds;
pub mod serial;
pub mod stats;
pub mod table1;
pub mod verdict;

pub use coverage::VisitLedger;
pub use monte_carlo::{
    derive_batch_seed, run_replicas, run_replicas_with, BatchArity, BatchSweep, MonteCarloConfig,
    MonteCarloSummary,
};
pub use parallel::{coverage_matrix, run_scenarios_par, run_scenarios_par_with, CoverageMatrix};
pub use scenario::{
    run_on_schedule, run_scenario, run_scenario_capturing, AlgorithmChoice, DynamicsChoice,
    PlacementSpec, Scenario, ScenarioError, ScenarioReport, SchedulerChoice,
};
pub use seeds::{derive_stream_seed, mix64};
pub use serial::{first_cover, SerialReplica};
pub use table1::{run_table1, run_table1_serial, Table1Options, Table1Report};
pub use verdict::{ExplorationOutcome, SuccessCriteria};
