//! Deterministic parallel scenario execution.
//!
//! Sweeps at paper scale (Table 1 grids, seed batches, dynamicity curves)
//! are embarrassingly parallel: every [`Scenario`] run is a pure function
//! of its inputs. This module fans a batch out over a scoped thread pool
//! (plain `std::thread` — the workspace builds offline, so no external
//! runtime) while keeping results **byte-identical** to the serial path:
//!
//! - results are collected into their input slots, so output order is the
//!   input order regardless of scheduling;
//! - error semantics match the serial `?`-loop: the error reported is the
//!   one of the *first failing scenario by index*, not the first to fail
//!   in wall-clock time;
//! - every scenario still runs with its own seed, so reports are
//!   bit-for-bit those of [`run_scenario`].
//!
//! The fan-out lives in one place, [`stream_map`]: `workers` threads,
//! spawned once, pull items in input order at most [`STREAM_WINDOW`]
//! items ahead of a consumer that sees every result in input order.
//! [`par_map`] is a collect over it and underlies the batch runner, the
//! Monte Carlo groups and the Table 1 grid; the campaign runner consumes
//! the stream directly, appending records while later units still
//! execute. [`coverage_matrix`] runs the full algorithm portfolio ×
//! benign dynamics suite as one parallel batch.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::thread;

use serde::{Deserialize, Serialize};

use dynring_graph::Time;

use crate::scenario::{
    run_scenario, AlgorithmChoice, DynamicsChoice, PlacementSpec, Scenario, ScenarioError,
    ScenarioReport,
};

/// Worker threads used by default: one per available core.
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// How far [`stream_map`] lets workers run ahead of its consumer: at
/// most this many items are issued but not yet consumed. 256 campaign
/// results buffer about 0.15 MB, and the window is wide enough that one
/// slow unit at the head (a 2 ms generated-dynamics unit among 10 µs
/// ones) does not starve the other workers.
pub const STREAM_WINDOW: usize = 256;

/// Applies `f` to every item on `workers` threads spawned once, and hands
/// each result to `consume` on the calling thread in input order, as soon
/// as it and every earlier result are ready.
///
/// - At most [`STREAM_WINDOW`] items are in flight (issued to a worker
///   but not yet consumed), however long one item holds up the head.
/// - When `consume` returns an error, no further item is issued; the
///   error is returned once the workers have stopped.
/// - A panic in `f` is caught on its worker and resumed on the calling
///   thread at that item's turn, after every earlier item was consumed,
///   so a panicking item panics the caller and never hangs it.
///
/// With `workers <= 1` this degenerates to a plain serial loop (`f`, then
/// `consume`, item by item, no threads spawned), which is also the
/// reference for determinism tests.
///
/// # Errors
///
/// The first error `consume` returns.
pub fn stream_map<T, R, E, F, C>(items: &[T], workers: usize, f: F, mut consume: C) -> Result<(), E>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: FnMut(R) -> Result<(), E>,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for item in items {
            consume(f(item))?;
        }
        return Ok(());
    }
    let window = STREAM_WINDOW.min(items.len());
    let gate = Gate::new(items.len(), window);
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, thread::Result<R>)>();
        for _ in 0..workers {
            let (tx, gate, f) = (tx.clone(), &gate, &f);
            scope.spawn(move || {
                while let Some(index) = gate.issue() {
                    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&items[index])));
                    let panicked = result.is_err();
                    if tx.send((index, result)).is_err() || panicked {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Every way out of the committer loop — done, a consumer error,
        // a resumed panic — stops the workers before the scope joins them.
        let _stop = StopOnDrop(&gate);
        let mut slots: Vec<Option<thread::Result<R>>> = (0..window).map(|_| None).collect();
        let mut next = 0;
        while next < items.len() {
            // Items are issued in order, so every item before a panicked
            // one was issued and will arrive: the channel cannot run dry
            // before `next` reaches a result or a panic.
            let (index, result) = rx.recv().expect("every issued item reports back");
            slots[index % window] = Some(result);
            while let Some(result) = slots[next % window].take() {
                match result {
                    Ok(value) => consume(value)?,
                    Err(payload) => panic::resume_unwind(payload),
                }
                next += 1;
                gate.consumed(next);
            }
        }
        Ok(())
    })
}

/// The issuing side of [`stream_map`]: hands out indices in order, never
/// `window` or more past the consumed count, until stopped.
struct Gate {
    state: Mutex<GateState>,
    wake: Condvar,
    len: usize,
    window: usize,
}

/// Every update is a single field write and nothing under the lock can
/// panic, so the state behind a poisoned lock is still valid.
struct GateState {
    next: usize,
    limit: usize,
    stopped: bool,
}

impl Gate {
    fn new(len: usize, window: usize) -> Self {
        Gate {
            state: Mutex::new(GateState { next: 0, limit: window, stopped: false }),
            wake: Condvar::new(),
            len,
            window,
        }
    }

    /// The next index to execute, waiting while the window is full;
    /// `None` once every index is issued or the gate is stopped.
    fn issue(&self) -> Option<usize> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.stopped || state.next >= self.len {
                return None;
            }
            if state.next < state.limit {
                state.next += 1;
                return Some(state.next - 1);
            }
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Slides the window once `consumed` items are consumed. Workers wait
    /// only on a full window, so only a full window wakes them (all of
    /// them: each slide frees one more index, and a single wake could
    /// leave a second waiter asleep beside free indices).
    fn consumed(&self, consumed: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let was_full = state.next >= state.limit;
        state.limit = consumed + self.window;
        drop(state);
        if was_full {
            self.wake.notify_all();
        }
    }
}

struct StopOnDrop<'a>(&'a Gate);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).stopped = true;
        self.0.wake.notify_all();
    }
}

/// Applies `f` to every item on a thread pool, returning results in input
/// order: a collect over [`stream_map`], so `workers <= 1` is the same
/// plain serial map.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let Ok(()) = stream_map(items, workers, f, |r| {
        out.push(r);
        Ok::<(), std::convert::Infallible>(())
    });
    out
}

/// Runs a batch of scenarios across all cores.
///
/// Reports come back in input order and are byte-identical to running
/// [`run_scenario`] serially over the same slice.
///
/// # Errors
///
/// The error of the first failing scenario *by index* (matching the
/// serial loop), if any.
pub fn run_scenarios_par(scenarios: &[Scenario]) -> Result<Vec<ScenarioReport>, ScenarioError> {
    run_scenarios_par_with(scenarios, available_workers())
}

/// [`run_scenarios_par`] with an explicit worker count (`1` = serial).
///
/// # Errors
///
/// See [`run_scenarios_par`].
pub fn run_scenarios_par_with(
    scenarios: &[Scenario],
    workers: usize,
) -> Result<Vec<ScenarioReport>, ScenarioError> {
    par_map(scenarios, workers, run_scenario)
        .into_iter()
        .collect()
}

/// One cell of a [`CoverageMatrix`]: what one algorithm did under one
/// dynamics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageCell {
    /// Dynamics label.
    pub dynamics: String,
    /// Whether the run was judged perpetual exploration.
    pub perpetual: bool,
    /// Completed covers.
    pub covers: u64,
    /// Total robot moves.
    pub moves: u64,
}

/// One row of a [`CoverageMatrix`]: one algorithm across the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Algorithm display name.
    pub algorithm: String,
    /// Cells in suite order.
    pub cells: Vec<CoverageCell>,
}

/// Outcome grid of the full algorithm portfolio × the benign dynamics
/// suite — the "who survives what" scenario-coverage summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMatrix {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k`.
    pub robots: usize,
    /// Rounds per run.
    pub horizon: Time,
    /// Rows in portfolio order.
    pub rows: Vec<CoverageRow>,
}

impl CoverageMatrix {
    /// Fraction of cells judged perpetual.
    pub fn survival_rate(&self) -> f64 {
        let total: usize = self.rows.iter().map(|r| r.cells.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let wins: usize = self
            .rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|c| c.perpetual)
            .count();
        wins as f64 / total as f64
    }
}

/// Runs the full algorithm portfolio against the benign dynamics suite as
/// one parallel batch.
///
/// # Errors
///
/// See [`run_scenarios_par`].
pub fn coverage_matrix(
    ring_size: usize,
    robots: usize,
    horizon: Time,
    seed: u64,
) -> Result<CoverageMatrix, ScenarioError> {
    let portfolio = AlgorithmChoice::portfolio();
    let suite = DynamicsChoice::benign_suite();
    let scenarios: Vec<Scenario> = portfolio
        .iter()
        .flat_map(|&algorithm| {
            suite.iter().enumerate().map(move |(j, &dynamics)| {
                Scenario::new(
                    ring_size,
                    PlacementSpec::EvenlySpaced { count: robots },
                    algorithm,
                    dynamics,
                    horizon,
                )
                .with_seed(crate::seeds::derive_stream_seed(seed, j as u64))
            })
        })
        .collect();
    let reports = run_scenarios_par(&scenarios)?;
    let rows = portfolio
        .iter()
        .enumerate()
        .map(|(i, algorithm)| CoverageRow {
            algorithm: algorithm.name().to_string(),
            cells: suite
                .iter()
                .enumerate()
                .map(|(j, dynamics)| {
                    let report = &reports[i * suite.len() + j];
                    CoverageCell {
                        dynamics: dynamics.name().to_string(),
                        perpetual: report.is_perpetual(),
                        covers: report.covers,
                        moves: report.moves,
                    }
                })
                .collect(),
        })
        .collect();
    Ok(CoverageMatrix {
        ring_size,
        robots,
        horizon,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::SuccessCriteria;

    fn batch() -> Vec<Scenario> {
        let mut scenarios = Vec::new();
        for (i, dynamics) in [
            DynamicsChoice::Static,
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
            DynamicsChoice::SweepingOutage { dwell: 3 },
            DynamicsChoice::PointedBlocker { budget: 3 },
            DynamicsChoice::SingleConfiner,
        ]
        .into_iter()
        .enumerate()
        {
            let k = if matches!(dynamics, DynamicsChoice::SingleConfiner) {
                1
            } else {
                3
            };
            scenarios.push(
                Scenario::new(
                    7,
                    PlacementSpec::EvenlySpaced { count: k },
                    AlgorithmChoice::Pef3Plus,
                    dynamics,
                    250,
                )
                .with_seed(1000 + i as u64)
                .with_criteria(SuccessCriteria::covers(2)),
            );
        }
        scenarios
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let scenarios = batch();
        let serial: Vec<ScenarioReport> = scenarios
            .iter()
            .map(|s| run_scenario(s).expect("valid scenario"))
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let parallel =
                run_scenarios_par_with(&scenarios, workers).expect("valid batch");
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..ITEMS).collect();
        for workers in [1usize, 2, 4, 8] {
            let doubled = par_map(&items, workers, |&x| {
                uneven(x);
                x * 2
            });
            let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
            assert_eq!(doubled, expected, "workers = {workers}");
        }
    }

    /// A per-item cost that varies with the index, so workers finish out
    /// of order: every seventh item sleeps, and the head sleeps longest.
    fn uneven(index: usize) {
        if index.is_multiple_of(7) {
            let micros = if index == 0 { 3000 } else { 200 };
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }

    /// Runs `f` on its own thread and returns what it returned, failing
    /// the test if `f` has not finished within a minute: a stopped stream
    /// must never leave the caller waiting on its workers.
    fn never_hangs<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{what}: the caller did not return ({e})"));
        handle.join().expect("the caller's thread finished").expect("the result was received");
        out
    }

    /// More items than the window, so the window binds.
    const ITEMS: usize = 4 * STREAM_WINDOW;

    #[test]
    fn stream_map_keeps_in_flight_items_within_the_window() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let items: Vec<usize> = (0..ITEMS).collect();
        for workers in [1usize, 2, 4, 8] {
            let issued = AtomicUsize::new(0);
            let consumed = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let done: Result<(), ()> = stream_map(
                &items,
                workers,
                |&x| {
                    let now = issued.fetch_add(1, SeqCst) + 1;
                    peak.fetch_max(now - consumed.load(SeqCst), SeqCst);
                    // A slow head: the other workers run ahead until the
                    // window is full.
                    if x == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                },
                |()| {
                    consumed.fetch_add(1, SeqCst);
                    Ok(())
                },
            );
            assert_eq!(done, Ok(()));
            assert_eq!(issued.load(SeqCst), items.len());
            let peak = peak.load(SeqCst);
            assert!(
                peak <= STREAM_WINDOW,
                "workers = {workers}: {peak} items in flight, window {STREAM_WINDOW}"
            );
        }
    }

    #[test]
    fn stream_map_consumer_error_stops_issuing() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let fail_at = 10;
        for workers in [1usize, 2, 4, 8] {
            let (done, calls) = never_hangs(&format!("workers = {workers}"), move || {
                let items: Vec<usize> = (0..ITEMS).collect();
                let calls = AtomicUsize::new(0);
                let done = stream_map(
                    &items,
                    workers,
                    |&x| {
                        calls.fetch_add(1, SeqCst);
                        // Item `fail_at` fails last in wall time, after a
                        // later failing item: the first by index still wins.
                        if x == fail_at {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        if x == fail_at || x == fail_at + 2 { Err(x) } else { Ok(()) }
                    },
                    |result| result,
                );
                (done, calls.load(SeqCst))
            });
            assert_eq!(done, Err(fail_at), "workers = {workers}");
            // While the consumer handled item `fail_at`, at most a window
            // of items past the consumed ones was issued; none after.
            assert!(
                calls <= fail_at + STREAM_WINDOW,
                "workers = {workers}: {calls} items issued"
            );
            if workers == 1 {
                assert_eq!(calls, fail_at + 1);
            }
        }
    }

    #[test]
    fn stream_map_panic_in_f_panics_the_caller_and_never_hangs_it() {
        let panic_at = 37;
        for workers in [1usize, 2, 4, 8] {
            let (message, seen) = never_hangs(&format!("workers = {workers}"), move || {
                let items: Vec<usize> = (0..ITEMS).collect();
                let mut seen = Vec::new();
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    stream_map(
                        &items,
                        workers,
                        |&x| {
                            uneven(x);
                            assert!(x != panic_at, "unit {x} panics");
                            x
                        },
                        |x| {
                            seen.push(x);
                            Ok::<(), ()>(())
                        },
                    )
                }));
                let message =
                    outcome.err().and_then(|payload| payload.downcast_ref::<String>().cloned());
                (message, seen)
            });
            assert_eq!(message.as_deref(), Some("unit 37 panics"), "workers = {workers}");
            assert_eq!(seen, (0..panic_at).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn first_error_by_index_matches_serial() {
        let mut scenarios = batch();
        // Two ill-formed scenarios; the reported error must be the first
        // by index (ring size 1), not whichever thread fails first.
        scenarios.insert(
            1,
            Scenario::new(
                1,
                PlacementSpec::EvenlySpaced { count: 1 },
                AlgorithmChoice::Pef1,
                DynamicsChoice::Static,
                10,
            ),
        );
        scenarios.push(Scenario::new(
            4,
            PlacementSpec::EvenlySpaced { count: 1 },
            AlgorithmChoice::Pef1,
            DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 4,
                edge: 9,
                from: 0,
            },
            10,
        ));
        let serial_err = scenarios
            .iter()
            .map(run_scenario)
            .collect::<Result<Vec<_>, _>>()
            .expect_err("batch contains an invalid scenario");
        for workers in [2usize, 4] {
            let parallel_err = run_scenarios_par_with(&scenarios, workers)
                .expect_err("batch contains an invalid scenario");
            assert_eq!(serial_err, parallel_err, "workers = {workers}");
        }
    }

    #[test]
    fn coverage_matrix_shape_and_survivors() {
        let matrix = coverage_matrix(8, 3, 400, 7).expect("valid grid");
        assert_eq!(matrix.rows.len(), AlgorithmChoice::portfolio().len());
        for row in &matrix.rows {
            assert_eq!(row.cells.len(), DynamicsChoice::benign_suite().len());
        }
        // The paper's algorithm survives the whole benign suite.
        let pef3 = &matrix.rows[0];
        assert_eq!(pef3.algorithm, "PEF_3+");
        assert!(pef3.cells.iter().all(|c| c.perpetual), "{pef3:?}");
        assert!(matrix.survival_rate() > 0.0);
    }
}
