//! The `dynring bench-report` subcommand: a self-contained performance
//! snapshot of the round engine and the sweep layer, written as
//! `BENCH_engine.json` so the throughput trajectory is tracked across PRs.
//!
//! The snapshot measures:
//!
//! - **quiet path** rounds/sec ([`Simulator::run`], no `RoundRecord`
//!   materialization — since PR 2 also the *sparse probe* path: pure
//!   schedules answer O(robots) point queries instead of the O(n) scan);
//! - **recorded path** rounds/sec ([`Simulator::run_with`], one record per
//!   round — always the full-snapshot path);
//! - **adversary path** rounds/sec (the Theorem 5.1 confiner driven
//!   through the in-place/sparse dynamics API);
//! - **p-sweep**: quiet Bernoulli throughput across presence
//!   probabilities (the bit-sliced sampler's cost follows p's binary
//!   expansion);
//! - **sweep scaling**: a reduced Table 1 grid, serial vs. all-cores
//!   parallel, with the resulting speedup.
//!
//! - **batch vs serial replicas**: the lockstep engine's aggregate
//!   replica-rounds/sec against the same number of serial lane runs on
//!   one thread (the Monte Carlo workload's two execution strategies),
//!   at 64/128/256 lanes and under the SSYNC round-robin activation.
//!
//! All workloads are deterministic; only wall-clock timing varies between
//! machines. Numbers are means over the whole measurement window.
//!
//! Schema history: v1/v2 carried the seed-commit baseline; v3 embedded
//! the PR 1 quiet-path numbers as the baseline, added `psweep`, and
//! extended the ring sizes to 1024/4096; v4 rebased the baseline on the
//! PR 2 (schema-v3) quiet numbers, added the `batch` block
//! (`batch_replica_rounds_per_sec`) and the `(n, k) = (256, 64)`
//! large-team workload, and gated static-path flatness across ring
//! sizes; v5 extended the batch workloads to `n ∈ {1024, 4096}` —
//! feasible now that the snapshot fill is demand-driven on large rings —
//! and gated batch flatness (the n = 4096 batch rate must stay within 2×
//! of n = 64 in the same run); v6 (this PR) adds the wide-arity batch
//! workloads (`bernoulli-batch-128`/`-256` over seeded replica banks)
//! and the SSYNC batch workload (`bernoulli-batch-ssync`, round-robin
//! activation), all gated against committed figures by the same
//! per-`(workload, n, k)` matching once a v6 snapshot is committed, and
//! extends the flatness gate to the 256-lane workload.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use dynring_adversary::SingleRobotConfiner;
use dynring_analysis::parallel::available_workers;
use dynring_analysis::table1::run_table1_with_workers;
use dynring_analysis::Table1Options;
use dynring_bench::workloads::{
    batch_bernoulli_bank_sim, batch_bernoulli_sim, bernoulli_sim, bernoulli_sim_p, placements,
    serial_bank_lane_sims, serial_lane_sims, ssync_batch_bernoulli_sim, ssync_serial_lane_sims,
    static_sim, BERNOULLI_P,
};
use dynring_core::Pef3Plus;
use dynring_engine::{
    BatchDynamics, BatchSimulator, Dynamics, LaneWord, Lanes128, Lanes256, Oblivious, Simulator,
};
use dynring_graph::{BernoulliLane, BernoulliSchedule, RingTopology};

/// Schema tag of the emitted JSON.
pub const SCHEMA: &str = "dynring-bench-engine/v6";

/// One measured engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSample {
    /// Workload label (`static` / `bernoulli` / `confiner`).
    pub workload: String,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k`.
    pub robots: usize,
    /// Rounds per second on the quiet path.
    pub quiet_rounds_per_sec: f64,
    /// Rounds per second on the recording path.
    pub recorded_rounds_per_sec: f64,
}

/// Sweep-layer measurement: the same grid serial and parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSample {
    /// Grid cells executed.
    pub cells: usize,
    /// Worker threads used by the parallel run.
    pub workers: usize,
    /// Serial wall-clock milliseconds.
    pub serial_ms: f64,
    /// Parallel wall-clock milliseconds.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// A pre-refactor reference point for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSample {
    /// Workload label.
    pub workload: String,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k`.
    pub robots: usize,
    /// Quiet-path rounds per second of the PR 1 engine.
    pub rounds_per_sec: f64,
}

/// One measured batch-engine configuration: the lockstep engine against
/// the same number of serial lane runs (same streams, same algorithm,
/// one thread), in aggregate replica-rounds per second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSample {
    /// Workload label (`bernoulli-batch` for the 64-lane FSYNC engine,
    /// `bernoulli-batch-128`/`-256` for the wide arities over seeded
    /// replica banks, `bernoulli-batch-ssync` for the 64-lane engine
    /// under round-robin activation).
    pub workload: String,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k` (per replica).
    pub robots: usize,
    /// Replicas per batch (the lane arity: 64, 128 or 256).
    pub lanes: usize,
    /// Presence probability of the replica stream.
    pub p: f64,
    /// Aggregate replica-rounds/sec of the lockstep engine (batch
    /// rounds/sec × lanes).
    pub batch_replica_rounds_per_sec: f64,
    /// Aggregate replica-rounds/sec of `lanes` serial `Simulator` runs
    /// over the derived lane schedules, one thread.
    pub serial_replica_rounds_per_sec: f64,
    /// `batch / serial`.
    pub speedup: f64,
}

/// One point of the Bernoulli presence-probability sweep (quiet path,
/// fixed `(n, k)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresenceSweepSample {
    /// Presence probability `p`.
    pub p: f64,
    /// Ring size `n`.
    pub ring_size: usize,
    /// Robots `k`.
    pub robots: usize,
    /// Slice levels the bit-sliced sampler spends on this `p` (its cost
    /// per 64-edge word on the full-snapshot path).
    pub slice_levels: u32,
    /// Rounds per second on the quiet path.
    pub quiet_rounds_per_sec: f64,
}

/// The full snapshot written to `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag.
    pub schema: String,
    /// Free-form provenance note.
    pub note: String,
    /// Provenance of the baseline block.
    pub baseline_note: String,
    /// Pre-refactor reference numbers (fixed; the PR 1 quiet path).
    pub baseline: Vec<BaselineSample>,
    /// Engine throughput samples.
    pub engine: Vec<EngineSample>,
    /// Batch (64-replica lockstep) vs serial replica throughput.
    pub batch: Vec<BatchSample>,
    /// Bernoulli presence-probability sweep (quiet path).
    pub psweep: Vec<PresenceSweepSample>,
    /// Sweep scaling sample.
    pub sweep: SweepSample,
}

/// Reference throughput of the PR 2 engine (commit `a03419a`): the
/// word-parallel Bernoulli sampler and sparse probe path *before* the
/// sparse-undo occupancy fix and the batch engine, quiet-path numbers
/// from the committed schema-v3 `BENCH_engine.json` (2M rounds, release
/// profile, same container). The PR 1 and seed-commit baselines remain
/// in the git history of this file.
pub fn pr2_baseline() -> Vec<BaselineSample> {
    let rows: [(&str, usize, usize, f64); 13] = [
        ("static", 8, 3, 28_100_927.0),
        ("bernoulli", 8, 3, 13_691_426.0),
        ("static", 64, 3, 27_399_520.0),
        ("bernoulli", 64, 3, 13_676_503.0),
        ("static", 256, 3, 21_683_614.0),
        ("bernoulli", 256, 3, 12_673_967.0),
        ("static", 1024, 3, 12_398_332.0),
        ("bernoulli", 1024, 3, 7_972_035.0),
        ("static", 4096, 3, 3_940_105.0),
        ("bernoulli", 4096, 3, 3_755_157.0),
        ("static", 64, 16, 7_275_138.0),
        ("bernoulli", 64, 16, 2_735_595.0),
        ("confiner", 64, 1, 33_909_271.0),
    ];
    rows.iter()
        .map(|&(workload, ring_size, robots, rounds_per_sec)| BaselineSample {
            workload: workload.to_string(),
            ring_size,
            robots,
            rounds_per_sec,
        })
        .collect()
}

/// Minimum wall-clock measurement window per sample: quick-mode workloads
/// finish a single pass in milliseconds, which is noise-dominated, so the
/// timed pass repeats until the window is filled (this keeps the
/// `--check` regression gate stable across runs).
const MIN_MEASURE_SECS: f64 = 0.25;

fn throughput(rounds: u64, mut run: impl FnMut(u64)) -> f64 {
    // Warm-up pass (also sizes the scratch buffers), then timed passes.
    run(rounds / 10);
    let start = Instant::now();
    let mut executed = 0u64;
    loop {
        run(rounds);
        executed += rounds;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_MEASURE_SECS || executed >= rounds.saturating_mul(50) {
            return executed as f64 / elapsed;
        }
    }
}

/// Measures one batch-vs-serial pair at lane arity `W`: the lockstep
/// engine's aggregate replica-rounds/sec against `W::LANES` serial lane
/// `Simulator`s run back to back on this thread.
fn sample_batch<D: BatchDynamics<W>, W: LaneWord>(
    workload: &str,
    n: usize,
    k: usize,
    rounds: u64,
    mut batch_sim: BatchSimulator<Pef3Plus, D, W>,
    mut lane_sims: Vec<Simulator<Pef3Plus, Oblivious<BernoulliLane>>>,
) -> BatchSample {
    let lanes = W::LANES;
    let batch_rate = throughput(rounds / 16, |r| batch_sim.run(r)) * lanes as f64;
    // One closure "round" advances every lane once: `lanes` replica-rounds.
    let serial_rate = throughput(rounds / (4 * lanes as u64), |r| {
        for sim in &mut lane_sims {
            sim.run(r);
        }
    }) * lanes as f64;
    BatchSample {
        workload: workload.to_string(),
        ring_size: n,
        robots: k,
        lanes,
        p: BERNOULLI_P,
        batch_replica_rounds_per_sec: batch_rate,
        serial_replica_rounds_per_sec: serial_rate,
        speedup: batch_rate / serial_rate,
    }
}

fn sample_pair<D: Dynamics>(
    workload: &str,
    n: usize,
    k: usize,
    rounds: u64,
    make: impl Fn() -> Simulator<Pef3Plus, D>,
) -> EngineSample {
    let mut quiet_sim = make();
    let quiet = throughput(rounds, |r| quiet_sim.run(r));
    let mut recorded_sim = make();
    let recorded = throughput(rounds, |r| recorded_sim.run_with(r, |_| {}));
    EngineSample {
        workload: workload.to_string(),
        ring_size: n,
        robots: k,
        quiet_rounds_per_sec: quiet,
        recorded_rounds_per_sec: recorded,
    }
}

/// Runs every measurement and assembles the snapshot.
///
/// `quick` shrinks the workloads (for CI smoke runs); the shape of the
/// emitted JSON is identical.
pub fn collect(quick: bool) -> BenchReport {
    let rounds: u64 = if quick { 200_000 } else { 2_000_000 };
    let mut engine = Vec::new();
    for (n, k) in [
        (8usize, 3usize),
        (64, 3),
        (256, 3),
        (1024, 3),
        (4096, 3),
        (64, 16),
        (256, 64),
    ] {
        // Large teams do proportionally more per-robot work per round;
        // shrink the pass so every workload fills the same time window.
        let scale = (k as u64 / 16).max(1);
        engine.push(sample_pair("static", n, k, rounds / scale, || static_sim(n, k)));
        engine.push(sample_pair("bernoulli", n, k, rounds / 4 / scale, || {
            bernoulli_sim(n, k)
        }));
    }
    {
        let n = 64;
        let ring = RingTopology::new(n).expect("valid ring");
        engine.push(sample_pair("confiner", n, 1, rounds, || {
            Simulator::new(
                ring.clone(),
                Pef3Plus,
                SingleRobotConfiner::new(ring.clone()),
                placements(n, 1),
            )
            .expect("valid setup")
        }));
    }

    // Batch vs serial replica throughput: the Monte Carlo acceptance
    // workload. Both sides advance the same replicas over the same
    // per-replica streams; the batch side runs them in lockstep, the
    // serial side one lane schedule after another on this thread.
    let mut batch = Vec::new();
    for (n, k) in [(64usize, 3usize), (256, 3), (1024, 3), (4096, 3)] {
        batch.push(sample_batch::<_, u64>(
            "bernoulli-batch",
            n,
            k,
            rounds,
            batch_bernoulli_sim(n, k, BERNOULLI_P),
            serial_lane_sims(n, k, BERNOULLI_P),
        ));
    }
    // The wide arities over seeded replica banks (one stream per 64-lane
    // plane): the generic engine's headline numbers. n = 1024/4096
    // exercise the fused sparse gather, n = 64 the full fill.
    for (n, k) in [(64usize, 3usize), (1024, 3)] {
        batch.push(sample_batch::<_, Lanes128>(
            "bernoulli-batch-128",
            n,
            k,
            rounds,
            batch_bernoulli_bank_sim::<Lanes128>(n, k, BERNOULLI_P),
            serial_bank_lane_sims::<Lanes128>(n, k, BERNOULLI_P),
        ));
    }
    for (n, k) in [(64usize, 3usize), (1024, 3), (4096, 3)] {
        batch.push(sample_batch::<_, Lanes256>(
            "bernoulli-batch-256",
            n,
            k,
            rounds,
            batch_bernoulli_bank_sim::<Lanes256>(n, k, BERNOULLI_P),
            serial_bank_lane_sims::<Lanes256>(n, k, BERNOULLI_P),
        ));
    }
    // The SSYNC batch route: round-robin activation in every lane
    // against the serial engine under the same policy.
    for (n, k) in [(64usize, 3usize), (1024, 3)] {
        batch.push(sample_batch::<_, u64>(
            "bernoulli-batch-ssync",
            n,
            k,
            rounds,
            ssync_batch_bernoulli_sim(n, k, BERNOULLI_P),
            ssync_serial_lane_sims(n, k, BERNOULLI_P),
        ));
    }

    // Quiet-path p-sweep: the sparse probe cost tracks the bit-sliced
    // sampler's slice count, which follows p's binary expansion.
    let mut psweep = Vec::new();
    {
        let (n, k) = (256usize, 3usize);
        let ring = RingTopology::new(n).expect("valid ring");
        for p in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
            let slice_levels = BernoulliSchedule::new(ring.clone(), p, 0)
                .expect("valid p")
                .slice_levels();
            let mut sim = bernoulli_sim_p(n, k, p);
            let quiet = throughput(rounds / 4, |r| sim.run(r));
            psweep.push(PresenceSweepSample {
                p,
                ring_size: n,
                robots: k,
                slice_levels,
                quiet_rounds_per_sec: quiet,
            });
        }
    }

    let opts = Table1Options {
        robot_counts: vec![1, 2, 3],
        ring_sizes: vec![2, 3, 5, 8],
        horizon: if quick { 300 } else { 700 },
        seed: 42,
        min_covers: 2,
    };
    let cells = opts.robot_counts.len() * opts.ring_sizes.len();
    let start = Instant::now();
    run_table1_with_workers(&opts, 1).expect("valid options");
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let workers = available_workers();
    let start = Instant::now();
    run_table1_with_workers(&opts, workers).expect("valid options");
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    BenchReport {
        schema: SCHEMA.to_string(),
        note: format!(
            "generated by `dynring bench-report{}`; wall-clock numbers, machine-dependent",
            if quick { " --quick" } else { "" }
        ),
        baseline_note: "PR 2 engine (commit a03419a): word-parallel Bernoulli sampler and \
                        sparse probe path before the sparse-undo occupancy fix and the \
                        64-replica batch engine; quiet-path numbers from the committed \
                        schema-v3 snapshot (2M rounds, release profile, same container)"
            .to_string(),
        baseline: pr2_baseline(),
        engine,
        batch,
        psweep,
        sweep: SweepSample {
            cells,
            workers,
            serial_ms,
            parallel_ms,
            speedup: serial_ms / parallel_ms,
        },
    }
}

/// Largest tolerated quiet-throughput drop against a committed snapshot
/// before [`check_regression`] fails (the CI bench-smoke gate).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Minimum ratio of the batch engine's n = 4096 replica throughput to
/// its n = 64 throughput within one run: the sparse snapshot fill
/// decouples the batch round from ring size, so large-ring batch rates
/// must stay within 2× of the small-ring figure (the tripwire for an
/// O(n) cost sneaking back into the lockstep round).
pub const BATCH_FLATNESS_TOLERANCE: f64 = 0.50;

/// Compares `current` throughput against a `committed` snapshot: every
/// `(bernoulli, n, k)` engine sample and every batch sample present in
/// both must reach at least `1 - REGRESSION_TOLERANCE` of the committed
/// number, **after machine calibration** — and, within the current run
/// alone, static quiet throughput at `n = 4096` must stay within the
/// same tolerance of `n = 64` (the occupancy-is-O(robots) flatness
/// guarantee) and batch replica throughput at `n = 4096` must stay
/// within [`BATCH_FLATNESS_TOLERANCE`] of `n = 64` (the sparse-fill
/// decoupling guarantee).
///
/// Wall-clock throughput is machine-dependent (the committed snapshot and
/// a CI runner are different hardware), so raw ratios would gate hardware
/// rather than code. The calibration factor is the geometric mean of the
/// static-workload quiet ratios measured in the same run — static rounds
/// don't touch the code this gate protects, so a uniformly slower/faster
/// machine cancels out while a Bernoulli- or batch-specific slowdown does
/// not. The flatness check needs no calibration at all: it compares two
/// samples of the same run.
///
/// Returns the per-sample comparison table on success.
///
/// # Errors
///
/// A human-readable message naming every regressed sample, or the absence
/// of comparable samples (so a schema drift cannot silently pass).
pub fn check_regression(committed: &BenchReport, current: &BenchReport) -> Result<String, String> {
    use std::fmt::Write as _;

    let matching = |workload: &str| -> Vec<(&EngineSample, &EngineSample)> {
        current
            .engine
            .iter()
            .filter(|s| s.workload == workload)
            .filter_map(|cur| {
                committed
                    .engine
                    .iter()
                    .find(|b| {
                        b.workload == cur.workload
                            && b.ring_size == cur.ring_size
                            && b.robots == cur.robots
                    })
                    .map(|old| (cur, old))
            })
            .collect()
    };

    let static_ratios: Vec<f64> = matching("static")
        .into_iter()
        .map(|(cur, old)| cur.quiet_rounds_per_sec / old.quiet_rounds_per_sec)
        .collect();
    let calibration = if static_ratios.is_empty() {
        1.0
    } else {
        (static_ratios.iter().map(|r| r.ln()).sum::<f64>() / static_ratios.len() as f64).exp()
    };

    let mut table = format!("machine calibration (static geomean): {calibration:.2}x\n");
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for (cur, old) in matching("bernoulli") {
        compared += 1;
        let ratio = cur.quiet_rounds_per_sec / old.quiet_rounds_per_sec / calibration;
        let _ = writeln!(
            table,
            "bernoulli n={:<5} k={:<3} committed {:>14.0} r/s, now {:>14.0} r/s ({:.2}x calibrated)",
            cur.ring_size, cur.robots, old.quiet_rounds_per_sec, cur.quiet_rounds_per_sec, ratio
        );
        if ratio < 1.0 - REGRESSION_TOLERANCE {
            // One greppable line per failure: workload, measured value,
            // committed value and the gate threshold, no JSON digging.
            regressions.push(format!(
                "REGRESSION workload=bernoulli n={} k={} measured={:.0} r/s \
                 committed={:.0} r/s calibrated-ratio={:.2} gate={:.2} calibration={:.2}x",
                cur.ring_size,
                cur.robots,
                cur.quiet_rounds_per_sec,
                old.quiet_rounds_per_sec,
                ratio,
                1.0 - REGRESSION_TOLERANCE,
                calibration
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable bernoulli samples between schemas {} and {}",
            committed.schema, current.schema
        ));
    }

    // Batch (64-replica lockstep) samples: same tolerance, same
    // calibration. A committed snapshot without batch samples (older
    // schema) simply contributes no comparisons — the bernoulli check
    // above already guards against wholesale schema drift.
    for cur in &current.batch {
        let Some(old) = committed.batch.iter().find(|b| {
            b.workload == cur.workload && b.ring_size == cur.ring_size && b.robots == cur.robots
        }) else {
            continue;
        };
        let ratio = cur.batch_replica_rounds_per_sec / old.batch_replica_rounds_per_sec
            / calibration;
        let _ = writeln!(
            table,
            "batch     n={:<5} k={:<3} committed {:>14.0} rr/s, now {:>14.0} rr/s ({:.2}x calibrated)",
            cur.ring_size,
            cur.robots,
            old.batch_replica_rounds_per_sec,
            cur.batch_replica_rounds_per_sec,
            ratio
        );
        if ratio < 1.0 - REGRESSION_TOLERANCE {
            regressions.push(format!(
                "REGRESSION workload=batch n={} k={} measured={:.0} rr/s \
                 committed={:.0} rr/s calibrated-ratio={:.2} gate={:.2} calibration={:.2}x",
                cur.ring_size,
                cur.robots,
                cur.batch_replica_rounds_per_sec,
                old.batch_replica_rounds_per_sec,
                ratio,
                1.0 - REGRESSION_TOLERANCE,
                calibration
            ));
        }
    }

    // Batch flatness within the current run: the fused sparse gather
    // keeps the lockstep round O(robots), so n = 4096 must deliver at
    // least BATCH_FLATNESS_TOLERANCE of the n = 64 replica throughput —
    // at 64 lanes and, when the v6 wide workloads are present, at 256
    // lanes too. No calibration — both samples come from the same
    // machine.
    let batch_rate = |report: &BenchReport, workload: &str, n: usize| {
        report
            .batch
            .iter()
            .find(|s| s.workload == workload && s.ring_size == n && s.robots == 3)
            .map(|s| s.batch_replica_rounds_per_sec)
    };
    for workload in ["bernoulli-batch", "bernoulli-batch-256"] {
        // The 64-lane pair is mandatory whenever any batch sample exists;
        // the 256-lane pair only once that family is emitted (pre-v6
        // snapshots don't have it).
        let required = if workload == "bernoulli-batch" {
            !current.batch.is_empty()
        } else {
            current.batch.iter().any(|s| s.workload == workload)
        };
        let flatness_pair = (
            batch_rate(current, workload, 64),
            batch_rate(current, workload, 4096),
        );
        if required && (flatness_pair.0.is_none() || flatness_pair.1.is_none()) {
            // Mirror the zero-comparable-samples rule: losing one of the
            // two flatness workloads must fail loudly, not skip the gate.
            regressions.push(format!(
                "REGRESSION workload={workload}-flatness n4096=missing n64=missing \
                 gate=n/a reason=no-n64-n4096-sample-pair (workload dropped or renamed?)"
            ));
        }
        if let (Some(small), Some(large)) = flatness_pair {
            let flatness = large / small;
            let _ = writeln!(
                table,
                "batch flatness ({workload}): n=4096 at {:.2}x of n=64 ({:>14.0} vs {:>14.0} rr/s)",
                flatness, large, small
            );
            if flatness < BATCH_FLATNESS_TOLERANCE {
                // Both figures come from the *current* run (flatness
                // gates are within-run), so neither is labeled
                // "committed".
                regressions.push(format!(
                    "REGRESSION workload={workload}-flatness n4096={large:.0} rr/s \
                     n64={small:.0} rr/s ratio={flatness:.2} gate={BATCH_FLATNESS_TOLERANCE:.2} \
                     (the sparse gather no longer decouples the lockstep round from n)"
                ));
            }
        }
    }

    // Static flatness within the current run: quiet rounds at n = 4096
    // must stay within tolerance of n = 64 (occupancy is O(robots), not
    // O(n)). No calibration — both samples come from the same machine.
    let static_quiet = |report: &BenchReport, n: usize| {
        report
            .engine
            .iter()
            .find(|s| s.workload == "static" && s.ring_size == n && s.robots == 3)
            .map(|s| s.quiet_rounds_per_sec)
    };
    if let (Some(small), Some(large)) = (static_quiet(current, 64), static_quiet(current, 4096)) {
        let flatness = large / small;
        let _ = writeln!(
            table,
            "static flatness: n=4096 at {:.2}x of n=64 ({:>14.0} vs {:>14.0} r/s)",
            flatness, large, small
        );
        if flatness < 1.0 - REGRESSION_TOLERANCE {
            regressions.push(format!(
                "REGRESSION workload=static-flatness n4096={large:.0} r/s \
                 n64={small:.0} r/s ratio={flatness:.2} gate={:.2} \
                 (an O(n) cost is back on the quiet path)",
                1.0 - REGRESSION_TOLERANCE
            ));
        }
    }

    if regressions.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "throughput regressed more than {:.0}%:\n{}",
            REGRESSION_TOLERANCE * 100.0,
            regressions.join("\n")
        ))
    }
}

/// Renders a human summary for stdout.
pub fn render(report: &BenchReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>4} {:>16} {:>16} {:>9} {:>12}",
        "workload", "n", "k", "quiet rounds/s", "recorded r/s", "q/r", "vs baseline"
    );
    for s in &report.engine {
        let vs_baseline = report
            .baseline
            .iter()
            .find(|b| {
                b.workload == s.workload && b.ring_size == s.ring_size && b.robots == s.robots
            })
            .map_or_else(String::new, |b| {
                format!("{:.2}x", s.quiet_rounds_per_sec / b.rounds_per_sec)
            });
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>4} {:>16.0} {:>16.0} {:>8.2}x {:>12}",
            s.workload,
            s.ring_size,
            s.robots,
            s.quiet_rounds_per_sec,
            s.recorded_rounds_per_sec,
            s.quiet_rounds_per_sec / s.recorded_rounds_per_sec,
            vs_baseline
        );
    }
    if !report.batch.is_empty() {
        let _ = writeln!(out, "\nbatch engine vs serial lane runs (aggregate replica-rounds):");
        for s in &report.batch {
            let _ = writeln!(
                out,
                "  {:<21} n={:<5} k={:<3} p={:<4} lanes={:<4} batch {:>14.0} rr/s, serial {:>14.0} rr/s ({:.1}x)",
                s.workload,
                s.ring_size,
                s.robots,
                s.p,
                s.lanes,
                s.batch_replica_rounds_per_sec,
                s.serial_replica_rounds_per_sec,
                s.speedup
            );
        }
    }
    let _ = writeln!(out, "\nbernoulli p-sweep (quiet path):");
    for s in &report.psweep {
        let _ = writeln!(
            out,
            "  p={:<4} n={:<5} k={:<3} {:>14.0} rounds/s  ({} slice level{})",
            s.p,
            s.ring_size,
            s.robots,
            s.quiet_rounds_per_sec,
            s.slice_levels,
            if s.slice_levels == 1 { "" } else { "s" }
        );
    }
    let _ = writeln!(
        out,
        "\nsweep: {} cells, serial {:.0} ms vs parallel {:.0} ms on {} workers ({:.2}x)",
        report.sweep.cells,
        report.sweep.serial_ms,
        report.sweep.parallel_ms,
        report.sweep.workers,
        report.sweep.speedup
    );
    out
}
