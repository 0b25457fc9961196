//! E9 — engineering benchmark: raw simulator throughput (rounds per
//! second) as a function of ring size, team size and execution path.
//!
//! The `rounds_per_second` group constructs a fresh simulator per
//! iteration (end-to-end shape, as the seed measured it). The
//! `quiet_vs_recorded` group times a *persistent* simulator on both
//! paths, isolating the per-round cost: `quiet` is the allocation-free
//! fast path ([`Simulator::run`] / `step_quiet`), `recorded` materializes
//! one `RoundRecord` per round ([`Simulator::run_with`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dynring_bench::workloads::{
    batch_bernoulli_bank_sim, batch_bernoulli_sim, bernoulli_sim, bernoulli_sim_p,
    serial_bank_lane_sims, ssync_batch_bernoulli_sim, ssync_serial_lane_sims, serial_lane_sims,
    static_sim, BERNOULLI_P, BERNOULLI_SEED,
};
use dynring_engine::{Lanes128, Lanes256};
use dynring_graph::{BernoulliSchedule, EdgeSchedule, RingTopology};

const ROUNDS: u64 = 2_000;

fn run_static(n: usize, k: usize) -> u64 {
    let mut sim = static_sim(n, k);
    sim.run(ROUNDS);
    sim.time()
}

fn run_bernoulli(n: usize, k: usize) -> u64 {
    let mut sim = bernoulli_sim(n, k);
    sim.run(ROUNDS);
    sim.time()
}

fn bench_throughput(c: &mut Criterion) {
    assert_eq!(run_static(64, 3), ROUNDS);
    assert_eq!(run_bernoulli(64, 3), ROUNDS);
    // The quiet path must agree with the recording path configuration by
    // configuration: also asserted by the engine's test suite, but benches
    // double as regression checks.
    {
        let mut quiet = static_sim(16, 3);
        let mut recorded = static_sim(16, 3);
        quiet.run(500);
        recorded.run_with(500, |_| {});
        assert_eq!(quiet.positions(), recorded.positions());
    }

    let mut group = c.benchmark_group("rounds_per_second");
    group.throughput(Throughput::Elements(ROUNDS));
    // n ∈ {1024, 4096} exists to pin the sparse probe path's independence
    // from ring size (the Bernoulli quiet path is O(robots) per round).
    for n in [8usize, 64, 256, 1024, 4096] {
        group.bench_with_input(BenchmarkId::new("static_k3", n), &n, |b, &n| {
            b.iter(|| run_static(n, 3))
        });
        group.bench_with_input(BenchmarkId::new("bernoulli_k3", n), &n, |b, &n| {
            b.iter(|| run_bernoulli(n, 3))
        });
    }
    for k in [3usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("static_n64", k), &k, |b, &k| {
            b.iter(|| run_static(64, k))
        });
    }
    // The large-team workload (k = 64 on n = 256) pins the per-robot
    // loop's cost — activation lookups, occupancy maintenance — at scale.
    {
        let k = 64usize;
        group.bench_with_input(BenchmarkId::new("static_n256", k), &k, |b, &k| {
            b.iter(|| run_static(256, k))
        });
        group.bench_with_input(BenchmarkId::new("bernoulli_n256", k), &k, |b, &k| {
            b.iter(|| run_bernoulli(256, k))
        });
    }
    group.finish();

    // The 64-replica lockstep engine vs 64 serial lane runs: both sides
    // advance 64 × ROUNDS replica-rounds per iteration, so the reported
    // per-element times are directly comparable replica-round costs.
    {
        // Sanity: lane 0 of the batch equals the first serial lane sim.
        let mut batch = batch_bernoulli_sim(64, 3, BERNOULLI_P);
        let mut lanes = serial_lane_sims(64, 3, BERNOULLI_P);
        batch.run(200);
        lanes[0].run(200);
        assert_eq!(batch.positions_of(0), lanes[0].positions());
    }
    // n ∈ {1024, 4096} exercises the demand-driven sparse snapshot fill
    // (auto-enabled there): batch throughput must stay roughly flat in n.
    let mut group = c.benchmark_group("batch_vs_serial_replicas");
    group.throughput(Throughput::Elements(ROUNDS * 64));
    for n in [64usize, 256, 1024, 4096] {
        let mut batch = batch_bernoulli_sim(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("batch64", n), &n, |b, _| {
            b.iter(|| batch.run(ROUNDS))
        });
        let mut lanes = serial_lane_sims(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("serial64", n), &n, |b, _| {
            b.iter(|| {
                for sim in &mut lanes {
                    sim.run(ROUNDS);
                }
            })
        });
    }
    group.finish();

    // The wide arities over seeded replica banks: one batch round at 256
    // lanes advances 4× the replicas of a 64-lane round, so the
    // per-element throughputs stay directly comparable across arities.
    {
        // Sanity: lane 0 and a lane of the last plane equal their serial
        // bank-lane runs.
        let mut batch = batch_bernoulli_bank_sim::<Lanes256>(64, 3, BERNOULLI_P);
        let mut lanes = serial_bank_lane_sims::<Lanes256>(64, 3, BERNOULLI_P);
        batch.run(200);
        lanes[0].run(200);
        lanes[200].run(200);
        assert_eq!(batch.positions_of(0), lanes[0].positions());
        assert_eq!(batch.positions_of(200), lanes[200].positions());
    }
    let mut group = c.benchmark_group("batch_arity");
    for n in [64usize, 1024] {
        group.throughput(Throughput::Elements(ROUNDS * 128));
        let mut batch = batch_bernoulli_bank_sim::<Lanes128>(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("batch128", n), &n, |b, _| {
            b.iter(|| batch.run(ROUNDS))
        });
        group.throughput(Throughput::Elements(ROUNDS * 256));
        let mut batch = batch_bernoulli_bank_sim::<Lanes256>(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("batch256", n), &n, |b, _| {
            b.iter(|| batch.run(ROUNDS))
        });
    }
    group.finish();

    // The SSYNC batch route: round-robin activation in every lane vs the
    // serial engine under the same policy.
    {
        let mut batch = ssync_batch_bernoulli_sim(64, 3, BERNOULLI_P);
        let mut lanes = ssync_serial_lane_sims(64, 3, BERNOULLI_P);
        batch.run(200);
        lanes[0].run(200);
        assert_eq!(batch.positions_of(0), lanes[0].positions());
    }
    let mut group = c.benchmark_group("batch_ssync_vs_serial");
    group.throughput(Throughput::Elements(ROUNDS * 64));
    for n in [64usize, 1024] {
        let mut batch = ssync_batch_bernoulli_sim(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("batch64_ssync", n), &n, |b, _| {
            b.iter(|| batch.run(ROUNDS))
        });
        let mut lanes = ssync_serial_lane_sims(n, 3, BERNOULLI_P);
        group.bench_with_input(BenchmarkId::new("serial64_ssync", n), &n, |b, _| {
            b.iter(|| {
                for sim in &mut lanes {
                    sim.run(ROUNDS);
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("quiet_vs_recorded");
    group.throughput(Throughput::Elements(ROUNDS));
    for n in [8usize, 64, 256] {
        let mut sim = static_sim(n, 3);
        group.bench_with_input(BenchmarkId::new("quiet", n), &n, |b, _| {
            b.iter(|| sim.run(ROUNDS))
        });
        let mut sim = static_sim(n, 3);
        group.bench_with_input(BenchmarkId::new("recorded", n), &n, |b, _| {
            b.iter(|| {
                sim.run_with(ROUNDS, |r| {
                    std::hint::black_box(&r.edges);
                })
            })
        });
    }
    group.finish();

    // Quiet-path cost across presence probabilities: the bit-sliced
    // sampler's work follows p's binary expansion.
    let mut group = c.benchmark_group("bernoulli_p_sweep");
    group.throughput(Throughput::Elements(ROUNDS));
    for (label, p) in [("p10", 0.1f64), ("p50", 0.5), ("p90", 0.9)] {
        let mut sim = bernoulli_sim_p(256, 3, p);
        group.bench_with_input(BenchmarkId::new(label, 256), &p, |b, _| {
            b.iter(|| sim.run(ROUNDS))
        });
    }
    group.finish();

    // The in-place schedule surface itself.
    let mut group = c.benchmark_group("edges_at_into");
    group.throughput(Throughput::Elements(ROUNDS));
    for n in [64usize, 256] {
        let ring = RingTopology::new(n).expect("valid ring");
        let schedule =
            BernoulliSchedule::new(ring.clone(), BERNOULLI_P, BERNOULLI_SEED).expect("valid p");
        let mut buf = dynring_graph::EdgeSet::empty(n);
        group.bench_with_input(BenchmarkId::new("bernoulli_into", n), &n, |b, _| {
            b.iter(|| {
                for t in 0..ROUNDS {
                    schedule.edges_at_into(t, &mut buf);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("bernoulli_alloc", n), &n, |b, _| {
            b.iter(|| {
                for t in 0..ROUNDS {
                    std::hint::black_box(schedule.edges_at(t));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
