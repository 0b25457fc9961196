# Developer entry points. `just` with no argument lists recipes.

default:
    @just --list

# Tier-1 verification: what CI runs and what every PR must keep green.
verify: build test clippy doc

build:
    cargo build --release

test:
    cargo test -q

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: a doc link that goes stale fails.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Full benchmark pass (asserts scenario verdicts before timing).
bench:
    cargo bench -p dynring-bench --bench engine_throughput
    cargo bench -p dynring-bench --bench table1

# Smoke-size performance snapshot -> BENCH_engine.json (see docs/PERFORMANCE.md).
bench-report-quick:
    cargo run --release -- bench-report --quick

# CI gate: quick snapshot + fail if Bernoulli quiet throughput regressed
# >20% against the committed BENCH_engine.json.
bench-smoke:
    cargo run --release -- bench-report --quick --out target/bench-smoke.json --check BENCH_engine.json

# Full-size performance snapshot -> BENCH_engine.json.
bench-report:
    cargo run --release -- bench-report

# CI gate for the lane-arity stack (see docs/PERFORMANCE.md): the
# bit-identity tests pinning lane l of every arity (64/128/256) and of
# the batch-routed SSYNC units to the serial engine, the capability-based
# route dispatch, the cross-arity proptests, and a 256-replica Monte
# Carlo sweep driven through the auto-arity dispatch.
batch-arity-smoke:
    cargo test -q -p dynring-analysis --lib -- arity ragged ssync
    cargo test -q -p dynring-engine --lib -- arity sparse_fill ssync wide
    cargo test -q -p dynring-campaign --lib -- routing batch_route ssync
    cargo test -q -p dynring-core --test batch_equivalence
    cargo run --release -- montecarlo --n 16 --k 3 --p 0.5 --replicas 256 --horizon 2000 --seed 7

# Reproduce the paper's Table 1 from the CLI.
table1:
    cargo run --release -- table1

# Small fixed-seed Monte Carlo sweep on the lockstep batch engine (256
# replicas auto-select the 256-lane arity; the summary JSON of this
# exact configuration is pinned by a test).
montecarlo:
    cargo run --release -- montecarlo --n 16 --k 3 --p 0.5 --replicas 256 --horizon 2000 --seed 7

# Large-ring Monte Carlo sweep: n = 4096 rides the demand-driven sparse
# snapshot fill, so batch throughput stays within 2x of small rings
# (gated by bench-report --check via the batch flatness tripwire).
montecarlo-large:
    cargo run --release -- montecarlo --n 4096 --k 3 --p 0.5 --replicas 256 --horizon 60000 --seed 7

# CI gate for replay bundles (see docs/CERTIFY.md): certify the smoke
# store at level 1 (header / hash chain / plan membership / seal) and at
# level 2 (seeded sampled re-execution), then corrupt one byte of a copy
# and check certification fails with a greppable CERTIFY-FAIL line.
certify-smoke: campaign-smoke
    cargo run --release -- certify target/campaign-smoke.jsonl --spec examples/campaign_smoke.json
    cargo run --release -- certify target/campaign-smoke.jsonl --spec examples/campaign_smoke.json --level 2 --sample 8 --seed 7 --out target/certify-verdict.json
    cp target/campaign-smoke.jsonl target/campaign-smoke-corrupt.jsonl
    printf '\0' | dd of=target/campaign-smoke-corrupt.jsonl bs=1 seek=2048 conv=notrunc status=none
    if cargo run --release -- certify target/campaign-smoke-corrupt.jsonl --spec examples/campaign_smoke.json > target/certify-corrupt.log 2>&1; then echo "a corrupted bundle must not certify"; exit 1; fi
    grep -q 'CERTIFY-FAIL' target/certify-corrupt.log

# CI gate for distributed campaigns (see docs/CAMPAIGNS.md): shard the
# committed smoke spec over 4 worker processes, kill shard 1's first
# attempt mid-run via the env fault hook, let the supervisor retry it,
# and check the merged canonical store is byte-identical to a
# single-process run and certifies at level 2. Then drive one shard to
# quarantine and check the run fails with a greppable SHARD-FAIL line.
distributed-smoke:
    rm -rf target/dist-smoke.jsonl target/dist-smoke.jsonl.manifest.json target/dist-smoke.jsonl.shards target/dist-smoke-serial.jsonl target/dist-quarantine.jsonl target/dist-quarantine.jsonl.manifest.json target/dist-quarantine.jsonl.shards
    cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/dist-smoke-serial.jsonl
    DYNRING_WORKER_FAULT=exit-after-units:3 DYNRING_WORKER_FAULT_SHARD=1 cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/dist-smoke.jsonl --procs 4 --backoff-ms 50
    cmp target/dist-smoke.jsonl target/dist-smoke-serial.jsonl
    cargo run --release -- certify target/dist-smoke.jsonl --spec examples/campaign_smoke.json --level 2 --sample 8 --seed 7
    if DYNRING_WORKER_FAULT=exit-after-units:2 DYNRING_WORKER_FAULT_SHARD=0 DYNRING_WORKER_FAULT_ATTEMPTS=always cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/dist-quarantine.jsonl --procs 2 --max-retries 1 --backoff-ms 10 --no-steal > target/dist-quarantine.log 2>&1; then echo "an exhausted shard must fail the campaign"; exit 1; fi
    grep -q 'SHARD-FAIL shard=0' target/dist-quarantine.log

# CI gate for adaptive re-sharding (see docs/CAMPAIGNS.md): poison one
# unit so whichever worker executes it dies, on every attempt. The
# supervisor must steal and re-shard the loss down to a 1-unit
# quarantine naming exactly that unit (exit code 3), and a clean resume
# must converge to the single-process bytes and certify at level 2.
resharding-smoke:
    rm -rf target/resharding-smoke.jsonl target/resharding-smoke.jsonl.manifest.json target/resharding-smoke.jsonl.shards target/resharding-smoke-serial.jsonl
    cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/resharding-smoke-serial.jsonl
    if DYNRING_WORKER_FAULT=poison-index:37 DYNRING_WORKER_FAULT_ATTEMPTS=always cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/resharding-smoke.jsonl --procs 4 --max-retries 0 --backoff-ms 10 > target/resharding-smoke.log 2>&1; then echo "a poisoned unit must leave the campaign partial"; exit 1; fi
    grep -q 'SHARD-STEAL' target/resharding-smoke.log
    grep -q 'range=37\.\.38' target/resharding-smoke.log
    cargo run --release -- campaign resume --spec examples/campaign_smoke.json --store target/resharding-smoke.jsonl --procs 4
    cmp target/resharding-smoke.jsonl target/resharding-smoke-serial.jsonl
    cargo run --release -- certify target/resharding-smoke.jsonl --spec examples/campaign_smoke.json --level 2 --sample 8 --seed 7

# CI gate for the campaign layer: run the committed 240-unit smoke spec,
# interrupt it after 60 units, resume it, check the interrupted store is
# byte-identical to an uninterrupted run, check runs at --workers 1 and
# --workers 3 are too, and diff the report against the pinned
# examples/campaign_smoke_report.json (see docs/CAMPAIGNS.md).
campaign-smoke:
    rm -f target/campaign-smoke.jsonl target/campaign-smoke-oneshot.jsonl target/campaign-smoke-w1.jsonl target/campaign-smoke-w3.jsonl target/campaign-smoke-report.json
    cargo run --release -- campaign run    --spec examples/campaign_smoke.json --store target/campaign-smoke.jsonl --max-units 60
    cargo run --release -- campaign resume --spec examples/campaign_smoke.json --store target/campaign-smoke.jsonl
    cargo run --release -- campaign run    --spec examples/campaign_smoke.json --store target/campaign-smoke-oneshot.jsonl
    cmp target/campaign-smoke.jsonl target/campaign-smoke-oneshot.jsonl
    cargo run --release -- campaign run    --spec examples/campaign_smoke.json --store target/campaign-smoke-w1.jsonl --workers 1
    cmp target/campaign-smoke-w1.jsonl target/campaign-smoke-oneshot.jsonl
    cargo run --release -- campaign run    --spec examples/campaign_smoke.json --store target/campaign-smoke-w3.jsonl --workers 3
    cmp target/campaign-smoke-w3.jsonl target/campaign-smoke-oneshot.jsonl
    cargo run --release -- campaign report --spec examples/campaign_smoke.json --store target/campaign-smoke.jsonl --out target/campaign-smoke-report.json
    cmp target/campaign-smoke-report.json examples/campaign_smoke_report.json

# CI gate for the serial first-cover kernel (see docs/CAMPAIGNS.md): the
# committed 1,728-unit serial-equivalence spec (whole portfolio × every
# serial-routed dynamics class × FSYNC/SSYNC) must seal to the chain head
# the recording harness produced, the 2,160-unit multi-word spec (n = 65,
# 130) to the chain head of the per-edge generators, and both stores must
# certify at level 2.
serial-equivalence:
    cargo test --release -q --test serial_equivalence
    rm -f target/serial-equivalence.jsonl target/serial-equivalence-multiword.jsonl
    cargo run --release -- campaign run --spec examples/serial_equivalence.json --store target/serial-equivalence.jsonl
    cargo run --release -- certify target/serial-equivalence.jsonl --spec examples/serial_equivalence.json --level 2 --sample 32 --seed 7
    cargo run --release -- campaign run --spec examples/serial_equivalence_multiword.json --store target/serial-equivalence-multiword.jsonl
    cargo run --release -- certify target/serial-equivalence-multiword.jsonl --spec examples/serial_equivalence_multiword.json --level 2 --sample 32 --seed 7

# CI gate for the observability layer (see docs/OBSERVABILITY.md): run
# the smoke spec with --metrics-out, check the store is byte-identical
# to a plain run and still certifies at level 2, check the snapshot
# carries the pinned metric names, and aggregate the events ledger with
# `metrics show` / `top` / `diff`. Then run it supervised over 2
# processes with shard 1's first worker killed: the store must still
# match the plain one, the log must carry the SHARD-RETRY line and the
# ledger the retry.
obs-smoke:
    rm -f target/obs-smoke.jsonl target/obs-smoke.jsonl.events.jsonl target/obs-smoke-plain.jsonl target/obs-metrics.json
    rm -rf target/obs-sup.jsonl target/obs-sup.jsonl.events.jsonl target/obs-sup.jsonl.manifest.json target/obs-sup.jsonl.shards target/obs-sup-metrics.json target/obs-sup.log
    cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/obs-smoke-plain.jsonl
    cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/obs-smoke.jsonl --metrics-out target/obs-metrics.json
    cmp target/obs-smoke.jsonl target/obs-smoke-plain.jsonl
    cargo run --release -- certify target/obs-smoke.jsonl --spec examples/campaign_smoke.json --level 2 --sample 8 --seed 7
    grep -q 'campaign_units_total' target/obs-metrics.json
    grep -q 'campaign_unit_wall_us' target/obs-metrics.json
    grep -q 'store_fsyncs_total' target/obs-metrics.json
    grep -q '"schema": "dynring-metrics-v1"' target/obs-metrics.json
    cargo run --release -- metrics show target/obs-smoke.jsonl.events.jsonl
    cargo run --release -- metrics top target/obs-smoke.jsonl.events.jsonl --limit 5
    cargo run --release -- metrics diff target/obs-smoke.jsonl.events.jsonl target/obs-smoke.jsonl.events.jsonl > /dev/null
    DYNRING_WORKER_FAULT=exit-after-units:3 DYNRING_WORKER_FAULT_SHARD=1 cargo run --release -- campaign run --spec examples/campaign_smoke.json --store target/obs-sup.jsonl --procs 2 --backoff-ms 50 --metrics-out target/obs-sup-metrics.json > target/obs-sup.log 2>&1
    cmp target/obs-sup.jsonl target/obs-smoke-plain.jsonl
    grep -q 'SHARD-RETRY shard=1' target/obs-sup.log
    cargo run --release -- metrics show target/obs-sup.jsonl.events.jsonl | grep -q 'retries=1'
