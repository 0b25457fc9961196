//! Process-level observability smoke, mirroring `just obs-smoke`: a
//! `--metrics-out` campaign run must leave the result store
//! byte-identical to a plain run (telemetry is strictly out-of-band),
//! write a metrics snapshot carrying the pinned metric names, append a
//! readable events ledger next to the store, and `dynring metrics
//! show|top|diff` must aggregate that ledger. A supervised run with an
//! injected worker death additionally has to surface the retry in the
//! canonical ledger's fault summary and the snapshot counters alike, with
//! the same values.

use std::path::PathBuf;
use std::process::Command;

const SPEC_PATH: &str = "examples/campaign_smoke.json";

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_dynring")
}

/// Fresh store paths for one test, leftovers removed (events ledger,
/// snapshot, manifest, shard dir included).
fn store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dynring_obs_smoke_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join(format!("dynring_obs_smoke_{tag}.jsonl.events.jsonl")));
    let _ = std::fs::remove_file(dir.join(format!("dynring_obs_smoke_{tag}.metrics.json")));
    let _ =
        std::fs::remove_file(dir.join(format!("dynring_obs_smoke_{tag}.jsonl.manifest.json")));
    let _ = std::fs::remove_dir_all(dir.join(format!("dynring_obs_smoke_{tag}.jsonl.shards")));
    path
}

fn run_ok(args: &[&str]) -> String {
    let output = Command::new(exe()).args(args).output().expect("binary spawns");
    assert!(
        output.status.success(),
        "dynring {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn metrics_out_is_byte_identical_and_ledger_aggregates() {
    let plain = store("plain");
    let tele = store("tele");
    run_ok(&["campaign", "run", "--spec", SPEC_PATH, "--store", plain.to_str().unwrap()]);
    let snapshot = std::env::temp_dir().join("dynring_obs_smoke_tele.metrics.json");
    run_ok(&[
        "campaign",
        "run",
        "--spec",
        SPEC_PATH,
        "--store",
        tele.to_str().unwrap(),
        "--metrics-out",
        snapshot.to_str().unwrap(),
    ]);

    // Telemetry never changes store bytes.
    let plain_bytes = std::fs::read(&plain).expect("plain store");
    let tele_bytes = std::fs::read(&tele).expect("telemetered store");
    assert_eq!(plain_bytes, tele_bytes, "--metrics-out must not change store bytes");
    run_ok(&["certify", tele.to_str().unwrap(), "--spec", SPEC_PATH, "--level", "2"]);

    // The snapshot carries the pinned schema and per-route counters.
    let snap = std::fs::read_to_string(&snapshot).expect("snapshot written");
    assert!(snap.contains("\"schema\": \"dynring-metrics-v1\""), "schema pinned:\n{snap}");
    for name in ["campaign_units_total", "campaign_unit_wall_us", "store_fsyncs_total"] {
        assert!(snap.contains(name), "snapshot must carry {name}:\n{snap}");
    }

    // The ledger aggregates: per-route groups, quantiles, clean faults.
    let ledger = format!("{}.events.jsonl", tele.display());
    let show = run_ok(&["metrics", "show", &ledger]);
    assert!(show.contains("240 units"), "all units in the ledger:\n{show}");
    assert!(show.contains("× batch") && show.contains("× serial"), "both routes:\n{show}");
    assert!(show.contains("retries=0") && show.contains("quarantines=0"), "{show}");
    let top = run_ok(&["metrics", "top", &ledger, "--limit", "2"]);
    assert!(top.lines().count() <= 3, "top --limit 2 is a header + 2 rows:\n{top}");
    let diff = run_ok(&["metrics", "diff", &ledger, &ledger]);
    assert!(diff.contains('Δ') || diff.contains("WALL"), "diff renders:\n{diff}");
    let json = run_ok(&["metrics", "show", &ledger, "--json"]);
    assert!(json.contains("\"schema\": \"dynring-events-v1\""), "events schema:\n{json}");
}

#[test]
fn supervised_metrics_capture_injected_retry() {
    let plain = store("sup_plain");
    let sup = store("sup");
    run_ok(&["campaign", "run", "--spec", SPEC_PATH, "--store", plain.to_str().unwrap()]);
    let snapshot = std::env::temp_dir().join("dynring_obs_smoke_sup.metrics.json");

    // Shard 1's first attempt dies after 3 units; the supervisor
    // retries it and the retry must land in the telemetry.
    let output = Command::new(exe())
        .args([
            "campaign",
            "run",
            "--spec",
            SPEC_PATH,
            "--store",
            sup.to_str().unwrap(),
            "--procs",
            "2",
            "--backoff-ms",
            "50",
            "--metrics-out",
            snapshot.to_str().unwrap(),
        ])
        .env("DYNRING_WORKER_FAULT", "exit-after-units:3")
        .env("DYNRING_WORKER_FAULT_SHARD", "1")
        .output()
        .expect("supervisor spawns");
    assert!(
        output.status.success(),
        "supervised run failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );

    let plain_bytes = std::fs::read(&plain).expect("plain store");
    let sup_bytes = std::fs::read(&sup).expect("supervised store");
    assert_eq!(plain_bytes, sup_bytes, "supervised telemetry must not change bytes");

    // The canonical ledger holds the lifecycle — spawns (2 shards + 1
    // restart), exactly one retry, and the final merge of all 240 units —
    // and the process-global snapshot agrees with it value for value.
    let ledger = format!("{}.events.jsonl", sup.display());
    let show = run_ok(&["metrics", "show", &ledger]);
    let text = std::fs::read_to_string(&snapshot).expect("snapshot written");
    let snap: dynring_obs::Snapshot = serde_json::from_str(&text).expect("snapshot parses");
    let counter = |name: &str| {
        snap.metrics.iter().find_map(|m| match m.value {
            dynring_obs::MetricValue::Counter(v) if m.name == name => Some(v),
            _ => None,
        })
    };
    for (series, value, fault) in [
        ("supervisor_spawns_total", 3, "spawns=3"),
        ("supervisor_retries_total", 1, "retries=1"),
        ("merge_units_total", 240, "merges=1"),
    ] {
        assert_eq!(counter(series), Some(value), "{series}:\n{text}");
        assert!(show.contains(fault), "{fault} in the ledger:\n{show}");
    }
}
