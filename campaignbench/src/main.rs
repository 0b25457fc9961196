//! The campaign benchmark: end-to-end and per-layer performance of
//! `dynring` campaigns through the public `dynring_campaign` API.
//!
//! ```text
//! campaignbench --workload NAME|all --seed N --seconds S --trace 0|1
//! campaignbench --describe
//! ```
//!
//! `--trace 0` repeats the whole pipeline (set-up, run, certify, report)
//! for `--seconds` and reports medians of the end-to-end metrics, scaled
//! to reference machine speed by a calibration kernel run around each
//! repeat.
//! `--trace 1` makes one traced pass and reports every per-layer metric.
//! Both check the outputs and exit 1 when a check fails. The last line of
//! standard output is one JSON object with the result. `--describe`
//! writes `BENCHMARK.json` and `campaignbench/WORKLOADS.json`.

mod calibrate;
mod common;
mod e2e;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use common::{Res, Tally};
use dynring_campaign::route_unit;
use workloads::{Workload, CLASSES, DEFAULT_SEED, END_TO_END, PREDICTIONS, WORKERS, WORKLOADS};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 30;
/// Scratch space of a run, inside the checkout.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: campaignbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       \
         campaignbench --describe",
        WORKLOADS.map(|w| w.name).join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let special = match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--describe"] => Some(describe()),
        ["--pipeline", spec, store, kernel] => Some(e2e::pipeline_child(
            Path::new(spec),
            Path::new(store),
            kernel,
        )),
        ["--setup", spec] => Some(e2e::setup_child(Path::new(spec))),
        _ => None,
    };
    if let Some(result) = special {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Measures the chosen workload, or every workload in turn, printing a
/// listing per workload; with `all`, a summary table follows and the
/// result's metric names are prefixed with the workload's.
fn run(args: &Args) -> Res<bool> {
    let chosen: Vec<&Workload> = match workloads::find(&args.workload) {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let prefix = chosen.len() > 1;
    let mut tally = Tally::default();
    let mut result: Metrics = Vec::new();
    let mut table = Vec::new();
    let mut finite = true;
    for w in chosen {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name, std::process::id()));
        fs::create_dir_all(&dir)?;
        let dir = dir.canonicalize()?;
        let outcome = measure(w, args, &dir);
        let cleanup = fs::remove_dir_all(&dir);
        let (metrics, one, notes) = outcome?;
        cleanup?;

        println!(
            "campaignbench workload={} seed={} trace={} workers={WORKERS}",
            w.name,
            args.seed,
            u8::from(args.trace)
        );
        for note in &notes {
            println!("{note}");
        }
        let mut row = format!("{:<16}", w.name);
        for (name, value, unit) in &metrics {
            println!("metric {name} {value} {unit}");
            if END_TO_END.iter().any(|m| m.name == name) {
                let _ = write!(row, "  {name}={value:.4} {unit}");
            }
        }
        println!("metric failed_unit_ratio {} ratio", one.ratio());
        let _ = write!(row, "  failed_unit_ratio={:.4} ratio", one.ratio());
        for failure in &one.failures {
            println!("CHECK-FAIL {} {failure}", w.name);
        }
        if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
            println!("CHECK-FAIL {} a metric is not a finite number", w.name);
            finite = false;
        }
        table.push(row);
        tally.add(one);
        for (name, value, unit) in metrics {
            let name = if prefix {
                format!("{}.{name}", w.name)
            } else {
                name
            };
            result.push((name, value, unit));
        }
    }
    if prefix {
        println!(
            "summary (seed {}, trace {}):",
            args.seed,
            u8::from(args.trace)
        );
        for row in &table {
            println!("  {row}");
        }
    }
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!("{}", result_json(correct, &tally, &result));
    Ok(correct)
}

fn measure(w: &Workload, args: &Args, dir: &Path) -> Res<(Metrics, Tally, Vec<String>)> {
    let mut tally = Tally::default();
    if !args.trace {
        let outcome = e2e::run(w, args.seed, args.seconds, dir, &mut tally)?;
        let mut notes = vec![format!(
            "units={} iterations={} kernel={} (setup_s samples are group means)",
            outcome.units,
            outcome.iterations,
            w.kernel.name()
        )];
        notes.extend(outcome.describe());
        return Ok((outcome.metrics(), tally, notes));
    }
    let layers = traced::run(w, args.seed, dir, &mut tally)?;
    let out_dir = Path::new(WORK_ROOT).join("trace");
    fs::create_dir_all(&out_dir)?;
    let stem = out_dir.join(format!("{}-seed{}", w.name, args.seed));
    let spans_path = stem.with_extension("spans.jsonl");
    let layers_path = stem.with_extension("layers.json");
    fs::write(&spans_path, &layers.spans)?;
    fs::write(&layers_path, layers.to_json(w.name, args.seed))?;
    let mut notes = vec![
        format!("spans: {}", spans_path.display()),
        format!("layers: {}", layers_path.display()),
        layers.shares(),
        "  layer file only (this workload's executor classes and arities):".to_string(),
    ];
    for (name, value, unit) in &layers.layer_only {
        notes.push(format!("    {name} = {value} {unit}"));
    }
    let mut metrics = Vec::new();
    for (name, unit) in workloads::per_layer() {
        let value = *layers
            .metrics
            .get(&name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push((name, value, unit));
    }
    Ok((metrics, tally, notes))
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// Writes `BENCHMARK.json` (the contract the benchmark is run under) and
/// `campaignbench/WORKLOADS.json` (generated axes, spec hash at the
/// default seed, rationale and the prediction table).
fn describe() -> Res<()> {
    let mut b = String::from("{\n");
    b.push_str("  \"command\": [\"python3\", \"campaignbench/run.py\"],\n");
    b.push_str("  \"paths\": [\"campaignbench\"],\n");
    let _ = writeln!(b, "  \"run_seconds\": {RUN_SECONDS},");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                esc(w.why)
            )
        })
        .collect();
    let _ = writeln!(b, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    let _ = writeln!(b, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = workloads::per_layer()
        .iter()
        .map(|(name, unit)| {
            let better = if higher_is_better(name, unit) {
                "higher"
            } else {
                "lower"
            };
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    let _ = writeln!(b, "  \"per_layer\": [\n{}\n  ]\n}}", rows.join(",\n"));
    fs::write("BENCHMARK.json", b)?;

    let mut d = String::from("{\n  \"schema\": \"campaignbench-workloads-v1\",\n");
    let _ = writeln!(
        d,
        "  \"default_seed\": {DEFAULT_SEED},\n  \"workers\": {WORKERS},"
    );
    d.push_str(
        "  \"seed_rule\": \"the seeds axis is derive_stream_seed(seed, i) mod 2^40 for \
         i = 0, 1, ... (distinct values), the level-2 sample seed is \
         derive_stream_seed(seed, u64::MAX) mod 2^40; every other axis is fixed\",\n",
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let spec = w.spec(DEFAULT_SEED);
        let plan = spec.plan()?;
        let axes = serde_json::to_string_pretty(&spec)?.replace('\n', "\n      ");
        let mut classes = [0usize; CLASSES.len()];
        let mut arities: BTreeMap<usize, usize> = BTreeMap::new();
        for planned in &plan.units {
            classes[workloads::class_of(&planned.unit)] += 1;
            if let Some(arity) = route_unit(&planned.unit).arity() {
                *arities.entry(arity.lanes()).or_default() += 1;
            }
        }
        let classes: Vec<String> = CLASSES
            .iter()
            .zip(classes)
            .filter(|(_, count)| *count > 0)
            .map(|(name, count)| format!("\"{name}\": {count}"))
            .collect();
        let arities: Vec<String> = arities
            .iter()
            .map(|(lanes, count)| format!("\"{lanes}\": {count}"))
            .collect();
        rows.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"why\": \"{}\",\n      \"rationale\": \"{}\",\n      \
             \"units\": {},\n      \"calibration_kernel\": \"{}\",\n      \"spec_hash_at_default_seed\": \"{}\",\n      \
             \"level2_sample_seed_at_default_seed\": {},\n      \
             \"executor_units_by_class\": {{{}}},\n      \"batch_units_by_arity\": {{{}}},\n      \
             \"axes_at_default_seed\": {axes}\n    }}",
            w.name,
            esc(w.why),
            esc(w.rationale),
            plan.units.len(),
            w.kernel.name(),
            plan.spec_hash,
            w.sample_seed(DEFAULT_SEED),
            classes.join(", "),
            arities.join(", "),
        ));
    }
    let _ = writeln!(d, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = PREDICTIONS
        .iter()
        .map(|p| {
            format!(
                "    {{\"layer_metrics\": {}, \"moves\": {}, \"on\": {}, \"no_change_on\": {}, \"note\": \"{}\"}}",
                str_list(p.layer_metrics),
                str_list(p.moves),
                str_list(p.on),
                str_list(p.no_change_on),
                esc(p.note)
            )
        })
        .collect();
    let _ = writeln!(d, "  \"predictions\": [\n{}\n  ]\n}}", rows.join(",\n"));
    fs::write(Path::new("campaignbench").join("WORKLOADS.json"), d)?;
    Ok(())
}

/// Direction of a per-layer metric: rates, fills and throughputs up;
/// times, bytes, overheads and idle shares down; work counts and shares
/// are descriptive and listed as higher.
fn higher_is_better(name: &str, unit: &str) -> bool {
    match unit {
        "s" | "ms" | "us" | "bytes" => false,
        "ratio" => !(name.contains("overhead") || name.contains("idle") || name.ends_with("share")),
        _ => true,
    }
}
