//! The end-to-end run: tracing and the events ledger off, `WORKERS`
//! threads, repeated for the measuring time, medians at reference machine
//! speed reported (see `calibrate`).
//!
//! Each repeat of the pipeline (set-up, run, certify, report) runs in a
//! fresh process of this binary (`--pipeline`), as a researcher's CLI
//! invocation would, so its peak resident set is its own and no repeat
//! inherits another's heap. Set-up is timed the same way, in set-up-only
//! processes (`--setup`) started after every repeat, each paying set-up
//! once, cold.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use dynring_campaign::{certify, load_report, run_campaign, CertifyOptions, ResultStore};

use crate::calibrate::Kernel;
use crate::common::{peak_rss_mb, run_options, setup, write_spec, Reference, Res, Tally};
use crate::stats::{median, quantiles};
use crate::workloads::{Workload, WORKERS};

/// Set-up-only processes after every repeat; the k-th joins group k, and
/// `setup_s` is the median of the group means (a median of means).
/// A single cold set-up lands in a fast or a slow state of the machine
/// (about 45% apart on the shared 2-vCPU host the bounds were set on, in
/// streaks of tens of milliseconds), so single set-up times are bimodal
/// and their median jumps between the modes. Each group has one member
/// per repeat, so it spans the whole run and its mean does not jump.
const SETUP_GROUPS: usize = 8;
/// Pipeline repeats run even when they overrun the measuring time.
const MIN_ITERATIONS: usize = 3;

pub struct Outcome {
    pub iterations: usize,
    pub units: usize,
    /// `SETUP_GROUPS` groups, one set-up per repeat in each.
    setup_groups: Vec<Vec<f64>>,
    units_per_s: Vec<f64>,
    time_to_report_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Each repeat's slowdown: calibration kernel seconds around it ÷ the
    /// kernel's reference seconds.
    slowdown: Vec<f64>,
}

/// What one pipeline measured, and what went wrong in it.
struct Sample {
    units_per_s: f64,
    time_to_report_s: f64,
    units: usize,
    peak_rss_mb: f64,
    /// Mean seconds of the calibration kernel right before and after the
    /// pipeline ÷ its reference seconds.
    slowdown: f64,
    problems: Vec<String>,
}

/// The `--setup SPEC` mode: one set-up, then one line `setup <seconds>`.
pub fn setup_child(spec_path: &Path) -> Res<()> {
    let t0 = Instant::now();
    black_box(setup(spec_path)?);
    println!("setup {}", t0.elapsed().as_secs_f64());
    Ok(())
}

/// The `--pipeline SPEC STORE KERNEL` mode: one pipeline from spec file
/// to certified report between two runs of the calibration kernel, then
/// one line `pipeline <units_per_s> <time_to_report_s> <units>
/// <peak_rss_mb> <slowdown>` and one `problem …` line per failed check.
pub fn pipeline_child(spec_path: &Path, store_path: &Path, kernel: &str) -> Res<()> {
    let kernel = Kernel::parse(kernel).ok_or_else(|| format!("unknown kernel {kernel:?}"))?;
    let dir = store_path.parent().ok_or("the store has no directory")?;
    let store = ResultStore::new(store_path);
    let before = kernel.measure(WORKERS, dir)?;
    let t0 = Instant::now();
    let (spec, plan) = setup(spec_path)?;
    let t1 = Instant::now();
    let run = run_campaign(&spec, &store, &run_options(WORKERS));
    let t2 = Instant::now();
    let verdict = certify(&spec, &store, &CertifyOptions::default());
    let report = load_report(&spec, &store);
    let t3 = Instant::now();
    let peak = peak_rss_mb()?;
    let slowdown = (before + kernel.measure(WORKERS, dir)?) / 2.0 / kernel.reference_s();
    let units = plan.units.len();
    let mut problems = Vec::new();
    match run {
        Ok(o) if o.is_complete() && o.executed == units => {}
        Ok(o) => problems.push(format!("run left {} units pending", o.pending)),
        Err(e) => problems.push(format!("run failed: {e}")),
    }
    match verdict {
        Ok(v) if v.pass && v.sealed => {}
        Ok(v) => problems.push(format!("certify level 1 failed: {:?}", v.failures.first())),
        Err(e) => problems.push(format!("certify failed: {e}")),
    }
    match report {
        Ok(r) if r.is_complete() && r.completed_units == units => {
            black_box(&r);
        }
        Ok(r) => problems.push(format!(
            "report covers {} of {units} units",
            r.completed_units
        )),
        Err(e) => problems.push(format!("report failed: {e}")),
    }
    println!(
        "pipeline {} {} {units} {peak} {slowdown}",
        units as f64 / (t2 - t1).as_secs_f64(),
        (t3 - t0).as_secs_f64(),
    );
    for p in problems {
        println!("problem {p}");
    }
    Ok(())
}

/// Runs this binary with `args` and returns its standard output.
fn child(args: &[&Path]) -> Res<String> {
    let output = Command::new(std::env::current_exe()?)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8(output.stdout)?;
    if !output.status.success() {
        return Err(format!("{args:?} process failed ({}): {stdout}", output.status).into());
    }
    Ok(stdout)
}

fn setup_once(spec_path: &Path) -> Res<f64> {
    let stdout = child(&[Path::new("--setup"), spec_path])?;
    match stdout.trim().split(' ').collect::<Vec<_>>()[..] {
        ["setup", secs] => Ok(secs.parse()?),
        _ => Err(format!("unexpected set-up output: {stdout}").into()),
    }
}

fn pipeline(spec_path: &Path, store: &ResultStore, kernel: Kernel) -> Res<Sample> {
    let kernel = Path::new(kernel.name());
    let stdout = child(&[Path::new("--pipeline"), spec_path, store.path(), kernel])?;
    let mut lines = stdout.lines();
    let fields: Vec<&str> = lines.next().unwrap_or_default().split(' ').collect();
    let ["pipeline", units_per_s, ttr, units, peak, slowdown] = fields[..] else {
        return Err(format!("unexpected pipeline output: {stdout}").into());
    };
    Ok(Sample {
        units_per_s: units_per_s.parse()?,
        time_to_report_s: ttr.parse()?,
        units: units.parse()?,
        peak_rss_mb: peak.parse()?,
        slowdown: slowdown.parse()?,
        problems: lines
            .filter_map(|l| l.strip_prefix("problem "))
            .map(String::from)
            .collect(),
    })
}

pub fn run(w: &Workload, seed: u64, seconds: f64, dir: &Path, tally: &mut Tally) -> Res<Outcome> {
    let spec_path = dir.join("spec.json");
    write_spec(&w.spec(seed), &spec_path)?;

    // Before the timed loop (which it also warms): one serial run, the
    // reference every parallel repeat must match in bytes, chain head
    // and replica-rounds.
    let serial = ResultStore::new(dir.join("serial.jsonl"));
    let (spec, plan) = setup(&spec_path)?;
    let mut units = plan.units.len();
    tally.attempt(units);
    let label = "workers 1 run";
    let mut reference = match run_campaign(&spec, &serial, &run_options(1)) {
        Ok(outcome) if outcome.is_complete() => Some(Reference::new(&serial)?),
        Ok(_) => {
            tally.fail(label, units, "the store is incomplete".into());
            None
        }
        Err(e) => {
            tally.fail(label, units, format!("run failed: {e}"));
            None
        }
    };
    drop((spec, plan));

    let mut setup_groups = vec![Vec::new(); SETUP_GROUPS];
    let mut units_per_s = Vec::new();
    let mut time_to_report_s = Vec::new();
    let mut peak = Vec::new();
    let mut slowdown = Vec::new();
    let start = Instant::now();
    while units_per_s.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let i = units_per_s.len();
        let store = ResultStore::new(dir.join(format!("run-{i}.jsonl")));
        let label = format!("iteration {i}");
        let sample = pipeline(&spec_path, &store, w.kernel)?;
        units = sample.units;
        tally.attempt(units);
        if !sample.problems.is_empty() {
            tally.fail(&label, units, sample.problems.join("; "));
        }
        for group in &mut setup_groups {
            group.push(setup_once(&spec_path)?);
        }
        units_per_s.push(sample.units_per_s);
        time_to_report_s.push(sample.time_to_report_s);
        peak.push(sample.peak_rss_mb);
        slowdown.push(sample.slowdown);
        match &reference {
            // Only when the serial run failed: the first repeat stands in.
            None => reference = Some(Reference::new(&store)?),
            Some(r) => {
                tally.check(&label, units, r.mismatch(&store)?);
                fs::remove_file(store.path())?;
            }
        }
    }

    Ok(Outcome {
        iterations: units_per_s.len(),
        units,
        setup_groups,
        units_per_s,
        time_to_report_s,
        peak_rss_mb: peak,
        slowdown,
    })
}

impl Outcome {
    /// Per-repeat samples of each end-to-end metric (set-up group means
    /// for `setup_s`): times divided and rates multiplied by `scale(i)` of
    /// their repeat.
    fn samples(
        &self,
        scale: impl Fn(usize) -> f64 + Copy,
    ) -> [(&'static str, Vec<f64>, &'static str); 4] {
        let times = |v: &[f64]| v.iter().enumerate().map(|(i, x)| x / scale(i)).collect();
        let rates = |v: &[f64]| v.iter().enumerate().map(|(i, x)| x * scale(i)).collect();
        let group_mean = |g: &Vec<f64>| {
            let g: Vec<f64> = times(g);
            g.iter().sum::<f64>() / g.len() as f64
        };
        [
            (
                "setup_s",
                self.setup_groups.iter().map(group_mean).collect(),
                "s",
            ),
            ("units_per_s", rates(&self.units_per_s), "units/s"),
            ("time_to_report_s", times(&self.time_to_report_s), "s"),
            ("peak_rss_mb", self.peak_rss_mb.clone(), "MB"),
        ]
    }

    /// `(name, value, unit)` of every end-to-end metric: medians of the
    /// samples at reference speed.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        self.samples(|i| self.slowdown[i])
            .into_iter()
            .map(|(name, values, unit)| (name.to_string(), median(&values), unit))
            .collect()
    }

    /// Human-readable spread of each sample set, at reference speed and
    /// as measured, and the slowdown of each repeat.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![line("slowdown", &self.slowdown)];
        lines.push("  at reference speed:".into());
        for (name, values, _) in self.samples(|i| self.slowdown[i]) {
            lines.push(line(name, &values));
        }
        lines.push("  as measured:".into());
        for (name, values, _) in self.samples(|_| 1.0) {
            lines.push(line(name, &values));
        }
        lines
    }
}

fn line(name: &str, values: &[f64]) -> String {
    let q = quantiles(values);
    let mut line = format!(
        "  {name:<18} p50 {:.6}  p{} {:.6}  (n={})",
        q.p50, q.tail_pct, q.tail, q.samples
    );
    if values.len() <= 32 {
        let raw: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        line.push_str(&format!(" [{}]", raw.join(" ")));
    }
    line
}
