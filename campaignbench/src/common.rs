//! Helpers shared by the end-to-end and the traced runs: spec set-up,
//! store fingerprints, and the tally of attempted and failed units.

use std::collections::BTreeSet;
use std::error::Error;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

use dynring_campaign::{CampaignPlan, CampaignSpec, ResultStore, RunOptions, UnitRecord};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Writes the generated spec where set-up reads it from.
pub fn write_spec(spec: &CampaignSpec, path: &Path) -> Res<()> {
    fs::write(path, serde_json::to_string_pretty(spec)?)?;
    Ok(())
}

/// Set-up as a user pays it: read and parse the spec file, then plan.
pub fn setup(path: &Path) -> Res<(CampaignSpec, CampaignPlan)> {
    let spec: CampaignSpec = serde_json::from_str(&fs::read_to_string(path)?)?;
    let plan = spec.plan()?;
    Ok((spec, plan))
}

/// A fresh run at `workers` threads, tracing and the events ledger off.
pub fn run_options(workers: usize) -> RunOptions {
    RunOptions {
        workers,
        ..RunOptions::default()
    }
}

/// Replica-rounds a record advanced: summed cover times plus the whole
/// horizon for every replica that never covered (the runner's formula).
pub fn replica_rounds(record: &UnitRecord) -> u64 {
    let uncovered = record.result.replicas.saturating_sub(record.result.covered) as u64;
    record.result.total_cover_time + uncovered * record.unit.horizon
}

/// A sealed store every other store of the same seed must equal: same
/// chain head, same replica-rounds, same bytes.
pub struct Reference {
    path: PathBuf,
    chain_head: Option<String>,
    replica_rounds: u64,
}

fn summary(store: &ResultStore) -> Res<(Option<String>, u64)> {
    let loaded = store.load()?;
    let rounds = loaded.records.iter().map(replica_rounds).sum();
    Ok((loaded.chain_head, rounds))
}

impl Reference {
    /// Takes `store` as the reference; it must stay in place while
    /// others are compared with it.
    pub fn new(store: &ResultStore) -> Res<Self> {
        let (chain_head, replica_rounds) = summary(store)?;
        Ok(Reference {
            path: store.path().to_path_buf(),
            chain_head,
            replica_rounds,
        })
    }

    /// Names how `store` differs from the reference, or `None`.
    pub fn mismatch(&self, store: &ResultStore) -> Res<Option<String>> {
        let (chain_head, rounds) = summary(store)?;
        if chain_head != self.chain_head {
            return Ok(Some(format!(
                "chain head {chain_head:?} != {:?}",
                self.chain_head
            )));
        }
        if rounds != self.replica_rounds {
            return Ok(Some(format!(
                "replica-rounds {rounds} != {}",
                self.replica_rounds
            )));
        }
        if !same_bytes(&self.path, store.path())? {
            return Ok(Some(format!(
                "{} and {} differ",
                store.path().display(),
                self.path.display()
            )));
        }
        Ok(None)
    }
}

/// `cmp` in constant memory, so the check does not raise the peak
/// resident set the benchmark reports.
fn same_bytes(a: &Path, b: &Path) -> Res<bool> {
    if fs::metadata(a)?.len() != fs::metadata(b)?.len() {
        return Ok(false);
    }
    let (mut a, mut b) = (File::open(a)?, File::open(b)?);
    let (mut buf_a, mut buf_b) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = a.read(&mut buf_a)?;
        if n == 0 {
            return Ok(true);
        }
        b.read_exact(&mut buf_b[..n])?;
        if buf_a[..n] != buf_b[..n] {
            return Ok(false);
        }
    }
}

/// Units attempted and failed. A failed check fails every unit of the
/// run it judged, once however many checks that run fails.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    failed_runs: BTreeSet<String>,
}

impl Tally {
    pub fn attempt(&mut self, units: usize) {
        self.attempted += units as u64;
    }

    pub fn fail(&mut self, run: &str, units: usize, what: String) {
        if self.failed_runs.insert(run.to_string()) {
            self.failed += units as u64;
        }
        self.failures.push(format!("{run}: {what}"));
    }

    /// Records the outcome of one check over a run of `units` units.
    pub fn check(&mut self, run: &str, units: usize, problem: Option<String>) {
        if let Some(p) = problem {
            self.fail(run, units, p);
        }
    }

    /// Folds in another workload's tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

pub fn file_mb(path: &Path) -> Res<f64> {
    Ok(fs::metadata(path)?.len() as f64 / (1024.0 * 1024.0))
}
