//! Store readers hold the plan, not the store: certify level 1, the
//! report and a resume of a complete store keep a bounded amount of heap
//! above the plan they build, whatever the store's size.
//!
//! A counting global allocator (this test binary's own; the library is
//! untouched) tracks each thread's live heap and its peak. Each reader
//! runs on a store of N and of 4N tiny units; its peak above the heap
//! it started with, less the peak of building one plan (each reader
//! builds its own), must stay under [`BOUND`] and grow by less than
//! [`GROWTH`] from N to 4N. Reading a store whole cost about 840 bytes
//! a unit here: the file's bytes and the parsed records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    certify, load_report, run_campaign, CampaignSpec, CertifyOptions, PlacementAxis, ResultStore,
    RunOptions, UnitDynamics, UnitScheduler,
};

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn track(grow: usize, shrink: usize) {
    // `try_with`: the allocator also serves thread teardown.
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap a reader may hold above its plan: the 64 KiB read buffer, one
/// parsed line and its fold.
const BOUND: usize = 1 << 20;

/// What that heap may grow by from N to 4N units: the readers keep a
/// flag per plan unit, and the report a survival rate per unit, about
/// 25 bytes a unit here.
const GROWTH: usize = 96 << 10;

/// `units` tiny deterministic units (one seed each).
fn spec(units: u64) -> CampaignSpec {
    CampaignSpec {
        name: "bounded".into(),
        ring_sizes: vec![4],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![UnitDynamics::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: (0..units).collect(),
        horizon: 8,
        replicas: 1,
    }
}

/// This thread's peak live heap while `f` runs, above the heap live when
/// it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// Each reader's peak heap above one plan, on a complete store of
/// `units` units: certify level 1, the report, a resume.
fn reader_peaks(units: u64) -> [usize; 3] {
    let spec = spec(units);
    let path = std::env::temp_dir().join(format!("dynring_bounded_read_{units}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let store = ResultStore::new(&path);
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    run_campaign(&spec, &store, &opts).expect("runs");
    let (plan, plan_bytes) = peak_above_start(|| spec.plan().expect("plan"));
    let resume = RunOptions {
        fresh: false,
        ..opts
    };
    let (verdict, certify_peak) =
        peak_above_start(|| certify(&spec, &store, &CertifyOptions::default()));
    assert!(verdict.expect("certifies").pass);
    let (report, report_peak) = peak_above_start(|| load_report(&spec, &store));
    assert!(report.expect("reports").is_complete());
    let (outcome, resume_peak) = peak_above_start(|| run_campaign(&spec, &store, &resume));
    assert_eq!(outcome.expect("resumes").executed, 0);
    drop(plan);
    let _ = std::fs::remove_file(&path);
    [certify_peak, report_peak, resume_peak].map(|peak| peak.saturating_sub(plan_bytes))
}

#[test]
fn readers_hold_the_plan_not_the_store() {
    const N: u64 = 600;
    let small = reader_peaks(N);
    let large = reader_peaks(4 * N);
    for (reader, (small, large)) in ["certify", "report", "resume"]
        .iter()
        .zip(small.into_iter().zip(large))
    {
        assert!(
            large < BOUND,
            "{reader}: {large} bytes above the plan at {} units",
            4 * N
        );
        assert!(
            large < small + GROWTH,
            "{reader}: {small} bytes above the plan at {N} units, {large} at {}",
            4 * N
        );
    }
}
