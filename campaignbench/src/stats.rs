//! Quantiles over raw samples and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Tail percentiles tried from the top; the first with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it is reported.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];
const TAIL_MIN_BEYOND: f64 = 10.0;

/// The median of `values` (mean of the two middle samples when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median and tail of one set of raw per-call timings.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub samples: usize,
    pub p50: f64,
    /// The value at [`Quantiles::tail_pct`].
    pub tail: f64,
    /// The highest ladder percentile with at least ten samples beyond it
    /// (50 when there are fewer than twenty samples).
    pub tail_pct: f64,
}

/// Nearest-rank quantiles: no interpolation and no bucketing, so a
/// reported value is always one that was measured.
pub fn quantiles(values: &[f64]) -> Quantiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Quantiles {
            samples: 0,
            p50: 0.0,
            tail: 0.0,
            tail_pct: 50.0,
        };
    }
    let rank = |pct: f64| {
        let r = ((pct / 100.0) * n as f64).ceil() as usize;
        sorted[r.clamp(1, n) - 1]
    };
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|pct| n as f64 * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Quantiles {
        samples: n,
        p50: rank(50.0),
        tail: rank(tail_pct),
        tail_pct,
    }
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans (name, start, end, parent) kept in memory and written out once
/// the traced run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = end;
        (end - span.start).as_secs_f64()
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }

    /// Per span name: (count, total seconds, self seconds), where self
    /// time is a span's length minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let total = (s.end - s.start).as_secs_f64();
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - children;
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=720).map(f64::from).collect();
        let q = quantiles(&values);
        assert_eq!(q.tail_pct, 98.0);
        assert_eq!(q.tail, 706.0);
        assert_eq!(q.p50, 360.0);
        assert_eq!(quantiles(&values[..12]).tail_pct, 50.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        let (_, child) = t.leaf("child", || std::thread::sleep(Duration::from_millis(5)));
        let total = t.exit(root);
        let times = t.self_times();
        let (count, sum, own) = times["root"];
        assert_eq!(count, 1);
        assert!((sum - total).abs() < 1e-9);
        assert!((own - (total - child)).abs() < 1e-9);
    }
}
