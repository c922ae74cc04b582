//! Hierarchical statistics collection.
//!
//! Every modelled component owns a [`Stats`] scope into which it bumps
//! counters and records histogram samples. At the end of a run the
//! accelerator merges all scopes into a single [`Report`] keyed by
//! dotted paths (`"tile3.fabric.firings"`), which the benchmark harness
//! turns into the paper's tables and figures.

use std::collections::BTreeMap;
use std::fmt;

/// A flat, ordered map of statistic name to value.
///
/// Values are `f64` so counters, ratios, and averages share one table.
///
/// # Examples
///
/// ```
/// use ts_sim::stats::Report;
///
/// let mut r = Report::new();
/// r.set("tile0.busy", 120.0);
/// r.set("tile1.busy", 80.0);
/// assert_eq!(r.sum_matching("busy"), 200.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Sets (or overwrites) a statistic.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Adds to a statistic, creating it at zero if absent.
    pub fn add(&mut self, key: impl Into<String>, value: f64) {
        *self.values.entry(key.into()).or_insert(0.0) += value;
    }

    /// Looks up a statistic.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Looks up a statistic, defaulting to zero.
    pub fn get_or_zero(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Sums every statistic whose key contains `needle`.
    pub fn sum_matching(&self, needle: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.contains(needle))
            .map(|(_, v)| v)
            .sum()
    }

    /// All keys matching `needle`, with values, in key order.
    pub fn matching(&self, needle: &str) -> Vec<(&str, f64)> {
        self.values
            .iter()
            .filter(|(k, _)| k.contains(needle))
            .map(|(k, v)| (k.as_str(), *v))
            .collect()
    }

    /// Merges another report in under a prefix: `child.key` ->
    /// `"{prefix}.{key}"`.
    pub fn absorb(&mut self, prefix: &str, child: &Report) {
        for (k, v) in &child.values {
            self.add(format!("{prefix}.{k}"), *v);
        }
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of recorded statistics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no statistics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Builds a report in one pass.
impl FromIterator<(String, f64)> for Report {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        Report {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k:<48} {v:>16.3}")?;
        }
        Ok(())
    }
}

/// A live statistics scope owned by one component during simulation.
///
/// `Stats` is cheap to bump during the hot loop (a move-to-front entry
/// per counter name, interned on first use) and is converted into a
/// [`Report`] at the end of the run.
///
/// # Examples
///
/// ```
/// use ts_sim::stats::Stats;
///
/// let mut s = Stats::new();
/// s.bump("requests");
/// s.bump_by("bytes", 64);
/// s.sample("latency", 12.0);
/// let r = s.report();
/// assert_eq!(r.get("requests"), Some(1.0));
/// assert_eq!(r.get("latency.mean"), Some(12.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Move-to-front list: components bump a handful of distinct keys,
    /// with one or two (cycle counters) bumped every cycle, so a short
    /// adaptive linear scan beats a map lookup in the hot loop.
    counters: Vec<(String, u64)>,
    histograms: BTreeMap<String, Histogram>,
}

impl Stats {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Increments a counter by one.
    pub fn bump(&mut self, key: &str) {
        self.bump_by(key, 1);
    }

    /// Increments a counter by `n`.
    pub fn bump_by(&mut self, key: &str, n: u64) {
        match self.counters.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.counters[i].1 += n;
                if i > 0 {
                    self.counters.swap(i, i - 1);
                }
            }
            None => self.counters.push((key.to_owned(), n)),
        }
    }

    /// Reads a counter (zero if never bumped).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Records one sample into a histogram.
    pub fn sample(&mut self, key: &str, value: f64) {
        match self.histograms.get_mut(key) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.histograms.insert(key.to_owned(), h);
            }
        }
    }

    /// Snapshot of a histogram, if any samples were recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Converts to a flat report. Histograms expand to `.count`, `.mean`,
    /// `.min`, `.max`.
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        for (k, v) in &self.counters {
            r.set(k.clone(), *v as f64);
        }
        for (k, h) in &self.histograms {
            r.set(format!("{k}.count"), h.count() as f64);
            r.set(format!("{k}.mean"), h.mean());
            r.set(format!("{k}.min"), h.min());
            r.set(format!("{k}.max"), h.max());
        }
        r
    }
}

/// Streaming histogram summary (count/mean/min/max), O(1) per sample.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum sample (zero when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (zero when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Computes the geometric mean of a slice of positive values.
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive — geomeans of speedups
/// must never silently absorb a zero.
///
/// # Examples
///
/// ```
/// use ts_sim::stats::geomean;
/// let g = geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.bump("x");
        s.bump_by("x", 4);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn report_absorb_prefixes_keys() {
        let mut child = Report::new();
        child.set("busy", 10.0);
        let mut parent = Report::new();
        parent.absorb("tile0", &child);
        assert_eq!(parent.get("tile0.busy"), Some(10.0));
    }

    #[test]
    fn report_matching_and_sum() {
        let mut r = Report::new();
        r.set("a.busy", 1.0);
        r.set("b.busy", 2.0);
        r.set("b.idle", 9.0);
        assert_eq!(r.sum_matching("busy"), 3.0);
        assert_eq!(r.matching("busy").len(), 2);
    }

    #[test]
    fn stats_report_expands_histograms() {
        let mut s = Stats::new();
        s.sample("lat", 4.0);
        s.sample("lat", 8.0);
        let r = s.report();
        assert_eq!(r.get("lat.count"), Some(2.0));
        assert_eq!(r.get("lat.mean"), Some(6.0));
        assert_eq!(r.get("lat.max"), Some(8.0));
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
