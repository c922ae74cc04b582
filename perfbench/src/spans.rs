//! In-memory span recording for the traced pass, the self-time
//! arithmetic over the span tree, and Chrome trace-event export.
//!
//! Spans are recorded from the benchmark's side of each layer's public
//! call: name, start, end, the enclosing span, and which experiment and
//! job the call served. Nothing is written until the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name: a layer call (`accel.run`, `cache.load`, ...) or a
    /// structural grouping (`pass`, `experiment`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Experiment the call served, if any.
    pub experiment: Option<&'static str>,
    /// Job index within that experiment, if the call served one job.
    pub job: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span names that group other spans rather than time a layer call.
/// Their self time is harness glue and counts as unattributed.
pub const STRUCTURAL: &[&str] = &["pass", "experiment"];

/// Records spans with a stack of open ones; the innermost open span is
/// the parent of the next span opened.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Experiment stamped on spans opened from now on.
    pub experiment: Option<&'static str>,
    /// Job index stamped on spans opened from now on.
    pub job: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            experiment: None,
            job: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            experiment: self.experiment,
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` — after a panic unwound
    /// through calls that never closed theirs.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open span");
            self.close(id);
        }
    }

    /// Times `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of tracing");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSplit {
    /// Wall time of the root span.
    pub wall_ns: u64,
    /// Self time and call count per layer span name.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Wall time minus every layer's self time: the structural spans'
    /// own time.
    pub unattributed_ns: u64,
}

impl LayerSplit {
    /// Splits a span tree whose first span is the root.
    pub fn of(spans: &[Span]) -> LayerSplit {
        let wall_ns = spans.first().map_or(0, Span::dur_ns);
        let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if !STRUCTURAL.contains(&s.name) {
                let e = layers.entry(s.name).or_default();
                e.0 += own;
                e.1 += 1;
            }
        }
        let attributed: u64 = layers.values().map(|(ns, _)| ns).sum();
        LayerSplit {
            wall_ns,
            unattributed_ns: wall_ns.saturating_sub(attributed),
            layers,
        }
    }

    /// Self seconds of one layer (0 when it never ran).
    pub fn secs(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |(ns, _)| *ns as f64 * 1e-9)
    }

    /// Number of spans of one layer.
    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |(_, n)| *n)
    }
}

/// The spans as Chrome trace-event JSON (complete `X` events on one
/// host thread), loadable in Perfetto next to `repro trace` output,
/// which uses pid 0.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"host: {process}\"}}}}"
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
        );
        let mut sep = "";
        if let Some(e) = s.experiment {
            let _ = write!(out, "\"experiment\":\"{e}\"");
            sep = ",";
        }
        if let Some(j) = s.job {
            let _ = write!(out, "{sep}\"job\":{j}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}
