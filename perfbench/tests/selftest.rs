//! Self-tests of the benchmark's own machinery: the golden gate counts
//! failures instead of aborting, the traced replay computes what the
//! untraced sweep path computes, and the self-time arithmetic is exact.

use perfbench::spans::{chrome_json, self_times, LayerSplit, Span, Tracer};
use perfbench::sweep::{self, Workload};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use ts_bench::{cache, golden::GoldenDoc};
use ts_workloads::Scale;

/// A tiny-scale stand-in for a benchmark workload: one experiment with
/// simulations and one analytical table.
const TINY: Workload = Workload {
    name: "selftest",
    scale: Scale::Tiny,
    ids: &["fig_overall", "tbl_config"],
    warm: false,
};

fn goldens() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../goldens")
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Passes share the process-global result cache and its counters, so
/// tests that run them take turns, each with an empty cache of its own.
fn empty_cache(name: &str) -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cache::set_enabled(true);
    cache::set_dir(tmp(name));
    guard
}

#[test]
fn golden_gate_counts_failures_without_aborting() {
    let _cache = empty_cache("cache-golden-gate");
    let clean = sweep::load_goldens(&goldens(), &TINY).unwrap();
    let pass = sweep::run_pass(TINY.scale, TINY.ids, &clean);
    assert_eq!(pass.failures, Vec::<String>::new());
    let jobs: usize = pass
        .results
        .iter()
        .map(|r| r.outcomes.as_ref().map_or(0, Vec::len))
        .sum();
    assert_eq!(pass.attempted as usize, jobs + TINY.ids.len());

    // A perturbed copy of the goldens in a temp directory.
    let dir = tmp("perturbed-goldens");
    let tiny = dir.join("tiny");
    std::fs::create_dir_all(&tiny).unwrap();
    for id in TINY.ids {
        let text =
            std::fs::read_to_string(goldens().join("tiny").join(format!("{id}.json"))).unwrap();
        let mut doc = GoldenDoc::from_json(&text).unwrap();
        if *id == "fig_overall" {
            doc.rows[0][1] = "9.99x".into();
        }
        std::fs::write(tiny.join(format!("{id}.json")), doc.to_json()).unwrap();
    }
    let perturbed = sweep::load_goldens(&dir, &TINY).unwrap();
    let pass = sweep::run_pass(TINY.scale, TINY.ids, &perturbed);
    assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
    assert!(pass.failures[0].starts_with("fig_overall"));
    assert!(pass.failures.len() as f64 / pass.attempted as f64 > 0.0);
}

#[test]
fn traced_replay_matches_the_sweep_path() {
    let clean = sweep::load_goldens(&goldens(), &TINY).unwrap();
    let guard = empty_cache("cache-untraced");
    let untraced = sweep::run_pass(TINY.scale, TINY.ids, &clean);
    drop(guard);
    let _cache = empty_cache("cache-traced");
    let traced = sweep::run_traced_pass(TINY.scale, TINY.ids, &clean);
    assert_eq!(traced.failures, Vec::<String>::new());
    assert_eq!(traced.attempted, untraced.attempted);
    assert_eq!(
        traced.cache.hits + traced.cache.misses,
        traced.attempted - 2
    );
    assert_eq!(
        sweep::digest(&traced.results, traced.cache),
        sweep::digest(&untraced.results, untraced.cache)
    );
    assert_eq!(traced.spans[0].name, "pass");
    let split = LayerSplit::of(&traced.spans);
    assert_eq!(split.calls("accel.run"), traced.sims);
    let attributed: u64 = split.layers.values().map(|(ns, _)| ns).sum();
    assert_eq!(attributed + split.unattributed_ns, split.wall_ns);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        experiment: None,
        job: None,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = vec![
        span("pass", 0, 100, None),
        span("experiment", 10, 90, Some(0)),
        span("cache.key", 20, 40, Some(1)),
        span("accel.run", 40, 70, Some(1)),
        span("cache.store", 50, 60, Some(3)),
        span("golden.check", 80, 85, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![20, 25, 20, 20, 10, 5]);
    let split = LayerSplit::of(&spans);
    assert_eq!(split.wall_ns, 100);
    assert_eq!(split.layers["cache.key"], (20, 1));
    assert_eq!(split.layers["accel.run"], (20, 1));
    // Unattributed = the structural spans' own time: 20 + 25.
    assert_eq!(split.unattributed_ns, 45);
    let attributed: u64 = split.layers.values().map(|(ns, _)| ns).sum();
    assert_eq!(attributed + split.unattributed_ns, split.wall_ns);
}

#[test]
fn overlapping_children_are_covered_once() {
    let spans = vec![
        span("pass", 0, 100, None),
        span("a", 10, 50, Some(0)),
        span("b", 30, 70, Some(0)),
        span("c", 90, 120, Some(0)),
    ];
    // Covered: 10..70 and 90..100 (clipped to the parent).
    assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
}

#[test]
fn tracer_records_the_tree_and_exports_it() {
    let mut t = Tracer::default();
    let root = t.open("pass");
    t.experiment = Some("fig_overall");
    t.job = Some(3);
    let v = t.time("cache.load", || 7);
    let depth = t.depth();
    t.open("accel.run");
    t.unwind_to(depth);
    t.close(root);
    assert_eq!(v, 7);
    let spans = t.into_spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let json = chrome_json(&spans, "selftest");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"cache.load\",\"cat\":\"cache\",\"ph\":\"X\""));
    assert!(json.contains("\"experiment\":\"fig_overall\",\"job\":3"));
}
