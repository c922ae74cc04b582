//! Regression test for the parallel sweep engine's core guarantee:
//! `--jobs N` output is byte-identical to `--jobs 1` for the same seed.
//!
//! `ts_pool::configure` may reconfigure the global pool width
//! mid-process (it drains in-flight work first), which is exactly what
//! lets one test run the same experiments in both modes and compare the
//! rendered text.

use ts_bench::experiments;
use ts_bench::golden::GoldenDoc;
use ts_workloads::Scale;

/// Experiments covering the sweep shapes: paired delta/static runs,
/// grouped ablations with a shared base, per-design-point config
/// edits, the seed-sensitive Random policy (fig_policy), and the
/// multi-tenant grid with its per-tenant latency tallies
/// (fig_tenancy).
const IDS: &[&str] = &[
    "fig_overall",
    "fig_tiles",
    "fig_policy",
    "fig_steal",
    "fig_tenancy",
];

fn render_all(scale: Scale) -> Vec<String> {
    IDS.iter().map(|id| experiments::run(id, scale)).collect()
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_serial() {
    ts_pool::configure(1);
    let serial = render_all(Scale::Tiny);

    for jobs in [4, 8] {
        ts_pool::configure(jobs);
        let parallel = render_all(Scale::Tiny);
        for (id, (s, p)) in IDS.iter().zip(serial.iter().zip(&parallel)) {
            assert_eq!(s, p, "{id} diverged between --jobs 1 and --jobs {jobs}");
        }
    }

    ts_pool::configure(0);
}

/// The flattened engine — all experiments' jobs pooled into one
/// `run_jobs` call — must render the same documents at any width, too
/// (this is the path `repro sweep` actually takes).
#[test]
fn flattened_sweep_is_byte_identical_across_widths() {
    ts_pool::configure(1);
    let serial: Vec<String> = experiments::run_docs(IDS, Scale::Tiny)
        .docs
        .iter()
        .map(|(doc, _)| experiments::render_doc(doc))
        .collect();

    ts_pool::configure(8);
    let parallel: Vec<String> = experiments::run_docs(IDS, Scale::Tiny)
        .docs
        .iter()
        .map(|(doc, _)| experiments::render_doc(doc))
        .collect();

    ts_pool::configure(0);

    assert_eq!(serial, parallel);
}

/// The golden gate's reason to exist: a deliberately perturbed report
/// must fail the check, and the failure must name the drifted cell.
#[test]
fn golden_check_catches_a_perturbed_report() {
    let golden = experiments::run_doc("fig_noc", Scale::Tiny);

    // the committed format is lossless, so an honest re-run diffs clean
    let reparsed = GoldenDoc::from_json(&golden.to_json()).unwrap();
    assert!(golden.diff(&reparsed).is_empty());

    // a silent model regression flips one cell; the diff names it
    let mut current = reparsed;
    current.rows[0][1].push('7');
    let diff = golden.diff(&current);
    assert_eq!(diff.len(), 1, "diff: {diff:?}");
    assert!(diff[0].contains("fig_noc (tiny)"), "got: {}", diff[0]);
    assert!(diff[0].contains("row 0"), "got: {}", diff[0]);
}

/// The shape assertions hold independently of the committed cells: a
/// blessed-but-broken golden (multicast no longer recovering dtree's
/// shared reads) still fails the gate.
#[test]
fn shape_claims_catch_a_collapsed_mechanism() {
    let mut doc = experiments::run_doc("fig_noc", Scale::Tiny);
    assert!(doc.shape_violations().is_empty(), "honest run must pass");

    let saved = doc.headers.iter().position(|h| h == "saved").unwrap();
    for row in &mut doc.rows {
        if row[0] == "dtree" {
            row[saved] = "0%".into();
        }
    }
    let violations = doc.shape_violations();
    assert_eq!(violations.len(), 1, "violations: {violations:?}");
    assert!(violations[0].contains("dtree"), "got: {}", violations[0]);
}
