//! End-to-end tests of the `repro` command line: the subcommand
//! spellings and the exit-2 contract for missing or unknown
//! subcommands, unknown flags and ids, and malformed invocations.
//!
//! Only simulation-free experiments (`tbl_config`, `tbl_area`) and one
//! tiny fault run are exercised, so the suite stays fast in debug.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str], cwd: Option<&PathBuf>) -> Output {
    repro_env(args, cwd, &[])
}

fn repro_env(args: &[&str], cwd: Option<&PathBuf>, env: &[(&str, String)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawning repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch working directory so runs that write report files
/// (`FAULTS_*.txt`, `GOLDEN_diff.txt`) never litter the repo.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

#[test]
fn faults_subcommand_runs_chaos_and_writes_the_summary() {
    let dir = scratch("faults");
    let out = repro(
        &["faults", "tbl_config", "--tiny", "--rate", "0.25"],
        Some(&dir),
    );
    assert!(out.status.success(), "faults run failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("=== faults tbl_config"), "no header: {text}");
    assert!(text.contains("tile fail-stops"), "no summary: {text}");
    let report = std::fs::read_to_string(dir.join("FAULTS_tbl_config.txt"))
        .expect("the summary file next to the run");
    assert!(report.contains("faults injected"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_flag_selects_a_subset_and_rejects_unknown_ids() {
    let out = repro(&["sweep", "--tiny", "--only", "tbl_config,tbl_area"], None);
    assert!(out.status.success(), "--only failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("=== tbl_config ==="), "missing table: {text}");
    assert!(text.contains("=== tbl_area ==="), "missing table: {text}");
    assert!(
        !text.contains("=== tbl_workloads ==="),
        "--only must not run unselected experiments: {text}"
    );

    for args in [
        &["sweep", "--tiny", "--only", "no_such_experiment"][..],
        &["sweep", "--tiny", "--only", ""][..],
        &["goldens", "check", "--tiny", "--only", "no_such_experiment"][..],
    ] {
        let out = repro(args, None);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn cache_subcommand_reports_and_clears_entries() {
    let dir = scratch("cache");
    let cache_dir = dir.join("cache");
    let env = [("TS_CACHE_DIR", cache_dir.to_str().unwrap().to_string())];

    // A sweep with simulations populates the cache...
    let out = repro_env(&["sweep", "fig_noc", "--tiny"], Some(&dir), &env);
    assert!(out.status.success(), "sweep failed: {}", stderr(&out));
    assert!(
        stderr(&out).contains("stored"),
        "no cache counters on stderr: {}",
        stderr(&out)
    );

    let out = repro_env(&["cache", "stats"], Some(&dir), &env);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("entries:"), "no entry count: {text}");
    assert!(
        !text.contains("entries:   0"),
        "expected a populated cache: {text}"
    );

    let out = repro_env(&["cache", "clear"], Some(&dir), &env);
    assert!(out.status.success(), "clear failed: {}", stderr(&out));

    let out = repro_env(&["cache", "stats"], Some(&dir), &env);
    assert!(stdout(&out).contains("entries:   0"), "{}", stdout(&out));

    // ...and --no-cache leaves no trace at all.
    let _ = std::fs::remove_dir_all(&cache_dir);
    let out = repro_env(
        &["sweep", "fig_noc", "--tiny", "--no-cache"],
        Some(&dir),
        &env,
    );
    assert!(out.status.success(), "--no-cache failed: {}", stderr(&out));
    assert!(!cache_dir.exists(), "--no-cache must not write entries");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for spelling in [&["--help"][..], &["help"][..], &["sweep", "--help"][..]] {
        let out = repro(spelling, None);
        assert!(out.status.success());
        assert!(stdout(&out).contains("usage: repro"), "{spelling:?}");
    }
}

#[test]
fn malformed_invocations_exit_two_with_usage() {
    // The removed scheduler switches (`--no-` plus each of these) are
    // unknown flags like any other.
    let removed: Vec<String> = ["active-set", "idle-skip", "tile-events"]
        .iter()
        .map(|f| format!("--no-{f}"))
        .collect();
    let mut cases: Vec<Vec<&str>> = removed
        .iter()
        .flat_map(|f| {
            [
                vec!["sweep", f.as_str()],
                vec!["goldens", "check", f.as_str()],
            ]
        })
        .collect();
    let fixed: &[&[&str]] = &[
        &[],
        &["sweep", "--bogus"],
        &["--bogus"],
        &["--check-goldens"],
        &["--tiny"],
        &["sweep", "no_such_experiment"],
        &["no_such_experiment"],
        &["goldens", "frobnicate"],
        &["goldens"],
        &["trace"],
        &["faults"],
        &["faults", "tbl_config", "--rate"],
        // a fail-stop rate is a probability
        &["faults", "fig_overall", "--tiny", "--rate", "2"],
        &["faults", "fig_overall", "--tiny", "--rate", "-0.1"],
        &["faults", "fig_overall", "--tiny", "--rate", "nan"],
        &["trace", "tbl_config", "tbl_area"],
        // flags that only another subcommand takes
        &["trace", "fig_noc", "--jobs", "2"],
        &["faults", "fig_overall", "--profile"],
        &["sweep", "--rate", "0.1"],
        &["whatif", "--no-cache"],
        &["goldens", "check", "--speedup", "x:10"],
    ];
    cases.extend(fixed.iter().map(|c| c.to_vec()));
    for args in &cases {
        let out = repro(args, None);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should exit 2, stderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?} printed no usage: {}",
            stderr(&out)
        );
    }
}

#[test]
fn whatif_prints_ranked_bottlenecks_and_writes_the_report() {
    let dir = scratch("whatif");
    let out = repro(&["whatif", "fig_overall", "--tiny"], Some(&dir));
    assert!(out.status.success(), "whatif failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("=== whatif fig_overall"), "{text}");
    assert!(
        text.contains("bottlenecks (ranked by critical-path share)"),
        "{text}"
    );
    assert!(text.contains("speedup@50%"), "{text}");
    assert!(text.contains("virtual speedups"), "{text}");
    let report = std::fs::read_to_string(dir.join("WHATIF_fig_overall.txt"))
        .expect("reading WHATIF_fig_overall.txt");
    assert!(report.contains("speedup@50%"));
}

#[test]
fn whatif_honors_out_dir_flag_and_env_and_merges_bench_json() {
    let dir = scratch("whatif-outdir");
    let flagged = repro(
        &[
            "whatif",
            "fig_overall",
            "--tiny",
            "--out-dir",
            "flagged",
            "--bench-json",
            "bj.json",
        ],
        Some(&dir),
    );
    assert!(
        flagged.status.success(),
        "whatif failed: {}",
        stderr(&flagged)
    );
    assert!(dir.join("flagged/WHATIF_fig_overall.txt").is_file());

    let via_env = repro_env(
        &["whatif", "fig_overall", "--tiny"],
        Some(&dir),
        &[("TS_OUT_DIR", "enved".to_string())],
    );
    assert!(
        via_env.status.success(),
        "whatif failed: {}",
        stderr(&via_env)
    );
    assert!(dir.join("enved/WHATIF_fig_overall.txt").is_file());

    // the bench json gained a whatif section (and only one, on re-runs)
    let run_again = repro(
        &["whatif", "fig_overall", "--tiny", "--bench-json", "bj.json"],
        Some(&dir),
    );
    assert!(run_again.status.success());
    let bj = std::fs::read_to_string(dir.join("bj.json")).expect("reading bj.json");
    assert_eq!(bj.matches("\"whatif\"").count(), 1, "{bj}");
    assert!(bj.contains("\"id\": \"fig_overall\""), "{bj}");
    assert!(bj.contains("\"top_bottleneck\""), "{bj}");
}

#[test]
fn whatif_speedup_flag_replaces_the_default_battery() {
    let dir = scratch("whatif-speedup");
    let out = repro(
        &[
            "whatif",
            "fig_overall",
            "--tiny",
            "--speedup",
            "spmv_rowchunk:25",
        ],
        Some(&dir),
    );
    assert!(out.status.success(), "whatif failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("spmv_rowchunk 25% faster"), "{text}");
    assert!(
        !text.contains("memory/NoC 2x faster"),
        "default battery leaked into an explicit query list: {text}"
    );
}

#[test]
fn whatif_rejects_malformed_and_unknown_speedup_specs() {
    for spec in ["spmv_rowchunk", "no_such_type:25", "spmv_rowchunk:pct"] {
        let out = repro(
            &["whatif", "fig_overall", "--tiny", "--speedup", spec],
            None,
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec '{spec}' should exit 2, stderr: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "{spec}");
    }
}

#[test]
fn whatif_per_instance_speedup_targets_one_task() {
    let dir = scratch("whatif-instance");
    let out = repro(
        &["whatif", "fig_overall", "--tiny", "--speedup", "task:0:50"],
        Some(&dir),
    );
    assert!(out.status.success(), "whatif failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("task 0 50% faster"), "{text}");
    assert!(
        !text.contains("memory/NoC 2x faster"),
        "default battery leaked into an explicit query list: {text}"
    );
}

#[test]
fn whatif_rejects_malformed_per_instance_specs() {
    for spec in ["task:17", "task:zebra:25", "task:17:150", "task:17:pct"] {
        let out = repro(
            &["whatif", "fig_overall", "--tiny", "--speedup", spec],
            None,
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec '{spec}' should exit 2, stderr: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "{spec}");
    }
}

/// Relative `TS_CACHE_DIR` and `TS_OUT_DIR` values must anchor to the
/// cwd the subcommand started in: entries land inside the scratch
/// directory, and `cache stats` reports the same absolute location it
/// actually wrote to.
#[test]
fn relative_cache_and_out_dirs_anchor_to_the_startup_cwd() {
    let dir = scratch("relpaths");
    let env = [("TS_CACHE_DIR", "relcache".to_string())];

    let out = repro_env(&["sweep", "fig_noc", "--tiny"], Some(&dir), &env);
    assert!(out.status.success(), "sweep failed: {}", stderr(&out));
    assert!(
        dir.join("relcache").is_dir(),
        "a relative TS_CACHE_DIR must land inside the startup cwd"
    );

    let out = repro_env(&["cache", "stats"], Some(&dir), &env);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains(dir.join("relcache").to_str().unwrap()),
        "cache stats must report the anchored absolute path: {text}"
    );
    assert!(!text.contains("entries:   0"), "{text}");

    let out = repro_env(
        &["faults", "tbl_config", "--tiny", "--rate", "0.25"],
        Some(&dir),
        &[("TS_OUT_DIR", "relout".to_string())],
    );
    assert!(out.status.success(), "faults failed: {}", stderr(&out));
    assert!(
        dir.join("relout/FAULTS_tbl_config.txt").is_file(),
        "a relative TS_OUT_DIR must land inside the startup cwd"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_and_faults_honor_out_dir() {
    let dir = scratch("outdir");
    let trace = repro(
        &["trace", "fig_noc", "--tiny", "--out-dir", "t"],
        Some(&dir),
    );
    assert!(trace.status.success(), "trace failed: {}", stderr(&trace));
    assert!(dir.join("t/TRACE_fig_noc.json").is_file());
    assert!(!dir.join("TRACE_fig_noc.json").exists());

    let faults = repro(
        &["faults", "fig_overall", "--tiny", "--out-dir", "f"],
        Some(&dir),
    );
    assert!(
        faults.status.success(),
        "faults failed: {}",
        stderr(&faults)
    );
    assert!(dir.join("f/FAULTS_fig_overall.txt").is_file());
    assert!(!dir.join("FAULTS_fig_overall.txt").exists());
}
