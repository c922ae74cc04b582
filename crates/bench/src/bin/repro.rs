//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro sweep                    # run everything at the default (small) scale
//! repro sweep fig_overall        # one experiment
//! repro sweep --only fig_noc,fig_batch  # comma-separated selection
//! repro sweep --tiny             # everything, test-sized instances
//! repro sweep --jobs 8           # run the flattened sweep on 8 threads
//! repro sweep --profile          # also print per-experiment cycle attribution
//! repro sweep --bench-json out.json  # also write machine-readable timings
//! repro sweep --no-cache         # ignore the persistent result cache
//! repro goldens check            # diff results against goldens/, exit 1 on drift
//! repro goldens bless            # regenerate the committed goldens/ files
//! repro cache stats              # show the result cache's location and size
//! repro cache clear              # drop every cached result
//! repro trace fig_noc            # trace one run, write TRACE_fig_noc.json
//! repro faults fig_overall       # chaos-preset fault run, write FAULTS_*.txt
//! repro whatif fig_overall       # causal profile, write WHATIF_fig_overall.txt
//! repro whatif fig_grain --speedup sum:25  # a specific virtual-speedup query
//! ```
//!
//! A missing or unknown subcommand, unknown flags and unknown
//! experiment ids print usage and exit with status 2.
//!
//! A sweep is **flattened**: every experiment is planned first, then
//! every (experiment × grid-cell × fault-rate) simulation runs as one
//! job of a single shared queue that the `--jobs` workers claim in
//! order, and the tables are assembled afterwards from the
//! order-preserved outcomes.
//! `--jobs 1` reproduces the fully serial behavior; any `--jobs N`
//! prints byte-identical tables (per-job seeds are derived from the
//! job key, never from sweep iteration order). Tables and profiles go
//! to stdout; timings, host counters, and file notices go to stderr,
//! so sweep stdout is byte-for-byte reproducible.
//!
//! Sweeps also consult the **persistent result cache** (default
//! `./.ts-cache`, override with `TS_CACHE_DIR`): each simulation is
//! keyed by the hash of its full configuration, program content, and a
//! build salt, so a warm re-run answers from disk with byte-identical
//! output. `--no-cache` opts a run out; `repro cache stats|clear`
//! inspects and empties the store.
//!
//! `--profile` reports, per experiment, how the simulator spent its
//! cycles: the fraction of each component's cycles that were densely
//! ticked versus replayed in closed form by the event-driven
//! scheduler, and the fraction of machine cycles covered by next-event
//! jumps. The same counters land in the `--bench-json` output, beside
//! the advisory wall-clock seconds and peak resident memory. The
//! whole-run line sums the experiments' profiles, and its simulation
//! count is the number of completed runs (wedged fault runs excluded).
//!
//! `goldens check` compares every experiment, cell by cell, against
//! the committed `goldens/<scale>/<id>.json` snapshot and additionally
//! asserts the machine-level shapes the paper claims rest on (see
//! `ts_bench::golden`). Violations are printed, written to
//! `GOLDEN_diff.txt`, and the process exits nonzero; a passing check
//! removes any stale `GOLDEN_diff.txt` from a previous failure. After
//! an intentional model change, `goldens bless` rewrites the snapshots.
//!
//! `trace <experiment>` runs one representative simulation of the
//! experiment with event tracing enabled, writes the stream as
//! Chrome/Perfetto trace-event JSON to `TRACE_<experiment>.json`
//! (open it in <https://ui.perfetto.dev> or `chrome://tracing`), and
//! prints two derived reports: a per-link NoC occupancy heatmap and
//! the memory-queue depth timeseries. Tracing never changes results —
//! the report is bit-identical with the recorder on or off.
//!
//! `faults <experiment>` runs the experiment's representative workload
//! under the all-faults chaos preset (`FaultsConfig::chaos`: tile
//! fail-stops, transient stalls, flit loss, DRAM retries, recovery
//! on), requires it to complete and validate against both the
//! workload reference and the untimed oracle, prints the
//! injection/recovery summary, and writes it to
//! `FAULTS_<experiment>.txt`. `--rate <r>` overrides the preset's tile
//! fail-stop rate; it must be in `[0, 1]`.
//!
//! `whatif [experiment ...]` is the causal profiler: it reconstructs
//! the task dependence DAG from a traced run (`ts_delta::whatif`) and
//! prints the run summary, the ranked bottleneck table, and the
//! virtual-speedup query table, writing each to
//! `WHATIF_<experiment>.txt` and optionally merging summary rows into
//! a sweep JSON (`--bench-json`).
//!
//! Every report-writing subcommand resolves its output directory as
//! `--out-dir`, else `$TS_OUT_DIR`, else the working directory.
//! Relative `--out-dir`/`TS_OUT_DIR`/`TS_CACHE_DIR` values are
//! anchored to the startup working directory exactly once, so the
//! paths a run reports are the paths it actually wrote.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use ts_bench::experiments::{self, ALL};
use ts_bench::golden::GoldenDoc;
use ts_delta::SimProfile;
use ts_workloads::Scale;

const USAGE: &str = "\
usage: repro <command> [args]

commands:
  sweep [experiment ...]            run experiments and print their tables
  goldens check [experiment ...]    diff results against goldens/, exit 1 on drift
  goldens bless [experiment ...]    regenerate the committed goldens/ files
  cache <stats|clear>               inspect or empty the persistent result cache
  trace <experiment>                trace one run, write TRACE_<experiment>.json
  faults <experiment>               chaos fault run, write FAULTS_<experiment>.txt
  whatif [experiment ...]           causal profile, write WHATIF_<experiment>.txt

common flags (sweep and goldens):
  --tiny                 run test-sized instances (default: small)
  --jobs <n>             worker threads for the flattened sweep pool
  --only <id>[,<id>...]  comma-separated experiment selection
  --profile              print per-experiment cycle attribution
  --bench-json <path>    write machine-readable timings
  --out-dir <dir>        directory for report files (default: TS_OUT_DIR or .)
  --no-cache             ignore the persistent result cache

`repro <command> --help` prints each command's usage.

experiments: omit to run all; known ids are listed in ts_bench::experiments::ALL";

const SWEEP_USAGE: &str = "\
usage: repro sweep [experiment ...] [--only <id>[,<id>...]] [--tiny]
                   [--jobs <n>] [--profile] [--bench-json <path>]
                   [--out-dir <dir>] [--no-cache]

Runs the named experiments (all of them when none are named) and
prints their tables. All selected experiments share one flattened job
list, run by --jobs workers that each claim the next job in order, and
the persistent result cache (disable with --no-cache).";

const GOLDENS_USAGE: &str = "\
usage: repro goldens <check|bless> [experiment ...] [--only <id>[,<id>...]]
                     [--tiny] [--jobs <n>] [--profile] [--bench-json <path>]
                     [--out-dir <dir>] [--no-cache]

check: re-runs the experiments and diffs them cell by cell against the
committed goldens/<scale>/ snapshots plus the shape claims; violations
land in GOLDEN_diff.txt and the exit status is 1.
bless: rewrites the snapshots after an intentional model change.";

const CACHE_USAGE: &str = "\
usage: repro cache <stats|clear>

stats: print the persistent result cache's location, entry count, and
size on disk.
clear: delete every cached result (the directory itself stays).

Both cover every file the cache owns: current entries, entries left by
an older cache format, and temp files orphaned by a killed sweep.

The cache lives in ./.ts-cache unless TS_CACHE_DIR points elsewhere.
Entries are keyed by configuration, program content, and build salt,
so a stale entry can only be read back by the build that wrote it —
clearing is about disk space, not correctness.";

const TRACE_USAGE: &str = "\
usage: repro trace <experiment> [--tiny] [--out-dir <dir>]

Runs one representative simulation of the experiment with event
tracing on and writes Chrome/Perfetto JSON to TRACE_<experiment>.json
(in --out-dir, TS_OUT_DIR, or the working directory).";

const FAULTS_USAGE: &str = "\
usage: repro faults <experiment> [--tiny] [--rate <r>] [--out-dir <dir>]

Runs the experiment's representative workload under the chaos fault
preset (fail-stops, stalls, flit loss, DRAM retries; recovery on),
validates the completed run against the reference and the untimed
oracle, and writes the summary to FAULTS_<experiment>.txt. --rate
overrides the tile fail-stop rate (a number in [0, 1]).";

const WHATIF_USAGE: &str = "\
usage: repro whatif [experiment ...] [--only <id>[,<id>...]] [--tiny]
                    [--speedup <type>:<pct> | --speedup task:<id>:<pct> ...]
                    [--bench-json <path>] [--out-dir <dir>]

Causal what-if profiler. Re-runs each experiment's representative
workload with tracing on, reconstructs the task dependence DAG (spawn,
pipe, and quiescence-barrier edges), and answers virtual-speedup
queries by re-weighting the critical path: the run summary, the ranked
bottleneck table (work vs. span per task type), and the query table go
to stdout and to WHATIF_<experiment>.txt. With no experiment named,
every experiment is profiled.

--speedup (repeatable) replaces the default query battery (every type
50% faster, memory/NoC 2x, spawn/host 2x, free redispatches) with
specific questions. Two spellings: <type>:<pct> speeds every task of a
type (<type> is a task-type name from the bottleneck table);
task:<id>:<pct> speeds one task *instance* (<id> is a task id from the
trace) — sharper when a single straggler dominates the span.
--bench-json splices a \"whatif\" section into an existing sweep JSON
(or writes a standalone one).";

/// What to do with goldens while running experiments.
#[derive(Clone, Copy, PartialEq)]
enum GoldenMode {
    Off,
    Check,
    Bless,
}

/// Everything a subcommand's arguments can set.
#[derive(Default)]
struct Args {
    tiny: bool,
    jobs: Option<usize>,
    show_profile: bool,
    bench_json: Option<String>,
    no_cache: bool,
    out_dir: Option<String>,
    rate: Option<f64>,
    speedups: Vec<String>,
    /// Experiment ids, named positionally or by `--only`.
    wanted: Vec<String>,
}

/// The flags `sweep` and `goldens` take.
const SWEEP_FLAGS: &[&str] = &[
    "--tiny",
    "--jobs",
    "--only",
    "--profile",
    "--bench-json",
    "--out-dir",
    "--no-cache",
];

/// The flags `trace` takes.
const TRACE_FLAGS: &[&str] = &["--tiny", "--out-dir"];

/// The flags `faults` takes.
const FAULTS_FLAGS: &[&str] = &["--tiny", "--rate", "--out-dir"];

/// The flags `whatif` takes.
const WHATIF_FLAGS: &[&str] = &["--only", "--tiny", "--speedup", "--out-dir", "--bench-json"];

impl Args {
    /// Parses one subcommand's arguments: experiment ids and the flags
    /// in `allowed`. Any other `--` argument is an unknown flag (exit
    /// 2); `None` means `--help` printed the usage.
    fn parse(
        args: impl IntoIterator<Item = String>,
        allowed: &[&str],
        usage: &str,
    ) -> Option<Self> {
        let mut a = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                println!("{usage}");
                return None;
            }
            if !arg.starts_with("--") {
                a.wanted.push(arg);
                continue;
            }
            if !allowed.contains(&arg.as_str()) {
                die(&format!("unknown flag '{arg}'"), usage);
            }
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| die(&format!("{arg} needs a value"), usage))
            };
            match arg.as_str() {
                "--tiny" => a.tiny = true,
                "--no-cache" => a.no_cache = true,
                "--profile" => a.show_profile = true,
                "--jobs" => {
                    let n = value().parse();
                    a.jobs =
                        Some(n.unwrap_or_else(|_| die("--jobs value must be an integer", usage)));
                }
                "--rate" => {
                    let r: f64 = value()
                        .parse()
                        .unwrap_or_else(|_| die("--rate value must be a number", usage));
                    if !(0.0..=1.0).contains(&r) {
                        die("--rate value must be in [0, 1]", usage);
                    }
                    a.rate = Some(r);
                }
                "--bench-json" => a.bench_json = Some(value()),
                "--out-dir" => a.out_dir = Some(value()),
                "--speedup" => a.speedups.push(value()),
                "--only" => {
                    let v = value();
                    let ids: Vec<&str> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .collect();
                    if ids.is_empty() {
                        die("--only needs at least one experiment id", usage);
                    }
                    a.wanted.extend(ids.into_iter().map(str::to_string));
                }
                other => unreachable!("no subcommand handles {other}"),
            }
        }
        Some(a)
    }

    fn scale(&self) -> Scale {
        if self.tiny {
            Scale::Tiny
        } else {
            Scale::Small
        }
    }

    /// Applies the process-wide knobs (pool size, result cache).
    fn apply(&self) {
        ts_bench::cache::set_enabled(!self.no_cache);
        if let Some(n) = self.jobs {
            ts_pool::configure(n);
        }
    }

    /// Where report files (TRACE_*, FAULTS_*, WHATIF_*, GOLDEN_diff.txt)
    /// land: `--out-dir`, else `TS_OUT_DIR`, else the working
    /// directory. Relative directories are anchored to the startup
    /// cwd; the directory is created on first use.
    fn out_path(&self, name: &str) -> PathBuf {
        let dir = self
            .out_dir
            .clone()
            .or_else(|| std::env::var("TS_OUT_DIR").ok())
            .filter(|d| !d.is_empty());
        match dir {
            Some(d) => {
                let d = absolute_from_startup(PathBuf::from(d));
                std::fs::create_dir_all(&d)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", d.display()));
                d.join(name)
            }
            None => PathBuf::from(name),
        }
    }

    /// The one experiment id `trace` and `faults` take.
    fn single_id(&self, usage: &str) -> String {
        let [id] = self.wanted.as_slice() else {
            die("expected exactly one experiment id", usage);
        };
        resolve_ids(std::slice::from_ref(id), usage).remove(0)
    }
}

fn die(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// Expands a possibly-empty id selection to the run list, rejecting
/// unknown ids (exit 2).
fn resolve_ids(wanted: &[String], usage: &str) -> Vec<String> {
    if wanted.is_empty() {
        return ALL.iter().map(|s| s.to_string()).collect();
    }
    for id in wanted {
        if !ALL.contains(&id.as_str()) {
            die(
                &format!("unknown experiment '{id}' (known: {ALL:?})"),
                usage,
            );
        }
    }
    wanted.to_vec()
}

/// The working directory at process startup. Every relative path the
/// CLI accepts (`--out-dir`, `$TS_OUT_DIR`, `$TS_CACHE_DIR`, the
/// `goldens/` lookup) is resolved against this exactly once, so a
/// subcommand launched from a scratch cwd gets stable absolute paths
/// instead of values that would re-anchor wherever resolution happens
/// to run.
fn startup_cwd() -> &'static PathBuf {
    static CWD: OnceLock<PathBuf> = OnceLock::new();
    CWD.get_or_init(|| std::env::current_dir().expect("resolving the startup working directory"))
}

/// Anchors a possibly-relative directory to the startup cwd.
fn absolute_from_startup(dir: PathBuf) -> PathBuf {
    if dir.is_absolute() {
        dir
    } else {
        startup_cwd().join(dir)
    }
}

fn main() {
    // Canonicalize path-like inputs once, up front: the cache
    // directory is pinned process-wide, and `startup_cwd` anchors
    // every later `--out-dir`/`TS_OUT_DIR` resolution.
    ts_bench::cache::pin_relative_to(startup_cwd());
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => {
            args.remove(0);
            cmd_sweep(args);
        }
        Some("goldens") => {
            args.remove(0);
            cmd_goldens(args);
        }
        Some("cache") => {
            args.remove(0);
            cmd_cache(args);
        }
        Some("trace") => {
            args.remove(0);
            cmd_trace(args);
        }
        Some("faults") => {
            args.remove(0);
            cmd_faults(args);
        }
        Some("whatif") => {
            args.remove(0);
            cmd_whatif(args);
        }
        Some("help" | "--help" | "-h") => println!("{USAGE}"),
        Some(other) => die(&format!("unknown command '{other}'"), USAGE),
        None => die("expected a command", USAGE),
    }
}

fn cmd_sweep(args: Vec<String>) {
    let Some(a) = Args::parse(args, SWEEP_FLAGS, SWEEP_USAGE) else {
        return;
    };
    let ids = resolve_ids(&a.wanted, SWEEP_USAGE);
    a.apply();
    run_experiments(&ids, &a, GoldenMode::Off);
}

fn cmd_goldens(args: Vec<String>) {
    let mut it = args.into_iter();
    let mode = match it.next().as_deref() {
        Some("check") => GoldenMode::Check,
        Some("bless") => GoldenMode::Bless,
        Some("--help" | "-h") => {
            println!("{GOLDENS_USAGE}");
            return;
        }
        Some(other) => die(
            &format!("expected 'check' or 'bless', got '{other}'"),
            GOLDENS_USAGE,
        ),
        None => die("expected 'check' or 'bless'", GOLDENS_USAGE),
    };
    let Some(a) = Args::parse(it, SWEEP_FLAGS, GOLDENS_USAGE) else {
        return;
    };
    let ids = resolve_ids(&a.wanted, GOLDENS_USAGE);
    a.apply();
    run_experiments(&ids, &a, mode);
}

fn cmd_cache(args: Vec<String>) {
    use ts_bench::cache;
    match args.first().map(String::as_str) {
        Some("stats") => {
            let dir = cache::dir();
            match cache::disk_stats() {
                Ok((entries, bytes)) => {
                    println!("cache dir: {}", dir.display());
                    println!("entries:   {entries}");
                    println!("size:      {} KiB", bytes.div_ceil(1024));
                }
                Err(e) => die(&format!("reading {}: {e}", dir.display()), CACHE_USAGE),
            }
        }
        Some("clear") => match cache::clear() {
            Ok(removed) => println!(
                "removed {removed} cached result(s) from {}",
                cache::dir().display()
            ),
            Err(e) => die(
                &format!("clearing {}: {e}", cache::dir().display()),
                CACHE_USAGE,
            ),
        },
        Some("--help" | "-h") => println!("{CACHE_USAGE}"),
        Some(other) => die(
            &format!("expected 'stats' or 'clear', got '{other}'"),
            CACHE_USAGE,
        ),
        None => die("expected 'stats' or 'clear'", CACHE_USAGE),
    }
}

fn cmd_trace(args: Vec<String>) {
    if let Some(a) = Args::parse(args, TRACE_FLAGS, TRACE_USAGE) {
        run_trace(&a.single_id(TRACE_USAGE), &a);
    }
}

fn cmd_faults(args: Vec<String>) {
    if let Some(a) = Args::parse(args, FAULTS_FLAGS, FAULTS_USAGE) {
        run_faults(&a.single_id(FAULTS_USAGE), &a);
    }
}

fn cmd_whatif(args: Vec<String>) {
    if let Some(a) = Args::parse(args, WHATIF_FLAGS, WHATIF_USAGE) {
        run_whatif(&resolve_ids(&a.wanted, WHATIF_USAGE), &a);
    }
}

/// Runs the selected experiments as **one flattened sweep**
/// ([`experiments::run_docs`]), then prints each table and handles
/// goldens, profiles, and the bench-json output per `args`/`mode`.
fn run_experiments(ids: &[String], args: &Args, mode: GoldenMode) {
    let scale = args.scale();
    let golden_dir = goldens_root().join(experiments::scale_name(scale));
    if mode == GoldenMode::Bless {
        std::fs::create_dir_all(&golden_dir).expect("creating the goldens directory");
    }

    let t_all = Instant::now();
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let sweep = experiments::run_docs(&ids, scale);

    // Cycle attribution comes from each outcome's embedded profile:
    // summed per experiment, and over every experiment for the whole
    // run. Wedged fault runs carry no report, so they count toward
    // neither the profile nor `simulations`.
    type Tallies = Vec<(String, String)>;
    let mut results: Vec<(&str, usize, SimProfile, Tallies)> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut tally = SimProfile::default();
    let (mut jobs, mut runs) = (0, 0);
    for (doc, outcomes) in &sweep.docs {
        let id = doc.id.as_str();
        let n = outcomes.len();
        let mut prof = SimProfile::default();
        for r in outcomes.iter().filter_map(|o| o.report()) {
            prof.add(&r.profile);
            runs += 1;
        }
        jobs += n;
        tally.add(&prof);
        // Deterministic per-tenant tallies (admission/completion
        // counts) ride along into the bench json, where the perf gate
        // locks them down like the host cache counters.
        let tallies: Tallies = doc
            .extras
            .iter()
            .filter(|(k, _)| k.starts_with("tenant"))
            .cloned()
            .collect();
        let out = experiments::render_doc(doc);
        println!("=== {id} ===");
        println!("{out}");
        if args.show_profile && n > 0 {
            println!("  profile: {}", prof.summary());
        }
        println!();

        let golden_path = golden_dir.join(format!("{id}.json"));
        match mode {
            GoldenMode::Bless => {
                std::fs::write(&golden_path, doc.to_json())
                    .unwrap_or_else(|e| panic!("writing {}: {e}", golden_path.display()));
                eprintln!("blessed {}", golden_path.display());
            }
            GoldenMode::Check => {
                match std::fs::read_to_string(&golden_path) {
                    Ok(text) => match GoldenDoc::from_json(&text) {
                        Ok(golden) => violations.extend(golden.diff(doc)),
                        Err(e) => violations.push(format!(
                            "{id} ({}): unreadable golden {}: {e}",
                            doc.scale,
                            golden_path.display()
                        )),
                    },
                    Err(_) => violations.push(format!(
                        "{id} ({}): missing golden {} (run `repro goldens bless` to create it)",
                        doc.scale,
                        golden_path.display()
                    )),
                }
                violations.extend(doc.shape_violations());
            }
            GoldenMode::Off => {}
        }
        results.push((id, n, prof, tallies));
    }
    let total = t_all.elapsed().as_secs_f64();
    let sweep_secs = sweep.run_secs;
    if args.show_profile {
        println!("=== profile (whole run, {runs} simulations) ===");
        println!("  {}\n", tally.summary());
    }

    // Host-side counters: what the cache actually did. Stderr, not
    // stdout — a warm and a cold run print the same tables, and sweep
    // stdout stays byte-for-byte reproducible.
    let cache_stats = ts_bench::cache::stats();
    eprintln!(
        "{jobs} simulation job(s) in {sweep_secs:.3}s ({total:.3}s total): \
         cache {} hit(s) / {} miss(es) / {} stored",
        cache_stats.hits, cache_stats.misses, cache_stats.stores
    );

    if let Some(path) = &args.bench_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            experiments::scale_name(scale)
        ));
        json.push_str(&format!("  \"jobs\": {},\n", ts_pool::current_threads()));
        json.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
        json.push_str(&format!("  \"sweep_seconds\": {sweep_secs:.3},\n"));
        if let Some(mib) = peak_rss_mib() {
            json.push_str(&format!("  \"peak_rss_mib\": {mib:.1},\n"));
        }
        json.push_str(&format!("  \"simulations\": {runs},\n"));
        json.push_str(&format!(
            "  \"host\": {{\"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_stores\": {}}},\n",
            cache_stats.hits, cache_stats.misses, cache_stats.stores
        ));
        json.push_str(&format!("  \"profile\": {},\n", profile_json(&tally)));
        json.push_str("  \"experiments\": [\n");
        for (i, (id, sims, prof, tallies)) in results.iter().enumerate() {
            let comma = if i + 1 < results.len() { "," } else { "" };
            let tallies = tallies
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                .collect::<Vec<_>>()
                .join(", ");
            json.push_str(&format!(
                "    {{\"id\": \"{id}\", \"sims\": {sims}, \"tallies\": {{{tallies}}}, \
                 \"profile\": {}}}{comma}\n",
                profile_json(prof)
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json).expect("writing the bench json");
        eprintln!("wrote {path}");
    }

    if mode == GoldenMode::Check {
        let diff_path = args.out_path("GOLDEN_diff.txt");
        if violations.is_empty() {
            // A previous failing run may have left its report behind;
            // a green check must not leave a stale diff lying around.
            let _ = std::fs::remove_file(&diff_path);
            eprintln!(
                "goldens OK: {} experiment(s) match goldens/{} and satisfy the shape claims",
                results.len(),
                experiments::scale_name(scale)
            );
        } else {
            let report = format!(
                "golden check failed with {} violation(s):\n  {}\n",
                violations.len(),
                violations.join("\n  ")
            );
            eprint!("{report}");
            std::fs::write(&diff_path, &report)
                .unwrap_or_else(|e| panic!("writing {}: {e}", diff_path.display()));
            eprintln!("(report written to {})", diff_path.display());
            std::process::exit(1);
        }
    }
}

/// Runs `repro trace <id>`: one traced simulation, the Perfetto JSON
/// on disk, and the two derived text reports on stdout.
fn run_trace(id: &str, args: &Args) {
    use ts_bench::trace_report;

    let scale = args.scale();
    let t0 = Instant::now();
    let run = experiments::trace_run(id, scale);
    let records = &run.report.trace;
    println!(
        "=== trace {id} ({}, workload {}, {} cycles) ===",
        experiments::scale_name(scale),
        run.workload,
        run.report.cycles
    );
    println!(
        "  {} event(s) recorded, {} dropped to ring overflow",
        records.len(),
        run.report.trace_dropped
    );

    let path = args.out_path(&format!("TRACE_{id}.json"));
    let json = trace_report::perfetto_json(&run.workload, run.cfg.tiles, records);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!(
        "  wrote {} (load it in https://ui.perfetto.dev or chrome://tracing)\n",
        path.display()
    );

    println!("--- NoC link occupancy (stride-sampled, nonzero links) ---");
    println!(
        "{}",
        trace_report::noc_heatmap(run.cfg.mesh_dims(), records)
    );
    println!("--- memory queue depths (stride-sampled) ---");
    println!("{}", trace_report::queue_depth_table(records, 32));
    println!("  ({:.1?})", t0.elapsed());
}

/// Runs `repro faults <id>`: one chaos-preset fault-injected
/// simulation, the summary on stdout and in `FAULTS_<id>.txt`.
fn run_faults(id: &str, args: &Args) {
    let scale = args.scale();
    let t0 = Instant::now();
    let fr = experiments::fault_run(id, scale, args.rate);
    let header = format!(
        "=== faults {id} ({}, workload {}, {} cycles) ===",
        experiments::scale_name(scale),
        fr.workload,
        fr.report.cycles
    );
    println!("{header}");
    println!("{}", fr.summary);
    let path = args.out_path(&format!("FAULTS_{id}.txt"));
    std::fs::write(&path, format!("{header}\n{}", fr.summary))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("  wrote {}", path.display());
    println!("  ({:.1?})", t0.elapsed());
}

/// Runs `repro whatif`: for each experiment, one traced simulation,
/// the DAG reconstruction, and the three tables (summary, ranked
/// bottlenecks, virtual-speedup queries) on stdout and in
/// `WHATIF_<id>.txt`. With `--bench-json`, the per-experiment summary
/// rows are spliced into the sweep JSON as a `"whatif"` section.
fn run_whatif(ids: &[String], args: &Args) {
    use ts_bench::whatif_report as wr;

    let scale = args.scale();
    let t0 = Instant::now();
    let mut rows: Vec<String> = Vec::new();
    for id in ids {
        let run = experiments::trace_run(id, scale);
        let w = wr::analyze(&run);
        let queries: Vec<wr::LabeledQuery> = if args.speedups.is_empty() {
            wr::default_queries(&run.type_names)
        } else {
            args.speedups
                .iter()
                .map(|s| {
                    wr::parse_speedup(s, &run.type_names).unwrap_or_else(|e| die(&e, WHATIF_USAGE))
                })
                .collect()
        };
        let mut text = format!(
            "=== whatif {id} ({}, workload {}, {} cycles) ===\n",
            experiments::scale_name(scale),
            run.workload,
            run.report.cycles
        );
        text.push_str(&format!("{}\n", wr::summary_table(&w)));
        text.push_str("--- bottlenecks (ranked by critical-path share) ---\n");
        text.push_str(&format!("{}\n", wr::bottleneck_table(&w, &run.type_names)));
        text.push_str("--- virtual speedups ---\n");
        text.push_str(&format!("{}\n", wr::query_table(&w, &queries)));
        print!("{text}");
        let path = args.out_path(&format!("WHATIF_{id}.txt"));
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        rows.push(wr::summary_json(id, &run, &w, &queries));
    }
    if let Some(path) = &args.bench_json {
        let existing = std::fs::read_to_string(path).ok();
        let merged = wr::merge_section(existing.as_deref(), &rows);
        std::fs::write(path, merged).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote whatif section to {path}");
    }
    eprintln!("  ({:.1?})", t0.elapsed());
}

/// Locates the committed `goldens/` directory: the startup working
/// directory's if present (CI runs from the repo root), else relative
/// to this crate's manifest so `cargo run -p ts-bench` works from
/// anywhere in the tree.
fn goldens_root() -> PathBuf {
    let cwd = startup_cwd().join("goldens");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens"))
}

/// The process's resident high-water mark (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` does not report one. Advisory, like the
/// wall-clock fields it rides with in the bench json.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Renders one profile as a JSON object, one key per counter in
/// declaration order (the repo has no serde; the fields are flat
/// integers and fixed-size histograms so hand-rolling is exact).
/// Histograms render as arrays bucketed by stretch length; the bucket
/// boundaries are `ts_delta::STRETCH_BUCKET_LABELS`.
fn profile_json(p: &SimProfile) -> String {
    let fields: Vec<String> = p
        .counters()
        .map(|c| {
            let words: Vec<String> = c.words.iter().map(u64::to_string).collect();
            if c.histogram {
                format!("\"{}\": [{}]", c.name, words.join(", "))
            } else {
                format!("\"{}\": {}", c.name, words[0])
            }
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag a subcommand accepts is listed in its `--help` text.
    #[test]
    fn usage_texts_list_every_accepted_flag() {
        let commands = [
            ("sweep", SWEEP_FLAGS, SWEEP_USAGE),
            ("goldens", SWEEP_FLAGS, GOLDENS_USAGE),
            ("trace", TRACE_FLAGS, TRACE_USAGE),
            ("faults", FAULTS_FLAGS, FAULTS_USAGE),
            ("whatif", WHATIF_FLAGS, WHATIF_USAGE),
        ];
        for (command, flags, usage) in commands {
            for flag in flags {
                assert!(
                    usage.contains(flag),
                    "`repro {command} --help` omits {flag}"
                );
            }
        }
    }
}
