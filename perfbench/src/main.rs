//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` and prints, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Run it from the repository root;
//! `perfbench/run.py` builds it and passes `--t0-ns`.
//!
//! Each untraced pass runs in a child process of its own, as one
//! `repro sweep` does, so no pass inherits another's heap, mapping
//! memo or allocator state. The traced pass runs in this process.

use perfbench::spans::{self, LayerSplit};
use perfbench::sweep::{self, Keys, TracedPass, Workload, THREADS};
use perfbench::sys;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use ts_bench::{cache, experiments};

/// Set-up is repeated this many times; `setup_s` reports the median.
const SETUP_REPS: usize = 3;

/// Fewest untraced passes a `--trace 0` run measures.
const MIN_PASSES: usize = 3;

/// Share of `--seconds` a `--trace 1` run spends on untraced passes
/// (for `pool.*` and `trace.overhead`) before its traced pass.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.25;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    goldens: PathBuf,
    out_dir: PathBuf,
    t0_ns: Option<u128>,
    /// Child mode: fill this cache directory with a cold sweep.
    fill_cache: Option<PathBuf>,
    /// Child mode: run one untraced pass against this cache directory.
    pass_in: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        goldens: PathBuf::from("goldens"),
        out_dir: PathBuf::from(".bench_run"),
        t0_ns: None,
        fill_cache: None,
        pass_in: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--goldens" => a.goldens = val()?.into(),
            "--out-dir" => a.out_dir = val()?.into(),
            "--t0-ns" => a.t0_ns = Some(val()?.parse().map_err(|e| format!("--t0-ns: {e}"))?),
            "--fill-cache" => a.fill_cache = Some(val()?.into()),
            "--pass-in" => a.pass_in = Some(val()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn now_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Seconds from `t0_ns` (wall-clock nanoseconds) to `at`.
fn since(t0_ns: Option<u128>, at: u128) -> f64 {
    t0_ns.map_or(0.0, |t0| at.saturating_sub(t0) as f64 * 1e-9)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replaces `dir` with an empty directory.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Runs this executable again with `args`; returns its standard output.
fn child(args: &[&std::ffi::OsStr]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// What one untraced pass reports back to the parent: a line of
/// space-separated fields, the last one the per-job cycles as
/// `id:c,c,...;id:...`.
#[derive(Debug)]
struct PassSummary {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    digest: u64,
    steals: u64,
    parks: u64,
    attempted: u64,
    failed: u64,
    /// Child process start to the moment its pass began.
    ready_s: f64,
    cycles: Vec<(String, Vec<u64>)>,
}

impl PassSummary {
    fn to_line(&self) -> String {
        let cycles: Vec<String> = self
            .cycles
            .iter()
            .map(|(id, cs)| {
                let cs: Vec<String> = cs.iter().map(u64::to_string).collect();
                format!("{id}:{}", cs.join(","))
            })
            .collect();
        format!(
            "pass {} {} {} {:016x} {} {} {} {} {} {}",
            self.wall_s,
            self.cpu_s,
            self.peak_rss_mib,
            self.digest,
            self.steals,
            self.parks,
            self.attempted,
            self.failed,
            self.ready_s,
            cycles.join(";")
        )
    }

    fn parse(text: &str) -> Result<PassSummary, String> {
        let line = text
            .lines()
            .find(|l| l.starts_with("pass "))
            .ok_or("child printed no pass line")?;
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 11 {
            return Err(format!("malformed pass line: {line}"));
        }
        let num = |i: usize| f[i].parse::<f64>().map_err(|e| format!("field {i}: {e}"));
        let int = |i: usize| f[i].parse::<u64>().map_err(|e| format!("field {i}: {e}"));
        let cycles = f[10]
            .split(';')
            .filter(|s| !s.is_empty())
            .map(|exp| {
                let (id, cs) = exp.split_once(':').ok_or("malformed cycles")?;
                let cs = cs
                    .split(',')
                    .filter(|c| !c.is_empty())
                    .map(|c| c.parse::<u64>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((id.to_string(), cs))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PassSummary {
            wall_s: num(1)?,
            cpu_s: num(2)?,
            peak_rss_mib: num(3)?,
            digest: u64::from_str_radix(f[4], 16).map_err(|e| format!("digest: {e}"))?,
            steals: int(5)?,
            parks: int(6)?,
            attempted: int(7)?,
            failed: int(8)?,
            ready_s: num(9)?,
            cycles,
        })
    }

    fn distinct_cycles(&self, keys: &Keys) -> u64 {
        let cycles = self
            .cycles
            .iter()
            .map(|(id, cs)| (id.as_str(), cs.as_slice()));
        sweep::distinct_cycles(cycles, keys)
    }
}

/// Child mode: one untraced pass against the cache in `dir`.
fn pass_child(args: &Args, w: &Workload, dir: &Path) -> Result<(), String> {
    let goldens = sweep::load_goldens(&args.goldens, w)?;
    cache::set_dir(dir.to_path_buf());
    let ready_s = since(args.t0_ns, now_ns());
    sys::reset_peak_rss();
    let p = sweep::run_pass(w.scale, w.ids, &goldens);
    let peak_rss_mib = sys::peak_rss_mib();
    for f in &p.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let s = PassSummary {
        wall_s: p.wall_s,
        cpu_s: p.cpu_s,
        peak_rss_mib,
        digest: sweep::digest(&p.results, p.cache),
        steals: p.steals,
        parks: p.parks,
        attempted: p.attempted,
        failed: p.failures.len() as u64,
        ready_s,
        cycles: sweep::job_cycles(&p.results)
            .into_iter()
            .map(|(id, cs)| (id.to_string(), cs))
            .collect(),
    };
    eprintln!(
        "perfbench: pass: wall {:.4}s cpu {:.4}s rss {:.1}MiB digest {:016x} cache {}h/{}m/{}s",
        s.wall_s, s.cpu_s, s.peak_rss_mib, s.digest, p.cache.hits, p.cache.misses, p.cache.stores
    );
    println!("{}", s.to_line());
    Ok(())
}

/// Everything the parent's passes share.
struct Bench<'a> {
    args: &'a Args,
    w: &'static Workload,
    keys: Keys,
    work: PathBuf,
    /// The filled cache (warm workload only).
    warm_dir: Option<PathBuf>,
    attempted: u64,
    failed: u64,
}

impl Bench<'_> {
    /// The cache directory pass `n` uses: the filled one for the warm
    /// workload, a fresh empty one otherwise.
    fn cache_for_pass(&self, n: usize) -> Result<PathBuf, String> {
        if let Some(d) = &self.warm_dir {
            return Ok(d.clone());
        }
        let d = self.work.join(format!("cache-pass{n}"));
        fresh_dir(&d)?;
        Ok(d)
    }

    fn untraced(&mut self, n: usize) -> Result<PassSummary, String> {
        let dir = self.cache_for_pass(n)?;
        let t0 = now_ns().to_string();
        let out = child(&[
            "--workload".as_ref(),
            self.w.name.as_ref(),
            "--goldens".as_ref(),
            self.args.goldens.as_os_str(),
            "--t0-ns".as_ref(),
            t0.as_ref(),
            "--pass-in".as_ref(),
            dir.as_os_str(),
        ]);
        if self.warm_dir.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let s = PassSummary::parse(&out?)?;
        self.attempted += s.attempted;
        self.failed += s.failed;
        Ok(s)
    }

    /// Untraced passes until `budget` seconds have gone by and at least
    /// `min` passes ran.
    fn untraced_for(&mut self, budget: f64, min: usize) -> Result<Vec<PassSummary>, String> {
        let t = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || t.elapsed().as_secs_f64() < budget {
            out.push(self.untraced(out.len())?);
        }
        Ok(out)
    }
}

type Metric = (&'static str, f64, &'static str);

fn col(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(setup_s: f64, passes: &[PassSummary], keys: &Keys) -> Vec<Metric> {
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", col(passes, |p| p.wall_s), "s"),
        ("cpu_s", col(passes, |p| p.cpu_s), "s"),
        (
            "sim_cycles_per_s",
            col(passes, |p| ratio(p.distinct_cycles(keys) as f64, p.wall_s)),
            "1/s",
        ),
        ("peak_rss_mib", col(passes, |p| p.peak_rss_mib), "MiB"),
    ]
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles with at least ten samples
/// beyond it (50 when there are fewer than twenty).
fn tail_pct(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

fn per_layer(
    bench: &Bench,
    passes: &[PassSummary],
    traced: &TracedPass,
    split: &LayerSplit,
) -> Vec<Metric> {
    let prof = &traced.profile;
    let mut runs_ms: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "accel.run")
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect();
    runs_ms.sort_by(f64::total_cmp);
    let tail = tail_pct(runs_ms.len());
    let run_s = split.secs("accel.run");
    let cycles = traced.sim_cycles as f64;
    let (entries, bytes) = cache::disk_stats().unwrap_or((0, 0));
    let (wall_s, cpu_s) = (col(passes, |p| p.wall_s), col(passes, |p| p.cpu_s));
    let traced_wall = split.wall_ns as f64 * 1e-9;
    let n = |v: u64| v as f64;
    vec![
        (
            "failed_ratio",
            ratio(n(bench.failed), n(bench.attempted)),
            "ratio",
        ),
        ("accel.run_s", run_s, "s"),
        ("accel.sims", n(traced.sims), "count"),
        ("accel.run_ms_p50", percentile(&runs_ms, 50.0), "ms"),
        ("accel.run_ms_tail", percentile(&runs_ms, tail), "ms"),
        ("accel.sim_cycles", cycles, "count"),
        ("accel.tile_ticks", n(prof.tile_ticks), "count"),
        ("accel.tile_skipped", n(prof.tile_skipped), "count"),
        ("accel.tile_bulk_cycles", n(prof.tile_bulk_cycles), "count"),
        (
            "accel.tile_next_event_calls",
            n(prof.tile_next_event_calls),
            "count",
        ),
        ("accel.loop_cycles", n(prof.loop_cycles), "count"),
        ("accel.jump_cycles", n(prof.jump_cycles), "count"),
        ("accel.mem_ticks", n(prof.mem_ticks), "count"),
        ("accel.noc_ticks", n(prof.noc_ticks), "count"),
        ("accel.ns_per_sim_cycle", ratio(run_s * 1e9, cycles), "ns"),
        (
            "accel.ns_per_tile_tick",
            ratio(run_s * 1e9, n(prof.tile_ticks)),
            "ns",
        ),
        (
            "accel.ticks_per_loop_cycle",
            ratio(n(prof.tile_ticks), n(prof.loop_cycles)),
            "ratio",
        ),
        (
            "accel.jump_share",
            ratio(n(prof.jump_cycles), cycles),
            "ratio",
        ),
        (
            "accel.next_event_per_tick",
            ratio(n(prof.tile_next_event_calls), n(prof.tile_ticks)),
            "ratio",
        ),
        ("oracle.execute_s", split.secs("oracle.execute"), "s"),
        ("oracle.check_s", split.secs("oracle.check"), "s"),
        ("oracle.runs", n(traced.oracle_runs), "count"),
        (
            "workloads.validate_s",
            split.secs("workloads.validate"),
            "s",
        ),
        (
            "validate.conservation_s",
            split.secs("validate.conservation"),
            "s",
        ),
        ("cache.key_s", split.secs("cache.key"), "s"),
        ("cache.load_s", split.secs("cache.load"), "s"),
        ("cache.store_s", split.secs("cache.store"), "s"),
        ("cache.hits", n(traced.cache.hits), "count"),
        ("cache.misses", n(traced.cache.misses), "count"),
        ("cache.stores", n(traced.cache.stores), "count"),
        ("cache.bytes_per_entry", ratio(n(bytes), n(entries)), "B"),
        ("experiments.plan_s", split.secs("experiments.plan"), "s"),
        (
            "experiments.finish_s",
            split.secs("experiments.finish"),
            "s",
        ),
        (
            "experiments.render_s",
            split.secs("experiments.render"),
            "s",
        ),
        ("golden.check_s", split.secs("golden.check"), "s"),
        (
            "workloads.make_program_s",
            split.secs("workloads.make_program"),
            "s",
        ),
        (
            "workloads.make_program_calls",
            n(split.calls("workloads.make_program")),
            "count",
        ),
        ("cgra.map_s", split.secs("cgra.map"), "s"),
        ("cgra.map_hits", n(traced.map_hits), "count"),
        ("cgra.map_misses", n(traced.map_misses), "count"),
        ("pool.steals", col(passes, |p| n(p.steals)), "count"),
        ("pool.parks", col(passes, |p| n(p.parks)), "count"),
        (
            "pool.utilization",
            ratio(cpu_s, THREADS as f64 * wall_s),
            "ratio",
        ),
        ("trace.wall_s", traced_wall, "s"),
        (
            "trace.unattributed_s",
            split.unattributed_ns as f64 * 1e-9,
            "s",
        ),
        ("trace.overhead", ratio(traced_wall, cpu_s) - 1.0, "ratio"),
    ]
}

/// Prints each layer's share of the traced wall time, largest first.
fn print_share_table(w: &Workload, split: &LayerSplit) {
    let wall = split.wall_ns.max(1) as f64;
    let mut rows: Vec<(&str, u64, u64)> = split
        .layers
        .iter()
        .map(|(name, (ns, calls))| (*name, *ns, *calls))
        .collect();
    rows.push(("(unattributed)", split.unattributed_ns, 0));
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    eprintln!(
        "perfbench: {} traced pass, {:.3}s wall; host time by layer:",
        w.name,
        wall * 1e-9
    );
    for (name, ns, calls) in rows {
        eprintln!(
            "  {name:<26} {:>10.4}s {:>6.2}%  {calls} calls",
            ns as f64 * 1e-9,
            100.0 * ns as f64 / wall
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Parent mode: set-up, the passes, and the result line.
fn orchestrate(args: &Args, w: &'static Workload, started_ns: u128) -> Result<(), String> {
    let startup_s = since(args.t0_ns, started_ns);
    let work = args
        .out_dir
        .join(format!("{}-{}", w.name, std::process::id()));
    let mut reps = Vec::new();
    let mut prepared = None;
    let mut warm_dir = None;
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = work.join(format!("cache-setup{r}"));
        fresh_dir(&dir)?;
        if w.warm {
            child(&[
                "--workload".as_ref(),
                w.name.as_ref(),
                "--fill-cache".as_ref(),
                dir.as_os_str(),
            ])?;
        }
        let goldens = sweep::load_goldens(&args.goldens, w)?;
        let keys = sweep::job_keys(w);
        reps.push(t.elapsed().as_secs_f64());
        prepared = Some((goldens, keys));
        if let Some(old) = warm_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (goldens, keys) = prepared.expect("at least one set-up");
    let mut bench = Bench {
        args,
        w,
        keys,
        work: work.clone(),
        warm_dir: if w.warm { warm_dir } else { None },
        attempted: 0,
        failed: 0,
    };

    let outcome = (|| {
        if !args.trace {
            let passes = bench.untraced_for(args.seconds, MIN_PASSES)?;
            return Ok((passes, None));
        }
        let passes = bench.untraced_for(args.seconds * TRACED_RUN_UNTRACED_SHARE, 1)?;
        let dir = bench.cache_for_pass(passes.len())?;
        cache::set_dir(dir);
        let traced = sweep::run_traced_pass(w.scale, w.ids, &goldens);
        for f in &traced.failures {
            eprintln!("perfbench: FAILED {f}");
        }
        bench.attempted += traced.attempted;
        bench.failed += traced.failures.len() as u64;
        Ok((passes, Some(traced)))
    })();
    let result = outcome.and_then(|(passes, traced)| {
        // Set-up is everything outside the timed passes: this process's
        // start-up and preparation, plus each child's start-up.
        let setup_s = startup_s + median(&reps) + col(&passes, |p| p.ready_s);
        eprintln!(
            "perfbench: {} seed {}: set-up {setup_s:.4}s (start-up {startup_s:.4}s, reps {reps:?})",
            w.name, args.seed
        );
        let mut digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
        let metrics = match &traced {
            None => end_to_end(setup_s, &passes, &bench.keys),
            Some(traced) => {
                let split = LayerSplit::of(&traced.spans);
                print_share_table(w, &split);
                digests.push(sweep::digest(&traced.results, traced.cache));
                let path = args.out_dir.join(format!("spans_{}.json", w.name));
                std::fs::write(&path, spans::chrome_json(&traced.spans, w.name))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("perfbench: spans written to {}", path.display());
                per_layer(&bench, &passes, traced, &split)
            }
        };
        let agree = digests.windows(2).all(|d| d[0] == d[1]);
        if !agree {
            eprintln!("perfbench: FAILED passes disagree on the digest: {digests:016x?}");
        }
        for p in &passes {
            eprintln!(
                "perfbench: pass wall {:.4}s cpu {:.4}s rss {:.1}MiB ready {:.4}s",
                p.wall_s, p.cpu_s, p.peak_rss_mib, p.ready_s
            );
        }
        println!(
            "perfbench {} seed {} passes {} digest {:016x}",
            w.name,
            args.seed,
            passes.len(),
            digests[0]
        );
        let correct = agree && bench.failed == 0;
        println!(
            "{}",
            json_line(correct, bench.attempted, bench.failed, &metrics)
        );
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run(args: &Args, started_ns: u128) -> Result<(), String> {
    let w = sweep::workload(&args.workload).ok_or(format!(
        "unknown workload '{}' (known: {})",
        args.workload,
        sweep::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    ))?;
    ts_pool::configure(THREADS);
    cache::set_enabled(true);
    if let Some(dir) = &args.fill_cache {
        cache::set_dir(dir.clone());
        experiments::run_docs(w.ids, w.scale);
        return Ok(());
    }
    if let Some(dir) = &args.pass_in {
        return pass_child(args, w, dir);
    }
    orchestrate(args, w, started_ns)
}

fn main() -> ExitCode {
    let started_ns = now_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started_ns) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
