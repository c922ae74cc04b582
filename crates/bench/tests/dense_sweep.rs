//! Sweep-scale differential check of the event-driven scheduler: every
//! job of every experiment's tiny plan runs through both
//! `Accelerator::run` and the dense reference `Accelerator::run_dense`,
//! and every observable of the two reports must match — a stricter bar
//! than the golden cells, which see only what each table prints.

use ts_bench::{experiments, SweepJob};
use ts_delta::{Accelerator, RunError, RunReport};
use ts_workloads::Scale;

/// One job's run, reduced to what the two engines must agree on. A
/// fault-injected run that stalls is a result (`Wedged`), as in the
/// sweep harness.
#[derive(Debug)]
enum Outcome {
    Completed(Box<RunReport>),
    Wedged { cycles: u64 },
}

fn run(j: &SweepJob, dense: bool) -> Result<Outcome, String> {
    let mut program = if j.baseline {
        j.wl.make_baseline_program()
    } else {
        j.wl.make_program()
    };
    let mut accel = Accelerator::new(j.cfg.clone());
    let result = if dense {
        accel.run_dense(program.as_mut())
    } else {
        accel.run(program.as_mut())
    };
    match result {
        Ok(r) => Ok(Outcome::Completed(Box::new(r))),
        Err(RunError::Timeout { cycles, .. }) if j.faulted => Ok(Outcome::Wedged { cycles }),
        Err(e) => Err(format!("run failed: {e}")),
    }
}

/// The first observable on which the event-driven report `ev` and the
/// dense report `dn` differ, if any. The profile and `skipped_cycles`
/// are scheduler bookkeeping and expected to differ.
fn divergence(ev: &RunReport, dn: &RunReport) -> Option<&'static str> {
    let same = [
        ("cycles", ev.cycles == dn.cycles),
        ("tasks_completed", ev.tasks_completed == dn.tasks_completed),
        ("timeline", ev.timeline == dn.timeline),
        ("counters", ev.counters == dn.counters),
        (
            "DRAM image",
            ev.dram_len() == dn.dram_len()
                && ev.dram_range(0, ev.dram_len()) == dn.dram_range(0, dn.dram_len()),
        ),
        ("trace", ev.trace == dn.trace),
        ("trace_dropped", ev.trace_dropped == dn.trace_dropped),
        ("faults", ev.faults == dn.faults),
    ];
    same.iter().find(|(_, ok)| !ok).map(|(what, _)| *what)
}

/// Runs `j` under both engines; `Ok(true)` when both wedged on the same
/// cycle, `Ok(false)` when both completed with identical observables.
fn check(j: &SweepJob) -> Result<bool, String> {
    match (run(j, false)?, run(j, true)?) {
        (Outcome::Completed(ev), Outcome::Completed(dn)) => match divergence(&ev, &dn) {
            Some(what) => Err(format!("{what} diverged from the dense reference")),
            None => Ok(false),
        },
        (Outcome::Wedged { cycles: a }, Outcome::Wedged { cycles: b }) if a == b => Ok(true),
        (ev, dn) => Err(format!(
            "outcomes diverged: event {} vs dense {}",
            summary(&ev),
            summary(&dn)
        )),
    }
}

fn summary(o: &Outcome) -> String {
    match o {
        Outcome::Completed(r) => format!("completed at cycle {}", r.cycles),
        Outcome::Wedged { cycles } => format!("wedged at cycle {cycles}"),
    }
}

#[test]
fn every_tiny_sweep_job_matches_the_dense_reference() {
    let mut jobs = Vec::new();
    for id in experiments::ALL {
        for (i, j) in experiments::plan(id, Scale::Tiny)
            .jobs
            .into_iter()
            .enumerate()
        {
            jobs.push((*id, i, j));
        }
    }
    let verdicts: Vec<Result<bool, String>> = ts_pool::map(&jobs, |(id, i, j)| {
        check(j).map_err(|e| format!("{id} job {i} ({}): {e}", j.wl.name()))
    });
    let wedged = verdicts.iter().filter(|v| v == &&Ok(true)).count();
    let failures: Vec<String> = verdicts.into_iter().filter_map(Result::err).collect();
    assert!(
        failures.is_empty(),
        "{} of {} jobs diverged:\n{}",
        failures.len(),
        jobs.len(),
        failures.join("\n")
    );
    assert!(wedged > 0, "no job wedged; the wedge comparison is vacuous");
}
