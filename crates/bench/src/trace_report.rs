//! Renders a recorded event trace ([`ts_delta::TraceRecord`]) three
//! ways: as Chrome/Perfetto trace-event JSON (load the file in
//! <https://ui.perfetto.dev> or `chrome://tracing`), as a per-link NoC
//! occupancy heatmap, and as a memory-queue-depth timeseries. One
//! simulated cycle maps to one trace-viewer microsecond.
//!
//! The JSON is hand-rolled like the rest of the harness (the repo has
//! no serde): every payload field is a plain integer and the only
//! strings are names we generate, so exact emission is trivial.

use std::collections::HashMap;

use crate::golden::json_str;
use crate::Table;
use ts_delta::{TraceEvent, TraceRecord};

/// Router input-port names, indexed like `ts_noc::Mesh` ports (the
/// last port is local injection).
const PORT_NAMES: [&str; 5] = ["east", "west", "north", "south", "inject"];

/// Serializes a trace as Chrome trace-event JSON.
///
/// Layout: one process (`pid` 0) named after the workload; one thread
/// per tile carrying that tile's task spans (`ph: "X"`, dispatch to
/// completion); one extra "dispatcher" thread (`tid = tiles`) carrying
/// spawn/ready/steal instants; counter tracks (`ph: "C"`) for the
/// memory queues and every NoC link that ever reported a nonzero
/// depth. Pipe and multicast resolutions are instants on the consuming
/// tile's thread.
pub fn perfetto_json(workload: &str, tiles: usize, records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&ev);
    };

    push(
        &mut out,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(workload)
        ),
    );
    for t in 0..tiles {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
                 \"args\":{{\"name\":\"tile {t}\"}}}}"
            ),
        );
    }
    let disp_tid = tiles;
    push(
        &mut out,
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{disp_tid},\
             \"args\":{{\"name\":\"dispatcher\"}}}}"
        ),
    );

    // Task spans need both endpoints: collect type at spawn and start
    // cycle at dispatch, emit the "X" event at completion.
    let mut task_ty: HashMap<u64, usize> = HashMap::new();
    let mut task_start: HashMap<u64, u64> = HashMap::new();
    for r in records {
        let c = r.cycle;
        match r.event {
            TraceEvent::TaskSpawn { task, ty, parent } => {
                task_ty.insert(task, ty);
                let label = match parent {
                    Some(p) => format!("spawn task {task} (by task {p})"),
                    None => format!("spawn task {task}"),
                };
                push(&mut out, instant(c, disp_tid, &label));
            }
            TraceEvent::PipeBind {
                pipe,
                task,
                producer,
            } => {
                let role = if producer { "producer" } else { "consumer" };
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("pipe {pipe} {role} task {task}")),
                );
            }
            TraceEvent::TaskTenant { task, tenant } => {
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("task {task} tenant {tenant}")),
                );
            }
            TraceEvent::TaskReady { task } => {
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("ready task {task}")),
                );
            }
            TraceEvent::TaskDispatch { task, .. } => {
                task_start.insert(task, c);
            }
            TraceEvent::TaskFire { task, tile } => {
                push(&mut out, instant(c, tile, &format!("fire task {task}")));
            }
            TraceEvent::TaskStalls { task, input, other } => {
                if input + other > 0 {
                    push(
                        &mut out,
                        instant(
                            c,
                            disp_tid,
                            &format!("task {task} stalls: input {input}, other {other}"),
                        ),
                    );
                }
            }
            TraceEvent::TaskComplete { task, tile } => {
                let start = task_start.remove(&task).unwrap_or(c);
                let ty = task_ty.get(&task).copied().unwrap_or(0);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"task {task}\",\"cat\":\"task\",\"ph\":\"X\",\
                         \"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{tile},\
                         \"args\":{{\"ty\":{ty}}}}}",
                        c.saturating_sub(start).max(1)
                    ),
                );
            }
            TraceEvent::StealAttempt { thief, victim } => {
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("steal attempt {thief}<-{victim}")),
                );
            }
            TraceEvent::Steal {
                task,
                thief,
                victim,
            } => {
                push(
                    &mut out,
                    instant(c, thief, &format!("stole task {task} from tile {victim}")),
                );
            }
            TraceEvent::PipeDirect {
                pipe,
                consumer_node,
            } => {
                push(
                    &mut out,
                    instant(
                        c,
                        disp_tid,
                        &format!("pipe {pipe} direct to node {consumer_node}"),
                    ),
                );
            }
            TraceEvent::PipeSpill { pipe, base } => {
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("pipe {pipe} spilled at {base:#x}")),
                );
            }
            TraceEvent::McastOpen { job, region, node } => {
                push(
                    &mut out,
                    instant(
                        c,
                        disp_tid,
                        &format!("mcast open job {job} region {region} node {node}"),
                    ),
                );
            }
            TraceEvent::McastJoin { job, region, node } => {
                push(
                    &mut out,
                    instant(
                        c,
                        disp_tid,
                        &format!("mcast join job {job} region {region} node {node}"),
                    ),
                );
            }
            TraceEvent::NocLink { node, port, depth } => {
                let pname = PORT_NAMES.get(port).copied().unwrap_or("?");
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"noc n{node} {pname}\",\"ph\":\"C\",\"ts\":{c},\
                         \"pid\":0,\"args\":{{\"depth\":{depth}}}}}"
                    ),
                );
            }
            TraceEvent::QueueDepth {
                admit,
                gated,
                backlog,
                dram_jobs,
                dram_inflight,
            } => {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"mem queues\",\"ph\":\"C\",\"ts\":{c},\"pid\":0,\
                         \"args\":{{\"admit\":{admit},\"gated\":{gated},\
                         \"backlog\":{backlog},\"dram_jobs\":{dram_jobs},\
                         \"dram_inflight\":{dram_inflight}}}}}"
                    ),
                );
            }
            TraceEvent::FaultTileDown { tile, until } => {
                let until = if until == u64::MAX {
                    "end of run".to_string()
                } else {
                    format!("cycle {until}")
                };
                push(
                    &mut out,
                    instant(c, tile, &format!("FAULT tile {tile} down until {until}")),
                );
            }
            TraceEvent::FaultFlitDropped { node } => {
                push(
                    &mut out,
                    instant(c, disp_tid, &format!("FAULT flit dropped at node {node}")),
                );
            }
            TraceEvent::TaskVictim { task, tile } => {
                // close the open span: the task left this tile without
                // completing, and will re-span from its re-dispatch
                let start = task_start.remove(&task).unwrap_or(c);
                let ty = task_ty.get(&task).copied().unwrap_or(0);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"task {task} (victim)\",\"cat\":\"task\",\"ph\":\"X\",\
                         \"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{tile},\
                         \"args\":{{\"ty\":{ty}}}}}",
                        c.saturating_sub(start).max(1)
                    ),
                );
            }
            TraceEvent::TaskRedispatch { task, tile } => {
                task_start.insert(task, c);
                push(
                    &mut out,
                    instant(c, tile, &format!("redispatch task {task}")),
                );
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

fn instant(cycle: u64, tid: usize, name: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"i\",\"ts\":{cycle},\"pid\":0,\"tid\":{tid},\"s\":\"t\"}}",
        json_str(name)
    )
}

/// Aggregates the stride-sampled [`TraceEvent::NocLink`] events into a
/// per-link table: samples seen, peak depth, and mean depth over the
/// nonzero samples. Links that never reported occupancy are omitted
/// (the recorder only emits nonzero depths).
pub fn noc_heatmap(mesh_dims: (usize, usize), records: &[TraceRecord]) -> Table {
    let (w, _) = mesh_dims;
    // (node, port) -> (samples, peak, total)
    let mut links: HashMap<(usize, usize), (u64, usize, u64)> = HashMap::new();
    for r in records {
        if let TraceEvent::NocLink { node, port, depth } = r.event {
            let e = links.entry((node, port)).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 = e.1.max(depth);
            e.2 += depth as u64;
        }
    }
    let mut keys: Vec<(usize, usize)> = links.keys().copied().collect();
    keys.sort_unstable();
    let mut table = Table::new(&["node", "xy", "port", "samples", "peak", "mean"]);
    for (node, port) in keys {
        let (samples, peak, total) = links[&(node, port)];
        table.row(vec![
            node.to_string(),
            format!("({},{})", node % w, node / w),
            PORT_NAMES.get(port).copied().unwrap_or("?").to_string(),
            samples.to_string(),
            peak.to_string(),
            format!("{:.2}", total as f64 / samples as f64),
        ]);
    }
    if table.is_empty() {
        table.row(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            "0".into(),
            "0".into(),
            "0.00".into(),
        ]);
    }
    table
}

/// Renders the stride-sampled [`TraceEvent::QueueDepth`] events as a
/// timeseries table, evenly downsampled to at most `max_rows` rows so
/// long runs stay readable.
pub fn queue_depth_table(records: &[TraceRecord], max_rows: usize) -> Table {
    let samples: Vec<(u64, usize, usize, usize, usize, usize)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::QueueDepth {
                admit,
                gated,
                backlog,
                dram_jobs,
                dram_inflight,
            } => Some((r.cycle, admit, gated, backlog, dram_jobs, dram_inflight)),
            _ => None,
        })
        .collect();
    let mut table = Table::new(&[
        "cycle",
        "admit",
        "gated",
        "backlog",
        "dram jobs",
        "dram inflight",
    ]);
    let stride = samples.len().div_ceil(max_rows.max(1)).max(1);
    for (cycle, admit, gated, backlog, jobs, inflight) in samples.into_iter().step_by(stride) {
        table.row(vec![
            cycle.to_string(),
            admit.to_string(),
            gated.to_string(),
            backlog.to_string(),
            jobs.to_string(),
            inflight.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 0,
                event: TraceEvent::TaskSpawn {
                    task: 0,
                    ty: 1,
                    parent: None,
                },
            },
            TraceRecord {
                cycle: 2,
                event: TraceEvent::TaskDispatch { task: 0, tile: 1 },
            },
            TraceRecord {
                cycle: 3,
                event: TraceEvent::TaskFire { task: 0, tile: 1 },
            },
            TraceRecord {
                cycle: 9,
                event: TraceEvent::TaskComplete { task: 0, tile: 1 },
            },
            TraceRecord {
                cycle: 256,
                event: TraceEvent::NocLink {
                    node: 2,
                    port: 4,
                    depth: 3,
                },
            },
            TraceRecord {
                cycle: 256,
                event: TraceEvent::QueueDepth {
                    admit: 1,
                    gated: 0,
                    backlog: 2,
                    dram_jobs: 1,
                    dram_inflight: 5,
                },
            },
        ]
    }

    #[test]
    fn perfetto_json_has_span_and_counters() {
        let json = perfetto_json("demo \"wl\"", 2, &sample_records());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":7"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("demo \\\"wl\\\""));
        // crude structural check: balanced braces and brackets
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn heatmap_and_queue_tables_render() {
        let recs = sample_records();
        let hm = noc_heatmap((2, 2), &recs);
        assert_eq!(hm.len(), 1);
        assert!(hm.to_string().contains("inject"));
        let q = queue_depth_table(&recs, 8);
        assert_eq!(q.len(), 1);
        assert!(q.to_string().contains("256"));
    }

    #[test]
    fn queue_table_downsamples() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                cycle: i * 256,
                event: TraceEvent::QueueDepth {
                    admit: 0,
                    gated: 0,
                    backlog: 0,
                    dram_jobs: 0,
                    dram_inflight: 0,
                },
            })
            .collect();
        let q = queue_depth_table(&recs, 10);
        assert!(q.len() <= 10, "got {} rows", q.len());
    }
}
