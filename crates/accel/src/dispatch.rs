//! Pending-task bookkeeping and readiness rules.

use crate::pipes::PipeTable;
use taskstream_model::{TaskId, TaskInstance};

/// A spawned task awaiting dispatch.
#[derive(Debug)]
pub(crate) struct PendingTask {
    pub id: TaskId,
    pub inst: TaskInstance,
}

/// Whether a pending task's pipe dependences permit dispatch.
///
/// With pipelining, a consumer may dispatch as soon as all its producers
/// have *dispatched* (their functional data exists and direct streaming
/// is possible). Without it, the consumer must wait until all producers
/// have *completed* (their spill buffers are written) — the
/// barrier-through-memory semantics of the static-parallel design.
///
/// Undeclared pipes are rejected at spawn time (see
/// [`validate_spawn`](crate::functional::validate_spawn)), so the
/// `contains` branch below is pure defence in depth: without the
/// load-time check it would silently hold the task back forever and the
/// run would die in the generic no-progress watchdog.
pub(crate) fn is_ready(task: &TaskInstance, pipes: &PipeTable, pipelining: bool) -> bool {
    task.input_pipes().all(|p| {
        if !pipes.contains(p) {
            return false;
        }
        let ps = pipes.get(p);
        if pipelining {
            ps.producer_dispatched
        } else {
            ps.producer_completed
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskstream_model::{PipeDecl, PipeId, TaskTypeId};

    fn pipe_table_with(id: u64) -> PipeTable {
        let mut t = PipeTable::new(0, 1024);
        t.declare(PipeDecl {
            id: PipeId(id),
            capacity_hint: 8,
        });
        t
    }

    #[test]
    fn no_pipes_is_always_ready() {
        let pipes = PipeTable::new(0, 16);
        let t = TaskInstance::new(TaskTypeId(0));
        assert!(is_ready(&t, &pipes, true));
        assert!(is_ready(&t, &pipes, false));
    }

    #[test]
    fn pipelining_needs_producer_dispatched() {
        let mut pipes = pipe_table_with(1);
        let t = TaskInstance::new(TaskTypeId(0)).input_pipe(PipeId(1));
        assert!(!is_ready(&t, &pipes, true));
        pipes.get_mut(PipeId(1)).producer_dispatched = true;
        assert!(is_ready(&t, &pipes, true));
        // baseline still waits for completion
        assert!(!is_ready(&t, &pipes, false));
        pipes.get_mut(PipeId(1)).producer_completed = true;
        assert!(is_ready(&t, &pipes, false));
    }

    #[test]
    fn undeclared_pipe_blocks() {
        let pipes = PipeTable::new(0, 16);
        let t = TaskInstance::new(TaskTypeId(0)).input_pipe(PipeId(9));
        assert!(!is_ready(&t, &pipes, true));
    }
}
