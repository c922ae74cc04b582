//! The program interface: how a workload describes itself to the
//! accelerator.
//!
//! A [`Program`] supplies its task types and initial memory image, seeds
//! the run with initial tasks, and reacts to task completions by
//! spawning more tasks — exactly the role of the host-side task-spawning
//! code in the paper's system. All *data processing* happens in tasks on
//! the accelerator; `on_complete` only makes control decisions
//! (spawn/don't-spawn), mirroring the cheap task-creation messages of
//! the hardware model.

use crate::task::{PipeId, TaskId, TaskInstance, TaskType, TaskTypeId};
use crate::Value;
use std::sync::Arc;
use ts_stream::Addr;

/// Initial memory contents for a run.
///
/// Segments are shared, not owned: a workload builds its segments once
/// and every [`Program::memory_image`] call hands out clones of the
/// same [`Arc`]s, so the image costs reference counts rather than
/// copies however many runs, oracle checks and fingerprints read it.
/// Runs do not copy it either: the timed machine's DRAM store and
/// scratchpads and the oracle's memory map every 4096-word page a
/// segment covers whole, and copy a page only when the run writes it.
/// An `Arc<[Value]>` hashes like the `Vec<Value>` it was made from.
#[derive(Debug, Clone, Default, Hash)]
pub struct MemoryImage {
    /// `(base, words)` segments loaded into DRAM before the run.
    pub dram: Vec<(Addr, Arc<[Value]>)>,
    /// `(base, words)` segments replicated into *every* tile's
    /// scratchpad before the run (read-mostly tables: hash tables,
    /// tree nodes, centroids).
    pub spad: Vec<(Addr, Arc<[Value]>)>,
}

impl MemoryImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a DRAM segment.
    pub fn dram_segment(mut self, base: Addr, words: impl Into<Arc<[Value]>>) -> Self {
        self.dram.push((base, words.into()));
        self
    }

    /// Adds a replicated scratchpad segment.
    pub fn spad_segment(mut self, base: Addr, words: impl Into<Arc<[Value]>>) -> Self {
        self.spad.push((base, words.into()));
        self
    }

    /// Highest DRAM word touched plus one (for sizing).
    pub fn dram_high_water(&self) -> u64 {
        self.dram
            .iter()
            .map(|(b, w)| b + w.len() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// A pipe declaration: a pipelined inter-task dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeDecl {
    /// The pipe's identity (referenced by task bindings).
    pub id: PipeId,
    /// Upper bound on the words the producer will push — used by the
    /// baseline to size the DRAM spill buffer that replaces the pipe
    /// when pipelining is disabled.
    pub capacity_hint: u64,
}

/// Collects the tasks and pipes a program creates during a callback.
#[derive(Debug)]
pub struct Spawner {
    next_pipe: u64,
    spawned: Vec<TaskInstance>,
    pipes: Vec<PipeDecl>,
}

impl Spawner {
    /// Creates a spawner whose new pipes start at id `next_pipe`.
    pub fn new(next_pipe: u64) -> Self {
        Spawner {
            next_pipe,
            spawned: Vec::new(),
            pipes: Vec::new(),
        }
    }

    /// Queues a task for dispatch.
    pub fn spawn(&mut self, task: TaskInstance) {
        self.spawned.push(task);
    }

    /// Declares a new pipe. `capacity_hint` must be an upper bound on
    /// the words the producer pushes through it.
    pub fn pipe(&mut self, capacity_hint: u64) -> PipeId {
        let id = PipeId(self.next_pipe);
        self.next_pipe += 1;
        self.pipes.push(PipeDecl { id, capacity_hint });
        id
    }

    /// Next pipe id (for chaining spawners across callbacks).
    pub fn next_pipe_id(&self) -> u64 {
        self.next_pipe
    }

    /// Consumes the spawner, returning `(tasks, pipes)`.
    pub fn take(self) -> (Vec<TaskInstance>, Vec<PipeDecl>) {
        (self.spawned, self.pipes)
    }

    /// Number of tasks queued so far.
    pub fn spawned_len(&self) -> usize {
        self.spawned.len()
    }
}

/// A finished task presented to [`Program::on_complete`].
#[derive(Debug, Clone)]
pub struct CompletedTask {
    /// Runtime id.
    pub id: TaskId,
    /// The task's type.
    pub ty: TaskTypeId,
    /// Scalar parameters it ran with.
    pub params: Vec<Value>,
    /// Its affinity key.
    pub affinity: u64,
    /// One value vector per output port (including discarded ports).
    pub outputs: Vec<Vec<Value>>,
}

/// A workload, from the accelerator's point of view.
pub trait Program {
    /// Workload name (for reports).
    fn name(&self) -> &str;

    /// The task-type table. Indices are the [`TaskTypeId`]s instances
    /// reference.
    fn task_types(&self) -> Vec<TaskType>;

    /// Initial DRAM/scratchpad contents. Called for every run, oracle
    /// check and cache fingerprint, so it should hand out clones of
    /// segments built once rather than build them anew.
    fn memory_image(&self) -> MemoryImage;

    /// Seeds the run with initial tasks (and pipes).
    fn initial(&mut self, spawner: &mut Spawner);

    /// Reacts to a completed task, typically spawning successors.
    fn on_complete(&mut self, done: &CompletedTask, spawner: &mut Spawner);

    /// Called when the accelerator runs dry (no queued, running, or
    /// pending tasks). Programs with phase barriers spawn the next
    /// phase here; return `false` when the program is finished.
    fn on_quiescent(&mut self, spawner: &mut Spawner) -> bool {
        let _ = spawner;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawner_allocates_sequential_pipes() {
        let mut s = Spawner::new(5);
        let a = s.pipe(10);
        let b = s.pipe(20);
        assert_eq!(a, PipeId(5));
        assert_eq!(b, PipeId(6));
        assert_eq!(s.next_pipe_id(), 7);
        let (tasks, pipes) = s.take();
        assert!(tasks.is_empty());
        assert_eq!(pipes.len(), 2);
        assert_eq!(pipes[1].capacity_hint, 20);
    }

    #[test]
    fn spawner_collects_tasks_in_order() {
        let mut s = Spawner::new(0);
        s.spawn(TaskInstance::new(TaskTypeId(0)).affinity(1));
        s.spawn(TaskInstance::new(TaskTypeId(1)).affinity(2));
        assert_eq!(s.spawned_len(), 2);
        let (tasks, _) = s.take();
        assert_eq!(tasks[0].affinity, 1);
        assert_eq!(tasks[1].affinity, 2);
    }

    #[test]
    fn memory_image_high_water() {
        let img = MemoryImage::new()
            .dram_segment(10, vec![1, 2, 3])
            .dram_segment(100, vec![5])
            .spad_segment(0, vec![7; 8]);
        assert_eq!(img.dram_high_water(), 101, "scratchpad words don't count");
        assert_eq!(MemoryImage::new().dram_high_water(), 0);
    }
}
