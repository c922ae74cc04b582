//! Task types, task instances and dependence annotations.

use crate::kernel::TaskKernel;
use crate::Value;
use std::fmt;
use ts_mem::WriteMode;
use ts_stream::{Addr, DataSrc, StreamDesc};

/// Index of a task type within a program's type table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskTypeId(pub usize);

/// Runtime-assigned identifier of a task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Identifier of an inter-task pipe (a pipelined dependence edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipeId(pub u64);

/// Identifier of a shared-read region annotation. Tasks whose inputs
/// carry the same `RegionId` declare that they read *identical* data and
/// may be served by one multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A task type: a reconfigurable-fabric configuration (kernel) shared by
/// many task instances.
#[derive(Debug, Clone, Hash)]
pub struct TaskType {
    /// Human-readable name.
    pub name: String,
    /// The computation every instance of this type performs.
    pub kernel: TaskKernel,
}

impl TaskType {
    /// Creates a task type.
    pub fn new(name: impl Into<String>, kernel: TaskKernel) -> Self {
        TaskType {
            name: name.into(),
            kernel,
        }
    }
}

/// How one input port of a task instance is fed.
#[derive(Debug, Clone, Hash)]
pub enum InputBinding {
    /// A private stream (memory, literal, or generated).
    Stream(StreamDesc),
    /// A stream annotated as shared: other tasks carry the *same*
    /// descriptor under the same region id, so one DRAM read can be
    /// multicast to all of them.
    Shared {
        /// The stream (must be identical across the sharing group).
        desc: StreamDesc,
        /// Sharing-group identity.
        region: RegionId,
    },
    /// Consume the output of another task through a pipe (a pipelined
    /// inter-task dependence).
    Pipe(PipeId),
}

impl InputBinding {
    /// Elements this binding will deliver, if statically known (pipes
    /// depend on the producer).
    pub fn known_len(&self) -> Option<u64> {
        match self {
            InputBinding::Stream(d) | InputBinding::Shared { desc: d, .. } => Some(d.len()),
            InputBinding::Pipe(_) => None,
        }
    }
}

/// Where one output port of a task instance goes.
#[derive(Debug, Clone, Hash)]
pub enum OutputBinding {
    /// Write through a stream descriptor (addresses from the
    /// descriptor, values from the port, in emission order).
    Memory {
        /// Address pattern to write (its length bounds the words
        /// written; predicated ports may emit fewer).
        desc: StreamDesc,
        /// Plain store or read-modify-write.
        mode: WriteMode,
    },
    /// Scatter: addresses come from a *sibling* output port (emitting
    /// indices), values from this port: `mem[base + idx * scale] ⊕= v`.
    Scatter {
        /// Memory space written.
        src: DataSrc,
        /// Base address.
        base: Addr,
        /// Index multiplier.
        scale: i64,
        /// Sibling port emitting one index per value of this port.
        addr_port: usize,
        /// Store or read-modify-write mode.
        mode: WriteMode,
    },
    /// Feed a consumer task through a pipe.
    Pipe(PipeId),
    /// No data movement; values are still visible to the program's
    /// `on_complete` (for spawning decisions).
    Discard,
}

/// One schedulable unit of work with its dependence annotations.
///
/// Build with [`TaskInstance::new`] and the chained `with_*`/`input_*`/
/// `output_*` methods:
///
/// ```
/// use taskstream_model::{TaskInstance, TaskTypeId};
/// use ts_stream::StreamDesc;
///
/// let t = TaskInstance::new(TaskTypeId(0))
///     .params([4])
///     .input_stream(StreamDesc::dram(0, 16))
///     .output_discard()
///     .affinity(3);
/// assert_eq!(t.work_hint, 16); // defaults to total input elements
/// ```
#[derive(Debug, Clone, Hash)]
pub struct TaskInstance {
    /// The task's type (indexes the program's type table).
    pub ty: TaskTypeId,
    /// Scalar arguments.
    pub params: Vec<Value>,
    /// One binding per kernel input port.
    pub inputs: Vec<InputBinding>,
    /// One binding per kernel output port.
    pub outputs: Vec<OutputBinding>,
    /// Estimated work (the annotation work-aware balancing uses).
    /// Defaults to the summed length of stream inputs; override with
    /// [`TaskInstance::work_hint`].
    pub work_hint: u64,
    /// Placement key used by the static-parallel baseline
    /// (owner-computes hashing).
    pub affinity: u64,
}

impl TaskInstance {
    /// Starts building an instance of `ty`.
    pub fn new(ty: TaskTypeId) -> Self {
        TaskInstance {
            ty,
            params: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            work_hint: 0,
            affinity: 0,
        }
    }

    /// Sets scalar parameters.
    pub fn params(mut self, params: impl Into<Vec<Value>>) -> Self {
        self.params = params.into();
        self
    }

    /// Appends a private stream input.
    pub fn input_stream(mut self, desc: StreamDesc) -> Self {
        self.work_hint += desc.len();
        self.inputs.push(InputBinding::Stream(desc));
        self
    }

    /// Appends a shared (multicast-eligible) stream input.
    pub fn input_shared(mut self, desc: StreamDesc, region: RegionId) -> Self {
        self.work_hint += desc.len();
        self.inputs.push(InputBinding::Shared { desc, region });
        self
    }

    /// Appends a pipe input (pipelined dependence on another task).
    pub fn input_pipe(mut self, pipe: PipeId) -> Self {
        self.inputs.push(InputBinding::Pipe(pipe));
        self
    }

    /// Appends a memory-write output.
    pub fn output_memory(mut self, desc: StreamDesc, mode: WriteMode) -> Self {
        self.outputs.push(OutputBinding::Memory { desc, mode });
        self
    }

    /// Appends a scatter output taking addresses from `addr_port`.
    pub fn output_scatter(
        mut self,
        src: DataSrc,
        base: Addr,
        scale: i64,
        addr_port: usize,
        mode: WriteMode,
    ) -> Self {
        self.outputs.push(OutputBinding::Scatter {
            src,
            base,
            scale,
            addr_port,
            mode,
        });
        self
    }

    /// Appends a pipe output.
    pub fn output_pipe(mut self, pipe: PipeId) -> Self {
        self.outputs.push(OutputBinding::Pipe(pipe));
        self
    }

    /// Appends a discarded output (visible to `on_complete` only).
    pub fn output_discard(mut self) -> Self {
        self.outputs.push(OutputBinding::Discard);
        self
    }

    /// Overrides the estimated-work annotation.
    pub fn work_hint(mut self, hint: u64) -> Self {
        self.work_hint = hint;
        self
    }

    /// Sets the static-placement key.
    pub fn affinity(mut self, key: u64) -> Self {
        self.affinity = key;
        self
    }

    /// The region id of the first shared input, if any (the dispatcher's
    /// multicast-grouping key).
    pub fn shared_region(&self) -> Option<RegionId> {
        self.inputs.iter().find_map(|b| match b {
            InputBinding::Shared { region, .. } => Some(*region),
            _ => None,
        })
    }

    /// Pipes this task consumes.
    pub fn input_pipes(&self) -> impl Iterator<Item = PipeId> + '_ {
        self.inputs.iter().filter_map(|b| match b {
            InputBinding::Pipe(p) => Some(*p),
            _ => None,
        })
    }

    /// Pipes this task produces.
    pub fn output_pipes(&self) -> impl Iterator<Item = PipeId> + '_ {
        self.outputs.iter().filter_map(|b| match b {
            OutputBinding::Pipe(p) => Some(*p),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_hint_defaults_to_input_elements() {
        let t = TaskInstance::new(TaskTypeId(0))
            .input_stream(StreamDesc::dram(0, 10))
            .input_stream(StreamDesc::iota(0, 1, 5));
        assert_eq!(t.work_hint, 15);
    }

    #[test]
    fn work_hint_override_wins() {
        let t = TaskInstance::new(TaskTypeId(0))
            .input_stream(StreamDesc::dram(0, 10))
            .work_hint(3);
        assert_eq!(t.work_hint, 3);
    }

    #[test]
    fn shared_region_found() {
        let t = TaskInstance::new(TaskTypeId(1))
            .input_stream(StreamDesc::dram(0, 4))
            .input_shared(StreamDesc::dram(100, 8), RegionId(9));
        assert_eq!(t.shared_region(), Some(RegionId(9)));
        let u = TaskInstance::new(TaskTypeId(1)).input_stream(StreamDesc::dram(0, 4));
        assert_eq!(u.shared_region(), None);
    }

    #[test]
    fn pipe_enumeration() {
        let t = TaskInstance::new(TaskTypeId(0))
            .input_pipe(PipeId(1))
            .input_stream(StreamDesc::dram(0, 2))
            .output_pipe(PipeId(2))
            .output_discard();
        assert_eq!(t.input_pipes().collect::<Vec<_>>(), vec![PipeId(1)]);
        assert_eq!(t.output_pipes().collect::<Vec<_>>(), vec![PipeId(2)]);
    }

    #[test]
    fn known_len_for_bindings() {
        assert_eq!(
            InputBinding::Stream(StreamDesc::dram(0, 7)).known_len(),
            Some(7)
        );
        assert_eq!(InputBinding::Pipe(PipeId(0)).known_len(), None);
    }
}
