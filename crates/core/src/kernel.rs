//! Task kernels: what a task's body computes and how long it takes.

use crate::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use ts_dfg::Dfg;

/// The body of a task type.
///
/// Most kernels are dataflow graphs executed fully pipelined on the
/// CGRA. Computations whose *consumption pattern* is data-dependent
/// (e.g. a two-way merge, which decides per cycle which input to pop)
/// cannot be expressed with static-rate dataflow firing; those provide a
/// [`NativeKernel`]: an exact functional model plus an element-rate cost
/// model. This mirrors the paper family's "systolic + tagged" split and
/// is documented as a substitution in DESIGN.md.
#[derive(Clone)]
pub enum TaskKernel {
    /// A dataflow graph mapped onto the fabric.
    Dfg(Arc<Dfg>),
    /// A stateful kernel with a native functional + cost model.
    Native(Arc<dyn NativeKernel>),
}

impl TaskKernel {
    /// Creates a DFG kernel.
    pub fn dfg(dfg: Dfg) -> Self {
        TaskKernel::Dfg(Arc::new(dfg))
    }

    /// Creates a native kernel.
    pub fn native(kernel: impl NativeKernel + 'static) -> Self {
        TaskKernel::Native(Arc::new(kernel))
    }

    /// Kernel name (for reports).
    pub fn name(&self) -> &str {
        match self {
            TaskKernel::Dfg(d) => d.name(),
            TaskKernel::Native(n) => n.name(),
        }
    }

    /// Number of input stream ports.
    pub fn input_count(&self) -> usize {
        match self {
            TaskKernel::Dfg(d) => d.input_count(),
            TaskKernel::Native(n) => n.input_count(),
        }
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        match self {
            TaskKernel::Dfg(d) => d.output_count(),
            TaskKernel::Native(n) => n.output_count(),
        }
    }
}

impl fmt::Debug for TaskKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKernel::Dfg(d) => write!(f, "TaskKernel::Dfg({})", d.name()),
            TaskKernel::Native(n) => write!(f, "TaskKernel::Native({})", n.name()),
        }
    }
}

/// Hashes what the kernel computes, so a content hash of a program sees
/// every kernel difference: a DFG kernel hashes its whole graph (name,
/// every node's op and operands, its ports), a native kernel its name.
/// Native kernels are code, not data (see [`NativeKernel`]), so the
/// name is all of their identity a value can carry.
impl Hash for TaskKernel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            TaskKernel::Dfg(dfg) => {
                state.write_u8(0);
                dfg.hash(state);
            }
            TaskKernel::Native(native) => {
                state.write_u8(1);
                native.name().hash(state);
            }
        }
    }
}

/// Functional + timing outcome of running a native kernel once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeOutcome {
    /// One value vector per output port.
    pub outputs: Vec<Vec<Value>>,
    /// Fabric-busy cycles the execution takes once its inputs are
    /// available (the tile model overlaps this with input streaming at
    /// the kernel's average element rate).
    pub compute_cycles: u64,
}

/// A kernel with data-dependent control, modelled natively.
///
/// Implementations must be deterministic: `run` is called exactly once
/// per task instance, at dispatch, and both the functional result and
/// the cycle cost must depend only on `params` and `inputs`.
///
/// A kernel's name is its identity in program hashes, so an
/// implementation carries no configuration of its own: anything that
/// varies between tasks travels in `params`.
pub trait NativeKernel: Send + Sync {
    /// Kernel name (for reports).
    fn name(&self) -> &str;

    /// Number of input stream ports.
    fn input_count(&self) -> usize;

    /// Number of output ports.
    fn output_count(&self) -> usize;

    /// Executes the kernel over fully materialized input streams.
    fn run(&self, params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome;
}

/// A ready-made native kernel: the streaming two-way merge used by
/// merge sort. Merges two sorted input streams into one sorted output,
/// at one comparison (and one output element) per cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeKernel;

impl NativeKernel for MergeKernel {
    fn name(&self) -> &str {
        "merge2"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn output_count(&self) -> usize {
        1
    }

    fn run(&self, _params: &[Value], inputs: &[Vec<Value>]) -> NativeOutcome {
        let (a, b) = (&inputs[0], &inputs[1]);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        let cycles = out.len() as u64;
        NativeOutcome {
            outputs: vec![out],
            compute_cycles: cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_dfg::DfgBuilder;

    #[test]
    fn merge_kernel_merges_sorted_runs() {
        let k = MergeKernel;
        let r = k.run(&[], &[vec![1, 4, 6], vec![2, 3, 9]]);
        assert_eq!(r.outputs[0], vec![1, 2, 3, 4, 6, 9]);
        assert_eq!(r.compute_cycles, 6);
    }

    #[test]
    fn merge_kernel_handles_empty_side() {
        let k = MergeKernel;
        let r = k.run(&[], &[vec![], vec![5, 6]]);
        assert_eq!(r.outputs[0], vec![5, 6]);
    }

    #[test]
    fn kernel_counts_delegate() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        b.output(x);
        let dk = TaskKernel::dfg(b.finish().unwrap());
        assert_eq!(dk.input_count(), 1);
        assert_eq!(dk.output_count(), 1);
        assert_eq!(dk.name(), "k");

        let nk = TaskKernel::native(MergeKernel);
        assert_eq!(nk.input_count(), 2);
        assert_eq!(nk.name(), "merge2");
    }

    #[test]
    fn debug_formats_name() {
        let nk = TaskKernel::native(MergeKernel);
        assert!(format!("{nk:?}").contains("merge2"));
    }
}
