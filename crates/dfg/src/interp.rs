//! Functional interpreter with exact firing semantics.
//!
//! The interpreter is the single source of functional truth in the
//! workspace: the cycle-level fabric model calls into it to compute the
//! *values* a task produces, while computing *timing* from the mapping.
//! It is also the oracle the property tests compare against.

use crate::graph::{Dfg, OutputMode};
use crate::op::Op;
use crate::Value;
use std::fmt;

/// Result of executing a [`Dfg`] over input streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// One vector per output port, in port order.
    pub outputs: Vec<Vec<Value>>,
    /// Number of firings performed (shortest input stream length).
    pub firings: u64,
}

/// Errors from [`execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Fewer input streams were supplied than the graph has input ports.
    MissingInput {
        /// Input ports the graph declares.
        expected: usize,
        /// Streams supplied.
        got: usize,
    },
    /// Fewer scalar parameters were supplied than the graph references.
    MissingParam {
        /// Parameters the graph references.
        expected: usize,
        /// Parameters supplied.
        got: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingInput { expected, got } => {
                write!(
                    f,
                    "graph has {expected} input ports but {got} streams supplied"
                )
            }
            ExecError::MissingParam { expected, got } => {
                write!(f, "graph references {expected} params but {got} supplied")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// An [`ExecResult`] plus, per output port, the firing index at which
/// each emitted value left the fabric — what the cycle-level tile model
/// needs to meter output timing of predicated ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedResult {
    /// The functional result.
    pub result: ExecResult,
    /// `emit_firings[port][k]` is the zero-based firing that produced
    /// `result.outputs[port][k]`.
    pub emit_firings: Vec<Vec<u64>>,
}

/// Executes a graph over the given scalar parameters and input streams.
///
/// The number of firings is the length of the *shortest* input stream
/// (zero-input graphs fire zero times — feed an index stream to drive
/// generator-style kernels). Stateful nodes start from zero state.
///
/// # Errors
///
/// Returns [`ExecError`] if fewer streams or parameters are supplied than
/// the graph requires. Extra streams/parameters are ignored.
///
/// # Examples
///
/// ```
/// use ts_dfg::{DfgBuilder, interp};
///
/// let mut b = DfgBuilder::new("scale");
/// let x = b.input();
/// let k = b.param(0);
/// let y = b.mul(x, k);
/// b.output(y);
/// let g = b.finish().unwrap();
///
/// let r = interp::execute(&g, &[3], &[vec![1, 2, 3]]).unwrap();
/// assert_eq!(r.outputs[0], vec![3, 6, 9]);
/// ```
pub fn execute(
    dfg: &Dfg,
    params: &[Value],
    inputs: &[Vec<Value>],
) -> Result<ExecResult, ExecError> {
    execute_traced(dfg, params, inputs).map(|t| t.result)
}

/// Like [`execute`], additionally reporting the firing index of every
/// emitted output value.
///
/// # Errors
///
/// Same conditions as [`execute`].
#[allow(clippy::needless_range_loop)] // `firing` indexes several parallel streams
pub fn execute_traced(
    dfg: &Dfg,
    params: &[Value],
    inputs: &[Vec<Value>],
) -> Result<TracedResult, ExecError> {
    if inputs.len() < dfg.input_count() {
        return Err(ExecError::MissingInput {
            expected: dfg.input_count(),
            got: inputs.len(),
        });
    }
    if params.len() < dfg.param_count() {
        return Err(ExecError::MissingParam {
            expected: dfg.param_count(),
            got: params.len(),
        });
    }

    let firings = if dfg.input_count() == 0 {
        0
    } else {
        (0..dfg.input_count())
            .map(|p| inputs[p].len())
            .min()
            .unwrap_or(0)
    };

    let n = dfg.node_count();
    let mut values = vec![0 as Value; n];
    let mut acc_state = vec![0 as Value; n];
    let mut outputs: Vec<Vec<Value>> = vec![Vec::new(); dfg.output_count()];
    let mut emit_firings: Vec<Vec<u64>> = vec![Vec::new(); dfg.output_count()];

    for firing in 0..firings {
        let last_firing = firing + 1 == firings;
        for id in dfg.node_ids() {
            let op = dfg.op(id);
            let v = match op {
                Op::Input(port) => inputs[port][firing],
                Op::Const(c) => c,
                Op::Param(p) => params[p],
                Op::FiringIdx => firing as Value,
                Op::Acc => {
                    let x = values[dfg.operands(id)[0].index()];
                    acc_state[id.index()] = acc_state[id.index()].wrapping_add(x);
                    acc_state[id.index()]
                }
                Op::AccGate => {
                    let ops = dfg.operands(id);
                    let x = values[ops[0].index()];
                    let lastf = values[ops[1].index()];
                    let sum = acc_state[id.index()].wrapping_add(x);
                    if lastf != 0 {
                        acc_state[id.index()] = 0;
                    } else {
                        acc_state[id.index()] = sum;
                    }
                    sum
                }
                _ => {
                    // arity is at most three and `eval` reads a missing
                    // operand as zero, so a zero-padded stack array
                    // stands in for a per-op heap vector
                    let mut operand_vals = [0 as Value; 3];
                    for (slot, o) in operand_vals.iter_mut().zip(dfg.operands(id)) {
                        *slot = values[o.index()];
                    }
                    op.eval(&operand_vals)
                }
            };
            values[id.index()] = v;
        }

        for (port, spec) in dfg.outputs().iter().enumerate() {
            let emit = match spec.mode {
                OutputMode::EveryFiring => true,
                OutputMode::Predicated(p) => values[p.index()] != 0,
                OutputMode::OnLast => last_firing,
            };
            if emit {
                outputs[port].push(values[spec.node.index()]);
                emit_firings[port].push(firing as u64);
            }
        }
    }

    Ok(TracedResult {
        result: ExecResult {
            outputs,
            firings: firings as u64,
        },
        emit_firings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn scale_graph() -> Dfg {
        let mut b = DfgBuilder::new("scale");
        let x = b.input();
        let k = b.param(0);
        let y = b.mul(x, k);
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn dense_output_every_firing() {
        let g = scale_graph();
        let r = execute(&g, &[2], &[vec![1, 2, 3]]).unwrap();
        assert_eq!(r.outputs[0], vec![2, 4, 6]);
        assert_eq!(r.firings, 3);
    }

    #[test]
    fn firings_follow_shortest_stream() {
        let mut b = DfgBuilder::new("zip");
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        b.output(s);
        let g = b.finish().unwrap();
        let r = execute(&g, &[], &[vec![1, 2, 3, 4], vec![10, 20]]).unwrap();
        assert_eq!(r.outputs[0], vec![11, 22]);
        assert_eq!(r.firings, 2);
    }

    #[test]
    fn predicated_output_filters() {
        let mut b = DfgBuilder::new("filter_pos");
        let x = b.input();
        let zero = b.constant(0);
        let pos = b.lt(zero, x);
        b.output_when(x, pos);
        let g = b.finish().unwrap();
        let r = execute(&g, &[], &[vec![-1, 5, 0, 7]]).unwrap();
        assert_eq!(r.outputs[0], vec![5, 7]);
    }

    #[test]
    fn on_last_output_reduces() {
        let mut b = DfgBuilder::new("sum");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        let g = b.finish().unwrap();
        let r = execute(&g, &[], &[vec![1, 2, 3, 4]]).unwrap();
        assert_eq!(r.outputs[0], vec![10]);
    }

    #[test]
    fn acc_gate_segments() {
        let mut b = DfgBuilder::new("segsum");
        let x = b.input();
        let last = b.input();
        let s = b.acc_gate(x, last);
        b.output_when(s, last);
        let g = b.finish().unwrap();
        let r = execute(&g, &[], &[vec![1, 2, 3, 4, 5], vec![0, 1, 0, 0, 1]]).unwrap();
        assert_eq!(r.outputs[0], vec![3, 12]); // 1+2 then 3+4+5
    }

    #[test]
    fn firing_idx_counts() {
        let mut b = DfgBuilder::new("iota");
        let _x = b.input();
        let i = b.firing_idx();
        b.output(i);
        let g = b.finish().unwrap();
        let r = execute(&g, &[], &[vec![9, 9, 9]]).unwrap();
        assert_eq!(r.outputs[0], vec![0, 1, 2]);
    }

    #[test]
    fn empty_stream_fires_zero() {
        let g = scale_graph();
        let r = execute(&g, &[1], &[vec![]]).unwrap();
        assert!(r.outputs[0].is_empty());
        assert_eq!(r.firings, 0);
    }

    #[test]
    fn missing_input_rejected() {
        let g = scale_graph();
        assert!(matches!(
            execute(&g, &[1], &[]),
            Err(ExecError::MissingInput {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn missing_param_rejected() {
        let g = scale_graph();
        assert!(matches!(
            execute(&g, &[], &[vec![1]]),
            Err(ExecError::MissingParam {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn state_resets_between_executions() {
        let mut b = DfgBuilder::new("sum");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        let g = b.finish().unwrap();
        let r1 = execute(&g, &[], &[vec![1, 1]]).unwrap();
        let r2 = execute(&g, &[], &[vec![1, 1]]).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
    }
}
