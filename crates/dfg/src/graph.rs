//! Graph structure, builder and validation.

use crate::op::{FuClass, Op};
use crate::Value;
use std::fmt;

/// Identifier of a node within one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in construction (topological) order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A value edge from `from`'s output to operand `operand` of `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Operand slot on the consumer.
    pub operand: usize,
}

/// When an output port emits a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputMode {
    /// Emit on every firing (dense output).
    EveryFiring,
    /// Emit only on firings where the predicate node is non-zero
    /// (filtered output — joins, frontier expansion).
    Predicated(NodeId),
    /// Emit only on the last firing of the execution (reductions).
    OnLast,
}

/// One output port: which node feeds it and when it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputSpec {
    /// Node whose value is emitted.
    pub node: NodeId,
    /// Emission rule.
    pub mode: OutputMode,
}

/// Errors produced while building or validating a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// A node references an operand node id that does not exist.
    UnknownNode(NodeId),
    /// A node has the wrong number of operands for its op.
    BadArity {
        /// Offending node.
        node: NodeId,
        /// Operands expected by the op.
        expected: usize,
        /// Operands actually supplied.
        got: usize,
    },
    /// The graph contains a combinational cycle.
    Cyclic,
    /// The graph declares no output ports.
    NoOutputs,
    /// An operand edge points forward to a node defined later, which the
    /// builder forbids (nodes must be created in topological order).
    ForwardReference {
        /// Consumer node.
        node: NodeId,
        /// Referenced (not yet defined) operand.
        operand: NodeId,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::UnknownNode(n) => write!(f, "unknown node {n}"),
            DfgError::BadArity {
                node,
                expected,
                got,
            } => {
                write!(f, "node {node} expects {expected} operands, got {got}")
            }
            DfgError::Cyclic => write!(f, "graph contains a combinational cycle"),
            DfgError::NoOutputs => write!(f, "graph declares no output ports"),
            DfgError::ForwardReference { node, operand } => {
                write!(f, "node {node} references later node {operand}")
            }
        }
    }
}

impl std::error::Error for DfgError {}

#[derive(Debug, Clone, Hash)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) operands: Vec<NodeId>,
}

/// An immutable, validated dataflow graph.
///
/// Construct via [`DfgBuilder`]. Once built, a `Dfg` is shared freely
/// (it is cheap to clone and internally immutable) between the
/// interpreter, the CGRA mapper and the task model.
///
/// `Hash` covers the whole structure — name, every node's op (constants
/// included) and operands, the ports — so a result cache keyed on it
/// tells apart two kernels that differ in a single constant.
#[derive(Debug, Clone, Hash)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    input_ports: Vec<NodeId>,
    outputs: Vec<OutputSpec>,
    param_count: usize,
}

impl Dfg {
    /// Human-readable kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (including free const/param nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stream input ports.
    pub fn input_count(&self) -> usize {
        self.input_ports.len()
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of scalar parameters referenced.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Output port specifications.
    pub fn outputs(&self) -> &[OutputSpec] {
        &self.outputs
    }

    /// The op of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn op(&self, id: NodeId) -> Op {
        self.nodes[id.0].op
    }

    /// The operand nodes of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn operands(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].operands
    }

    /// All node ids in topological (construction) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// All value edges of the graph.
    pub fn edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (slot, &src) in node.operands.iter().enumerate() {
                edges.push(Edge {
                    from: src,
                    to: NodeId(i),
                    operand: slot,
                });
            }
        }
        edges
    }

    /// Nodes that require a functional unit on the fabric (everything
    /// except inputs, constants, and parameters).
    pub fn compute_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.op(id).fu_class() != FuClass::None && !self.op(id).is_input())
    }

    /// Longest combinational path in ops, a lower bound on the fabric
    /// pipeline depth.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let base = node.operands.iter().map(|o| d[o.0]).max().unwrap_or(0);
            let cost = usize::from(self.nodes[i].op.fu_class() != FuClass::None);
            d[i] = base + cost;
        }
        d.into_iter().max().unwrap_or(0)
    }

    /// Renders the graph in GraphViz DOT format — handy for inspecting
    /// kernels while developing workloads (`dot -Tsvg kernel.dot`).
    ///
    /// # Examples
    ///
    /// ```
    /// use ts_dfg::DfgBuilder;
    /// let mut b = DfgBuilder::new("k");
    /// let x = b.input();
    /// let y = b.abs(x);
    /// b.output(y);
    /// let dot = b.finish().unwrap().to_dot();
    /// assert!(dot.contains("digraph"));
    /// assert!(dot.contains("abs"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontname=monospace];");
        for id in self.node_ids() {
            let op = self.op(id);
            let shape = if op.is_input() {
                ", shape=invhouse, style=filled, fillcolor=lightblue"
            } else if op.is_free() {
                ", shape=ellipse, style=dashed"
            } else if op.is_stateful() {
                ", style=filled, fillcolor=lightyellow"
            } else {
                ""
            };
            let _ = writeln!(out, "  {id} [label=\"{id}: {op}\"{shape}];");
        }
        for e in self.edges() {
            let _ = writeln!(out, "  {} -> {} [label=\"{}\"];", e.from, e.to, e.operand);
        }
        for (port, spec) in self.outputs().iter().enumerate() {
            let mode = match spec.mode {
                OutputMode::EveryFiring => "every".to_owned(),
                OutputMode::Predicated(p) => format!("when {p}"),
                OutputMode::OnLast => "last".to_owned(),
            };
            let _ = writeln!(
                out,
                "  out{port} [shape=house, style=filled, fillcolor=lightgreen, label=\"out{port} ({mode})\"];"
            );
            let _ = writeln!(out, "  {} -> out{port};", spec.node);
            if let OutputMode::Predicated(p) = spec.mode {
                let _ = writeln!(out, "  {p} -> out{port} [style=dotted];");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Count of nodes per functional-unit class `(alu, muldiv)`.
    pub fn fu_demand(&self) -> (usize, usize) {
        let mut alu = 0;
        let mut muldiv = 0;
        for id in self.node_ids() {
            match self.op(id).fu_class() {
                FuClass::Alu => alu += 1,
                FuClass::MulDiv => muldiv += 1,
                FuClass::None => {}
            }
        }
        (alu, muldiv)
    }
}

/// Builder for [`Dfg`] values.
///
/// Nodes must be created in topological order (operands before users),
/// which the builder enforces; [`DfgBuilder::finish`] runs the remaining
/// validation (arity, outputs present).
///
/// # Examples
///
/// ```
/// use ts_dfg::DfgBuilder;
///
/// let mut b = DfgBuilder::new("axpy");
/// let x = b.input();
/// let y = b.input();
/// let a = b.param(0);
/// let ax = b.mul(a, x);
/// let r = b.add(ax, y);
/// b.output(r);
/// let dfg = b.finish().unwrap();
/// assert_eq!(dfg.input_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    input_ports: Vec<NodeId>,
    outputs: Vec<OutputSpec>,
    max_param: Option<usize>,
    error: Option<DfgError>,
}

impl DfgBuilder {
    /// Starts building a graph with the given kernel name.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder {
            name: name.into(),
            nodes: Vec::new(),
            input_ports: Vec::new(),
            outputs: Vec::new(),
            max_param: None,
            error: None,
        }
    }

    fn push(&mut self, op: Op, operands: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        if self.error.is_none() {
            if operands.len() != op.arity() {
                self.error = Some(DfgError::BadArity {
                    node: id,
                    expected: op.arity(),
                    got: operands.len(),
                });
            }
            if let Some(&fwd) = operands.iter().find(|o| o.0 >= id.0) {
                self.error = Some(DfgError::ForwardReference {
                    node: id,
                    operand: fwd,
                });
            }
        }
        self.nodes.push(Node { op, operands });
        id
    }

    /// Adds the next stream input port (ports are numbered in call order).
    pub fn input(&mut self) -> NodeId {
        let port = self.input_ports.len();
        let id = self.push(Op::Input(port), vec![]);
        self.input_ports.push(id);
        id
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: Value) -> NodeId {
        self.push(Op::Const(value), vec![])
    }

    /// Adds a scalar-parameter node for parameter `index`.
    pub fn param(&mut self, index: usize) -> NodeId {
        self.max_param = Some(self.max_param.map_or(index, |m| m.max(index)));
        self.push(Op::Param(index), vec![])
    }

    /// Adds a generic node.
    pub fn node(&mut self, op: Op, operands: &[NodeId]) -> NodeId {
        self.push(op, operands.to_vec())
    }

    /// Declares an output port emitting `node` every firing.
    pub fn output(&mut self, node: NodeId) -> usize {
        self.outputs.push(OutputSpec {
            node,
            mode: OutputMode::EveryFiring,
        });
        self.outputs.len() - 1
    }

    /// Declares an output port emitting `node` when `pred` is non-zero.
    pub fn output_when(&mut self, node: NodeId, pred: NodeId) -> usize {
        self.outputs.push(OutputSpec {
            node,
            mode: OutputMode::Predicated(pred),
        });
        self.outputs.len() - 1
    }

    /// Declares an output port emitting `node` only on the final firing.
    pub fn output_on_last(&mut self, node: NodeId) -> usize {
        self.outputs.push(OutputSpec {
            node,
            mode: OutputMode::OnLast,
        });
        self.outputs.len() - 1
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns the first structural error recorded during building, or
    /// [`DfgError::NoOutputs`] / [`DfgError::UnknownNode`] discovered at
    /// finish time.
    pub fn finish(self) -> Result<Dfg, DfgError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.outputs.is_empty() {
            return Err(DfgError::NoOutputs);
        }
        let n = self.nodes.len();
        for spec in &self.outputs {
            if spec.node.0 >= n {
                return Err(DfgError::UnknownNode(spec.node));
            }
            if let OutputMode::Predicated(p) = spec.mode {
                if p.0 >= n {
                    return Err(DfgError::UnknownNode(p));
                }
            }
        }
        Ok(Dfg {
            name: self.name,
            nodes: self.nodes,
            input_ports: self.input_ports,
            outputs: self.outputs,
            param_count: self.max_param.map_or(0, |m| m + 1),
        })
    }
}

macro_rules! binop_method {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        impl DfgBuilder {
            $(#[$doc])*
            pub fn $name(&mut self, a: NodeId, b: NodeId) -> NodeId {
                self.push($op, vec![a, b])
            }
        }
    };
}

binop_method!(
    /// Adds an addition node.
    add, Op::Add
);
binop_method!(
    /// Adds a subtraction node.
    sub, Op::Sub
);
binop_method!(
    /// Adds a multiplication node.
    mul, Op::Mul
);
binop_method!(
    /// Adds a division node (`x / 0 == 0`).
    div, Op::Div
);
binop_method!(
    /// Adds a remainder node (`x % 0 == 0`).
    rem, Op::Rem
);
binop_method!(
    /// Adds a minimum node.
    min, Op::Min
);
binop_method!(
    /// Adds a maximum node.
    max, Op::Max
);
binop_method!(
    /// Adds a bitwise-AND node.
    and, Op::And
);
binop_method!(
    /// Adds a bitwise-OR node.
    or, Op::Or
);
binop_method!(
    /// Adds a bitwise-XOR node.
    xor, Op::Xor
);
binop_method!(
    /// Adds a left-shift node.
    shl, Op::Shl
);
binop_method!(
    /// Adds an arithmetic right-shift node.
    shr, Op::Shr
);
binop_method!(
    /// Adds a less-than comparison node.
    lt, Op::Lt
);
binop_method!(
    /// Adds a less-or-equal comparison node.
    le, Op::Le
);
binop_method!(
    /// Adds an equality comparison node.
    eq, Op::Eq
);
binop_method!(
    /// Adds an inequality comparison node.
    ne, Op::Ne
);

impl DfgBuilder {
    /// Adds an absolute-value node.
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Abs, vec![a])
    }

    /// Adds a bitwise-NOT node.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Not, vec![a])
    }

    /// Adds a select node: `sel != 0 ? if_true : if_false`.
    pub fn select(&mut self, sel: NodeId, if_true: NodeId, if_false: NodeId) -> NodeId {
        self.push(Op::Select, vec![sel, if_true, if_false])
    }

    /// Adds a running accumulator over `value`.
    pub fn acc(&mut self, value: NodeId) -> NodeId {
        self.push(Op::Acc, vec![value])
    }

    /// Adds a segmented accumulator: resets after firings where `last`
    /// is non-zero.
    pub fn acc_gate(&mut self, value: NodeId, last: NodeId) -> NodeId {
        self.push(Op::AccGate, vec![value, last])
    }

    /// Adds a firing-index counter node.
    pub fn firing_idx(&mut self) -> NodeId {
        self.push(Op::FiringIdx, vec![])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_valid_graph() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        let c = b.constant(2);
        let y = b.mul(x, c);
        b.output(y);
        let g = b.finish().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.input_count(), 1);
        assert_eq!(g.output_count(), 1);
        assert_eq!(g.depth(), 1);
    }

    #[test]
    fn no_outputs_is_error() {
        let mut b = DfgBuilder::new("k");
        let _ = b.input();
        assert_eq!(b.finish().unwrap_err(), DfgError::NoOutputs);
    }

    #[test]
    fn forward_reference_is_error() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        // reference a node id that doesn't exist yet
        let bogus = NodeId(10);
        let _ = b.node(Op::Add, &[x, bogus]);
        b.output(x);
        assert!(matches!(
            b.finish().unwrap_err(),
            DfgError::ForwardReference { .. }
        ));
    }

    #[test]
    fn bad_arity_is_error() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        let _ = b.node(Op::Add, &[x]);
        b.output(x);
        assert!(matches!(b.finish().unwrap_err(), DfgError::BadArity { .. }));
    }

    #[test]
    fn output_pred_out_of_range_is_error() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        b.output_when(x, NodeId(99));
        assert!(matches!(b.finish().unwrap_err(), DfgError::UnknownNode(_)));
    }

    #[test]
    fn depth_of_chain() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        let mut cur = x;
        for _ in 0..5 {
            let one = b.constant(1);
            cur = b.add(cur, one);
        }
        b.output(cur);
        let g = b.finish().unwrap();
        assert_eq!(g.depth(), 5);
    }

    #[test]
    fn fu_demand_counts_classes() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        let y = b.input();
        let m = b.mul(x, y);
        let s = b.add(m, x);
        b.output(s);
        let g = b.finish().unwrap();
        assert_eq!(g.fu_demand(), (1, 1));
    }

    #[test]
    fn edges_enumerate_operand_slots() {
        let mut b = DfgBuilder::new("k");
        let x = b.input();
        let y = b.input();
        let s = b.sub(x, y);
        b.output(s);
        let g = b.finish().unwrap();
        let edges = g.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].operand, 0);
        assert_eq!(edges[1].operand, 1);
        assert_eq!(edges[0].from, x);
        assert_eq!(edges[1].from, y);
    }

    #[test]
    fn param_count_tracks_max_index() {
        let mut b = DfgBuilder::new("k");
        let p = b.param(3);
        b.output(p);
        let g = b.finish().unwrap();
        assert_eq!(g.param_count(), 4);
    }
}
