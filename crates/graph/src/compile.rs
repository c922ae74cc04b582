//! Lowering: [`GraphSpec`] → [`CompiledGraph`] (a
//! [`taskstream_model::Program`]).
//!
//! The compiler expands every static stage (`PerElement`, `Tree`) into
//! concrete [`TaskInstance`]s and pipe declarations up front — in the
//! spec's emission order, allocating each producer's pipe immediately
//! before its task so pipe ids and spawn order are deterministic
//! functions of the spec — and validates the whole structure (edge
//! typing, kernel arity, one-to-one counts, tree shapes) so a spec
//! defect is a [`GraphError`] at compile time, not a wedged simulation.
//! `DataDependent` stages stay symbolic: their readiness functions run
//! from `on_complete`, spawning instances bound on demand.

use crate::spec::{
    BindFn, Ctx, Edge, Emission, GraphSpec, InputSlot, Link, OutputSlot, ReadyFn, SpawnRule, Stage,
    TaskSketch,
};
use std::collections::HashMap;
use std::fmt;
use taskstream_model::{
    CompletedTask, MemoryImage, PipeDecl, PipeId, Program, RegionId, Spawner, TaskInstance,
    TaskType, TaskTypeId, Value,
};

/// A structural defect in a [`GraphSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The spec has no stages.
    Empty,
    /// An edge is malformed (endpoints, typing, or counts).
    BadEdge {
        /// Producer stage index.
        from: usize,
        /// Consumer stage index.
        to: usize,
        /// What is wrong.
        why: String,
    },
    /// A stage is malformed (spawn rule or edge environment).
    BadStage {
        /// Stage name.
        stage: String,
        /// What is wrong.
        why: String,
    },
    /// A binding function produced an invalid sketch.
    BadSketch {
        /// Stage name.
        stage: String,
        /// Instance emission index.
        index: usize,
        /// What is wrong.
        why: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph spec has no stages"),
            GraphError::BadEdge { from, to, why } => {
                write!(f, "edge {from} -> {to}: {why}")
            }
            GraphError::BadStage { stage, why } => write!(f, "stage `{stage}`: {why}"),
            GraphError::BadSketch { stage, index, why } => {
                write!(f, "stage `{stage}` instance {index}: {why}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A runtime-spawned (`DataDependent`) stage's compiled form.
struct DynStage {
    ty: TaskTypeId,
    name: String,
    bind: BindFn,
    ready: ReadyFn,
    state: Vec<Value>,
    input_arity: usize,
    output_arity: usize,
}

/// The compiled program: precomputed initial tasks and pipes plus the
/// runtime spawning rules. Implements [`Program`], so it runs on the
/// simulator, oracle, tracer, what-if profiler and tenancy layers
/// unchanged.
pub struct CompiledGraph {
    name: String,
    types: Vec<TaskType>,
    memory: MemoryImage,
    initial_tasks: Vec<TaskInstance>,
    initial_pipes: Vec<PipeDecl>,
    dynamic: Vec<Option<DynStage>>,
    /// For each stage index: the `DataDependent` stages its
    /// completions trigger (over staged edges), in edge order.
    triggers: Vec<Vec<usize>>,
}

impl fmt::Debug for CompiledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledGraph")
            .field("name", &self.name)
            .field("types", &self.types.len())
            .field("initial_tasks", &self.initial_tasks.len())
            .field("initial_pipes", &self.initial_pipes.len())
            .finish_non_exhaustive()
    }
}

impl Program for CompiledGraph {
    fn name(&self) -> &str {
        &self.name
    }

    fn task_types(&self) -> Vec<TaskType> {
        self.types.clone()
    }

    fn memory_image(&self) -> MemoryImage {
        self.memory.clone()
    }

    fn initial(&mut self, s: &mut Spawner) {
        for decl in &self.initial_pipes {
            let id = s.pipe(decl.capacity_hint);
            debug_assert_eq!(id, decl.id, "pipe replay out of order");
        }
        for t in &self.initial_tasks {
            s.spawn(t.clone());
        }
    }

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        if done.ty.0 >= self.triggers.len() || self.triggers[done.ty.0].is_empty() {
            return;
        }
        let targets = self.triggers[done.ty.0].clone();
        for target in targets {
            let d = self.dynamic[target]
                .as_mut()
                .expect("staged edge targets a DataDependent stage");
            for index in (d.ready)(done, &mut d.state) {
                let ctx = Ctx {
                    index,
                    level: 0,
                    pos: index,
                    width: 0,
                    is_root: false,
                };
                let sketch = (d.bind)(ctx);
                let t = build_dynamic(d, index, sketch);
                s.spawn(t);
            }
        }
    }
}

/// Builds a runtime-spawned instance; panics on sketch defects (the
/// `Program` callbacks cannot surface errors, and a defective dynamic
/// sketch is a workload bug the tests must catch).
fn build_dynamic(d: &DynStage, index: usize, sketch: TaskSketch) -> TaskInstance {
    assert_eq!(
        sketch.inputs.len(),
        d.input_arity,
        "stage `{}` instance {index}: {} input slot(s) for a {}-input kernel",
        d.name,
        sketch.inputs.len(),
        d.input_arity,
    );
    assert_eq!(
        sketch.outputs.len(),
        d.output_arity,
        "stage `{}` instance {index}: {} output slot(s) for a {}-output kernel",
        d.name,
        sketch.outputs.len(),
        d.output_arity,
    );
    let mut t = TaskInstance::new(d.ty).params(sketch.params);
    for slot in sketch.inputs {
        t = match slot {
            InputSlot::Stream(desc) => t.input_stream(desc),
            InputSlot::Shared { desc, group } => t.input_shared(desc, RegionId(group.0)),
            InputSlot::Upstream(_) => panic!(
                "stage `{}` instance {index}: runtime-spawned instances cannot bind upstream pipes",
                d.name
            ),
        };
    }
    for slot in sketch.outputs {
        t = match slot {
            OutputSlot::Memory { desc, mode } => t.output_memory(desc, mode),
            OutputSlot::Scatter {
                src,
                base,
                scale,
                addr_port,
                mode,
            } => t.output_scatter(src, base, scale, addr_port, mode),
            OutputSlot::Discard => t.output_discard(),
            OutputSlot::Downstream | OutputSlot::DownstreamCap(_) => panic!(
                "stage `{}` instance {index}: runtime-spawned instances cannot open pipes",
                d.name
            ),
        };
    }
    if let Some(hint) = sketch.work_hint {
        t = t.work_hint(hint);
    }
    t.affinity(sketch.affinity)
}

/// The shape of a static stage's instance expansion.
struct StaticShape {
    /// Total instances.
    count: usize,
    /// Instances per tree level (index 0 = first merge level); empty
    /// for `PerElement`.
    level_widths: Vec<usize>,
    /// Emission offset of each tree level within the stage.
    level_offsets: Vec<usize>,
}

/// The compilation workspace.
struct Compiler<'a> {
    spec: &'a GraphSpec,
    shapes: Vec<Option<StaticShape>>,
    /// Inbound pipe edges per stage, in declaration order.
    in_pipes: Vec<Vec<Edge>>,
    /// Outbound pipe edges per stage, in declaration order.
    out_pipes: Vec<Vec<Edge>>,
    /// Pipe of an emitted producer instance, by (stage, index).
    pipe_of: HashMap<(usize, usize), PipeId>,
    tasks: Vec<TaskInstance>,
    pipes: Vec<PipeDecl>,
}

/// Compiles a [`GraphSpec`] into a runnable [`CompiledGraph`].
///
/// # Errors
///
/// Returns the first structural defect found: malformed edges, spawn
/// rules that do not fit their edge environment, or binding functions
/// whose sketches disagree with their kernels.
pub fn compile(spec: GraphSpec) -> Result<CompiledGraph, GraphError> {
    if spec.stages.is_empty() {
        return Err(GraphError::Empty);
    }
    validate_edges(&spec)?;
    let mut c = Compiler {
        shapes: shapes(&spec)?,
        in_pipes: bucket_edges(&spec, |e| e.to),
        out_pipes: bucket_edges(&spec, |e| e.from),
        pipe_of: HashMap::new(),
        tasks: Vec::new(),
        pipes: Vec::new(),
        spec: &spec,
    };
    match spec.order {
        Emission::StageMajor => {
            for s in 0..spec.stages.len() {
                let Some(count) = c.shapes[s].as_ref().map(|sh| sh.count) else {
                    continue;
                };
                for i in 0..count {
                    c.emit(s, i)?;
                }
            }
        }
        Emission::ElementMajor => {
            let count = element_major_count(&spec)?;
            for i in 0..count {
                for s in 0..spec.stages.len() {
                    if c.shapes[s].is_some() {
                        c.emit(s, i)?;
                    }
                }
            }
        }
    }
    let Compiler { tasks, pipes, .. } = c;
    let mut dynamic: Vec<Option<DynStage>> = Vec::with_capacity(spec.stages.len());
    for (idx, stage) in spec.stages.iter().enumerate() {
        dynamic.push(match &stage.spawn {
            SpawnRule::DataDependent { state, ready } => Some(DynStage {
                ty: TaskTypeId(idx),
                name: stage.name.clone(),
                bind: stage.bind.clone(),
                ready: ready.clone(),
                state: state.clone(),
                input_arity: stage.kernel.input_count(),
                output_arity: stage.kernel.output_count(),
            }),
            _ => None,
        });
    }
    let mut triggers: Vec<Vec<usize>> = vec![Vec::new(); spec.stages.len()];
    for e in &spec.edges {
        if e.link == Link::Staged {
            triggers[e.from].push(e.to);
        }
    }
    Ok(CompiledGraph {
        name: spec.name.clone(),
        types: spec
            .stages
            .iter()
            .map(|s| TaskType::new(s.name.clone(), s.kernel.clone()))
            .collect(),
        memory: spec.memory.clone(),
        initial_tasks: tasks,
        initial_pipes: pipes,
        dynamic,
        triggers,
    })
}

/// Edge-level typing checks (everything knowable without sketches).
fn validate_edges(spec: &GraphSpec) -> Result<(), GraphError> {
    let n = spec.stages.len();
    let bad = |e: &Edge, why: &str| {
        Err(GraphError::BadEdge {
            from: e.from,
            to: e.to,
            why: why.to_string(),
        })
    };
    for e in &spec.edges {
        if e.from >= n || e.to >= n {
            return bad(e, "stage index out of range");
        }
        match e.link {
            Link::Pipe { .. } => {
                if e.from >= e.to {
                    return bad(
                        e,
                        "pipe edges must flow from an earlier stage to a later one",
                    );
                }
                if is_dynamic(&spec.stages[e.from]) || is_dynamic(&spec.stages[e.to]) {
                    return bad(e, "pipe edges require statically spawned stages");
                }
            }
            Link::Staged => {
                if !is_dynamic(&spec.stages[e.to]) {
                    return bad(e, "staged edges must target a DataDependent stage");
                }
            }
        }
    }
    for (idx, stage) in spec.stages.iter().enumerate() {
        if is_dynamic(stage)
            && !spec
                .edges
                .iter()
                .any(|e| e.to == idx && e.link == Link::Staged)
        {
            return Err(GraphError::BadStage {
                stage: stage.name.clone(),
                why: "DataDependent stage has no inbound staged edge to trigger it".into(),
            });
        }
    }
    Ok(())
}

fn is_dynamic(stage: &Stage) -> bool {
    matches!(stage.spawn, SpawnRule::DataDependent { .. })
}

/// Pipe edges per stage keyed by `key`, in declaration order.
fn bucket_edges(spec: &GraphSpec, key: impl Fn(&Edge) -> usize) -> Vec<Vec<Edge>> {
    let mut out = vec![Vec::new(); spec.stages.len()];
    for e in &spec.edges {
        if matches!(e.link, Link::Pipe { .. }) {
            out[key(e)].push(*e);
        }
    }
    out
}

/// Computes every static stage's expansion shape, validating spawn
/// rules against their edge environment.
fn shapes(spec: &GraphSpec) -> Result<Vec<Option<StaticShape>>, GraphError> {
    let in_pipes = bucket_edges(spec, |e| e.to);
    let out_pipes = bucket_edges(spec, |e| e.from);
    let mut shapes: Vec<Option<StaticShape>> = Vec::with_capacity(spec.stages.len());
    for (idx, stage) in spec.stages.iter().enumerate() {
        let err = |why: String| GraphError::BadStage {
            stage: stage.name.clone(),
            why,
        };
        let shape = match &stage.spawn {
            SpawnRule::DataDependent { .. } => None,
            SpawnRule::PerElement { count } => {
                if *count == 0 {
                    return Err(err("PerElement count must be positive".into()));
                }
                for e in &in_pipes[idx] {
                    let up = shapes[e.from]
                        .as_ref()
                        .expect("pipe producers are static (validated)");
                    if up.count != *count {
                        return Err(err(format!(
                            "one-to-one pipe from `{}` has {} producer(s) for {} consumer(s)",
                            spec.stages[e.from].name, up.count, count
                        )));
                    }
                }
                Some(StaticShape {
                    count: *count,
                    level_widths: Vec::new(),
                    level_offsets: Vec::new(),
                })
            }
            SpawnRule::Tree { fanout } => {
                if *fanout < 2 {
                    return Err(err("tree fanout must be at least 2".into()));
                }
                if !out_pipes[idx].is_empty() {
                    return Err(err(
                        "tree stages sink at their root and cannot feed outbound pipes".into(),
                    ));
                }
                let [inbound] = in_pipes[idx].as_slice() else {
                    return Err(err(format!(
                        "tree stages need exactly one inbound pipe edge, found {}",
                        in_pipes[idx].len()
                    )));
                };
                if inbound.from >= idx {
                    return Err(err("tree stages must follow their producer stage".into()));
                }
                let Some(up) = shapes[inbound.from].as_ref() else {
                    return Err(err("tree producers must be statically spawned".into()));
                };
                if !spec.stages[inbound.from].spawn.is_per_element_like() {
                    return Err(err("tree producers must be a PerElement stage".into()));
                }
                let mut widths = Vec::new();
                let mut offsets = Vec::new();
                let mut w = up.count;
                let mut total = 0;
                while w > 1 {
                    if w % fanout != 0 {
                        return Err(err(format!(
                            "producer count {} is not a power of fanout {fanout}",
                            up.count
                        )));
                    }
                    w /= fanout;
                    offsets.push(total);
                    widths.push(w);
                    total += w;
                }
                Some(StaticShape {
                    count: total,
                    level_widths: widths,
                    level_offsets: offsets,
                })
            }
        };
        shapes.push(shape);
    }
    Ok(shapes)
}

impl SpawnRule {
    fn is_per_element_like(&self) -> bool {
        matches!(self, SpawnRule::PerElement { .. })
    }
}

/// The common instance count for element-major emission.
fn element_major_count(spec: &GraphSpec) -> Result<usize, GraphError> {
    let mut common: Option<usize> = None;
    for stage in &spec.stages {
        match &stage.spawn {
            SpawnRule::PerElement { count } => match common {
                None => common = Some(*count),
                Some(c) if c == *count => {}
                Some(c) => {
                    return Err(GraphError::BadStage {
                        stage: stage.name.clone(),
                        why: format!(
                            "element-major emission needs one common count, found {c} and {count}"
                        ),
                    })
                }
            },
            SpawnRule::Tree { .. } => {
                return Err(GraphError::BadStage {
                    stage: stage.name.clone(),
                    why: "element-major emission supports only PerElement stages".into(),
                })
            }
            SpawnRule::DataDependent { .. } => {}
        }
    }
    common.ok_or(GraphError::Empty)
}

impl Compiler<'_> {
    /// Emits static instance `index` of stage `s`: binds its sketch,
    /// resolves upstream pipes, allocates its downstream pipe (if any)
    /// and records the task — all in emission order, so pipe ids and
    /// spawn order are exactly reproducible.
    fn emit(&mut self, s: usize, index: usize) -> Result<(), GraphError> {
        let stage = &self.spec.stages[s];
        let shape = self.shapes[s].as_ref().expect("emit targets static stages");
        let ctx = self.ctx_of(shape, index);
        let sketch = (stage.bind)(ctx);
        let err = |why: String| GraphError::BadSketch {
            stage: stage.name.clone(),
            index,
            why,
        };
        if sketch.inputs.len() != stage.kernel.input_count() {
            return Err(err(format!(
                "{} input slot(s) for a {}-input kernel",
                sketch.inputs.len(),
                stage.kernel.input_count()
            )));
        }
        if sketch.outputs.len() != stage.kernel.output_count() {
            return Err(err(format!(
                "{} output slot(s) for a {}-output kernel",
                sketch.outputs.len(),
                stage.kernel.output_count()
            )));
        }
        let mut t = TaskInstance::new(TaskTypeId(s)).params(sketch.params);
        for slot in sketch.inputs {
            t = match slot {
                InputSlot::Stream(desc) => t.input_stream(desc),
                InputSlot::Shared { desc, group } => {
                    if group.0 >= self.spec.groups {
                        return Err(err(format!(
                            "multicast group {} was never allocated via GraphSpec::group",
                            group.0
                        )));
                    }
                    t.input_shared(desc, RegionId(group.0))
                }
                InputSlot::Upstream(k) => {
                    let pipe = self.upstream_pipe(s, &ctx, k).map_err(&err)?;
                    t.input_pipe(pipe)
                }
            };
        }
        let mut opened = false;
        for slot in sketch.outputs {
            t = match slot {
                OutputSlot::Memory { desc, mode } => t.output_memory(desc, mode),
                OutputSlot::Scatter {
                    src,
                    base,
                    scale,
                    addr_port,
                    mode,
                } => t.output_scatter(src, base, scale, addr_port, mode),
                OutputSlot::Discard => t.output_discard(),
                OutputSlot::Downstream | OutputSlot::DownstreamCap(_) => {
                    if opened {
                        return Err(err("more than one downstream output slot".into()));
                    }
                    opened = true;
                    let capacity = match slot {
                        OutputSlot::DownstreamCap(cap) => cap,
                        _ => self.default_capacity(s, &ctx).map_err(&err)?,
                    };
                    let id = PipeId(self.pipes.len() as u64);
                    self.pipes.push(PipeDecl {
                        id,
                        capacity_hint: capacity,
                    });
                    self.pipe_of.insert((s, index), id);
                    t.output_pipe(id)
                }
            };
        }
        if let Some(hint) = sketch.work_hint {
            t = t.work_hint(hint);
        }
        self.tasks.push(t.affinity(sketch.affinity));
        Ok(())
    }

    fn ctx_of(&self, shape: &StaticShape, index: usize) -> Ctx {
        if shape.level_widths.is_empty() {
            return Ctx {
                index,
                level: 0,
                pos: index,
                width: shape.count,
                is_root: false,
            };
        }
        let level = shape
            .level_offsets
            .iter()
            .rposition(|&off| off <= index)
            .expect("levels start at offset 0");
        Ctx {
            index,
            level: level + 1,
            pos: index - shape.level_offsets[level],
            width: shape.level_widths[level],
            is_root: shape.level_widths[level] == 1,
        }
    }

    /// The pipe feeding input `k` of instance `(s, ctx)`.
    fn upstream_pipe(&self, s: usize, ctx: &Ctx, k: usize) -> Result<PipeId, String> {
        let (src_stage, src_index) = match &self.spec.stages[s].spawn {
            SpawnRule::Tree { fanout } => {
                if k >= *fanout {
                    return Err(format!("upstream slot {k} exceeds tree fanout {fanout}"));
                }
                let child_pos = ctx.pos * fanout + k;
                if ctx.level == 1 {
                    (self.in_pipes[s][0].from, child_pos)
                } else {
                    let shape = self.shapes[s].as_ref().expect("tree shape exists");
                    (s, shape.level_offsets[ctx.level - 2] + child_pos)
                }
            }
            _ => {
                let Some(edge) = self.in_pipes[s].get(k) else {
                    return Err(format!(
                        "upstream slot {k} but only {} inbound pipe edge(s)",
                        self.in_pipes[s].len()
                    ));
                };
                (edge.from, ctx.index)
            }
        };
        self.pipe_of.get(&(src_stage, src_index)).copied().ok_or_else(|| {
            format!(
                "producer `{}` instance {src_index} opened no pipe (emitted later, or sinks to memory?)",
                self.spec.stages[src_stage].name
            )
        })
    }

    /// Default capacity hint for a plain `Downstream` slot: the
    /// outbound pipe edge's hint, or — inside a tree — the inbound
    /// edge's hint.
    fn default_capacity(&self, s: usize, ctx: &Ctx) -> Result<u64, String> {
        let edge = match &self.spec.stages[s].spawn {
            SpawnRule::Tree { .. } if ctx.level >= 1 => Some(&self.in_pipes[s][0]),
            _ => self.out_pipes[s].first(),
        };
        match edge {
            Some(Edge {
                link: Link::Pipe { capacity },
                ..
            }) => Ok(*capacity),
            _ => Err("downstream output but no outbound pipe edge".into()),
        }
    }
}
