//! The functional core: what a task computes and writes, with no notion
//! of when.
//!
//! The timed simulator is functional at dispatch: the cycle it places a
//! task, it runs the task through this module over its modelled
//! memories. The untimed oracle runs the same code over its flat word
//! arrays. Spawn validation, stream materialization, write and gather
//! addresses, the kernel call and memory output application therefore
//! exist once, and both engines report a contract violation with the
//! same `String` message.
//!
//! Pipes stay with the engines, whose pipe tables differ: [`run_task`]
//! asks the caller for each pipe input, and the caller stores each pipe
//! output itself.

use taskstream_model::{
    InputBinding, OutputBinding, PipeId, TaskId, TaskInstance, TaskKernel, Value,
};
use ts_dfg::interp;
use ts_mem::{Storage, WriteMode};
use ts_stream::{Addr, DataSrc, StreamDesc};

/// One address space a task reads and writes.
pub(crate) trait Space {
    /// Words the space holds, `None` when every address exists.
    fn capacity(&self) -> Option<usize>;
    /// Reads a word within the capacity.
    fn read(&self, addr: Addr) -> Value;
    /// Applies a read-modify-write to a word within the capacity.
    fn update(&mut self, addr: Addr, value: Value, mode: WriteMode);
}

impl Space for &mut Storage {
    fn capacity(&self) -> Option<usize> {
        Some(self.len())
    }

    fn read(&self, addr: Addr) -> Value {
        Storage::read(self, addr)
    }

    fn update(&mut self, addr: Addr, value: Value, mode: WriteMode) {
        Storage::update(self, addr, value, mode)
    }
}

/// The memory a task executes over: DRAM and one scratchpad. The timed
/// machine's borrows its DRAM store and the dispatch tile's scratchpad.
pub(crate) struct Memory<S> {
    pub dram: S,
    pub spad: S,
}

impl<S: Space> Memory<S> {
    fn space(&self, space: DataSrc) -> &S {
        match space {
            DataSrc::Dram => &self.dram,
            DataSrc::Spad => &self.spad,
        }
    }

    fn read(&self, space: DataSrc, addr: Addr) -> Value {
        self.space(space).read(addr)
    }

    fn update(&mut self, space: DataSrc, addr: Addr, value: Value, mode: WriteMode) {
        let space = match space {
            DataSrc::Dram => &mut self.dram,
            DataSrc::Spad => &mut self.spad,
        };
        space.update(addr, value, mode);
    }

    /// Checks that `space` holds every address up to `last`.
    fn check(&self, space: DataSrc, last: Addr) -> Result<(), String> {
        match self.space(space).capacity() {
            Some(capacity) if last >= capacity as Addr => Err(format!(
                "{space:?} address {last} out of range (capacity {capacity})"
            )),
            _ => Ok(()),
        }
    }
}

/// What executing a task produced.
#[derive(Debug)]
pub(crate) struct TaskResults {
    /// One value vector per output port.
    pub outputs: Vec<Vec<Value>>,
    /// `emit_firings[port][k]`: the firing that emitted
    /// `outputs[port][k]` (DFG kernels only).
    pub emit_firings: Option<Vec<Vec<u64>>>,
    /// The compute cycles a native kernel reported.
    pub native_cycles: Option<u64>,
}

/// Checks a spawned task against the program contract: a known type,
/// the kernel's input and output arity, well-formed scatter ports, and
/// declared pipes (inputs first, then outputs). `ty` is the type's name
/// and kernel, `None` for an unknown type.
pub(crate) fn validate_spawn(
    id: TaskId,
    inst: &TaskInstance,
    ty: Option<(&str, &TaskKernel)>,
    declared: impl Fn(PipeId) -> bool,
) -> Result<(), String> {
    let Some((name, kernel)) = ty else {
        return Err(format!("unknown task type {:?}", inst.ty));
    };
    if inst.inputs.len() != kernel.input_count() {
        return Err(format!(
            "task type '{name}' expects {} inputs, got {}",
            kernel.input_count(),
            inst.inputs.len()
        ));
    }
    if inst.outputs.len() != kernel.output_count() {
        return Err(format!(
            "task type '{name}' expects {} outputs, got {}",
            kernel.output_count(),
            inst.outputs.len()
        ));
    }
    for (port, out) in inst.outputs.iter().enumerate() {
        if let OutputBinding::Scatter { addr_port, .. } = out {
            if *addr_port >= inst.outputs.len() || *addr_port == port {
                return Err(format!(
                    "scatter on port {port} names invalid addr_port {addr_port}"
                ));
            }
            if !matches!(inst.outputs[*addr_port], OutputBinding::Discard) {
                return Err(format!(
                    "scatter addr_port {addr_port} must be bound Discard"
                ));
            }
        }
    }
    // an undeclared input would otherwise hold the task back forever
    // and surface only as a deadlock
    let undeclared = |dir: &str, p: PipeId| format!("task {id:?} uses undeclared {dir} pipe {p:?}");
    if let Some(p) = inst.input_pipes().find(|&p| !declared(p)) {
        return Err(undeclared("input", p));
    }
    if let Some(p) = inst.output_pipes().find(|&p| !declared(p)) {
        return Err(undeclared("output", p));
    }
    Ok(())
}

/// Executes a task: materializes its inputs (`pipe_input` supplies each
/// pipe's payload), runs its kernel, and applies its memory and scatter
/// outputs to `mem`. Pipe outputs are left to the caller.
pub(crate) fn run_task<S: Space>(
    mem: &mut Memory<S>,
    name: &str,
    kernel: &TaskKernel,
    inst: &TaskInstance,
    mut pipe_input: impl FnMut(PipeId) -> Result<Vec<Value>, String>,
) -> Result<TaskResults, String> {
    let mut inputs = Vec::with_capacity(inst.inputs.len());
    for b in &inst.inputs {
        inputs.push(match b {
            InputBinding::Stream(d) | InputBinding::Shared { desc: d, .. } => materialize(mem, d)?,
            InputBinding::Pipe(p) => pipe_input(*p)?,
        });
    }
    let results = match kernel {
        TaskKernel::Dfg(d) => {
            let traced = interp::execute_traced(d, &inst.params, &inputs)
                .map_err(|e| format!("{name}: {e}"))?;
            TaskResults {
                outputs: traced.result.outputs,
                emit_firings: Some(traced.emit_firings),
                native_cycles: None,
            }
        }
        TaskKernel::Native(n) => {
            let out = n.run(&inst.params, &inputs);
            TaskResults {
                outputs: out.outputs,
                emit_firings: None,
                native_cycles: Some(out.compute_cycles),
            }
        }
    };
    apply_outputs(mem, name, inst, &results.outputs)?;
    Ok(results)
}

fn apply_outputs<S: Space>(
    mem: &mut Memory<S>,
    name: &str,
    inst: &TaskInstance,
    outputs: &[Vec<Value>],
) -> Result<(), String> {
    for (binding, values) in inst.outputs.iter().zip(outputs) {
        match binding {
            OutputBinding::Memory { desc, mode } => {
                let (space, addrs) = addresses(mem, desc, values.len())?;
                for (a, v) in addrs.into_iter().zip(values) {
                    mem.update(space, a, *v, *mode);
                }
            }
            OutputBinding::Scatter {
                src,
                base,
                scale,
                addr_port,
                mode,
            } => {
                let idxs = &outputs[*addr_port];
                if idxs.len() != values.len() {
                    return Err(format!(
                        "{name}: scatter ports emit {} values vs {} indices",
                        values.len(),
                        idxs.len()
                    ));
                }
                for (idx, v) in idxs.iter().zip(values) {
                    let a = indexed_addr(*base, *scale, *idx);
                    mem.check(*src, a)?;
                    mem.update(*src, a, *v, *mode);
                }
            }
            OutputBinding::Pipe(_) | OutputBinding::Discard => {}
        }
    }
    Ok(())
}

/// The address a gather or scatter reaches for index value `idx`:
/// `base + idx·scale`, wrapping.
fn indexed_addr(base: Addr, scale: i64, idx: Value) -> Addr {
    (base as i64).wrapping_add(idx.wrapping_mul(scale)) as Addr
}

/// The memory space and addresses of the first `n` words of `desc`:
/// an affine pattern's own addresses, or the gather addresses an
/// indirect descriptor's index words give as `mem` holds them now. The
/// pattern's span is checked once, each gather address on its own.
pub(crate) fn addresses<S: Space>(
    mem: &Memory<S>,
    desc: &StreamDesc,
    n: usize,
) -> Result<(DataSrc, Vec<Addr>), String> {
    let (covers, pattern, space) = match desc {
        StreamDesc::Affine { src, pattern } => ("descriptor", pattern, *src),
        StreamDesc::Indirect {
            index, index_src, ..
        } => ("index", index, *index_src),
        other => {
            return Err(format!(
                "writes need an addressable descriptor, got {other:?}"
            ))
        }
    };
    if n as u64 > pattern.len() {
        return Err(format!(
            "output produced {n} words but {covers} covers {}",
            pattern.len()
        ));
    }
    if let Some((_, end)) = pattern.span() {
        mem.check(space, end - 1)?;
    }
    let words = pattern.iter().take(n);
    match desc {
        StreamDesc::Indirect {
            src, base, scale, ..
        } => {
            let gather = words.map(|i| {
                let a = indexed_addr(*base, *scale, mem.read(space, i));
                mem.check(*src, a).map(|()| a)
            });
            Ok((*src, gather.collect::<Result<_, _>>()?))
        }
        _ => Ok((space, words.collect())),
    }
}

/// The words a stream descriptor names, read from `mem`.
fn materialize<S: Space>(mem: &Memory<S>, desc: &StreamDesc) -> Result<Vec<Value>, String> {
    Ok(match desc {
        StreamDesc::Literal(v) => v.as_ref().clone(),
        StreamDesc::Iota { start, step, len } => (0..*len)
            .map(|i| start.wrapping_add(step.wrapping_mul(i as Value)))
            .collect(),
        StreamDesc::Affine { .. } | StreamDesc::Indirect { .. } => {
            let (space, addrs) = addresses(mem, desc, desc.len() as usize)?;
            addrs.into_iter().map(|a| mem.read(space, a)).collect()
        }
    })
}
