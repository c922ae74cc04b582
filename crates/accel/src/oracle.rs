//! An untimed functional oracle for differential testing.
//!
//! The cycle-level simulator is *functional at dispatch*: every task's
//! results are computed the cycle it is placed and land in the modelled
//! memories. This module runs the same [`Program`] with no machine
//! model at all — no tiles, no NoC, no DRAM timing — and comparing the
//! two final states ([`check_equivalence`]) catches timing bookkeeping
//! that leaks into functional results.
//!
//! Both engines execute a task through one shared functional core
//! (`crate::functional`: spawn validation, stream materialization,
//! addresses, the kernel call, memory outputs), so they reject a bad
//! program with the same message. The oracle therefore no longer checks
//! that code against a second copy of it; the workload references and
//! the conservation invariants still check the arithmetic. What the
//! oracle owns is everything timing could perturb:
//!
//! * **Order.** It runs tasks in FIFO (spawn) order, the first queued
//!   task whose pipe inputs are all available next. The timed
//!   simulator's order depends on timing, so equivalence holds only for
//!   **race-free programs**, whose result does not depend on the order
//!   of concurrently live tasks: commutative read-modify-write outputs
//!   ([`WriteMode::Add`]/[`WriteMode::Min`]) or disjoint overwrite
//!   sets. Every suite workload and every differential test qualifies.
//! * **Memory.** One scratchpad, where the timed machine replicates the
//!   image per tile, so equivalence covers DRAM and task counts only.
//!   Each space is a `FlatMem`: a dense word array below the image's
//!   high-water mark plus a hash map for the few words written above
//!   it. Untouched words read as zero, every address exists, and no
//!   allocation is sized by a program-computed address.
//! * **The comparison.** [`check_equivalence`] compares the dense region
//!   against the timed DRAM image in one pass, then each word the
//!   oracle wrote above it. The timed machine's pipe spill buffers
//!   above the high-water mark are never written here, so never
//!   compared.

use std::collections::VecDeque;
use std::sync::Arc;

use taskstream_model::{
    CompletedTask, OutputBinding, PipeId, Program, Spawner, TaskId, TaskInstance, TaskType, Value,
};
use ts_mem::WriteMode;
use ts_sim::FxHashMap;
use ts_stream::Addr;

use crate::functional::{self, Memory, Space};
use crate::report::RunReport;

/// Final state of an untimed run: what the program computed, with no
/// timing attached.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Tasks executed over the run.
    pub tasks_completed: u64,
    /// Final DRAM contents: the initial image plus every word the
    /// program wrote.
    dram: FlatMem,
}

impl OracleOutcome {
    /// Reads one word of the final DRAM image (zero if untouched).
    pub fn dram(&self, addr: Addr) -> Value {
        self.dram.read(addr)
    }
}

/// One oracle address space: a dense array below the memory image's
/// high-water mark and a map for words written above it. Untouched
/// words read as zero.
#[derive(Debug, Clone)]
struct FlatMem {
    dense: Vec<Value>,
    above: FxHashMap<Addr, Value>,
}

impl FlatMem {
    /// Loads image `segments`; the dense array ends at their high-water
    /// mark.
    fn new(segments: &[(Addr, Arc<[Value]>)]) -> Self {
        let high_water = segments
            .iter()
            .map(|(b, w)| b + w.len() as u64)
            .max()
            .unwrap_or(0);
        let mut dense = vec![0; high_water as usize];
        for (base, words) in segments {
            dense[*base as usize..][..words.len()].copy_from_slice(words);
        }
        FlatMem {
            dense,
            above: FxHashMap::default(),
        }
    }

    fn slot(&mut self, addr: Addr) -> &mut Value {
        if (addr as usize) < self.dense.len() {
            &mut self.dense[addr as usize]
        } else {
            self.above.entry(addr).or_insert(0)
        }
    }
}

impl Space for FlatMem {
    fn capacity(&self) -> Option<usize> {
        None
    }

    fn read(&self, addr: Addr) -> Value {
        match self.dense.get(addr as usize) {
            Some(v) => *v,
            None => self.above.get(&addr).copied().unwrap_or(0),
        }
    }

    fn update(&mut self, addr: Addr, value: Value, mode: WriteMode) {
        let slot = self.slot(addr);
        *slot = mode.apply(*slot, value);
    }
}

/// Upper bound on executed tasks before the oracle declares the
/// program divergent (a spawn loop that never terminates).
const TASK_LIMIT: u64 = 50_000_000;

/// Runs `program` to completion with no timing model.
///
/// Tasks execute in spawn order, gated only by pipe availability: the
/// first queued task whose pipe inputs all carry data runs next, to
/// completion, before the next is considered. `on_complete` fires
/// immediately after each task; `on_quiescent` when the queue drains.
///
/// # Errors
///
/// Returns a message on program contract violations (arity mismatches,
/// undeclared pipes, scatter shape errors), kernel execution errors,
/// pipe deadlock (queued tasks whose producers never ran), or a
/// non-terminating spawn loop.
pub fn execute_untimed<P: Program + ?Sized>(program: &mut P) -> Result<OracleOutcome, String> {
    let mut st = OracleState::new(program);
    let mut spawner = Spawner::new(st.next_pipe);
    program.initial(&mut spawner);
    st.absorb(spawner)?;

    loop {
        let pos = st.queue.iter().position(|(_, inst)| st.ready(inst));
        match pos {
            Some(pos) => {
                let (id, inst) = st.queue.remove(pos).expect("position is in range");
                let done = st.execute(id, inst)?;
                st.tasks_completed += 1;
                if st.tasks_completed > TASK_LIMIT {
                    return Err(format!(
                        "oracle exceeded {TASK_LIMIT} tasks; spawn loop never terminates"
                    ));
                }
                let mut spawner = Spawner::new(st.next_pipe);
                program.on_complete(&done, &mut spawner);
                st.absorb(spawner)?;
            }
            None if st.queue.is_empty() => {
                let mut spawner = Spawner::new(st.next_pipe);
                let more = program.on_quiescent(&mut spawner);
                let spawned = spawner.spawned_len() > 0;
                st.absorb(spawner)?;
                if !more && !spawned {
                    break;
                }
            }
            None => {
                return Err(st.deadlock_report());
            }
        }
    }
    Ok(OracleOutcome {
        tasks_completed: st.tasks_completed,
        dram: st.mem.dram,
    })
}

/// Compares a timed run's final state against the oracle's.
///
/// Checks the completed-task count, then every DRAM word below the
/// image's high-water mark in one pass, then every word the oracle
/// wrote above it, in address order. Timed-only state — pipe spill
/// buffers, scratchpads — is deliberately out of scope (see the module
/// docs). A non-zero oracle word past the end of the timed image is a
/// divergence.
///
/// # Errors
///
/// Returns a message naming the first divergences (at most eight) on
/// mismatch, or saying that `timed` has no image to compare because it
/// was [released](RunReport::release_dram).
pub fn check_equivalence(timed: &RunReport, oracle: &OracleOutcome) -> Result<(), String> {
    const MAX_LISTED: usize = 8;
    if timed.dram_released() {
        return Err("the timed report's final DRAM image was released: nothing to compare".into());
    }
    if timed.tasks_completed != oracle.tasks_completed {
        return Err(format!(
            "tasks completed diverge: timed {} vs oracle {}",
            timed.tasks_completed, oracle.tasks_completed
        ));
    }
    let len = timed.dram_len();
    let mem = &oracle.dram;
    let shared = mem.dense.len().min(len);
    let timed_dense = timed.dram_range(0, shared);
    let dense = timed_dense
        .iter()
        .zip(&mem.dense)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(a, (&got, &want))| (a as Addr, Some(got), want));
    // the rest: any dense words past the timed image, then the words
    // above the dense region; `None` marks a word past the timed image
    let mut rest: Vec<(Addr, Option<Value>, Value)> = (shared..mem.dense.len())
        .map(|a| (a as Addr, mem.dense[a]))
        .chain(mem.above.iter().map(|(&a, &want)| (a, want)))
        .map(|(a, want)| (a, (a < len as Addr).then(|| timed.dram(a)), want))
        .filter(|&(_, got, want)| got.unwrap_or(0) != want)
        .collect();
    rest.sort_unstable_by_key(|&(a, ..)| a);
    let mut diverged: Vec<String> = dense
        .chain(rest)
        .take(MAX_LISTED + 1)
        .map(|(addr, got, want)| match got {
            Some(got) => format!("dram[{addr}]: timed {got} vs oracle {want}"),
            None => format!("dram[{addr}]: past the timed image ({len} words) vs oracle {want}"),
        })
        .collect();
    if diverged.is_empty() {
        return Ok(());
    }
    if diverged.len() > MAX_LISTED {
        diverged[MAX_LISTED] = "...".to_owned();
    }
    Err(format!(
        "final DRAM diverges on {}+ word(s):\n  {}",
        diverged.len().min(MAX_LISTED),
        diverged.join("\n  ")
    ))
}

struct OracleState {
    types: Vec<TaskType>,
    /// DRAM and one shared scratchpad: programs treat the scratchpad
    /// image as read-mostly, so a single copy sees the values every
    /// tile's copy would.
    mem: Memory<FlatMem>,
    /// Declared pipes and their recorded payloads.
    pipes: FxHashMap<PipeId, Option<Vec<Value>>>,
    queue: VecDeque<(TaskId, TaskInstance)>,
    next_task: u64,
    next_pipe: u64,
    tasks_completed: u64,
}

impl OracleState {
    fn new<P: Program + ?Sized>(program: &mut P) -> Self {
        let image = program.memory_image();
        OracleState {
            types: program.task_types(),
            mem: Memory {
                dram: FlatMem::new(&image.dram),
                spad: FlatMem::new(&image.spad),
            },
            pipes: FxHashMap::default(),
            queue: VecDeque::new(),
            next_task: 0,
            next_pipe: 0,
            tasks_completed: 0,
        }
    }

    fn absorb(&mut self, spawner: Spawner) -> Result<(), String> {
        self.next_pipe = spawner.next_pipe_id();
        let (tasks, pipes) = spawner.take();
        for decl in pipes {
            if self.pipes.insert(decl.id, None).is_some() {
                return Err(format!("pipe {:?} declared twice", decl.id));
            }
        }
        for inst in tasks {
            let id = TaskId(self.next_task);
            let ty = self
                .types
                .get(inst.ty.0)
                .map(|t| (t.name.as_str(), &t.kernel));
            functional::validate_spawn(id, &inst, ty, |p| self.pipes.contains_key(&p))?;
            self.next_task += 1;
            self.queue.push_back((id, inst));
        }
        Ok(())
    }

    /// Describes a wedged queue: which tasks are stuck and which pipe
    /// inputs each one is still missing.
    fn deadlock_report(&self) -> String {
        const MAX_LISTED: usize = 8;
        let mut out = format!(
            "oracle deadlock: {} queued task(s) wait on pipes whose producers never ran",
            self.queue.len()
        );
        for (id, inst) in self.queue.iter().take(MAX_LISTED) {
            let ty = self
                .types
                .get(inst.ty.0)
                .map(|t| t.name.as_ref())
                .unwrap_or("?");
            let missing: Vec<String> = inst
                .input_pipes()
                .filter(|p| !matches!(self.pipes.get(p), Some(Some(_))))
                .map(|p| format!("{p:?}"))
                .collect();
            out += &format!(
                "\n  stuck {:?} '{}' missing: {}",
                id,
                ty,
                missing.join(", ")
            );
        }
        if self.queue.len() > MAX_LISTED {
            out += &format!("\n  … and {} more", self.queue.len() - MAX_LISTED);
        }
        out
    }

    /// True when every pipe input has recorded producer data.
    fn ready(&self, inst: &TaskInstance) -> bool {
        inst.input_pipes()
            .all(|p| matches!(self.pipes.get(&p), Some(Some(_))))
    }

    fn execute(&mut self, id: TaskId, inst: TaskInstance) -> Result<CompletedTask, String> {
        let ty = &self.types[inst.ty.0];
        let pipes = &self.pipes;
        let run = functional::run_task(&mut self.mem, &ty.name, &ty.kernel, &inst, |p| {
            pipes
                .get(&p)
                .and_then(|d| d.clone())
                .ok_or_else(|| format!("pipe {p:?} read before its producer ran"))
        })?;
        for (b, values) in inst.outputs.iter().zip(&run.outputs) {
            if let OutputBinding::Pipe(p) = b {
                self.pipes.insert(*p, Some(values.clone()));
            }
        }
        Ok(CompletedTask {
            id,
            ty: inst.ty,
            params: inst.params,
            affinity: inst.affinity,
            outputs: run.outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskstream_model::{MemoryImage, TaskKernel, TaskTypeId};
    use ts_dfg::DfgBuilder;
    use ts_stream::StreamDesc;

    /// Doubles 4 DRAM words into a second region.
    struct Doubler;

    impl Program for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn task_types(&self) -> Vec<TaskType> {
            let mut b = DfgBuilder::new("x2");
            let x = b.input();
            let two = b.constant(2);
            let y = b.mul(x, two);
            b.output(y);
            vec![TaskType::new("x2", TaskKernel::dfg(b.finish().unwrap()))]
        }
        fn memory_image(&self) -> MemoryImage {
            MemoryImage::new().dram_segment(0, vec![1, 2, 3, 4])
        }
        fn initial(&mut self, s: &mut Spawner) {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(0, 4))
                    .output_memory(StreamDesc::dram(100, 4), WriteMode::Overwrite),
            );
        }
        fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
    }

    #[test]
    fn oracle_runs_a_simple_program() {
        let out = execute_untimed(&mut Doubler).unwrap();
        assert_eq!(out.tasks_completed, 1);
        assert_eq!(out.dram(100), 2);
        assert_eq!(out.dram(103), 8);
        assert_eq!(out.dram(0), 1); // image preserved
        assert_eq!(out.dram(999), 0); // untouched reads as zero
    }

    #[test]
    fn oracle_matches_timed_simulator() {
        use crate::{Accelerator, DeltaConfig};
        let timed = Accelerator::new(DeltaConfig::delta(2))
            .run(&mut Doubler)
            .unwrap();
        let oracle = execute_untimed(&mut Doubler).unwrap();
        check_equivalence(&timed, &oracle).unwrap();
    }

    #[test]
    fn equivalence_catches_divergence() {
        use crate::{Accelerator, DeltaConfig};
        let timed = Accelerator::new(DeltaConfig::delta(2))
            .run(&mut Doubler)
            .unwrap();
        let mut oracle = execute_untimed(&mut Doubler).unwrap();
        // the image spans words 0..4, so word 1 is in the dense region
        // and the output at 100 is above it
        assert_eq!(oracle.dram.dense.len(), 4);
        *oracle.dram.slot(1) = -1;
        *oracle.dram.slot(100) = -1;
        let err = check_equivalence(&timed, &oracle).unwrap_err();
        assert!(
            err.contains("dram[1]: timed 2 vs oracle -1"),
            "unexpected: {err}"
        );
        assert!(
            err.contains("dram[100]: timed 2 vs oracle -1"),
            "unexpected: {err}"
        );
    }

    #[test]
    fn a_released_report_is_an_error_not_a_match() {
        use crate::{Accelerator, DeltaConfig};
        let mut timed = Accelerator::new(DeltaConfig::delta(2))
            .run(&mut Doubler)
            .unwrap();
        let oracle = execute_untimed(&mut Doubler).unwrap();
        check_equivalence(&timed, &oracle).expect("the kept image matches");
        timed.release_dram();
        let err = check_equivalence(&timed, &oracle).unwrap_err();
        assert!(err.contains("DRAM image was released"), "unexpected: {err}");
    }

    #[test]
    fn equivalence_lists_at_most_eight_divergences_in_address_order() {
        use crate::{Accelerator, DeltaConfig};
        let timed = Accelerator::new(DeltaConfig::delta(2))
            .run(&mut Doubler)
            .unwrap();
        let mut oracle = execute_untimed(&mut Doubler).unwrap();
        for a in (0..4).chain(100..104).chain([200, 300]) {
            *oracle.dram.slot(a) = -9;
        }
        let err = check_equivalence(&timed, &oracle).unwrap_err();
        assert!(
            err.starts_with("final DRAM diverges on 8+ word(s)"),
            "{err}"
        );
        assert!(err.ends_with("\n  ..."), "{err}");
        let first = err.find("dram[3]").unwrap();
        assert!(first < err.find("dram[100]").unwrap(), "{err}");
        assert!(!err.contains("dram[200]"), "{err}");
    }

    #[test]
    fn an_oracle_word_past_the_timed_image_is_an_error_not_a_panic() {
        use crate::{Accelerator, DeltaConfig};
        let timed = Accelerator::new(DeltaConfig::delta(2))
            .run(&mut Doubler)
            .unwrap();
        let mut oracle = execute_untimed(&mut Doubler).unwrap();
        *oracle.dram.slot(1 << 40) = 0;
        check_equivalence(&timed, &oracle).expect("a zero word reads as untouched");
        *oracle.dram.slot(1 << 40) = 5;
        let err = check_equivalence(&timed, &oracle).unwrap_err();
        assert!(
            err.contains(&format!(
                "dram[{}]: past the timed image ({} words) vs oracle 5",
                1u64 << 40,
                timed.dram_len()
            )),
            "unexpected: {err}"
        );
    }

    /// Writes two words far above a 4-word image, one at `1 << 40`.
    struct FarWriter;

    impl Program for FarWriter {
        fn name(&self) -> &str {
            "far_writer"
        }
        fn task_types(&self) -> Vec<TaskType> {
            Doubler.task_types()
        }
        fn memory_image(&self) -> MemoryImage {
            Doubler.memory_image()
        }
        fn initial(&mut self, s: &mut Spawner) {
            for base in [1 << 20, 1 << 40] {
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_stream(StreamDesc::dram(2, 2))
                        .output_memory(StreamDesc::dram(base, 2), WriteMode::Add),
                );
            }
        }
        fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
    }

    #[test]
    fn writes_far_above_the_image_allocate_nothing_proportional() {
        let out = execute_untimed(&mut FarWriter).unwrap();
        assert_eq!(out.tasks_completed, 2);
        assert_eq!(out.dram(1 << 40), 6);
        assert_eq!(out.dram((1 << 40) + 1), 8);
        assert_eq!(out.dram((1 << 20) + 1), 8);
        assert_eq!(out.dram((1 << 40) + 2), 0);
        assert_eq!(out.dram.dense.len(), 4, "dense region ends at the image");
        assert_eq!(out.dram.above.len(), 4, "one entry per written word");
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        struct Bad;
        impl Program for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn task_types(&self) -> Vec<TaskType> {
                Doubler.task_types()
            }
            fn memory_image(&self) -> MemoryImage {
                MemoryImage::new()
            }
            fn initial(&mut self, s: &mut Spawner) {
                s.spawn(TaskInstance::new(TaskTypeId(0))); // zero inputs
            }
            fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
        }
        let err = execute_untimed(&mut Bad).unwrap_err();
        assert!(err.contains("expects 1 inputs"), "unexpected: {err}");
    }

    #[test]
    fn pipe_deadlock_is_reported() {
        struct Stuck;
        impl Program for Stuck {
            fn name(&self) -> &str {
                "stuck"
            }
            fn task_types(&self) -> Vec<TaskType> {
                Doubler.task_types()
            }
            fn memory_image(&self) -> MemoryImage {
                MemoryImage::new()
            }
            fn initial(&mut self, s: &mut Spawner) {
                let p = s.pipe(4);
                // consumer with no producer: can never become ready
                s.spawn(
                    TaskInstance::new(TaskTypeId(0))
                        .input_pipe(p)
                        .output_discard(),
                );
            }
            fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
        }
        let err = execute_untimed(&mut Stuck).unwrap_err();
        assert!(err.contains("deadlock"), "unexpected: {err}");
    }
}
