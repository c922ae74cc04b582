//! Build a custom accelerator program from scratch against the public
//! API: define a dataflow kernel, bind streams, chain two tasks through
//! a pipe, and read the results back — the "hello world" of writing new
//! TaskStream workloads.
//!
//! The program computes, for a vector `v` in DRAM:
//!   stage 1 (filter):  keep `v[i]` where `v[i] > threshold`
//!   stage 2 (reduce):  sum the kept elements
//! with the two stages co-scheduled and streaming through a pipe.
//!
//! ```text
//! cargo run --release --example custom_accelerator
//! ```

use taskstream::delta::{Accelerator, DeltaConfig};
use taskstream::dfg::DfgBuilder;
use taskstream::mem::WriteMode;
use taskstream::model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use taskstream::stream::StreamDesc;

const N: u64 = 4096;
const THRESHOLD: i64 = 500;
const DATA: u64 = 0;
const RESULT: u64 = 10_000;

struct FilterReduce {
    data: Vec<i64>,
}

impl Program for FilterReduce {
    fn name(&self) -> &str {
        "filter_reduce"
    }

    fn task_types(&self) -> Vec<TaskType> {
        // stage 1: emit v where v > threshold (a predicated output)
        let mut f = DfgBuilder::new("filter");
        let v = f.input();
        let thr = f.param(0);
        let keep = f.lt(thr, v);
        f.output_when(v, keep);

        // stage 2: running sum, emitted once on the final element
        let mut r = DfgBuilder::new("reduce");
        let x = r.input();
        let sum = r.acc(x);
        r.output_on_last(sum);

        vec![
            TaskType::new("filter", TaskKernel::dfg(f.finish().unwrap())),
            TaskType::new("reduce", TaskKernel::dfg(r.finish().unwrap())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(DATA, self.data.clone())
            .dram_segment(RESULT, vec![0])
    }

    fn initial(&mut self, s: &mut Spawner) {
        let pipe = s.pipe(N); // at most N survivors
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .params([THRESHOLD])
                .input_stream(StreamDesc::dram(DATA, N))
                .output_pipe(pipe),
        );
        s.spawn(
            TaskInstance::new(TaskTypeId(1))
                .input_pipe(pipe)
                .output_memory(StreamDesc::dram(RESULT, 1), WriteMode::Overwrite)
                .work_hint(N),
        );
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

fn main() {
    let data: Vec<i64> = (0..N as i64).map(|i| (i * 37) % 1000).collect();
    let expect: i64 = data.iter().filter(|&&v| v > THRESHOLD).sum();

    let mut program = FilterReduce { data };
    let report = Accelerator::new(DeltaConfig::delta(4))
        .run(&mut program)
        .expect("run succeeds");

    let got = report.dram(RESULT);
    println!("filter+reduce over {N} elements: {got} (expected {expect})");
    assert_eq!(got, expect);
    println!(
        "finished in {} cycles; direct pipes used: {}",
        report.cycles,
        report.counters.tile_total().pipes_direct
    );
}
