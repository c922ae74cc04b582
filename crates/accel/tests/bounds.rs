//! Out-of-range program addresses: a read, write, gather or scatter
//! past a memory's capacity, and a scratchpad image that does not fit,
//! are program errors naming the space, the address and the capacity.
//! None of these runs the oracle: it accepts any address, and a far
//! scratchpad image would size its page list to that address.

use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, RunError};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::{Affine, DataSrc, StreamDesc};

const FAR: u64 = 1 << 40;

/// One task of a pass-through kernel (`port 0 = x`, `port 1 = x`),
/// spawned by `spawn` over a 4-word image at DRAM word 0.
struct OneTask {
    image: MemoryImage,
    spawn: fn() -> TaskInstance,
}

impl OneTask {
    fn new(spawn: fn() -> TaskInstance) -> Self {
        OneTask {
            image: MemoryImage::new().dram_segment(0, vec![0, 1, 2, 3]),
            spawn,
        }
    }
}

impl Program for OneTask {
    fn name(&self) -> &str {
        "one_task"
    }
    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("pass2");
        let x = b.input();
        b.output(x);
        b.output(x);
        vec![TaskType::new("pass2", TaskKernel::dfg(b.finish().unwrap()))]
    }
    fn memory_image(&self) -> MemoryImage {
        self.image.clone()
    }
    fn initial(&mut self, s: &mut Spawner) {
        s.spawn((self.spawn)());
    }
    fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {}
}

/// Runs `p` and returns its program-error message.
fn program_error(mut p: OneTask) -> String {
    match Accelerator::new(DeltaConfig::delta(2)).run(&mut p) {
        Err(RunError::Program(msg)) => msg,
        other => panic!("expected a program error, got {other:?}"),
    }
}

fn pass2() -> TaskInstance {
    TaskInstance::new(TaskTypeId(0))
}

#[test]
fn a_dram_read_past_capacity_is_a_program_error() {
    let msg = program_error(OneTask::new(|| {
        pass2()
            .input_stream(StreamDesc::dram(FAR, 4))
            .output_discard()
            .output_discard()
    }));
    assert!(
        msg.starts_with(&format!("Dram address {} out of range (capacity ", FAR + 3)),
        "{msg}"
    );
}

#[test]
fn a_dram_write_past_capacity_is_a_program_error() {
    let msg = program_error(OneTask::new(|| {
        pass2()
            .input_stream(StreamDesc::dram(0, 4))
            .output_memory(StreamDesc::dram(FAR, 4), WriteMode::Overwrite)
            .output_discard()
    }));
    assert!(
        msg.starts_with(&format!("Dram address {} out of range (capacity ", FAR + 3)),
        "{msg}"
    );
}

#[test]
fn a_gather_past_capacity_is_a_program_error() {
    let msg = program_error(OneTask::new(|| {
        let gather = StreamDesc::Indirect {
            src: DataSrc::Dram,
            base: FAR,
            scale: 1,
            index: Affine::contiguous(0, 4),
            index_src: DataSrc::Dram,
        };
        pass2()
            .input_stream(gather)
            .output_discard()
            .output_discard()
    }));
    assert!(
        msg.starts_with(&format!("Dram address {FAR} out of range (capacity ")),
        "{msg}"
    );
}

#[test]
fn a_scatter_past_capacity_is_a_program_error() {
    let msg = program_error(OneTask::new(|| {
        pass2()
            .input_stream(StreamDesc::dram(0, 4))
            .output_scatter(DataSrc::Dram, FAR, 1, 1, WriteMode::Add)
            .output_discard()
    }));
    assert!(
        msg.starts_with(&format!("Dram address {FAR} out of range (capacity ")),
        "{msg}"
    );
}

#[test]
fn a_spad_read_past_capacity_names_the_scratchpad() {
    let spad_words = DeltaConfig::delta(2).spad_words as u64;
    let mut p = OneTask::new(|| {
        pass2()
            .input_stream(StreamDesc::spad(DeltaConfig::delta(2).spad_words as u64, 1))
            .output_discard()
            .output_discard()
    });
    p.image = p.image.spad_segment(0, vec![1; 4]);
    assert_eq!(
        program_error(p),
        format!("Spad address {spad_words} out of range (capacity {spad_words})")
    );
}

#[test]
fn a_spad_image_that_does_not_fit_is_rejected_at_setup() {
    let mut p = OneTask::new(|| {
        pass2()
            .input_stream(StreamDesc::dram(0, 4))
            .output_discard()
            .output_discard()
    });
    p.image = p.image.spad_segment(FAR, vec![1; 4]);
    let spad_words = DeltaConfig::delta(2).spad_words;
    assert_eq!(
        program_error(p),
        format!("Spad image segment at {FAR} (4 words) out of range (capacity {spad_words})")
    );
}
