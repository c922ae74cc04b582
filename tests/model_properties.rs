//! Property-based end-to-end tests: randomly generated task programs
//! must compute exactly what a direct evaluation computes, on every
//! design point.

use proptest::prelude::*;
use taskstream::delta::{Accelerator, DeltaConfig, Features};
use taskstream::dfg::DfgBuilder;
use taskstream::mem::WriteMode;
use taskstream::model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use taskstream::stream::StreamDesc;

/// A randomly shaped two-phase program: independent affine "scale"
/// tasks over disjoint slices, then (optionally) a pipe into a reducer.
#[derive(Debug, Clone)]
struct RandomProgram {
    slices: Vec<Vec<i64>>,
    factors: Vec<i64>,
    reduce: bool,
}

const OUT: u64 = 100_000;
const SUMS: u64 = 200_000;

impl RandomProgram {
    fn in_base(&self, i: usize) -> u64 {
        (0..i).map(|j| self.slices[j].len() as u64).sum()
    }

    fn expected_out(&self) -> Vec<i64> {
        self.slices
            .iter()
            .zip(&self.factors)
            .flat_map(|(s, f)| s.iter().map(move |v| v.wrapping_mul(*f)))
            .collect()
    }

    fn expected_sums(&self) -> Vec<i64> {
        self.slices
            .iter()
            .zip(&self.factors)
            .map(|(s, f)| {
                s.iter()
                    .map(|v| v.wrapping_mul(*f))
                    .fold(0i64, |a, b| a.wrapping_add(b))
            })
            .collect()
    }
}

impl Program for RandomProgram {
    fn name(&self) -> &str {
        "random_program"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("scale");
        let x = b.input();
        let f = b.param(0);
        let y = b.mul(x, f);
        b.output(y);

        let mut r = DfgBuilder::new("sum");
        let x = r.input();
        let s = r.acc(x);
        r.output_on_last(s);

        vec![
            TaskType::new("scale", TaskKernel::dfg(b.finish().unwrap())),
            TaskType::new("sum", TaskKernel::dfg(r.finish().unwrap())),
        ]
    }

    fn memory_image(&self) -> MemoryImage {
        let total: usize = self.slices.iter().map(Vec::len).sum();
        let mut img = MemoryImage::new()
            .dram_segment(OUT, vec![0; total])
            .dram_segment(SUMS, vec![0; self.slices.len()]);
        for (i, s) in self.slices.iter().enumerate() {
            img = img.dram_segment(self.in_base(i), s.clone());
        }
        img
    }

    fn initial(&mut self, s: &mut Spawner) {
        for (i, slice) in self.slices.iter().enumerate() {
            let len = slice.len() as u64;
            let base = self.in_base(i);
            let scale = TaskInstance::new(TaskTypeId(0))
                .params([self.factors[i]])
                .input_stream(StreamDesc::dram(base, len))
                .affinity(i as u64);
            if self.reduce {
                let pipe = s.pipe(len);
                s.spawn(scale.output_pipe(pipe));
                s.spawn(
                    TaskInstance::new(TaskTypeId(1))
                        .input_pipe(pipe)
                        .output_memory(StreamDesc::dram(SUMS + i as u64, 1), WriteMode::Overwrite)
                        .affinity(i as u64),
                );
            } else {
                s.spawn(
                    scale.output_memory(StreamDesc::dram(OUT + base, len), WriteMode::Overwrite),
                );
            }
        }
    }

    fn on_complete(&mut self, _d: &CompletedTask, _s: &mut Spawner) {}
}

fn slice_strategy() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(-1000i64..1000, 1..40), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Independent scale tasks compute exact results on every design.
    #[test]
    fn scale_tasks_are_exact(
        slices in slice_strategy(),
        factors_seed in 1i64..100,
        tiles in 1usize..5,
    ) {
        let factors: Vec<i64> = (0..slices.len() as i64)
            .map(|i| (i + factors_seed) % 17 - 8)
            .collect();
        let mut p = RandomProgram { slices, factors, reduce: false };
        let expect = p.expected_out();
        let total: usize = p.slices.iter().map(Vec::len).sum();
        let r = Accelerator::new(DeltaConfig::delta(tiles)).run(&mut p).unwrap();
        prop_assert_eq!(r.dram_range(OUT, total), &expect[..]);
    }

    /// Pipe-chained reductions compute exact sums with pipelining on
    /// and off.
    #[test]
    fn piped_reductions_are_exact(
        slices in slice_strategy(),
        pipelining in prop::bool::ANY,
    ) {
        let factors: Vec<i64> = (0..slices.len() as i64).map(|i| i % 5 + 1).collect();
        let mut p = RandomProgram { slices, factors, reduce: true };
        let expect = p.expected_sums();
        let n = p.slices.len();
        let cfg = DeltaConfig {
            features: Features {
                pipelining,
                multicast: true,
            },
            ..DeltaConfig::delta(4)
        };
        let r = Accelerator::new(cfg).run(&mut p).unwrap();
        prop_assert_eq!(r.dram_range(SUMS, n), &expect[..]);
    }
}
