//! Property tests over random declarative topologies.
//!
//! Every [`GraphSpec`] drawn here — linear pipelines of random depth,
//! width and capacity, and reduction trees of random fanout — must
//! compile, run on the timed simulator, satisfy the conservation
//! invariants, and agree with the untimed oracle on final memory, under
//! **both** the event-driven scheduler and the dense reference
//! (`Accelerator::run_dense`). The event-driven shortcuts are pure
//! optimizations; a declarative program on which they change the
//! answer is a compiler or scheduler bug.

use proptest::prelude::*;
use taskstream_model::{MemoryImage, TaskKernel};
use ts_delta::oracle::{check_equivalence, execute_untimed};
use ts_delta::{Accelerator, DeltaConfig};
use ts_dfg::{Dfg, DfgBuilder};
use ts_graph::{Emission, GraphSpec, Link, SpawnRule, Stage, TaskSketch};
use ts_mem::WriteMode;
use ts_stream::StreamDesc;

const OUT_BASE: u64 = 1 << 20;

/// `x + 1`, element-wise — cheap, and stage depth shows in the output.
fn inc_dfg(name: &str) -> Dfg {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let one = b.constant(1);
    let y = b.add(x, one);
    b.output(y);
    b.finish().expect("inc kernel is valid")
}

/// Element-wise sum of `arity` input streams.
fn sum_dfg(name: &str, arity: usize) -> Dfg {
    let mut b = DfgBuilder::new(name);
    let mut acc = b.input();
    for _ in 1..arity {
        let x = b.input();
        acc = b.add(acc, x);
    }
    b.output(acc);
    b.finish().expect("sum kernel is valid")
}

/// A linear pipeline: `count` element chains of `stages` increment
/// stages, the first reading a DRAM segment, the last writing one, and
/// every adjacent pair joined by a pipe edge of the drawn capacity.
fn chain_spec(count: usize, stages: usize, seg_len: u64, cap: u64) -> GraphSpec {
    let words = count as u64 * seg_len;
    let mut g = GraphSpec::new("prop_chain")
        .memory(
            MemoryImage::new()
                .dram_segment(0, (1..=words as i64).collect::<Vec<_>>())
                .dram_segment(OUT_BASE, vec![0; words as usize]),
        )
        .emission(Emission::ElementMajor);
    let mut prev = None;
    for s in 0..stages {
        let last = s + 1 == stages;
        let id = g.stage(Stage::new(
            format!("inc{s}"),
            TaskKernel::dfg(inc_dfg(&format!("inc{s}"))),
            SpawnRule::PerElement { count },
            move |cx| {
                let lo = cx.index as u64 * seg_len;
                let sk = if s == 0 {
                    TaskSketch::new().input_stream(StreamDesc::dram(lo, seg_len))
                } else {
                    TaskSketch::new().input_upstream(0).work_hint(seg_len)
                };
                if last {
                    sk.output_memory(
                        StreamDesc::dram(OUT_BASE + lo, seg_len),
                        WriteMode::Overwrite,
                    )
                } else {
                    sk.output_downstream()
                }
            },
        ));
        if let Some(p) = prev {
            g.edge(p, id, Link::Pipe { capacity: cap });
        }
        prev = Some(id);
    }
    g
}

/// A reduction tree: `fanout.pow(depth)` leaves stream DRAM chunks into
/// a [`SpawnRule::Tree`] stage that folds `fanout` streams element-wise
/// per node, the root writing its stream to DRAM.
fn tree_spec(fanout: usize, depth: u32, seg_len: u64, cap: u64) -> GraphSpec {
    let leaves = fanout.pow(depth);
    let words = leaves as u64 * seg_len;
    let mut g = GraphSpec::new("prop_tree").memory(
        MemoryImage::new()
            .dram_segment(0, (1..=words as i64).collect::<Vec<_>>())
            .dram_segment(OUT_BASE, vec![0; seg_len as usize]),
    );
    let leaf = g.stage(Stage::new(
        "leaf",
        TaskKernel::dfg(inc_dfg("leaf")),
        SpawnRule::PerElement { count: leaves },
        move |cx| {
            TaskSketch::new()
                .input_stream(StreamDesc::dram(cx.index as u64 * seg_len, seg_len))
                .output_downstream()
                .affinity(cx.index as u64)
        },
    ));
    let fold = g.stage(Stage::new(
        "fold",
        TaskKernel::dfg(sum_dfg("fold", fanout)),
        SpawnRule::Tree { fanout },
        move |cx| {
            let mut sk = TaskSketch::new();
            for k in 0..fanout {
                sk = sk.input_upstream(k);
            }
            sk = sk.work_hint(seg_len * fanout as u64);
            if cx.is_root {
                sk.output_memory(StreamDesc::dram(OUT_BASE, seg_len), WriteMode::Overwrite)
            } else {
                sk.output_downstream()
            }
        },
    ));
    g.edge(leaf, fold, Link::Pipe { capacity: cap });
    g
}

/// Runs one compiled spec event-driven and densely ticked, and checks
/// conservation plus oracle equivalence each time.
fn assert_both_engines_agree(
    spec_of: impl Fn() -> GraphSpec,
    tiles: usize,
) -> Result<(), proptest::TestCaseError> {
    let oracle = execute_untimed(&mut spec_of().compile().expect("spec is valid"))
        .expect("oracle completes");
    let mut accel = Accelerator::new(DeltaConfig::delta(tiles));
    for dense in [false, true] {
        let mut p = spec_of().compile().expect("spec is valid");
        let timed = if dense {
            accel.run_dense(&mut p)
        } else {
            accel.run(&mut p)
        }
        .expect("run completes");
        let engine = if dense { "dense" } else { "event-driven" };
        prop_assert!(
            timed.check_conservation(tiles).is_ok(),
            "conservation under {engine}: {:?}",
            timed.check_conservation(tiles)
        );
        let eq = check_equivalence(&timed, &oracle);
        prop_assert!(eq.is_ok(), "equivalence under {engine}: {eq:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_chains_agree_under_both_engines(
        count in 1usize..5,
        stages in 1usize..5,
        seg_len in 2u64..17,
        cap in 1u64..32,
        tiles in 1usize..6,
    ) {
        assert_both_engines_agree(|| chain_spec(count, stages, seg_len, cap), tiles)?;
    }

    #[test]
    fn random_trees_agree_under_both_engines(
        fanout in 2usize..5,
        depth in 1u32..3,
        seg_len in 2u64..9,
        cap in 1u64..16,
        tiles in 1usize..6,
    ) {
        assert_both_engines_agree(|| tree_spec(fanout, depth, seg_len, cap), tiles)?;
    }
}
