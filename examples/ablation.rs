//! Mechanism ablation on one workload: toggle TaskStream's three
//! mechanisms one at a time and watch where the cycles go.
//!
//! ```text
//! cargo run --release --example ablation [spmv|hash_join|dtree|merge_sort]
//! ```

use taskstream::delta::{Accelerator, DeltaConfig, Features};
use taskstream::model::Policy;
use taskstream::workloads::{
    dtree::DTree, hash_join::HashJoin, merge_sort::MergeSort, spmv::Spmv, Workload,
};

fn run(wl: &dyn Workload, label: &str, cfg: DeltaConfig) -> u64 {
    let mut p = wl.make_program();
    let r = Accelerator::new(cfg).run(p.as_mut()).expect("run");
    wl.validate(&r).expect("results");
    println!(
        "  {label:<22} {:>9} cycles  (imb {:.2}, dram {:>8.0} words, direct pipes {})",
        r.cycles,
        r.load_imbalance(),
        r.dram_words(),
        r.counters.tile_total().pipes_direct,
    );
    r.cycles
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "spmv".into());
    let wl: Box<dyn Workload> = match which.as_str() {
        "spmv" => Box::new(Spmv::small(42)),
        "hash_join" => Box::new(HashJoin::small(42)),
        "dtree" => Box::new(DTree::small(42)),
        "merge_sort" => Box::new(MergeSort::small(42)),
        other => panic!("unknown workload '{other}'"),
    };
    println!("ablation: {} on 8 tiles\n", wl.name());

    let base = run(
        wl.as_ref(),
        "static placement",
        DeltaConfig::static_parallel(8).with_policy(Policy::StaticHash),
    );
    let lb = run(
        wl.as_ref(),
        "+work-aware balance",
        DeltaConfig::static_parallel(8).with_features(Features {
            work_aware: true,
            pipelining: false,
            multicast: false,
        }),
    );
    let pipe = run(
        wl.as_ref(),
        "+pipelined handoff",
        DeltaConfig::static_parallel(8).with_features(Features {
            work_aware: true,
            pipelining: true,
            multicast: false,
        }),
    );
    let full = run(wl.as_ref(), "+multicast (= Delta)", DeltaConfig::delta(8));

    println!("\ncumulative speedup over static placement:");
    for (label, c) in [("+balance", lb), ("+pipeline", pipe), ("+multicast", full)] {
        println!("  {label:<12} {:.2}x", base as f64 / c as f64);
    }
}
