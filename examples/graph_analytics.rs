//! Graph-analytics scenario: BFS and SSSP on Delta vs. the
//! static-parallel design, showing why dynamic task creation is the
//! decisive mechanism for frontier algorithms.
//!
//! The task-parallel formulation touches each edge O(1) times; the
//! static-parallel design must sweep *every* edge *every* level/round,
//! because without hardware tasks there is nothing to carry the
//! frontier.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use taskstream::delta::{Accelerator, DeltaConfig};
use taskstream::workloads::{bfs::Bfs, sssp::Sssp, Workload};

fn compare(wl: &dyn Workload) {
    let mut task_parallel = wl.make_program();
    let delta = Accelerator::new(DeltaConfig::delta(8))
        .run(task_parallel.as_mut())
        .expect("delta run");
    wl.validate(&delta).expect("delta results");

    let mut sweeps = wl.make_baseline_program();
    let baseline = Accelerator::new(DeltaConfig::static_parallel(8))
        .run(sweeps.as_mut())
        .expect("baseline run");
    wl.validate(&baseline).expect("baseline results");

    println!("--- {} ---", wl.name());
    println!(
        "  delta  (frontier tasks): {:>9} cycles, {:>6} tasks",
        delta.cycles, delta.tasks_completed
    );
    println!(
        "  static (full sweeps):    {:>9} cycles, {:>6} tasks",
        baseline.cycles, baseline.tasks_completed
    );
    println!(
        "  speedup {:.2}x  (dram words: {:.0} vs {:.0})",
        baseline.cycles as f64 / delta.cycles as f64,
        delta.dram_words(),
        baseline.dram_words(),
    );
}

fn main() {
    println!("graph analytics on Delta (8 tiles) vs static-parallel design\n");
    compare(&Bfs::small(42));
    compare(&Sssp::small(42));
}
