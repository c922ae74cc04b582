//! Quickstart: run one task-parallel workload on Delta and on the
//! static-parallel baseline, validate both, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use taskstream::delta::{Accelerator, DeltaConfig};
use taskstream::workloads::{spmv::Spmv, Workload};

fn main() {
    // A seeded sparse matrix-vector multiply with power-law row lengths
    // — the classic load-imbalance workload.
    let workload = Spmv::small(42);
    println!(
        "spmv: {} rows, {} non-zeros, {} tasks",
        workload.n,
        workload.nnz(),
        workload.info().tasks
    );

    // Delta: the TaskStream accelerator (work-aware balancing,
    // pipelined dependences, multicast).
    let mut program = workload.make_program();
    let delta = Accelerator::new(DeltaConfig::delta(8))
        .run(program.as_mut())
        .expect("delta run");
    workload.validate(&delta).expect("delta results correct");

    // The equivalent static-parallel design: same tiles, fabric, memory
    // — tasks hashed to fixed owners, dependences through DRAM.
    let mut baseline = workload.make_baseline_program();
    let static_run = Accelerator::new(DeltaConfig::static_parallel(8))
        .run(baseline.as_mut())
        .expect("baseline run");
    workload
        .validate(&static_run)
        .expect("baseline results correct");

    println!(
        "delta:  {:>9} cycles (imbalance {:.2})",
        delta.cycles,
        delta.load_imbalance()
    );
    println!(
        "static: {:>9} cycles (imbalance {:.2})",
        static_run.cycles,
        static_run.load_imbalance()
    );
    println!(
        "speedup: {:.2}x",
        static_run.cycles as f64 / delta.cycles as f64
    );
}
