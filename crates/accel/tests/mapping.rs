//! The modelled memories map the program's image instead of copying it:
//! the timed run's DRAM store and every tile's scratchpad, and the
//! oracle's memory, hold clones of the image segments' `Arc`s, and a
//! page is copied only when a run writes it. The equivalence check
//! compares the two final stores page by page, so these tests also pin
//! that it reads every page one side has written.

use std::sync::Arc;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::oracle::{check_equivalence, execute_untimed};
use ts_delta::{Accelerator, DeltaConfig};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::StreamDesc;

/// Words per store page.
const PAGE: u64 = 4096;
/// Where the DRAM segment starts: inside page 0, so the segment covers
/// pages 1 and 2 whole and pages 0 and 3 in part.
const BASE: u64 = 100;
/// DRAM pages the segment covers whole, so maps rather than copies.
const MAPPED: usize = 2;
const TILES: usize = 4;

/// The DRAM image word at `addr`.
fn image_word(addr: u64) -> i64 {
    (addr - BASE + 1) as i64
}

/// One task that reads DRAM word `at` and, when `write` is set, writes
/// it back plus one; otherwise it discards the result. On completion it
/// records how many clones of each image segment are alive.
struct Patch {
    dram: Arc<[i64]>,
    spad: Arc<[i64]>,
    at: u64,
    write: bool,
    /// `(DRAM segment, scratchpad segment)` strong counts mid-run.
    seen: Option<(usize, usize)>,
}

impl Patch {
    fn new(at: u64, write: bool) -> Self {
        Patch {
            dram: (BASE..BASE + 3 * PAGE).map(image_word).collect(),
            spad: vec![7; PAGE as usize].into(),
            at,
            write,
            seen: None,
        }
    }

    /// A program over the same image segments.
    fn sharing(&self, at: u64, write: bool) -> Self {
        Patch {
            dram: Arc::clone(&self.dram),
            spad: Arc::clone(&self.spad),
            ..Patch::new(at, write)
        }
    }

    fn counts(&self) -> (usize, usize) {
        (Arc::strong_count(&self.dram), Arc::strong_count(&self.spad))
    }
}

impl Program for Patch {
    fn name(&self) -> &str {
        "patch"
    }
    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("inc");
        let x = b.input();
        let one = b.constant(1);
        let y = b.add(x, one);
        b.output(y);
        vec![TaskType::new("inc", TaskKernel::dfg(b.finish().unwrap()))]
    }
    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new()
            .dram_segment(BASE, Arc::clone(&self.dram))
            .spad_segment(0, Arc::clone(&self.spad))
    }
    fn initial(&mut self, s: &mut Spawner) {
        let task = TaskInstance::new(TaskTypeId(0)).input_stream(StreamDesc::dram(self.at, 1));
        s.spawn(if self.write {
            task.output_memory(StreamDesc::dram(self.at, 1), WriteMode::Overwrite)
        } else {
            task.output_discard()
        });
    }
    fn on_complete(&mut self, _: &CompletedTask, _: &mut Spawner) {
        self.seen = Some(self.counts());
    }
}

#[test]
fn a_timed_run_maps_the_image_and_releasing_its_report_gives_it_back() {
    // the write lands on page 0, which the load already copied
    let mut p = Patch::new(BASE, true);
    let mut report = Accelerator::new(DeltaConfig::delta(TILES))
        .run(&mut p)
        .unwrap();
    assert_eq!(
        p.seen,
        Some((1 + MAPPED, 1 + TILES)),
        "mid-run, DRAM maps two pages and each tile's scratchpad one"
    );
    assert_eq!(p.counts(), (1 + MAPPED, 1), "the report keeps DRAM's pages");
    assert_eq!(report.dram(BASE), image_word(BASE) + 1);
    assert_eq!(report.dram(2 * PAGE), image_word(2 * PAGE));
    report.release_dram();
    assert_eq!(
        p.counts(),
        (1, 1),
        "releasing the store lets go of the image"
    );
}

#[test]
fn a_write_to_a_mapped_page_copies_that_page_only() {
    let mut p = Patch::new(PAGE + 5, true);
    let report = Accelerator::new(DeltaConfig::delta(TILES))
        .run(&mut p)
        .unwrap();
    assert_eq!(p.counts().0, MAPPED, "page 1 was copied, page 2 still maps");
    assert_eq!(report.dram(PAGE + 5), image_word(PAGE + 5) + 1);
    assert_eq!(report.dram(PAGE + 6), image_word(PAGE + 6));
}

#[test]
fn the_oracle_maps_the_image_and_dropping_its_outcome_gives_it_back() {
    let mut p = Patch::new(BASE, true);
    let outcome = execute_untimed(&mut p).unwrap();
    assert_eq!(
        p.seen,
        Some((1 + MAPPED, 2)),
        "mid-run, the oracle maps DRAM's two pages and its one scratchpad's"
    );
    assert_eq!(
        p.counts(),
        (1 + MAPPED, 1),
        "the outcome keeps DRAM's pages"
    );
    assert_eq!(outcome.dram(BASE), image_word(BASE) + 1);
    drop(outcome);
    assert_eq!(p.counts(), (1, 1));
}

#[test]
fn equivalence_reads_every_page_either_side_wrote() {
    // word 5000 lies on page 1, which the oracle still maps while the
    // timed store owns a copy; word 200 on page 0, which both copied
    for at in [PAGE + 904, 2 * BASE] {
        let mut timed_program = Patch::new(at, true);
        let mut oracle_program = timed_program.sharing(at, false);
        let timed = Accelerator::new(DeltaConfig::delta(TILES))
            .run(&mut timed_program)
            .unwrap();
        let oracle = execute_untimed(&mut oracle_program).unwrap();
        let err = check_equivalence(&timed, &oracle).unwrap_err();
        let want = image_word(at);
        assert_eq!(
            err,
            format!(
                "final DRAM diverges on 1+ word(s):\n  dram[{at}]: timed {} vs oracle {want}",
                want + 1
            )
        );
        let agreeing = execute_untimed(&mut timed_program.sharing(at, true)).unwrap();
        check_equivalence(&timed, &agreeing).expect("both sides wrote the word");
    }
}
