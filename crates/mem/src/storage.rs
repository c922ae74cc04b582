//! Functional word-addressed backing store.

use crate::{Addr, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Words per page: 32 KiB, under glibc's default 128 KiB mmap
/// threshold, so owning a page never maps fresh memory.
const PAGE_WORDS: usize = 4096;

/// What every never-written word reads as.
static ZERO_WORDS: [Value; PAGE_WORDS] = [0; PAGE_WORDS];

/// One page of a [`Storage`].
#[derive(Debug, Clone)]
enum Page {
    /// Never written: reads as zero and holds no memory.
    Zero,
    /// Words `offset..offset + PAGE_WORDS` of a shared image segment,
    /// mapped by [`Storage::load_shared`] and never written since.
    Shared(Arc<[Value]>, usize),
    /// A private copy, made by the first write to the page.
    Owned(Box<[Value]>),
}

/// The page every address past a store's pages is on.
static ZERO_PAGE: Page = Page::Zero;

impl Page {
    /// The page's `PAGE_WORDS` words.
    #[inline]
    fn words(&self) -> &[Value] {
        match self {
            Page::Zero => &ZERO_WORDS,
            Page::Shared(segment, offset) => &segment[*offset..*offset + PAGE_WORDS],
            Page::Owned(words) => words,
        }
    }

    /// True when both pages are known to hold the same words without
    /// reading them: both zero, or one segment's page at one offset.
    fn same_mapping(&self, other: &Page) -> bool {
        match (self, other) {
            (Page::Zero, Page::Zero) => true,
            (Page::Shared(a, i), Page::Shared(b, j)) => Arc::ptr_eq(a, b) && i == j,
            _ => false,
        }
    }
}

/// Splits words `start..start + len` at page boundaries into
/// `(page, first word within the page, words before it in the range,
/// words)` spans.
fn page_spans(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let lo = at % PAGE_WORDS;
            let n = (end - at).min(PAGE_WORDS - lo);
            let span = (at / PAGE_WORDS, lo, at - start, n);
            at += n;
            span
        })
    })
}

/// A paged, copy-on-write, word-addressed store of `i64` values.
///
/// Its capacity bounds the addresses it accepts: an access at or past
/// it panics, because an out-of-range address is always a
/// workload-construction bug and silently returning zero would hide it.
///
/// Memory follows what a run writes, not the capacity. The store is a
/// list of 4096-word pages, each of them zero (no memory), shared
/// (mapped from a program's image segment by
/// [`load_shared`](Storage::load_shared), costing a reference count) or
/// owned. A page is copied the first time it is written, so a run that
/// only reads its input never copies it, and the list ends at the
/// highest page anything reached. A DRAM store spans millions of words
/// of which a run writes a small share.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ts_mem::Storage;
///
/// let mut s = Storage::new(1 << 20);
/// s.write(3, -7);
/// assert_eq!(s.read(3), -7);
/// assert_eq!(s.read(4), 0); // untouched words read as zero
///
/// let image: Arc<[i64]> = (0..10_000).collect();
/// s.load_shared(8192, &image); // maps the pages it covers whole
/// assert_eq!(s.read(8192 + 9_999), 9_999);
/// ```
#[derive(Debug, Clone)]
pub struct Storage {
    /// Pages from address zero up to the highest one reached.
    pages: Vec<Page>,
    capacity: usize,
}

/// Read-modify-write modes supported by the memory system's update units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Plain store.
    Overwrite,
    /// `mem[a] = min(mem[a], v)` — used by relaxation kernels (SSSP).
    Min,
    /// `mem[a] = mem[a] + v` (wrapping) — used by histogram/update kernels.
    Add,
}

impl WriteMode {
    /// The word a write of `value` leaves over `old`.
    pub fn apply(self, old: Value, value: Value) -> Value {
        match self {
            WriteMode::Overwrite => value,
            WriteMode::Min => old.min(value),
            WriteMode::Add => old.wrapping_add(value),
        }
    }
}

impl Storage {
    /// Creates a zero-initialized store of `words` words. Nothing is
    /// allocated until a word is written or loaded.
    pub fn new(words: usize) -> Self {
        Storage {
            pages: Vec::new(),
            capacity: words,
        }
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.capacity
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.capacity == 0
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&self, addr: Addr) -> Value {
        let i = self.check(addr);
        self.page(i / PAGE_WORDS).words()[i % PAGE_WORDS]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Value) {
        *self.slot(addr) = value;
    }

    /// Applies a read-modify-write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn update(&mut self, addr: Addr, value: Value, mode: WriteMode) {
        let word = self.slot(addr);
        *word = mode.apply(*word, value);
    }

    /// Loads `segment` at `base` without copying it: every page the
    /// segment covers whole maps the segment (whatever the page held
    /// before), and only the at most two pages it covers in part, at
    /// its ends, are copied. An empty segment touches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not fit.
    pub fn load_shared(&mut self, base: Addr, segment: &Arc<[Value]>) {
        let start = self.check_span(base, segment.len());
        for (page, lo, at, n) in page_spans(start, segment.len()) {
            if n == PAGE_WORDS {
                self.grow_to(page);
                self.pages[page] = Page::Shared(Arc::clone(segment), at);
            } else {
                self.page_mut(page)[lo..lo + n].copy_from_slice(&segment[at..at + n]);
            }
        }
    }

    /// Reads `len` consecutive words starting at `base`: borrowed when
    /// they lie on one page, else copied a page's slice at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn read_range(&self, base: Addr, len: usize) -> Cow<'_, [Value]> {
        let start = self.check_span(base, len);
        let lo = start % PAGE_WORDS;
        if lo + len <= PAGE_WORDS {
            return Cow::Borrowed(&self.page(start / PAGE_WORDS).words()[lo..lo + len]);
        }
        let mut words = Vec::with_capacity(len);
        for (page, lo, _, n) in page_spans(start, len) {
            words.extend_from_slice(&self.page(page).words()[lo..lo + n]);
        }
        Cow::Owned(words)
    }

    /// The words below both capacities where `self` and `other` differ,
    /// in address order, as `(address, self's word, other's word)`.
    /// Pages that both stores map from one segment at one offset, or
    /// that neither ever reached, are skipped unread.
    pub fn diff<'a>(
        &'a self,
        other: &'a Storage,
    ) -> impl Iterator<Item = (Addr, Value, Value)> + 'a {
        let end = self.capacity.min(other.capacity);
        let pages = self.pages.len().max(other.pages.len());
        (0..pages.min(end.div_ceil(PAGE_WORDS)))
            .filter(move |&p| !self.page(p).same_mapping(other.page(p)))
            .flat_map(move |p| {
                let first = p * PAGE_WORDS;
                let n = PAGE_WORDS.min(end - first);
                let (a, b) = (&self.page(p).words()[..n], &other.page(p).words()[..n]);
                a.iter()
                    .zip(b)
                    .enumerate()
                    .filter(|(_, (x, y))| x != y)
                    .map(move |(i, (&x, &y))| ((first + i) as Addr, x, y))
            })
    }

    /// Page `p`, zero past the highest page reached.
    #[inline]
    fn page(&self, p: usize) -> &Page {
        self.pages.get(p).unwrap_or(&ZERO_PAGE)
    }

    /// The word at `addr`, copying its page first if it is not owned.
    #[inline]
    fn slot(&mut self, addr: Addr) -> &mut Value {
        let i = self.check(addr);
        &mut self.page_mut(i / PAGE_WORDS)[i % PAGE_WORDS]
    }

    /// Page `p`'s words, owned by this store.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut [Value] {
        if !matches!(self.pages.get(p), Some(Page::Owned(_))) {
            self.own(p);
        }
        match &mut self.pages[p] {
            Page::Owned(words) => words,
            _ => unreachable!("own() leaves page {p} owned"),
        }
    }

    /// Replaces page `p` with an owned copy of its words.
    #[cold]
    fn own(&mut self, p: usize) {
        self.grow_to(p);
        let words = self.pages[p].words().into();
        self.pages[p] = Page::Owned(words);
    }

    /// Extends the page list through page `p`.
    fn grow_to(&mut self, p: usize) {
        if p >= self.pages.len() {
            self.pages.resize(p + 1, Page::Zero);
        }
    }

    #[inline]
    fn check(&self, addr: Addr) -> usize {
        let i = addr as usize;
        assert!(
            i < self.capacity,
            "address {addr} out of range (capacity {})",
            self.capacity
        );
        i
    }

    fn check_span(&self, base: Addr, len: usize) -> usize {
        let start = base as usize;
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= self.capacity),
            "range {base}+{len} out of range (capacity {})",
            self.capacity
        );
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pages the store owns a copy of.
    fn owned(s: &Storage) -> usize {
        s.pages
            .iter()
            .filter(|p| matches!(p, Page::Owned(_)))
            .count()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = Storage::new(8);
        s.write(0, 1);
        s.write(7, -1);
        assert_eq!(s.read(0), 1);
        assert_eq!(s.read(7), -1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        Storage::new(4).read(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_shared_load_panics() {
        Storage::new(4).load_shared(2, &Arc::from(vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_address_at_capacity_panics_even_unwritten() {
        let mut s = Storage::new(1 << 40);
        s.write(3, 1);
        s.read(1 << 40);
    }

    #[test]
    fn update_modes() {
        let mut s = Storage::new(4);
        s.write(0, 10);
        s.update(0, 3, WriteMode::Min);
        assert_eq!(s.read(0), 3);
        s.update(0, 100, WriteMode::Min);
        assert_eq!(s.read(0), 3);
        s.update(0, 5, WriteMode::Add);
        assert_eq!(s.read(0), 8);
        s.update(0, 2, WriteMode::Overwrite);
        assert_eq!(s.read(0), 2);
    }

    #[test]
    fn a_fresh_store_owns_no_page() {
        let s = Storage::new(1 << 40);
        assert!(s.pages.is_empty());
        assert_eq!((s.read(0), s.read((1 << 40) - 1)), (0, 0));
        assert_eq!(s.read_range(100, 3 * PAGE_WORDS), vec![0; 3 * PAGE_WORDS]);
        assert!(s.pages.is_empty(), "reads allocate nothing");
    }

    #[test]
    fn a_write_copies_exactly_one_page() {
        let image: Arc<[Value]> = (0..3 * PAGE_WORDS as Value).collect();
        let mut s = Storage::new(4 * PAGE_WORDS);
        s.load_shared(0, &image);
        assert_eq!((owned(&s), Arc::strong_count(&image)), (0, 4));
        s.write(PAGE_WORDS as Addr + 5, -1);
        assert_eq!(owned(&s), 1);
        assert_eq!(Arc::strong_count(&image), 3, "the written page let go");
        s.update(2 * PAGE_WORDS as Addr - 1, 1, WriteMode::Add);
        assert_eq!(owned(&s), 1, "a second write to the page copies nothing");
        assert_eq!(s.read(PAGE_WORDS as Addr + 5), -1);
        assert_eq!(s.read(PAGE_WORDS as Addr + 6), PAGE_WORDS as Value + 6);
        assert_eq!(s.read(2 * PAGE_WORDS as Addr - 1), 2 * PAGE_WORDS as Value);
        s.write(4 * PAGE_WORDS as Addr - 1, 9);
        assert_eq!(owned(&s), 2, "a write past the image owns one zero page");
        assert_eq!(s.pages.len(), 4);
        drop(s);
        assert_eq!(Arc::strong_count(&image), 1);
    }

    #[test]
    fn only_the_boundary_pages_of_a_segment_are_copied() {
        let image: Arc<[Value]> = (1..=3 * PAGE_WORDS as Value).collect();
        let mut s = Storage::new(5 * PAGE_WORDS);
        s.load_shared(100, &image);
        assert_eq!(owned(&s), 2, "the segment's first and last pages");
        assert_eq!(Arc::strong_count(&image), 3, "two pages mapped whole");
        assert_eq!((s.read(99), s.read(100)), (0, 1));
        let end = 100 + 3 * PAGE_WORDS as Addr;
        assert_eq!((s.read(end - 1), s.read(end)), (3 * PAGE_WORDS as Value, 0));
        let range = s.read_range(PAGE_WORDS as Addr, PAGE_WORDS);
        assert!(matches!(range, Cow::Borrowed(_)), "one page borrows");
        assert_eq!(range[0], PAGE_WORDS as Value - 99);
        s.load_shared(0, &Arc::from(vec![7; 5]));
        assert_eq!(owned(&s), 2, "a load onto an owned page copies nothing");
    }

    #[test]
    fn ranges_read_across_pages_and_past_the_written_words() {
        let mut s = Storage::new(3 * PAGE_WORDS);
        s.load_shared(4, &Arc::from(vec![5, 6, 7]));
        assert!(matches!(s.read_range(4, 3), Cow::Borrowed(&[5, 6, 7])));
        assert_eq!(s.read_range(5, 6), &[6, 7, 0, 0, 0, 0][..]);
        let edge = PAGE_WORDS as Addr - 1;
        s.write(edge, 1);
        s.write(edge + 1, 2);
        assert_eq!(s.read_range(edge - 1, 4), &[0, 1, 2, 0][..]);
        assert_eq!(s.read_range(3 * PAGE_WORDS as Addr, 0), &[][..]);
        assert_eq!(Storage::new(8).read_range(0, 8), &[0; 8][..]);
    }

    #[test]
    fn diff_skips_pages_mapped_alike_and_finds_the_rest() {
        let image: Arc<[Value]> = vec![3; 2 * PAGE_WORDS].into();
        let mut a = Storage::new(3 * PAGE_WORDS);
        a.load_shared(10, &image);
        let mut b = a.clone();
        assert_eq!(a.diff(&b).count(), 0);
        b.write(PAGE_WORDS as Addr + 1, 3);
        assert_eq!(a.diff(&b).count(), 0, "an owned copy of equal words");
        b.write(PAGE_WORDS as Addr + 2, 4);
        b.write(3, 5);
        let small = Storage::new(PAGE_WORDS + 1);
        let got: Vec<_> = b.diff(&a).collect();
        assert_eq!(got, [(3, 5, 0), (PAGE_WORDS as Addr + 2, 4, 3)]);
        let got: Vec<_> = b.diff(&small).collect();
        assert_eq!(got.len(), PAGE_WORDS - 10 + 2, "up to the smaller capacity");
        assert_eq!(got.last(), Some(&(PAGE_WORDS as Addr, 3, 0)));
    }

    /// One store operation, applied alike to a store and a dense model.
    #[derive(Debug, Clone)]
    enum Op {
        Load(Addr, Vec<Value>),
        Write(Addr, Value),
        Update(Addr, Value, WriteMode),
        Read(Addr),
        ReadRange(Addr, usize),
    }

    /// A small capacity that ends inside a page.
    const CAP: usize = 3 * PAGE_WORDS + 100;

    /// Addresses that cluster at page boundaries half the time.
    fn addr() -> impl Strategy<Value = Addr> {
        prop_oneof![
            0..CAP as Addr,
            (1..4u64, 0..8u64).prop_map(|(p, d)| p * PAGE_WORDS as Addr - 4 + d),
        ]
    }

    /// Segments of up to one and a half pages that fit from `base`.
    fn segment() -> impl Strategy<Value = (Addr, Vec<Value>)> {
        (addr(), 0..3 * PAGE_WORDS / 2, -9..9i64).prop_filter_map("fits", |(base, len, v)| {
            (base as usize + len <= CAP).then(|| (base, (0..len as i64).map(|i| v * i).collect()))
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        let mode = prop_oneof![
            Just(WriteMode::Overwrite),
            Just(WriteMode::Min),
            Just(WriteMode::Add)
        ];
        prop_oneof![
            // Twice as likely as one arm, so most sequences load
            // overlapping segments.
            segment().prop_map(|(b, w)| Op::Load(b, w)),
            segment().prop_map(|(b, w)| Op::Load(b, w)),
            (addr(), -50..50i64).prop_map(|(a, v)| Op::Write(a, v)),
            (addr(), -50..50i64, mode).prop_map(|(a, v, m)| Op::Update(a, v, m)),
            addr().prop_map(Op::Read),
            segment().prop_map(|(b, w)| Op::ReadRange(b, w.len())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of operations, overlapping segments included
        /// (the later one wins), reads back as a dense word array would.
        #[test]
        fn the_store_matches_a_dense_model(ops in prop::collection::vec(op(), 1..24)) {
            let mut s = Storage::new(CAP);
            let mut model = vec![0; CAP];
            for op in ops {
                match op {
                    Op::Load(base, words) => {
                        s.load_shared(base, &Arc::from(words.clone()));
                        model[base as usize..][..words.len()].copy_from_slice(&words);
                    }
                    Op::Write(a, v) => {
                        s.write(a, v);
                        model[a as usize] = v;
                    }
                    Op::Update(a, v, mode) => {
                        s.update(a, v, mode);
                        model[a as usize] = mode.apply(model[a as usize], v);
                    }
                    Op::Read(a) => prop_assert_eq!(s.read(a), model[a as usize]),
                    Op::ReadRange(base, len) => {
                        prop_assert_eq!(&*s.read_range(base, len), &model[base as usize..][..len]);
                    }
                }
            }
            prop_assert_eq!(&*s.read_range(0, CAP), &model[..]);
        }
    }
}
