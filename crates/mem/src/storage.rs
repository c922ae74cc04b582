//! Functional word-addressed backing store.

use crate::{Addr, Value};
use std::cell::Cell;

/// Stores of at least this many words are recycled (see [`SPARE`]).
/// Smaller ones, scratchpads among them, are cheap to allocate afresh.
const RECYCLE_WORDS: usize = 1 << 16;

thread_local! {
    /// The last large store this thread dropped, already zeroed, for
    /// the next large [`Storage::new`]. A DRAM store spans millions of
    /// words of which a run touches a small share. Allocated afresh,
    /// each one is either mapped anew (page faults on every touched
    /// page) or, once the allocator has seen such a block freed,
    /// carved from its heap and zeroed in full. Recycled, it costs a
    /// clear of the words the previous run touched.
    static SPARE: Cell<Vec<Value>> = const { Cell::new(Vec::new()) };
}

/// A flat, word-addressed store of `i64` values.
///
/// Reads outside the configured capacity panic: an out-of-range address
/// is always a workload-construction bug and silently returning zero
/// would hide it.
///
/// The store also remembers how far writes have reached: its touched
/// mark is one past the highest word any [`write`](Storage::write),
/// [`update`](Storage::update) or [`load`](Storage::load) has touched,
/// so every word at or above it is still zero. A large store dropped
/// for reuse is cleared only up to there, not over the whole capacity,
/// most of which a run never touches.
///
/// # Examples
///
/// ```
/// use ts_mem::Storage;
///
/// let mut s = Storage::new(16);
/// s.write(3, -7);
/// assert_eq!(s.read(3), -7);
/// assert_eq!(s.read(4), 0); // untouched words read as zero
/// ```
#[derive(Debug, Clone)]
pub struct Storage {
    words: Vec<Value>,
    /// One past the highest word ever written; zero for a fresh store.
    touched: usize,
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
    /// Creates a zero-initialized store of `words` words. A large one
    /// reuses the allocation of the last large store this thread
    /// dropped, which was cleared up to its touched mark on the way
    /// out, so making a DRAM store costs what the previous run wrote
    /// rather than a fresh multi-megabyte allocation.
    pub fn new(words: usize) -> Self {
        let mut spare = Vec::new();
        if words >= RECYCLE_WORDS {
            spare = SPARE.try_with(Cell::take).unwrap_or_default();
        }
        if spare.is_empty() {
            spare = vec![0; words];
        } else {
            spare.resize(words, 0);
        }
        Storage {
            words: spare,
            touched: 0,
        }
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// One past the highest word ever written (zero if none was): every
    /// word from here to [`len`](Storage::len) reads as zero. A write
    /// of zero still counts, so this is an upper bound on the non-zero
    /// words, not an exact one.
    #[cfg(test)]
    pub(crate) fn touched(&self) -> usize {
        self.touched
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&self, addr: Addr) -> Value {
        self.words[self.check(addr)]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Value) {
        let i = self.check(addr);
        self.words[i] = value;
        self.touched = self.touched.max(i + 1);
    }

    /// Applies a read-modify-write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn update(&mut self, addr: Addr, value: Value, mode: WriteMode) {
        let i = self.check(addr);
        self.words[i] = mode.apply(self.words[i], value);
        self.touched = self.touched.max(i + 1);
    }

    /// Copies a slice into memory starting at `base`. An empty slice
    /// touches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn load(&mut self, base: Addr, data: &[Value]) {
        let start = self.check_span(base, data.len());
        self.words[start..start + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            self.touched = self.touched.max(start + data.len());
        }
    }

    /// Reads `len` consecutive words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn read_range(&self, base: Addr, len: usize) -> &[Value] {
        let start = self.check_span(base, len);
        &self.words[start..start + len]
    }

    #[inline]
    fn check(&self, addr: Addr) -> usize {
        let i = addr as usize;
        assert!(
            i < self.words.len(),
            "address {addr} out of range (capacity {})",
            self.words.len()
        );
        i
    }

    fn check_span(&self, base: Addr, len: usize) -> usize {
        let start = base as usize;
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= self.words.len()),
            "range {base}+{len} out of range (capacity {})",
            self.words.len()
        );
        start
    }
}

impl Drop for Storage {
    /// Hands a large store back for reuse, cleared up to its touched
    /// mark (every word above it is zero already).
    fn drop(&mut self) {
        if self.words.len() >= RECYCLE_WORDS {
            self.words[..self.touched].fill(0);
            let words = std::mem::take(&mut self.words);
            // a thread that is exiting frees the store instead
            let _ = SPARE.try_with(|spare| spare.set(words));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn oob_load_panics() {
        Storage::new(4).load(2, &[1, 2, 3]);
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
    fn load_and_read_range() {
        let mut s = Storage::new(10);
        s.load(4, &[5, 6, 7]);
        assert_eq!(s.read_range(4, 3), &[5, 6, 7]);
        assert_eq!(s.read(3), 0);
    }

    #[test]
    fn touched_follows_the_highest_write() {
        let mut s = Storage::new(100);
        assert_eq!(s.touched(), 0);
        s.write(9, 0);
        assert_eq!(s.touched(), 10, "a zero write still touches its word");
        s.write(3, 1);
        assert_eq!(s.touched(), 10, "a lower write does not shrink it");
        s.update(19, 5, WriteMode::Add);
        assert_eq!(s.touched(), 20);
        s.update(19, -5, WriteMode::Add);
        assert_eq!(s.touched(), 20, "an update back to zero keeps it");
        s.update(29, 0, WriteMode::Min);
        assert_eq!(s.touched(), 30);
        s.load(90, &[]);
        assert_eq!(s.touched(), 30, "an empty load touches nothing");
        s.load(40, &[1, 2]);
        assert_eq!(s.touched(), 42);
        s.write(99, 7);
        assert_eq!(s.touched(), 100, "the last word");
        let copy = s.clone();
        assert_eq!(copy.touched(), 100);
        assert_eq!(Storage::new(8).touched(), 0);
    }

    #[test]
    fn a_recycled_store_reads_as_zero() {
        let n = RECYCLE_WORDS + 100;
        // same size, shrunk, regrown within the old allocation, grown
        for words in [n, n, n - 20, n, n + 300] {
            let mut s = Storage::new(words);
            assert_eq!(s.touched(), 0);
            assert!(s.read_range(0, words).iter().all(|&w| w == 0));
            s.write(0, 1);
            s.load(500, &[3; 10]);
            s.update(words as Addr - 50, 5, WriteMode::Add);
            s.write(words as Addr - 1, -1);
        }
    }
}
