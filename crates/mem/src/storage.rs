//! Functional word-addressed backing store.

use crate::{Addr, Value};
use std::borrow::Cow;

/// A flat, word-addressed store of `i64` values.
///
/// Its capacity bounds the addresses it accepts: an access at or past
/// it panics, because an out-of-range address is always a
/// workload-construction bug and silently returning zero would hide it.
///
/// Memory follows what a run writes, not the capacity: the backing
/// words end at the highest word any [`write`](Storage::write),
/// [`update`](Storage::update) or [`load`](Storage::load) has reached,
/// and every word past them reads as zero. A DRAM store spans millions
/// of words of which a run touches a small share.
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
    /// Words from address zero up to the highest one written.
    words: Vec<Value>,
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
    /// allocated until a word is written.
    pub fn new(words: usize) -> Self {
        Storage {
            words: Vec::new(),
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
        self.words.get(self.check(addr)).copied().unwrap_or(0)
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

    /// Allocates room for the words below `end` (at most the capacity)
    /// ahead of the [`load`](Storage::load)s that will write them, so
    /// an image loads into one allocation of exactly its size.
    pub fn reserve(&mut self, end: usize) {
        let end = end.min(self.capacity);
        self.words
            .reserve_exact(end.saturating_sub(self.words.len()));
    }

    /// Copies a slice into memory starting at `base`, growing the
    /// backing words to its end. An empty slice touches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn load(&mut self, base: Addr, data: &[Value]) {
        let start = self.check_span(base, data.len());
        if data.is_empty() {
            return;
        }
        if start >= self.words.len() {
            self.words.resize(start, 0);
            self.words.extend_from_slice(data);
        } else {
            let end = start + data.len();
            if end > self.words.len() {
                self.words.resize(end, 0);
            }
            self.words[start..end].copy_from_slice(data);
        }
    }

    /// Reads `len` consecutive words starting at `base`: borrowed when
    /// they were all written, a zero-padded copy when the range runs
    /// past the highest word written.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn read_range(&self, base: Addr, len: usize) -> Cow<'_, [Value]> {
        let start = self.check_span(base, len);
        match self.words.get(start..start + len) {
            Some(words) => Cow::Borrowed(words),
            None => {
                let mut words = self.words.get(start..).unwrap_or_default().to_vec();
                words.resize(len, 0);
                Cow::Owned(words)
            }
        }
    }

    /// The word at `addr`, growing the backing words to reach it.
    #[inline]
    fn slot(&mut self, addr: Addr) -> &mut Value {
        let i = self.check(addr);
        if i >= self.words.len() {
            self.grow(i + 1);
        }
        &mut self.words[i]
    }

    /// Extends the backing words to `end`, at least doubling the
    /// allocation (so a run of writes up an address range costs
    /// amortized constant time) but never past the capacity.
    #[cold]
    fn grow(&mut self, end: usize) {
        let len = self.words.len();
        let target = end.max(2 * len).min(self.capacity);
        self.words.reserve_exact(target - len);
        self.words.resize(end, 0);
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
        assert_eq!(s.read_range(4, 3), &[5, 6, 7][..]);
        assert_eq!(s.read(3), 0);
    }

    #[test]
    fn writes_grow_the_store_and_unwritten_words_read_zero() {
        let mut s = Storage::new(1000);
        assert!(s.words.is_empty(), "a fresh store allocates nothing");
        s.write(990, 5);
        assert_eq!(s.words.len(), 991, "the write near capacity grew it");
        assert_eq!(s.read(990), 5);
        assert_eq!((s.read(0), s.read(989)), (0, 0), "below the write");
        assert_eq!(s.read(999), 0, "past the grown end");
        s.update(995, -3, WriteMode::Add);
        assert_eq!(s.read(995), -3);
        assert!(s.words.capacity() <= 1000, "growth stops at capacity");
        let copy = s.clone();
        assert_eq!((copy.read(990), copy.read(995)), (5, -3));
    }

    #[test]
    fn the_allocation_follows_the_writes_not_the_capacity() {
        let mut s = Storage::new(1 << 40);
        s.reserve(103);
        s.load(100, &[1, 2, 3]);
        s.load(0, &[4; 100]);
        assert_eq!(s.words.len(), 103, "the loads grew it to their end");
        assert_eq!(s.words.capacity(), 103, "into the one reserved allocation");
        assert_eq!((s.read(99), s.read(100), s.read(102)), (4, 1, 3));
        s.load(7, &[]);
        s.load(900, &[]);
        assert_eq!(s.words.len(), 103, "an empty load touches nothing");
        for a in 0..500 {
            s.write(a, a as Value);
        }
        assert_eq!(s.words.len(), 500);
        assert!(s.words.capacity() < 1000, "doubling, not capacity");
        assert_eq!(s.read((1 << 40) - 1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_address_at_capacity_panics_even_unwritten() {
        let mut s = Storage::new(1 << 40);
        s.write(3, 1);
        s.read(1 << 40);
    }

    #[test]
    fn ranges_past_the_grown_end_read_zeros() {
        let mut s = Storage::new(64);
        s.load(4, &[5, 6, 7]);
        assert!(matches!(s.read_range(4, 3), Cow::Borrowed(&[5, 6, 7])));
        assert_eq!(s.read_range(5, 6), &[6, 7, 0, 0, 0, 0][..]);
        assert_eq!(s.read_range(40, 24), &[0; 24][..]);
        assert_eq!(s.read_range(64, 0), &[][..]);
        assert_eq!(Storage::new(8).read_range(0, 8), &[0; 8][..]);
    }
}
