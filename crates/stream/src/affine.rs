//! Affine (up to 3-deep loop nest) address patterns.

use crate::Addr;

/// An affine address pattern: a loop nest of up to three levels.
///
/// Addresses are generated as
/// `base + i2*stride2 + i1*stride1 + i0*stride0` with `i0` innermost,
/// `i0 < len0`, `i1 < len1`, `i2 < len2`. A 1-D pattern sets the outer
/// lengths to 1.
///
/// Strides are signed (descending patterns are legal); generated
/// addresses must stay non-negative, which [`Affine::new`] validates.
///
/// # Examples
///
/// ```
/// use ts_stream::Affine;
///
/// let a = Affine::dims1(100, 3, 4); // 100, 103, 106, 109
/// let addrs: Vec<u64> = a.iter().collect();
/// assert_eq!(addrs, vec![100, 103, 106, 109]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine {
    base: Addr,
    stride: [i64; 3],
    len: [u64; 3],
}

impl Affine {
    /// Creates a general 3-level pattern.
    ///
    /// `stride[0]`/`len[0]` are the innermost loop. Lengths of zero are
    /// allowed and produce an empty stream.
    ///
    /// # Panics
    ///
    /// Panics if any generated address would be negative or overflow.
    pub fn new(base: Addr, stride: [i64; 3], len: [u64; 3]) -> Self {
        let a = Affine { base, stride, len };
        // validate extreme corners: min/max offset across the nest
        let mut min_off: i128 = 0;
        let mut max_off: i128 = 0;
        for d in 0..3 {
            if len[d] == 0 {
                // empty stream generates nothing; still fine
                continue;
            }
            let span = (len[d] as i128 - 1) * stride[d] as i128;
            if span < 0 {
                min_off += span;
            } else {
                max_off += span;
            }
        }
        let lo = base as i128 + min_off;
        let hi = base as i128 + max_off;
        assert!(lo >= 0, "affine pattern generates negative address {lo}");
        assert!(
            hi <= u64::MAX as i128,
            "affine pattern overflows address space"
        );
        a
    }

    /// 1-D pattern: `len` addresses starting at `base` with `stride`.
    pub fn dims1(base: Addr, stride: i64, len: u64) -> Self {
        Self::new(base, [stride, 0, 0], [len, 1, 1])
    }

    /// Contiguous 1-D pattern (`stride == 1`).
    pub fn contiguous(base: Addr, len: u64) -> Self {
        Self::dims1(base, 1, len)
    }

    /// 2-D pattern: `outer_len` rows of `inner_len` elements.
    pub fn dims2(
        base: Addr,
        outer_stride: i64,
        outer_len: u64,
        inner_stride: i64,
        inner_len: u64,
    ) -> Self {
        Self::new(
            base,
            [inner_stride, outer_stride, 0],
            [inner_len, outer_len, 1],
        )
    }

    /// Total number of addresses generated.
    pub fn len(&self) -> u64 {
        self.len[0]
            .saturating_mul(self.len[1])
            .saturating_mul(self.len[2])
    }

    /// True if the pattern generates no addresses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base address of the pattern.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The address of element `i` in generation order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn addr_of(&self, i: u64) -> Addr {
        assert!(i < self.len(), "index {i} out of range");
        let i0 = i % self.len[0];
        let rest = i / self.len[0];
        let i1 = rest % self.len[1];
        let i2 = rest / self.len[1];
        let off = i0 as i128 * self.stride[0] as i128
            + i1 as i128 * self.stride[1] as i128
            + i2 as i128 * self.stride[2] as i128;
        (self.base as i128 + off) as Addr
    }

    /// Iterates over the generated addresses.
    pub fn iter(&self) -> AffineIter {
        // The odometer's carry steps, in wrapping two's-complement
        // arithmetic: every address the walk returns is in range
        // (`new` validated the extremes), so the modular sums are exact.
        let [s0, s1, s2] = self.stride.map(|s| s as u64);
        let back0 = s0.wrapping_mul(self.len[0].saturating_sub(1));
        let back1 = s1.wrapping_mul(self.len[1].saturating_sub(1));
        AffineIter {
            addr: self.base,
            i0: 0,
            i1: 0,
            len0: self.len[0],
            len1: self.len[1],
            step: [
                s0,
                s1.wrapping_sub(back0),
                s2.wrapping_sub(back1).wrapping_sub(back0),
            ],
            left: self.len(),
        }
    }

    /// The inclusive-exclusive address span `(lowest, highest+1)` the
    /// pattern touches, used for region overlap queries.
    ///
    /// Returns `None` for empty patterns.
    pub fn span(&self) -> Option<(Addr, Addr)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.base as i128;
        let mut hi = self.base as i128;
        for d in 0..3 {
            let s = (self.len[d] as i128 - 1) * self.stride[d] as i128;
            if s < 0 {
                lo += s;
            } else {
                hi += s;
            }
        }
        Some((lo as Addr, hi as Addr + 1))
    }
}

/// Iterator over the addresses of an [`Affine`] pattern.
///
/// Walks the loop nest like an odometer: each step adds the innermost
/// stride, and a dimension that reaches its length carries into the
/// next one with a precomputed step, so no address needs a division.
#[derive(Debug, Clone)]
pub struct AffineIter {
    /// The next address to return.
    addr: Addr,
    i0: u64,
    i1: u64,
    len0: u64,
    len1: u64,
    /// Address step when dimension 0 advances, when it carries into
    /// dimension 1, and when both carry into dimension 2.
    step: [u64; 3],
    left: u64,
}

impl Iterator for AffineIter {
    type Item = Addr;

    #[inline]
    fn next(&mut self) -> Option<Addr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let a = self.addr;
        self.i0 += 1;
        let step = if self.i0 < self.len0 {
            self.step[0]
        } else {
            self.i0 = 0;
            self.i1 += 1;
            if self.i1 < self.len1 {
                self.step[1]
            } else {
                self.i1 = 0;
                self.step[2]
            }
        };
        self.addr = self.addr.wrapping_add(step);
        Some(a)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.left as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for AffineIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_addresses() {
        let a = Affine::contiguous(5, 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 6, 7, 8]);
    }

    #[test]
    fn strided_and_descending() {
        let a = Affine::dims1(10, -2, 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![10, 8, 6]);
    }

    #[test]
    fn two_dimensional_row_major() {
        let a = Affine::dims2(0, 10, 2, 1, 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn empty_pattern() {
        let a = Affine::dims1(0, 1, 0);
        assert!(a.is_empty());
        assert_eq!(a.iter().count(), 0);
        assert_eq!(a.span(), None);
    }

    #[test]
    fn span_covers_extremes() {
        let a = Affine::dims1(10, -2, 3); // touches 6..=10
        assert_eq!(a.span(), Some((6, 11)));
        let b = Affine::dims2(100, 8, 4, 1, 8); // 100..=131
        assert_eq!(b.span(), Some((100, 132)));
    }

    #[test]
    #[should_panic(expected = "negative address")]
    fn negative_address_rejected() {
        let _ = Affine::dims1(1, -1, 5);
    }

    #[test]
    fn addr_of_matches_iter() {
        let a = Affine::new(7, [1, 100, 10_000], [3, 2, 2]);
        let from_iter: Vec<_> = a.iter().collect();
        let from_index: Vec<_> = (0..a.len()).map(|i| a.addr_of(i)).collect();
        assert_eq!(from_iter, from_index);
        assert_eq!(from_iter.len(), 12);
    }

    #[test]
    fn exact_size_hint() {
        let mut it = Affine::contiguous(0, 10).iter();
        assert_eq!(it.len(), 10);
        it.next();
        assert_eq!(it.len(), 9);
    }
}
