//! Stream descriptors: what data a stream names and where it lives.

use crate::affine::Affine;
use crate::{Addr, Value};
use std::sync::Arc;

/// Which memory space a stream reads from or writes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSrc {
    /// Global DRAM, reached over the NoC via a memory controller.
    Dram,
    /// The issuing tile's local scratchpad.
    Spad,
}

/// A complete stream descriptor.
///
/// This is the unit of data-movement description the task model attaches
/// to task arguments. Descriptors are cheap to clone ([`StreamDesc::Literal`]
/// shares its payload via [`Arc`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StreamDesc {
    /// Affine pattern over a memory space.
    Affine {
        /// Memory space.
        src: DataSrc,
        /// Address pattern.
        pattern: Affine,
    },
    /// Indirect gather: read indices via `index` (an affine pattern over
    /// `index_src`), then fetch `base + index * scale` from `src` for
    /// each — i.e. `A[B[i]]`.
    Indirect {
        /// Memory space of the gathered data.
        src: DataSrc,
        /// Base address added to each scaled index.
        base: Addr,
        /// Multiplier applied to each index value.
        scale: i64,
        /// Pattern generating the index stream.
        index: Affine,
        /// Memory space of the index stream.
        index_src: DataSrc,
    },
    /// Literal values synthesized by the spawner (task arguments expanded
    /// into a stream). No memory traffic.
    Literal(
        /// The payload, shared to keep descriptor clones cheap.
        Arc<Vec<Value>>,
    ),
    /// Arithmetic sequence `start, start+step, ...` of length `len`.
    /// No memory traffic (generated by the stream engine).
    Iota {
        /// First value.
        start: Value,
        /// Increment per element.
        step: Value,
        /// Element count.
        len: u64,
    },
}

impl StreamDesc {
    /// Shorthand for an affine descriptor.
    pub fn affine(src: DataSrc, pattern: Affine) -> Self {
        StreamDesc::Affine { src, pattern }
    }

    /// Shorthand for a contiguous DRAM read/write of `len` words.
    pub fn dram(base: Addr, len: u64) -> Self {
        StreamDesc::Affine {
            src: DataSrc::Dram,
            pattern: Affine::contiguous(base, len),
        }
    }

    /// Shorthand for a contiguous scratchpad read/write of `len` words.
    pub fn spad(base: Addr, len: u64) -> Self {
        StreamDesc::Affine {
            src: DataSrc::Spad,
            pattern: Affine::contiguous(base, len),
        }
    }

    /// Shorthand for a literal stream.
    pub fn literal(values: impl Into<Vec<Value>>) -> Self {
        StreamDesc::Literal(Arc::new(values.into()))
    }

    /// Shorthand for an iota stream.
    pub fn iota(start: Value, step: Value, len: u64) -> Self {
        StreamDesc::Iota { start, step, len }
    }

    /// Number of elements the stream carries.
    pub fn len(&self) -> u64 {
        match self {
            StreamDesc::Affine { pattern, .. } => pattern.len(),
            StreamDesc::Indirect { index, .. } => index.len(),
            StreamDesc::Literal(v) => v.len() as u64,
            StreamDesc::Iota { len, .. } => *len,
        }
    }

    /// True when the stream carries no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// DRAM words touched when this stream executes once (reads *or*
    /// writes), counting the index fetches of indirect streams.
    pub fn dram_words(&self) -> u64 {
        match self {
            StreamDesc::Affine { src, pattern } => match src {
                DataSrc::Dram => pattern.len(),
                DataSrc::Spad => 0,
            },
            StreamDesc::Indirect {
                src,
                index,
                index_src,
                ..
            } => {
                let idx = if *index_src == DataSrc::Dram {
                    index.len()
                } else {
                    0
                };
                let data = if *src == DataSrc::Dram {
                    index.len()
                } else {
                    0
                };
                idx + data
            }
            StreamDesc::Literal(_) | StreamDesc::Iota { .. } => 0,
        }
    }

    /// Scratchpad words touched when the stream executes once.
    pub fn spad_words(&self) -> u64 {
        match self {
            StreamDesc::Affine { src, pattern } => match src {
                DataSrc::Spad => pattern.len(),
                DataSrc::Dram => 0,
            },
            StreamDesc::Indirect {
                src,
                index,
                index_src,
                ..
            } => {
                let idx = if *index_src == DataSrc::Spad {
                    index.len()
                } else {
                    0
                };
                let data = if *src == DataSrc::Spad {
                    index.len()
                } else {
                    0
                };
                idx + data
            }
            StreamDesc::Literal(_) | StreamDesc::Iota { .. } => 0,
        }
    }

    /// True for streams whose per-element address depends on fetched data
    /// (gathers) — these cannot be coalesced into wide memory bursts.
    pub fn is_indirect(&self) -> bool {
        matches!(self, StreamDesc::Indirect { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(StreamDesc::dram(0, 10).len(), 10);
        assert_eq!(StreamDesc::literal(vec![1, 2, 3]).len(), 3);
        assert_eq!(StreamDesc::iota(0, 2, 5).len(), 5);
        let ind = StreamDesc::Indirect {
            src: DataSrc::Dram,
            base: 100,
            scale: 1,
            index: Affine::contiguous(0, 7),
            index_src: DataSrc::Spad,
        };
        assert_eq!(ind.len(), 7);
    }

    #[test]
    fn traffic_accounting() {
        assert_eq!(StreamDesc::dram(0, 10).dram_words(), 10);
        assert_eq!(StreamDesc::dram(0, 10).spad_words(), 0);
        assert_eq!(StreamDesc::spad(0, 10).spad_words(), 10);
        assert_eq!(StreamDesc::literal(vec![1]).dram_words(), 0);
        assert_eq!(StreamDesc::iota(0, 1, 100).dram_words(), 0);

        // indirect with spad indices and dram data: data only in dram
        let ind = StreamDesc::Indirect {
            src: DataSrc::Dram,
            base: 0,
            scale: 1,
            index: Affine::contiguous(0, 4),
            index_src: DataSrc::Spad,
        };
        assert_eq!(ind.dram_words(), 4);
        assert_eq!(ind.spad_words(), 4);
    }

    #[test]
    fn literal_clone_is_shallow() {
        let d = StreamDesc::literal((0..1000).collect::<Vec<_>>());
        let e = d.clone();
        if let (StreamDesc::Literal(a), StreamDesc::Literal(b)) = (&d, &e) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected literals");
        }
    }

    #[test]
    fn indirect_flag() {
        assert!(!StreamDesc::dram(0, 1).is_indirect());
        let ind = StreamDesc::Indirect {
            src: DataSrc::Spad,
            base: 0,
            scale: 1,
            index: Affine::contiguous(0, 1),
            index_src: DataSrc::Spad,
        };
        assert!(ind.is_indirect());
    }

    #[test]
    fn empty_streams() {
        assert!(StreamDesc::dram(0, 0).is_empty());
        assert!(StreamDesc::literal(Vec::<Value>::new()).is_empty());
    }
}
