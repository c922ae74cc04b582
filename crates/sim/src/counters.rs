//! One declaration per counter block.
//!
//! Every modelled component keeps its counters in a flat block of
//! `u64` fields (a histogram is a fixed array of bucket counters),
//! declared once through [`counter_table!`](crate::counter_table). The
//! macro emits the struct exactly as written (attributes, docs and
//! field order, so its derived `Debug` is the declaration's) plus the
//! views every consumer iterates instead of naming fields: the field
//! names, each field's words, a flat `u64` word view and field-wise
//! addition. A counter is a field, so a misspelled one is a compile
//! error. The bench harness's result cache stores the flat view, so
//! the declaration order is an on-disk format.
//!
//! # Examples
//!
//! ```
//! ts_sim::counter_table! {
//!     /// Traffic through one port.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct PortCounters {
//!         /// Words accepted.
//!         pub words: u64,
//!         /// Requests by size class.
//!         pub sizes: [u64; 2],
//!     }
//! }
//!
//! let mut a = PortCounters { words: 3, sizes: [1, 2] };
//! assert_eq!(PortCounters::NAMES, ["words", "sizes"]);
//! assert_eq!(a.to_words(), [3, 1, 2]);
//! a.add(&PortCounters::from_words(&[1, 1, 1]));
//! assert_eq!(a, PortCounters { words: 4, sizes: [2, 3] });
//! ```

/// One field of a counter block, as its `counters()` method yields it.
#[derive(Debug, Clone, Copy)]
pub struct Counter<'a> {
    /// The field's name.
    pub name: &'static str,
    /// Its value: one word, or one per histogram bucket.
    pub words: &'a [u64],
    /// Whether the field is a histogram (an array of buckets).
    pub histogram: bool,
}

/// Storage of one counter field: a scalar or a histogram. Implemented
/// for `u64` and `[u64; N]` only; [`counter_table!`](crate::counter_table)
/// expands to calls on it.
pub trait Slot {
    /// Words the field takes in the flat view.
    const WORDS: usize;
    /// Whether the field is a histogram.
    const HISTOGRAM: bool;
    /// The field's words.
    fn words(&self) -> &[u64];
    /// The field's words, mutably.
    fn words_mut(&mut self) -> &mut [u64];
}

impl Slot for u64 {
    const WORDS: usize = 1;
    const HISTOGRAM: bool = false;
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl<const N: usize> Slot for [u64; N] {
    const WORDS: usize = N;
    const HISTOGRAM: bool = true;
    fn words(&self) -> &[u64] {
        self
    }
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// Declares a counter block: a struct whose public fields are all `u64`
/// or `[u64; N]`, which must derive `Default`. Emits the struct as
/// written plus `NAMES`, `WORDS`, `counters`, `to_words`, `from_words`
/// and `add`. See the [`counters`](crate::counters) module.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Field names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Length of the flat word view: one word per scalar
            /// counter, one per histogram bucket.
            pub const WORDS: usize = 0 $(+ <$ty as $crate::counters::Slot>::WORDS)*;

            /// Each field and its words, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = $crate::counters::Counter<'_>> {
                use $crate::counters::Slot;
                [$($crate::counters::Counter {
                    name: stringify!($field),
                    words: self.$field.words(),
                    histogram: <$ty as Slot>::HISTOGRAM,
                }),*]
                .into_iter()
            }

            /// Every counter word in declaration order, histograms
            /// bucket by bucket.
            pub fn to_words(&self) -> [u64; Self::WORDS] {
                let mut words = self.counters().flat_map(|c| c.words);
                std::array::from_fn(|_| *words.next().expect("WORDS counts every word"))
            }

            /// Inverse of [`Self::to_words`].
            pub fn from_words(words: &[u64; Self::WORDS]) -> Self {
                let mut out = Self::default();
                out.words_mut().zip(words).for_each(|(o, w)| *o = *w);
                out
            }

            /// Accumulates another block's counters into this one, word
            /// by word (totals over tiles, or over a sweep's runs).
            pub fn add(&mut self, other: &Self) {
                let words = other.to_words();
                self.words_mut().zip(words).for_each(|(o, w)| *o += w);
            }

            fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                use $crate::counters::Slot;
                [$(self.$field.words_mut()),*].into_iter().flatten()
            }
        }
    };
}
