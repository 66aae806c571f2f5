//! Compact deterministic binary serialization for simulation snapshots.
//!
//! The snapshot subsystem needs to persist the *entire* warmed
//! simulator state — caches, directories, in-flight messages, RNG
//! streams, fault cursors — and restore it bit-exactly, across
//! processes and machines. External serialization crates are off the
//! table (the workspace is dependency-free by design), so this module
//! implements a tiny fixed-layout codec:
//!
//! * little-endian fixed-width integers, `f64` as raw IEEE-754 bits;
//! * length-prefixed strings and sequences (`u64` counts);
//! * enums as a `u8` tag followed by the variant payload;
//! * hash maps/sets written **sorted by key** so the byte stream is a
//!   pure function of logical content, never of hashing history.
//!
//! Everything implements the [`Snap`] trait. Reading is fully
//! validated: truncated input, bad enum tags, or oversized length
//! prefixes surface as a typed [`SnapError`], never a panic — a
//! corrupted snapshot file must fail closed.

use std::collections::{BTreeMap, VecDeque};

/// Error decoding a snapshot byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Read cursor position where the shortfall occurred.
        at: usize,
        /// Bytes the decoder needed at that position.
        wanted: usize,
    },
    /// An enum tag byte did not match any variant.
    BadTag {
        /// Type whose decoder rejected the tag.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded the remaining input (corruption guard).
    BadLength {
        /// Type whose decoder rejected the length.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// The stream did not start with the expected magic bytes.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the stream.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// A decoded value violated an internal invariant.
    Corrupt(&'static str),
    /// Decoding finished but input bytes remain.
    TrailingBytes(usize),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::UnexpectedEof { at, wanted } => {
                write!(f, "snapshot truncated at byte {at} (wanted {wanted} more)")
            }
            SnapError::BadTag { what, tag } => {
                write!(f, "invalid {what} tag {tag:#04x} in snapshot")
            }
            SnapError::BadLength { what, len } => {
                write!(f, "implausible {what} length {len} in snapshot")
            }
            SnapError::BadMagic => write!(f, "not a cmpsim snapshot (bad magic)"),
            SnapError::Version { found, expected } => {
                write!(f, "snapshot format v{found} is incompatible with this build (v{expected})")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the final field")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` element-count prefix.
    #[inline]
    pub fn len_prefix(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Validating cursor over snapshot bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes(self.remaining()))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof { at: self.pos, wanted: n - self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a `u64` element count and sanity-checks it against the
    /// remaining input (each element needs at least `min_elem_bytes`).
    pub fn len_prefix(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let need = n.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(SnapError::BadLength { what, len: n });
        }
        Ok(n as usize)
    }
}

/// Snapshot-serializable state.
///
/// `save` must write a byte stream that `load` decodes back into a
/// logically identical value — "logically" meaning: every subsequent
/// observable behaviour (iteration at sorted dump sites, RNG draws,
/// event delivery order) is bit-identical. Types whose in-memory layout
/// carries irrelevant history (hash maps) normalize on save.
pub trait Snap: Sized {
    /// Encodes `self` into the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes a value from the reader.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.raw(&self.to_le_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.raw(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64()? as i64)
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(u8::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { what: "bool", tag }),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        w.raw(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("string", 1)?;
        let bytes = r.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(SnapError::BadTag { what: "Option", tag }),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("Vec", 1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("VecDeque", 1)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| SnapError::Corrupt("array length"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("BTreeMap", 2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// Fixed-seed hash containers normalize to sorted key order on save so
// the byte stream never depends on insertion history.
impl<K: Snap + Ord + Copy + std::hash::Hash + Eq, V: Snap> Snap for crate::FxHashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<K> = self.keys().copied().collect();
        keys.sort_unstable();
        w.len_prefix(keys.len());
        for k in keys {
            k.save(w);
            self[&k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("FxHashMap", 2)?;
        let mut out = Self::default();
        out.reserve(n);
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord + Copy + std::hash::Hash + Eq> Snap for crate::FxHashSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<K> = self.iter().copied().collect();
        keys.sort_unstable();
        w.len_prefix(keys.len());
        for k in keys {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("FxHashSet", 1)?;
        let mut out = Self::default();
        out.reserve(n);
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

/// Implements [`Snap`] for a plain struct by saving/loading the listed
/// fields in order. Fields must themselves implement `Snap`.
#[macro_export]
macro_rules! impl_snap {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::save(&self.$field, w); )+
            }
            fn load(r: &mut $crate::snap::SnapReader<'_>) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self {
                    $( $field: $crate::snap::Snap::load(r)?, )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FxHashMap, FxHashSet};

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::load(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xABCDu16);
        round_trip(&0xDEADBEEFu32);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&(-42i64));
        round_trip(&true);
        round_trip(&false);
        round_trip(&1.52587890625e-5f64);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&String::from("héllo"));
        round_trip(&String::new());
    }

    #[test]
    fn nan_preserves_bit_pattern() {
        let v = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let back = f64::load(&mut SnapReader::new(&bytes)).expect("decode");
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&Some(7u32));
        round_trip(&Option::<u32>::None);
        round_trip(&[1u64, 2, 3]);
        round_trip(&(1u64, String::from("x")));
        round_trip(&(1u8, 2u16, 3u32));
        let mut dq = VecDeque::new();
        dq.push_back(1u64);
        dq.push_back(2);
        round_trip(&dq);
        let mut bt = BTreeMap::new();
        bt.insert(3u64, String::from("c"));
        bt.insert(1, String::from("a"));
        round_trip(&bt);
    }

    #[test]
    fn hash_containers_sorted_and_insertion_order_independent() {
        let mut a: FxHashMap<u64, u64> = FxHashMap::default();
        let mut b: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100u64 {
            a.insert(i, i * 2);
            b.insert(99 - i, (99 - i) * 2);
        }
        let enc = |m: &FxHashMap<u64, u64>| {
            let mut w = SnapWriter::new();
            m.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b), "byte stream must not depend on insertion order");
        round_trip(&a);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        s.insert(1);
        round_trip(&s);
    }

    #[test]
    fn truncated_input_is_typed_error() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::load(&mut SnapReader::new(&bytes[..cut]));
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bad_length_prefix_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // claims u64::MAX elements
        let bytes = w.into_bytes();
        let err = Vec::<u64>::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::BadLength { .. }), "{err:?}");
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let err = bool::load(&mut SnapReader::new(&[2])).unwrap_err();
        assert!(matches!(err, SnapError::BadTag { what: "bool", tag: 2 }));
        let err = Option::<u8>::load(&mut SnapReader::new(&[9])).unwrap_err();
        assert!(matches!(err, SnapError::BadTag { what: "Option", .. }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapWriter::new();
        5u64.save(&mut w);
        w.u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        u64::load(&mut r).expect("decode");
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn impl_snap_macro_works() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u64,
            b: String,
            c: Vec<u32>,
        }
        impl_snap!(Demo { a, b, c });
        round_trip(&Demo { a: 1, b: "x".into(), c: vec![2, 3] });
    }
}
