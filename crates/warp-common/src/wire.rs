//! A tiny, stable, dependency-free binary codec for on-disk artifacts.
//!
//! The persistent artifact store (`warp-compiler::store`) serializes
//! whole [`CompiledModule`](../warp_compiler)s to disk so a daemon
//! restart comes back warm. That demands a byte format that is
//!
//! * **stable across processes** — no `RandomState`, no pointer
//!   values, no enum discriminants left to the compiler;
//! * **deterministic** — the same value always encodes to the same
//!   bytes (hash maps are serialized in sorted order), so artifacts
//!   can be compared and fingerprinted bitwise;
//! * **total on decode** — any byte sequence either decodes or fails
//!   with a structured [`WireError`]; no panics, no partial values.
//!   Untrusted length prefixes are checked against the bytes actually
//!   remaining before any allocation, so a corrupt header cannot OOM
//!   the daemon.
//!
//! Every crate implements [`Encode`]/[`Decode`] for its own types
//! (the [`wire_struct!`] macro writes the mechanical field-by-field
//! impls); enums are encoded as a `u8` tag followed by the variant's
//! fields, with unknown tags rejected. The framing around a payload —
//! magic, schema version, length, checksum footer — lives in
//! [`crate::vfs::record`].
//!
//! # Examples
//!
//! ```
//! use warp_common::wire::{Decode, Encode, WireReader};
//!
//! let value = (vec![1u32, 2, 3], Some("skew".to_owned()));
//! let mut bytes = Vec::new();
//! value.encode(&mut bytes);
//! let mut r = WireReader::new(&bytes);
//! let back = <(Vec<u32>, Option<String>)>::decode(&mut r).unwrap();
//! r.finish().unwrap();
//! assert_eq!(value, back);
//! ```

use std::collections::{BTreeMap, HashMap};

/// A structured decode failure. The store treats any of these as
/// "corrupt artifact": the entry is quarantined, never served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A value failed a domain check (e.g. a bool byte that is
    /// neither 0 nor 1, a length that contradicts the input size).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// Decoding finished with input left over — the payload is not a
    /// single well-formed value.
    TrailingBytes {
        /// How many bytes were left.
        remaining: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated value: needed {needed} byte(s), had {remaining}"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::Invalid { what } => write!(f, "invalid {what}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over the bytes being decoded.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> WireReader<'a> {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Requires the input to be fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Decodes a `u64` length prefix and checks it against the bytes
    /// that actually remain, using `min_bytes_per_element` as a lower
    /// bound on the encoded size of one element. This rejects a
    /// corrupt "four billion elements follow" length before any
    /// allocation happens.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a short prefix,
    /// [`WireError::Invalid`] on an impossible length.
    pub fn checked_len(&mut self, min_bytes_per_element: usize) -> Result<usize, WireError> {
        let n = u64::decode(self)?;
        let n = usize::try_from(n).map_err(|_| WireError::Invalid { what: "length" })?;
        if n.saturating_mul(min_bytes_per_element.max(1)) > self.remaining() {
            return Err(WireError::Invalid { what: "length" });
        }
        Ok(n)
    }
}

/// Serialize `self` into a byte buffer. Implementations append; they
/// never read or truncate the buffer.
pub trait Encode {
    /// Appends the stable encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Decode a value of `Self` from a [`WireReader`].
pub trait Decode: Sized {
    /// Reads one value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the reader position is unspecified after an
    /// error.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes exactly one value from `bytes` (trailing bytes are an
/// error).
///
/// # Errors
///
/// Any [`WireError`] from the value, or
/// [`WireError::TrailingBytes`].
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! int_wire {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )+};
}

int_wire!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?).map_err(|_| WireError::Invalid { what: "usize" })
    }
}

/// Floats travel as their IEEE-754 bits: the round trip is bitwise
/// exact, NaN payloads included.
impl Encode for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { what: "bool" }),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.checked_len(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.checked_len(1)?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(r)?);
        }
        items
            .try_into()
            .map_err(|_| WireError::Invalid { what: "array" })
    }
}

/// `BTreeMap`s iterate in key order, so the encoding is naturally
/// deterministic.
impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.checked_len(1)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// `HashMap`s are serialized in sorted key order so two equal maps
/// always encode to the same bytes.
impl<K: Encode + Ord, V: Encode> Encode for HashMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        (pairs.len() as u64).encode(out);
        for (k, v) in pairs {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Eq + std::hash::Hash, V: Decode> Decode for HashMap<K, V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.checked_len(1)?;
        let mut out = HashMap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<I: crate::idvec::Id, T: Encode> Encode for crate::IdVec<I, T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self.values() {
            item.encode(out);
        }
    }
}

impl<I: crate::idvec::Id, T: Decode> Decode for crate::IdVec<I, T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.checked_len(1)?;
        let mut out = crate::IdVec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for crate::Span {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
}

impl Decode for crate::Span {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let start = u32::decode(r)?;
        let end = u32::decode(r)?;
        if start > end {
            return Err(WireError::Invalid { what: "span" });
        }
        Ok(crate::Span { start, end })
    }
}

impl Encode for crate::Severity {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            crate::Severity::Note => 0,
            crate::Severity::Warning => 1,
            crate::Severity::Error => 2,
        });
    }
}

impl Decode for crate::Severity {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(crate::Severity::Note),
            1 => Ok(crate::Severity::Warning),
            2 => Ok(crate::Severity::Error),
            tag => Err(WireError::BadTag {
                what: "Severity",
                tag,
            }),
        }
    }
}

crate::wire_struct!(crate::Diagnostic {
    severity,
    message,
    span
});

/// Writes field-by-field [`Encode`]/[`Decode`] impls for a struct with
/// public (or same-crate-visible) named fields. Field order in the
/// macro invocation *is* the byte order — add new fields at the end
/// and bump the record schema version.
///
/// # Examples
///
/// ```
/// use warp_common::wire_struct;
///
/// #[derive(Debug, PartialEq)]
/// pub struct Point {
///     pub x: u32,
///     pub y: u32,
/// }
/// wire_struct!(Point { x, y });
///
/// let bytes = warp_common::wire::to_bytes(&Point { x: 1, y: 2 });
/// let p: Point = warp_common::wire::from_bytes(&bytes).unwrap();
/// assert_eq!(p, Point { x: 1, y: 2 });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:path { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::wire::Encode::encode(&self.$field, out);)+
            }
        }
        impl $crate::wire::Decode for $ty {
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                $(let $field = $crate::wire::Decode::decode(r)?;)+
                ::std::result::Result::Ok(Self { $($field),+ })
            }
        }
    };
}

/// Writes [`Encode`]/[`Decode`] impls for a newtype over one public
/// field (typed ids from [`crate::define_id!`], `Reg(u16)`, …).
#[macro_export]
macro_rules! wire_newtype {
    ($ty:path) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::wire::Encode::encode(&self.0, out);
            }
        }
        impl $crate::wire::Decode for $ty {
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                ::std::result::Result::Ok(Self($crate::wire::Decode::decode(r)?))
            }
        }
    };
}

/// Writes [`Encode`]/[`Decode`] impls for an enum. Each variant gets
/// an explicit `u8` tag followed by its fields in declaration order;
/// unknown tags decode to [`WireError::BadTag`]. Tags are part of the
/// on-disk format — never renumber an existing variant.
///
/// # Examples
///
/// ```
/// use warp_common::wire_enum;
///
/// #[derive(Debug, PartialEq)]
/// pub enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// wire_enum!(Shape {
///     0 => Dot,
///     1 => Circle(radius),
///     2 => Rect { w, h },
/// });
///
/// let bytes = warp_common::wire::to_bytes(&Shape::Rect { w: 2, h: 3 });
/// let s: Shape = warp_common::wire::from_bytes(&bytes).unwrap();
/// assert_eq!(s, Shape::Rect { w: 2, h: 3 });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $( $tag:literal => $variant:ident
            $( ( $($tuple_field:ident),+ $(,)? ) )?
            $( { $($struct_field:ident),+ $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(
                        $ty::$variant
                            $( ( $($tuple_field),+ ) )?
                            $( { $($struct_field),+ } )?
                        => {
                            out.push($tag);
                            $( $( $crate::wire::Encode::encode($tuple_field, out); )+ )?
                            $( $( $crate::wire::Encode::encode($struct_field, out); )+ )?
                        }
                    )+
                }
            }
        }
        impl $crate::wire::Decode for $ty {
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                match <u8 as $crate::wire::Decode>::decode(r)? {
                    $(
                        $tag => ::std::result::Result::Ok(
                            $ty::$variant
                                $( ( $( {
                                    let _ = ::core::stringify!($tuple_field);
                                    $crate::wire::Decode::decode(r)?
                                } ),+ ) )?
                                $( { $(
                                    $struct_field: $crate::wire::Decode::decode(r)?
                                ),+ } )?
                        ),
                    )+
                    tag => ::std::result::Result::Err($crate::wire::WireError::BadTag {
                        what: ::core::stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(123_456u32);
        round_trip(u64::MAX - 1);
        round_trip(-5i64);
        round_trip(true);
        round_trip(std::f32::consts::PI);
        round_trip(f32::NAN.to_bits()); // NaN itself is not PartialEq
        round_trip("hello warp".to_owned());
        round_trip(String::new());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f32::from_bits(0x7fc0_dead);
        let bytes = to_bytes(&weird);
        let back: f32 = from_bytes(&bytes).unwrap();
        assert_eq!(weird.to_bits(), back.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some("x".to_owned()));
        round_trip((7u32, vec![false, true]));
        round_trip(BTreeMap::from([
            (1u32, "a".to_owned()),
            (2, "b".to_owned()),
        ]));
        let mut hm = HashMap::new();
        hm.insert(9u64, 1u8);
        hm.insert(3u64, 2u8);
        round_trip(hm);
        round_trip([5u32, 6, 7]);
        round_trip([Some(1u8), None]);
    }

    #[test]
    fn hashmap_encoding_is_sorted_and_deterministic() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0..20u64 {
            a.insert(k, k * 2);
        }
        for k in (0..20u64).rev() {
            b.insert(k, k * 2);
        }
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&vec![1u32, 2, 3]);
        for cut in 0..bytes.len() {
            let err = from_bytes::<Vec<u32>>(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A length prefix claiming 2^60 elements with 4 bytes of input.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::Invalid { what: "length" })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(WireError::BadTag { what: "Option", .. })
        ));
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(WireError::Invalid { what: "bool" })
        ));
    }

    #[test]
    fn idvec_and_diag_round_trip() {
        crate::define_id!(TId, "t");
        let v: crate::IdVec<TId, u32> = [4u32, 5, 6].into_iter().collect();
        let bytes = to_bytes(&v);
        let back: crate::IdVec<TId, u32> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);

        round_trip(crate::Diagnostic::warning(
            "unused variable `q`",
            crate::Span::new(3, 4),
        ));
        round_trip(crate::Diagnostic::error_global("boom"));
    }

    #[test]
    fn invalid_span_rejected() {
        let mut bytes = Vec::new();
        9u32.encode(&mut bytes);
        3u32.encode(&mut bytes);
        assert!(matches!(
            from_bytes::<crate::Span>(&bytes),
            Err(WireError::Invalid { what: "span" })
        ));
    }
}
