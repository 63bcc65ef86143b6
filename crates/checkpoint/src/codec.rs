//! Hand-rolled little-endian codec for the `acep-checkpoint-v2` wire
//! format.
//!
//! The workspace is dependency-free by policy, so the format is a plain
//! byte protocol, and every record's layout follows from its Rust type
//! through [`Wire`]: fixed-width little-endian integers, `f64` as
//! IEEE-754 bits, `bool` as one byte, `usize` widened to `u64` (so the
//! format is identical across platforms), strings and sequences as a
//! `u64` length and then the bytes or elements, options as a presence
//! byte and then the value, tuples and structs as their fields in
//! declaration order, and enums as a `u8` tag in variant order and then
//! the variant's fields. [`wire_record!`] declares a record type
//! together with its [`Wire`] impl, so each record's field list and wire
//! order exist in one place.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a hash of a byte slice — the frame checksum. Not
/// cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Errors produced while decoding a checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The log does not start with the [`MAGIC`](crate::MAGIC) of this
    /// format version.
    BadMagic,
    /// A frame's checksum does not match its payload.
    BadCrc,
    /// The log ends mid-frame or a payload ends mid-value.
    Truncated,
    /// A value tag (enum discriminant, bool, option byte) is invalid.
    BadValue(&'static str),
    /// A frame kind byte is unknown to this version.
    UnknownKind(u8),
    /// The log holds no completed checkpoint (no manifest frame).
    MissingCheckpoint,
    /// The log's shard topology does not match the restoring runtime.
    ShardMismatch {
        /// Shards recorded in the manifest.
        expected: u32,
        /// Shards of the restoring runtime.
        actual: u32,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not an {} log", String::from_utf8_lossy(crate::MAGIC))
            }
            CheckpointError::BadCrc => write!(f, "frame checksum mismatch"),
            CheckpointError::Truncated => write!(f, "log truncated mid-frame"),
            CheckpointError::BadValue(what) => write!(f, "invalid {what} on the wire"),
            CheckpointError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CheckpointError::MissingCheckpoint => write!(f, "log holds no completed checkpoint"),
            CheckpointError::ShardMismatch { expected, actual } => write!(
                f,
                "checkpoint was taken with {expected} shards, runtime has {actual}"
            ),
            CheckpointError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only byte writer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Consumes the writer, returning the encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over encoded bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the given bytes.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor reached the end.
    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N)?.try_into().expect("took exactly N bytes"))
    }
}

/// A value with a wire encoding: `get` reads back exactly what `put`
/// wrote.
pub(crate) trait Wire: Sized {
    /// Appends this value's encoding.
    fn put(&self, w: &mut Writer);

    /// Reads one value, failing on truncated or invalid input.
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;

    /// Encodes this value into fresh bytes.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::default();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decodes one value from the front of `bytes`.
    fn from_wire(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::get(&mut Reader::new(bytes))
    }
}

macro_rules! le_bytes {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

le_bytes!(u8, u32, u64, i64);

impl Wire for f64 {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.to_bits().put(w);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::BadValue("bool")),
        }
    }
}

impl Wire for usize {
    #[inline]
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(u64::get(r)?).map_err(|_| CheckpointError::BadValue("usize"))
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        w.buf.extend_from_slice(self.as_bytes());
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = usize::get(r)?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| CheckpointError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.len().put(w);
        for x in self {
            x.put(w);
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = usize::get(r)?;
        // Every element costs at least one byte; a length larger than
        // the remaining payload is corrupt, not just big.
        if n > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        // Reserve no more memory than the remaining bytes occupy, so a
        // corrupt length cannot make a small frame reserve a multiple of
        // its size; growth past that comes from decoded elements only.
        let mut v = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        match self {
            Some(x) => {
                1u8.put(w);
                x.put(w);
            }
            None => 0u8.put(w),
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(CheckpointError::BadValue("option")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Declares record types together with their [`Wire`] impls, so a
/// record's definition is its wire layout. Takes a sequence of struct
/// definitions with named fields and enum definitions whose variants
/// are either all one-field tuples or all named-field structs; every
/// attribute (docs, derives) passes through. Fields are written in
/// declaration order; an enum writes its variant's index as a `u8` tag
/// first.
///
/// The impls are `#[inline]`: a trait impl on a public type is an
/// exported symbol, which codegen otherwise keeps out of line, costing
/// a call per record where the whole checkpoint can flatten into one
/// encoder and one decoder.
macro_rules! wire_record {
    () => {};
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                $( $crate::codec::Wire::put(&self.$field, w); )*
            }

            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CheckpointError> {
                Ok(Self { $( $field: $crate::codec::Wire::get(r)?, )* })
            }
        }

        $crate::codec::wire_record!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident($ty:ty) ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant($ty) ),*
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                enum Tag { $($variant),* }
                match self {
                    $( Self::$variant(x) => {
                        $crate::codec::Wire::put(&(Tag::$variant as u8), w);
                        $crate::codec::Wire::put(x, w);
                    } )*
                }
            }

            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CheckpointError> {
                enum Tag { $($variant),* }
                let tag: u8 = $crate::codec::Wire::get(r)?;
                $( if tag == Tag::$variant as u8 {
                    return Ok(Self::$variant($crate::codec::Wire::get(r)?));
                } )*
                Err($crate::codec::CheckpointError::BadValue(concat!(stringify!($name), " tag")))
            }
        }

        $crate::codec::wire_record!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident {
                $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
            } ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                enum Tag { $($variant),* }
                match self {
                    $( Self::$variant { $($field),* } => {
                        $crate::codec::Wire::put(&(Tag::$variant as u8), w);
                        $( $crate::codec::Wire::put($field, w); )*
                    } )*
                }
            }

            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CheckpointError> {
                enum Tag { $($variant),* }
                let tag: u8 = $crate::codec::Wire::get(r)?;
                $( if tag == Tag::$variant as u8 {
                    return Ok(Self::$variant { $( $field: $crate::codec::Wire::get(r)?, )* });
                } )*
                Err($crate::codec::CheckpointError::BadValue(concat!(stringify!($name), " tag")))
            }
        }

        $crate::codec::wire_record!($($rest)*);
    };
}

pub(crate) use wire_record;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let value = (
            (7u8, 0xDEAD_BEEFu32, u64::MAX - 3),
            (-42i64, 2.75f64, true),
            (12345usize, String::from("héllo"), vec![None, Some(9u64)]),
        );
        let bytes = value.to_wire();
        let mut r = Reader::new(&bytes);
        assert_eq!(Wire::get(&mut r), Ok(value));
        assert!(r.is_at_end());
        // Fixed widths: 1 + 4 + 8, 8 + 8 + 1, 8 + (8 + 6) + (8 + 1 + 9).
        assert_eq!(bytes.len(), 13 + 17 + 40);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = 1u64.to_wire();
        assert_eq!(u64::from_wire(&bytes[..5]), Err(CheckpointError::Truncated));
        let bytes = vec![1u64, 2].to_wire();
        for cut in 0..bytes.len() {
            assert_eq!(
                Vec::<u64>::from_wire(&bytes[..cut]),
                Err(CheckpointError::Truncated)
            );
        }
    }

    #[test]
    fn a_length_past_the_payload_is_rejected() {
        let mut bytes = 3usize.to_wire();
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(
            Vec::<u8>::from_wire(&bytes),
            Err(CheckpointError::Truncated)
        );
        assert_eq!(
            Option::<u8>::from_wire(&[2]),
            Err(CheckpointError::BadValue("option"))
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
