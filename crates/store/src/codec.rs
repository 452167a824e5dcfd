//! Binary codec for [`Value`]s and [`Tuple`]s.
//!
//! The *encoder* is the pre-existing canonical hash encoding
//! ([`Value::encode_for_hash`]): a one-byte type tag followed by a
//! fixed-width or length-prefixed big-endian body.  That encoding was
//! designed to be injective (distinct values never collide) which makes it
//! decodable, so the WAL and snapshot formats reuse it byte-for-byte — the
//! bytes that identify a tuple in a provenance VID are the bytes that
//! persist it.  This module adds only the decoder, re-interning `Str`
//! symbols on the way in.
//!
//! A tuple is encoded as its relation name (string encoding), its location
//! (`u32` big-endian, no tag — the position is fixed) and its non-location
//! values (count-prefixed).

use exspan_types::tuple::Tuple;
use exspan_types::value::{encode_str_for_hash, Value};

/// A decoding failure.  During WAL replay any of these marks the torn tail
/// of a crashed write; in a snapshot they mark corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended mid-record.
    Truncated,
    /// An unknown type/record tag.
    BadTag(u8),
    /// A string body was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            CodecError::BadUtf8 => write!(f, "string body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an encoded buffer.  All multi-byte integers
/// are big-endian, matching the hash encoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a length-prefixed string body (the bytes after the `0x03` tag).
    fn str_body(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a full string encoding (tag + length + bytes).
    pub fn string(&mut self) -> Result<&'a str, CodecError> {
        match self.u8()? {
            0x03 => self.str_body(),
            tag => Err(CodecError::BadTag(tag)),
        }
    }
}

/// Appends the canonical encoding of `v` (delegates to the hash encoding).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    v.encode_for_hash(out);
}

/// Decodes one [`Value`], re-interning string symbols.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        0x01 => Ok(Value::Node(r.u32()?)),
        0x02 => Ok(Value::Int(r.i64()?)),
        0x03 => Ok(Value::from(r.str_body()?)),
        0x04 => Ok(Value::Bool(r.u8()? != 0)),
        0x05 => {
            let count = r.u32()? as usize;
            // Guard against a corrupt count reserving absurd capacity: each
            // element costs at least one tag byte, so `remaining` bounds it.
            if count > r.remaining() {
                return Err(CodecError::Truncated);
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_value(r)?);
            }
            Ok(Value::list(items))
        }
        0x06 => {
            let mut digest = [0u8; 20];
            digest.copy_from_slice(r.bytes(20)?);
            Ok(Value::Digest(digest))
        }
        0x07 => Ok(Value::Payload(r.u32()?)),
        tag => Err(CodecError::BadTag(tag)),
    }
}

/// Appends the canonical encoding of a tuple: relation name, location,
/// value count, values.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    encode_str_for_hash(t.relation.as_str(), out);
    out.extend_from_slice(&t.location.to_be_bytes());
    out.extend_from_slice(&(t.values.len() as u32).to_be_bytes());
    for v in &t.values {
        encode_value(v, out);
    }
}

/// Decodes one [`Tuple`], re-interning its relation.
pub fn decode_tuple(r: &mut Reader<'_>) -> Result<Tuple, CodecError> {
    let relation = r.string()?;
    let location = r.u32()?;
    let count = r.u32()? as usize;
    if count > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(decode_value(r)?);
    }
    Ok(Tuple::new(relation, location, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip_value(v: &Value) {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_value(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after {v:?}");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(&Value::Node(7));
        roundtrip_value(&Value::Int(-42));
        roundtrip_value(&Value::Int(i64::MIN));
        roundtrip_value(&Value::from("bestPathCost"));
        roundtrip_value(&Value::from(""));
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Digest([9u8; 20]));
        roundtrip_value(&Value::Payload(1500));
        roundtrip_value(&Value::list(vec![
            Value::Int(1),
            Value::list(vec![Value::Node(2), Value::Bool(false)]),
            Value::from("nested"),
        ]));
        roundtrip_value(&Value::list(Vec::new()));
    }

    #[test]
    fn tuple_roundtrips() {
        let t = Tuple::new(
            "link",
            3,
            vec![Value::Node(4), Value::Int(10), Value::from("x")],
        );
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_tuple(&mut r).expect("decode");
        assert_eq!(back, t);
        assert!(r.is_empty());
        // The decoded tuple hashes to the same VID: persistence preserves
        // provenance identity.
        assert_eq!(back.vid(), t.vid());
        let arc = Arc::new(back);
        assert_eq!(arc.relation, "link");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let t = Tuple::new("prov", 1, vec![Value::Digest([1; 20]), Value::Node(2)]);
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_tuple(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_is_reported() {
        let mut r = Reader::new(&[0x99]);
        assert_eq!(decode_value(&mut r), Err(CodecError::BadTag(0x99)));
    }

    #[test]
    fn corrupt_list_count_does_not_overallocate() {
        // Tag 0x05 + count u32::MAX, then nothing.
        let mut buf = vec![0x05];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value(&mut r), Err(CodecError::Truncated));
    }
}
