//! The value codec: one byte encoding of a [`Value`] and of a row of
//! them, shared by the heap's tuples, the log's records, the checkpoint
//! image and the wire protocol.
//!
//! ```text
//! row     := count:varint value*
//! value   := vtag:u8 payload
//! string  := len:varint utf8-bytes
//! ```
//!
//! | vtag | value | payload |
//! |---|---|---|
//! | 0 | `Null` | none |
//! | 1 | `Bool` | one byte, 0 or 1 |
//! | 2 | `Int` | zig-zag varint |
//! | 3 | `Float` | 8 bytes, big-endian IEEE 754 bits |
//! | 4 | `Decimal` | zig-zag varint |
//! | 5 | `Text` | `string` |
//! | 6 | `Date` | zig-zag varint |
//! | 7 | `Timestamp` | zig-zag varint |
//!
//! A varint is unsigned LEB128: seven bits per byte, low group first, the
//! high bit set on every byte but the last, at most ten bytes. Signed
//! integers are zig-zag mapped first, so small magnitudes of either sign
//! stay short.
//!
//! Encoders append to a [`Sink`]. Decoders read a `&mut &[u8]`, advance
//! it past what they read, and never trust a count: an allocation sized
//! by a count read from the bytes is bounded by the bytes left, since
//! every element takes at least one.

use crate::{Error, Result, Value};

/// An append-only byte buffer an encoder writes to.
pub trait Sink {
    /// Appends `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, b: u8) {
        self.put_slice(&[b]);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_DECIMAL: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_DATE: u8 = 6;
const TAG_TIMESTAMP: u8 = 7;

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes), a byte at a
/// time: single-byte writes compile to stores, where a slice of varying
/// length would cost a `memcpy` call per value.
#[inline]
pub fn put_varint(out: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        out.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

/// Reads a varint written by [`put_varint`]. A truncated varint, one
/// longer than ten bytes, or a tenth byte carrying bits past bit 63 is
/// an error.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    // Most varints in a row are one byte: small integers, short strings.
    if let Some((&b, rest)) = buf.split_first() {
        if b < 0x80 {
            *buf = rest;
            return Ok(u64::from(b));
        }
    }
    let mut v = 0u64;
    let mut shift = 0;
    while shift < 64 {
        let b = get_u8(buf)?;
        if shift == 63 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
    Err(Error::Wal("over-long varint".into()))
}

/// Reads an element count or a length and bounds it by the bytes left,
/// so a hostile count can never size an allocation: every element takes
/// at least one byte.
pub fn get_count(buf: &mut &[u8]) -> Result<usize> {
    let n = get_varint(buf)?;
    if n > buf.len() as u64 {
        return Err(Error::Wal(format!(
            "count {n} exceeds the {} bytes left",
            buf.len()
        )));
    }
    Ok(n as usize)
}

/// Reads one byte.
#[inline]
fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&b, rest) = buf
        .split_first()
        .ok_or_else(|| Error::Wal("truncated u8".into()))?;
    *buf = rest;
    Ok(b)
}

/// Takes the next `n` bytes.
fn take<'a>(buf: &mut &'a [u8], n: u64, what: &str) -> Result<&'a [u8]> {
    if (buf.len() as u64) < n {
        return Err(Error::Wal(format!("truncated {what}")));
    }
    let (head, rest) = buf.split_at(n as usize);
    *buf = rest;
    Ok(head)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

#[inline]
fn put_tag_varint(out: &mut impl Sink, tag: u8, v: u64) {
    out.put_u8(tag);
    put_varint(out, v);
}

/// Appends one value.
fn put_value(out: &mut impl Sink, v: &Value) {
    match v {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Bool(b) => {
            out.put_u8(TAG_BOOL);
            out.put_u8(*b as u8);
        }
        Value::Int(i) => put_tag_varint(out, TAG_INT, zigzag(*i)),
        Value::Float(f) => {
            out.put_u8(TAG_FLOAT);
            out.put_slice(&f.to_bits().to_be_bytes());
        }
        Value::Decimal(d) => put_tag_varint(out, TAG_DECIMAL, zigzag(*d)),
        Value::Text(s) => {
            put_tag_varint(out, TAG_TEXT, s.len() as u64);
            out.put_slice(s.as_bytes());
        }
        Value::Date(d) => put_tag_varint(out, TAG_DATE, zigzag((*d).into())),
        Value::Timestamp(t) => put_tag_varint(out, TAG_TIMESTAMP, zigzag(*t)),
    }
}

fn get_float(buf: &mut &[u8]) -> Result<f64> {
    let raw = take(buf, 8, "float")?;
    let mut bits = [0u8; 8];
    bits.copy_from_slice(raw);
    Ok(f64::from_bits(u64::from_be_bytes(bits)))
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let n = get_varint(buf)?;
    let raw = take(buf, n, "string")?;
    std::str::from_utf8(raw).map_err(|_| Error::Wal("invalid utf8 in string".into()))
}

fn get_date(buf: &mut &[u8]) -> Result<i32> {
    i32::try_from(unzigzag(get_varint(buf)?)).map_err(|_| Error::Wal("date out of range".into()))
}

fn bad_tag(t: u8) -> Error {
    Error::Wal(format!("bad value tag {t}"))
}

/// Decodes one value written by [`put_value`].
fn get_value(buf: &mut &[u8]) -> Result<Value> {
    match get_u8(buf)? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::Bool(get_u8(buf)? != 0)),
        TAG_INT => Ok(Value::Int(unzigzag(get_varint(buf)?))),
        TAG_FLOAT => get_float(buf).map(Value::Float),
        TAG_DECIMAL => Ok(Value::Decimal(unzigzag(get_varint(buf)?))),
        TAG_TEXT => get_str(buf).map(|s| Value::Text(s.to_owned())),
        TAG_DATE => get_date(buf).map(Value::Date),
        TAG_TIMESTAMP => Ok(Value::Timestamp(unzigzag(get_varint(buf)?))),
        t => Err(bad_tag(t)),
    }
}

/// Decodes one value into `slot`, reusing the allocation of a `Text`
/// already there when the new value is text too.
fn get_value_into(buf: &mut &[u8], slot: &mut Value) -> Result<()> {
    match (buf.first(), &mut *slot) {
        (Some(&TAG_TEXT), Value::Text(s)) => {
            *buf = &buf[1..];
            let text = get_str(buf)?;
            s.clear();
            s.push_str(text);
        }
        _ => *slot = get_value(buf)?,
    }
    Ok(())
}

/// Appends a row's values: their count, then each value.
pub fn put_values(out: &mut impl Sink, vals: &[Value]) {
    put_varint(out, vals.len() as u64);
    for v in vals {
        put_value(out, v);
    }
}

/// Encodes `vals` as [`put_values`] does, into one allocation of exactly
/// the encoded size. The bytes are written once into a per-thread
/// scratch buffer and copied out: one pass over the values, no regrowth.
pub fn encode_values(vals: &[Value]) -> Box<[u8]> {
    /// Scratch kept between calls up to this size; a larger row's
    /// buffer is released after use.
    const KEEP: usize = 64 << 10;
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.clear();
        put_values(&mut *buf, vals);
        let out = Box::from(&buf[..]);
        if buf.capacity() > KEEP {
            *buf = Vec::new();
        }
        out
    })
}

/// Decodes values written by [`put_values`].
pub fn get_values(buf: &mut &[u8]) -> Result<Vec<Value>> {
    let n = get_count(buf)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(get_value(buf)?);
    }
    Ok(vals)
}

/// Decodes values written by [`put_values`] into `vals`, replacing what
/// it held. Its allocation, and that of each `Text` that meets a `Text`
/// at the same position, is reused, so a scan that decodes row after row
/// into one buffer allocates only when a row outgrows it. On error
/// `vals` holds an unspecified prefix.
pub fn get_values_into(buf: &mut &[u8], vals: &mut Vec<Value>) -> Result<()> {
    let n = get_count(buf)?;
    vals.truncate(n);
    vals.reserve_exact(n - vals.len());
    for i in 0..n {
        match vals.get_mut(i) {
            Some(slot) => get_value_into(buf, slot)?,
            None => vals.push(get_value(buf)?),
        }
    }
    Ok(())
}

/// Steps over values written by [`put_values`] without building them.
pub fn skim_values(buf: &mut &[u8]) -> Result<()> {
    for _ in 0..get_count(buf)? {
        let len = match get_u8(buf)? {
            TAG_NULL => 0,
            TAG_BOOL => 1,
            TAG_INT | TAG_DECIMAL | TAG_DATE | TAG_TIMESTAMP => {
                get_varint(buf)?;
                0
            }
            TAG_FLOAT => 8,
            TAG_TEXT => get_varint(buf)?,
            t => return Err(bad_tag(t)),
        };
        take(buf, len, "value")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-2),
            Value::Float(1.5),
            Value::Decimal(300),
            Value::Text("hé".into()),
            Value::Date(-1),
            Value::Timestamp(64),
        ]
    }

    /// The bytes of one row holding every variant, pinned: the log
    /// (`BFWAL8`), the checkpoint sidecar and the wire all carry them,
    /// so any change here is a format change.
    #[test]
    fn golden_bytes_of_every_variant() {
        let vals = every_variant();
        let mut out = Vec::new();
        put_values(&mut out, &vals);
        let golden: &[u8] = &[
            8, // count
            0, // Null
            1, 1, // Bool(true)
            2, 3, // Int(-2): zig-zag 3
            3, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0, // Float(1.5), big-endian bits
            4, 0xD8, 0x04, // Decimal(300): zig-zag 600
            5, 3, b'h', 0xC3, 0xA9, // Text("hé"): 3 UTF-8 bytes
            6, 1, // Date(-1): zig-zag 1
            7, 0x80, 0x01, // Timestamp(64): zig-zag 128
        ];
        assert_eq!(out, golden);
        assert_eq!(&*encode_values(&vals), golden);
        let mut rd = golden;
        assert_eq!(get_values(&mut rd).unwrap(), vals);
        assert!(rd.is_empty());
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                let mut out = Vec::new();
                put_varint(&mut out, v);
                assert_eq!(
                    out.len(),
                    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
                );
                let mut rd = out.as_slice();
                assert_eq!(get_varint(&mut rd).unwrap(), v);
                assert!(rd.is_empty());
            }
        }
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        // A tenth byte carrying bits past bit 63 is refused.
        *out.last_mut().unwrap() = 2;
        assert!(get_varint(&mut out.as_slice()).is_err());
    }

    #[test]
    fn a_large_row_encodes_exactly_and_frees_its_scratch() {
        let big = vec![Value::Text("x".repeat(200_000)), Value::Int(1)];
        let bytes = encode_values(&big);
        assert_eq!(get_values(&mut &bytes[..]).unwrap(), big);
        let small = every_variant();
        let mut put = Vec::new();
        put_values(&mut put, &small);
        assert_eq!(&*encode_values(&small), &put[..]);
    }

    #[test]
    fn hostile_counts_and_truncations_are_errors() {
        // A count past the bytes left sizes nothing.
        let mut out = Vec::new();
        put_varint(&mut out, u64::from(u32::MAX));
        out.push(TAG_NULL);
        assert!(get_values(&mut out.as_slice()).is_err());
        let mut reused = vec![Value::Null];
        assert!(get_values_into(&mut out.as_slice(), &mut reused).is_err());
        // Every strict prefix of a valid encoding fails to decode.
        let full = encode_values(&every_variant());
        for cut in 0..full.len() {
            assert!(get_values(&mut &full[..cut]).is_err(), "prefix {cut}");
            assert!(skim_values(&mut &full[..cut]).is_err(), "prefix {cut}");
        }
        assert!(get_value(&mut [9u8].as_slice()).is_err(), "bad tag");
        assert!(
            get_value(&mut [TAG_TEXT, 1, 0xFF].as_slice()).is_err(),
            "bad utf8"
        );
        assert!(get_varint(&mut [0xFF; 11].as_slice()).is_err(), "over-long");
    }

    #[test]
    fn skim_steps_over_exactly_one_row() {
        let mut out = encode_values(&every_variant()).into_vec();
        out.push(42);
        let mut rd = out.as_slice();
        skim_values(&mut rd).unwrap();
        assert_eq!(rd, [42]);
    }
}
