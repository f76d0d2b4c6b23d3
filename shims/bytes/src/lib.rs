//! Vendored stand-in for the `bytes` crate: cheaply-cloneable immutable
//! byte slices (`Bytes`), an append buffer (`BytesMut`), and the
//! big-endian `Buf`/`BufMut` read/write traits, matching the wire
//! behaviour of the real crate for the subset the workspace uses.

use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Immutable, reference-counted byte slice. Cloning and slicing are O(1)
/// and share the underlying allocation, and so is building one from a
/// `Vec` (`BytesMut::freeze`): the vector moves behind the `Arc` whole.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

/// Growable append buffer; `freeze()` converts to an immutable `Bytes`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// A buffer of `len` zero bytes, e.g. to `read_exact` into.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { vec: vec![0; len] }
    }

    pub fn len(&self) -> usize {
        self.vec.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    pub fn clear(&mut self) {
        self.vec.clear();
    }

    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.vec.extend_from_slice(slice);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }

    /// Splits off and returns the entire contents, leaving `self` empty
    /// (the `BytesMut::split` contract for the whole-buffer case).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            vec: std::mem::take(&mut self.vec),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

/// Big-endian cursor reads over a byte source, as in the real crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.remaining(), "copy_to_bytes out of bounds");
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        buf_get!(self, u8, 1)
    }
    #[inline]
    fn get_u16(&mut self) -> u16 {
        buf_get!(self, u16, 2)
    }
    #[inline]
    fn get_u32(&mut self) -> u32 {
        buf_get!(self, u32, 4)
    }
    #[inline]
    fn get_u64(&mut self) -> u64 {
        buf_get!(self, u64, 8)
    }
    #[inline]
    fn get_i32(&mut self) -> i32 {
        buf_get!(self, i32, 4)
    }
    #[inline]
    fn get_i64(&mut self) -> i64 {
        buf_get!(self, i64, 8)
    }
    #[inline]
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

macro_rules! buf_get {
    ($buf:expr, $t:ty, $n:literal) => {{
        let mut raw = [0u8; $n];
        raw.copy_from_slice(&$buf.chunk()[..$n]);
        $buf.advance($n);
        <$t>::from_be_bytes(raw)
    }};
}
use buf_get;

macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "b\"")?;
            for &b in self.as_ref() {
                write!(f, "\\x{b:02x}")?;
            }
            write!(f, "\"")
        }
    };
}
use fmt_bytes_debug;

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes out of bounds");
        let out = self.slice(..len);
        self.start += len;
        out
    }
}

/// Reading a borrowed slice advances the slice itself, as in the real
/// crate.
impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Big-endian appends, as in the real crate.
pub trait BufMut {
    fn put_slice(&mut self, slice: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, slice: &[u8]) {
        self.vec.extend_from_slice(slice);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_round_trip_is_big_endian() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(0x0102);
        buf.put_u32(0x01020304);
        buf.put_u64(0x0102030405060708);
        buf.put_i64(-5);
        buf.put_f64(1.5);
        assert_eq!(&buf[1..3], &[0x01, 0x02]);
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0x01020304);
        assert_eq!(b.get_u64(), 0x0102030405060708);
        assert_eq!(b.get_i64(), -5);
        assert_eq!(b.get_f64(), 1.5);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slices_share_and_advance() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mut tail = b.slice(2..);
        assert_eq!(tail.remaining(), 3);
        assert_eq!(tail.get_u8(), 3);
        let rest = tail.copy_to_bytes(2);
        assert_eq!(rest.as_ref(), &[4, 5]);
        assert!(tail.is_empty());
        // Original untouched.
        assert_eq!(b.as_ref(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn freeze_moves_the_vector_without_copying() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"frame bytes");
        let ptr = buf.as_ptr();
        let frozen = buf.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze copied the buffer");
        assert_eq!(frozen.as_ref(), b"frame bytes");
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        // Slices and clones share the same allocation.
        assert_eq!(b.slice(1..).as_ptr(), ptr.wrapping_add(1));
        assert_eq!(b.clone().as_ptr(), ptr);
    }

    #[test]
    fn zeroed_buffer_is_writable_in_place() {
        let mut buf = BytesMut::zeroed(4);
        assert_eq!(buf.as_ref(), &[0, 0, 0, 0]);
        buf[1..3].copy_from_slice(&[7, 9]);
        assert_eq!(buf.freeze().as_ref(), &[0, 7, 9, 0]);
        assert_eq!(Bytes::copy_from_slice(b"abc").as_ref(), b"abc");
    }

    #[test]
    fn split_empties_the_buffer() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"abc");
        let taken = buf.split();
        assert!(buf.is_empty());
        assert_eq!(taken.as_ref(), b"abc");
    }
}
