//! Tiny little-endian codec for on-disk structures.
//!
//! The file index table, intentions list and naming records are persisted
//! into fragments and stable-storage slots. A small hand-rolled codec keeps
//! the on-disk format explicit and dependency-free.

/// Append-only encoder over a byte buffer.
///
/// # Example
///
/// ```
/// use rhodos_disk_service::codec::{Decoder, Encoder};
///
/// let mut e = Encoder::new();
/// e.u32(7).u64(99).bytes(b"abc");
/// let buf = e.finish();
/// let mut d = Decoder::new(&buf);
/// assert_eq!(d.u32().unwrap(), 7);
/// assert_eq!(d.u64().unwrap(), 99);
/// assert_eq!(d.bytes().unwrap(), b"abc");
/// assert!(d.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder whose buffer holds `capacity` bytes
    /// before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16` little-endian.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string (`u32` length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Error produced when a decode runs past the end of the buffer or finds a
/// malformed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated or malformed on-disk record")
    }
}

impl std::error::Error for DecodeError {}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError)
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Remaining bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut e = Encoder::new();
        e.u8(1).u16(2).u32(3).u64(4).str("five").bytes(&[6, 7]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 1);
        assert_eq!(d.u16().unwrap(), 2);
        assert_eq!(d.u32().unwrap(), 3);
        assert_eq!(d.u64().unwrap(), 4);
        assert_eq!(d.str().unwrap(), "five");
        assert_eq!(d.bytes().unwrap(), &[6, 7]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut e = Encoder::new();
        e.u64(42);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..4]);
        assert_eq!(d.u64(), Err(DecodeError));
    }

    #[test]
    fn bogus_length_prefix_detected() {
        let mut e = Encoder::new();
        e.u32(1_000_000); // claims a million bytes follow
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.bytes(), Err(DecodeError));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.str(), Err(DecodeError));
    }
}
