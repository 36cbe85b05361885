//! A compact, dependency-free binary encoding shared by the RPC layer and
//! the write-ahead log.
//!
//! The encoding is deliberately simple: little-endian fixed-width integers,
//! length-prefixed strings and sequences, and one-byte tags for enums. It
//! is symmetric ([`WireWriter`] / [`WireReader`]) and every decoder checks
//! bounds, so malformed input produces an [`Error::Protocol`] rather than a
//! panic.
//!
//! The module lives in `pscache` (rather than `psrpc`, where it
//! originated) because the durability subsystem ([`crate::wal`]) encodes
//! its log records and snapshots with exactly the same primitives; the
//! RPC crate re-exports it unchanged, so a scalar on the wire and a
//! scalar in the log are byte-identical.

use bytes::{Buf, Bytes};

use gapl::event::Scalar;

use crate::error::{Error, Result};

/// Serialises values into a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::with_capacity(128)
    }

    /// An empty writer that holds `capacity` bytes before it grows —
    /// how a large encoding sized from a previous one is written
    /// without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite the four already-written bytes at `at` with `v`,
    /// little-endian: how a length or checksum prefix is filled in once
    /// the bytes it describes follow it.
    ///
    /// # Panics
    ///
    /// Panics when `at + 4` is past the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Finish writing and return the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish writing and return the encoded bytes as a vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte tag.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a [`Scalar`] (tag + payload).
    pub fn put_scalar(&mut self, v: &Scalar) {
        match v {
            Scalar::Int(i) => {
                self.put_u8(0);
                self.put_i64(*i);
            }
            Scalar::Real(r) => {
                self.put_u8(1);
                self.put_f64(*r);
            }
            Scalar::Tstamp(t) => {
                self.put_u8(2);
                self.put_u64(*t);
            }
            Scalar::Bool(b) => {
                self.put_u8(3);
                self.put_bool(*b);
            }
            Scalar::Str(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
        }
    }

    /// Append a length-prefixed sequence of scalars.
    pub fn put_scalars(&mut self, values: &[Scalar]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_scalar(v);
        }
    }

    /// Append a length-prefixed sequence of strings.
    pub fn put_strs(&mut self, values: &[String]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_str(v);
        }
    }

    /// Append a length-prefixed sequence of scalar rows (the payload of a
    /// batched insert).
    pub fn put_rows(&mut self, rows: &[Vec<Scalar>]) {
        self.put_u32(rows.len() as u32);
        for row in rows {
            self.put_scalars(row);
        }
    }

    /// Append a length-prefixed sequence of `u64`s.
    pub fn put_u64s(&mut self, values: &[u64]) {
        self.put_u32(values.len() as u32);
        for v in values {
            self.put_u64(*v);
        }
    }
}

/// Deserialises values from a byte slice, with bounds checking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wrap a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.len() < n {
            Err(Error::protocol(format!(
                "truncated message: needed {n} bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool.
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a length-prefixed UTF-8 string as a borrowed slice of the
    /// underlying buffer. Validation happens on the borrowed bytes, so
    /// malformed input is rejected *before* any allocation — and callers
    /// choose their own owned representation (`String`, `Arc<str>`)
    /// with exactly one copy.
    pub fn get_str_slice(&mut self) -> Result<&'a str> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let (head, tail) = self.buf.split_at(len);
        let s =
            std::str::from_utf8(head).map_err(|_| Error::protocol("invalid UTF-8 in string"))?;
        self.buf = tail;
        Ok(s)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_slice().map(str::to_owned)
    }

    /// Read a [`Scalar`]. String payloads are validated in place and
    /// copied once, straight into the shared `Arc<str>` representation.
    pub fn get_scalar(&mut self) -> Result<Scalar> {
        let tag = self.get_u8()?;
        Ok(match tag {
            0 => Scalar::Int(self.get_i64()?),
            1 => Scalar::Real(self.get_f64()?),
            2 => Scalar::Tstamp(self.get_u64()?),
            3 => Scalar::Bool(self.get_bool()?),
            4 => Scalar::Str(self.get_str_slice()?.into()),
            other => return Err(Error::protocol(format!("unknown scalar tag {other}"))),
        })
    }

    /// Read a `u32`-length-prefixed sequence of at most 1,000,000
    /// items, each read by `item` and taking at least `min_item` bytes
    /// (`what` names the sequence in the error). The vector is reserved
    /// once, for no more items than the bytes left could hold, so a
    /// hostile length prefix cannot force a large allocation.
    fn get_seq<T>(
        &mut self,
        min_item: usize,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let len = self.get_u32()? as usize;
        if len > 1_000_000 {
            return Err(Error::protocol(format!("unreasonably large {what}")));
        }
        let mut items = Vec::with_capacity(len.min(self.remaining() / min_item));
        for _ in 0..len {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Read a length-prefixed sequence of scalars.
    pub fn get_scalars(&mut self) -> Result<Vec<Scalar>> {
        // A scalar is at least a tag byte and a one-byte bool.
        self.get_seq(2, "scalar sequence", Self::get_scalar)
    }

    /// Read a length-prefixed sequence of strings.
    pub fn get_strs(&mut self) -> Result<Vec<String>> {
        self.get_seq(4, "string sequence", Self::get_str)
    }

    /// Read a length-prefixed sequence of scalar rows. The row bound
    /// matches `psrpc::message::MAX_BATCH_ROWS`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on malformed input or absurd lengths.
    pub fn get_rows(&mut self) -> Result<Vec<Vec<Scalar>>> {
        self.get_seq(4, "row batch", Self::get_scalars)
    }

    /// Read a length-prefixed sequence of `u64`s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on malformed input or absurd lengths.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>> {
        self.get_seq(8, "u64 sequence", Self::get_u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(1234);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(3.25);
        w.put_bool(true);
        w.put_str("hello");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 1234);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn scalars_round_trip() {
        let values = vec![
            Scalar::Int(-5),
            Scalar::Real(2.5),
            Scalar::Tstamp(123456789),
            Scalar::Bool(false),
            Scalar::Str("événement".into()),
        ];
        let mut w = WireWriter::new();
        w.put_scalars(&values);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_scalars().unwrap(), values);
    }

    #[test]
    fn truncated_and_malformed_input_is_rejected() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        // Unknown scalar tag.
        let mut r = WireReader::new(&[9]);
        assert!(r.get_scalar().is_err());
        // String length exceeding the buffer.
        let mut w = WireWriter::new();
        w.put_u32(100);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_str().is_err());
        // Invalid UTF-8.
        let mut w = WireWriter::new();
        w.put_u32(2);
        let mut bytes = w.finish().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = WireReader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn string_lists_round_trip() {
        let strs = vec!["a".to_string(), "".to_string(), "topic".to_string()];
        let mut w = WireWriter::new();
        w.put_strs(&strs);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_strs().unwrap(), strs);
    }
}
