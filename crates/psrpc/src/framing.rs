//! Message framing with fragmentation/reassembly at 1024-byte boundaries.
//!
//! The paper notes (§6.3) that "the RPC system performs
//! fragmentation/reassembly at 1024-byte boundaries, so the linear drop
//! with buffer size is to be expected" in the character-string stress test.
//! We reproduce that behaviour: a logical message of arbitrary size is
//! split into fragments whose total on-the-wire size (header + payload) is
//! at most [`FRAGMENT_SIZE`] bytes; the receiver reassembles fragments into
//! the original message.
//!
//! Fragment layout (little endian):
//!
//! ```text
//! +----------+----------+---------------+-------------------+
//! | len: u16 | last: u8 | reserved: u8  | payload (len B)   |
//! +----------+----------+---------------+-------------------+
//! ```

use std::io::{Read, Write};

use crate::error::{Error, Result};

/// The fragmentation boundary, including the fragment header.
pub const FRAGMENT_SIZE: usize = 1024;

/// Bytes of header per fragment.
pub const FRAGMENT_HEADER: usize = 4;

/// Maximum payload bytes carried by one fragment.
pub const FRAGMENT_PAYLOAD: usize = FRAGMENT_SIZE - FRAGMENT_HEADER;

/// Append the wire fragments of `message` to `out`: headers and payload
/// written in place, no intermediate buffer.
///
/// Every message produces at least one fragment (an empty message produces
/// a single empty, last fragment).
pub fn fragment_into(out: &mut Vec<u8>, message: &[u8]) {
    let n = fragments_for_len(message.len());
    out.reserve(n * FRAGMENT_HEADER + message.len());
    let mut chunks = message.chunks(FRAGMENT_PAYLOAD);
    for i in 1..=n {
        let payload = chunks.next().unwrap_or_default();
        out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        out.push(u8::from(i == n));
        out.push(0);
        out.extend_from_slice(payload);
    }
}

/// Write a full logical message to `writer`, fragmenting as needed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_message<W: Write>(writer: &mut W, message: &[u8]) -> Result<()> {
    let mut wire = Vec::new();
    fragment_into(&mut wire, message);
    writer.write_all(&wire)?;
    writer.flush()?;
    Ok(())
}

/// Read one full logical message from `reader`, reassembling fragments.
///
/// Returns `Ok(None)` on a clean end-of-stream at a message boundary.
/// Interrupts and read timeouts (`WouldBlock`, `TimedOut`) are waited
/// through, before a message as well as inside one: a slow peer never
/// tears a message.
///
/// # Errors
///
/// Returns [`Error::Io`] on transport errors and [`Error::Protocol`] on a
/// stream that ends mid-message or carries an oversized fragment length.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>> {
    let mut message = Vec::new();
    let mut first = true;
    loop {
        let mut header = [0u8; FRAGMENT_HEADER];
        match read_exact_or_eof(reader, &mut header)? {
            FRAGMENT_HEADER => {}
            0 if first => return Ok(None),
            0 => return Err(Error::protocol("stream ended mid-message")),
            _ => return Err(Error::protocol("stream ended mid-fragment header")),
        }
        first = false;
        let len = u16::from_le_bytes([header[0], header[1]]) as usize;
        let last = header[2] != 0;
        if len > FRAGMENT_PAYLOAD {
            return Err(Error::protocol(format!(
                "fragment length {len} exceeds the {FRAGMENT_PAYLOAD}-byte payload limit"
            )));
        }
        let start = message.len();
        message.resize(start + len, 0);
        if read_exact_or_eof(reader, &mut message[start..])? < len {
            return Err(Error::protocol("stream ended mid-fragment"));
        }
        if last {
            return Ok(Some(message));
        }
    }
}

/// Fill `buf` unless the stream ends first, waiting through interrupts
/// and read timeouts; returns how many bytes were read (`buf.len()`
/// unless the stream ended).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Number of fragments a message of `len` bytes occupies on the wire; used
/// by the stress benchmarks to report the expected throughput knee.
pub fn fragments_for_len(len: usize) -> usize {
    if len == 0 {
        1
    } else {
        len.div_ceil(FRAGMENT_PAYLOAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(message: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        fragment_into(&mut wire, message);
        wire
    }

    /// The fragments of a framed wire, split by their headers.
    fn fragments(mut wire: &[u8]) -> Vec<&[u8]> {
        let mut frags = Vec::new();
        while !wire.is_empty() {
            let len = u16::from_le_bytes([wire[0], wire[1]]) as usize;
            let (frag, rest) = wire.split_at(FRAGMENT_HEADER + len);
            frags.push(frag);
            wire = rest;
        }
        frags
    }

    fn round_trip(message: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_message(&mut wire, message).unwrap();
        let mut cursor = Cursor::new(wire);
        read_message(&mut cursor).unwrap().unwrap()
    }

    #[test]
    fn small_messages_fit_one_fragment() {
        let msg = b"hello".to_vec();
        assert_eq!(fragments(&framed(&msg)).len(), 1);
        assert_eq!(round_trip(&msg), msg);
        assert_eq!(fragments_for_len(msg.len()), 1);
    }

    #[test]
    fn empty_message_round_trips() {
        assert_eq!(round_trip(&[]), Vec::<u8>::new());
        assert_eq!(fragments(&framed(&[])).len(), 1);
        assert_eq!(fragments_for_len(0), 1);
    }

    #[test]
    fn large_messages_fragment_at_the_documented_boundary() {
        let msg: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let wire = framed(&msg);
        let frags = fragments(&wire);
        assert_eq!(frags.len(), fragments_for_len(5000));
        assert!(frags.iter().all(|f| f.len() <= FRAGMENT_SIZE));
        // All but the last fragment are full-size.
        for f in &frags[..frags.len() - 1] {
            assert_eq!(f.len(), FRAGMENT_SIZE);
        }
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn exact_boundary_sizes() {
        for len in [
            FRAGMENT_PAYLOAD - 1,
            FRAGMENT_PAYLOAD,
            FRAGMENT_PAYLOAD + 1,
            3 * FRAGMENT_PAYLOAD,
        ] {
            let msg: Vec<u8> = vec![0xAB; len];
            assert_eq!(round_trip(&msg), msg, "length {len}");
        }
    }

    #[test]
    fn multiple_messages_on_one_stream() {
        let mut wire = Vec::new();
        write_message(&mut wire, b"first").unwrap();
        write_message(&mut wire, &vec![7u8; 3000]).unwrap();
        write_message(&mut wire, b"").unwrap();
        let mut cursor = Cursor::new(wire);
        assert_eq!(read_message(&mut cursor).unwrap().unwrap(), b"first");
        assert_eq!(read_message(&mut cursor).unwrap().unwrap(), vec![7u8; 3000]);
        assert_eq!(
            read_message(&mut cursor).unwrap().unwrap(),
            Vec::<u8>::new()
        );
        assert!(read_message(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn clean_eof_returns_none_and_mid_message_eof_is_an_error() {
        let mut cursor = Cursor::new(Vec::<u8>::new());
        assert!(read_message(&mut cursor).unwrap().is_none());

        // A non-last fragment with nothing after it.
        let msg: Vec<u8> = vec![1u8; FRAGMENT_PAYLOAD];
        let mut frag_bytes = framed(&msg);
        frag_bytes[2] = 0; // force "not last"
        let mut cursor = Cursor::new(frag_bytes);
        assert!(read_message(&mut cursor).is_err());
    }

    /// A reader that plays a script: each step is either a chunk of
    /// bytes (handed out across as many `read` calls as the caller's
    /// buffers need) or one transient error.
    struct Scripted(std::collections::VecDeque<std::io::Result<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn transient_errors_before_and_inside_a_message_are_waited_through() {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let msg: Vec<u8> = (0..1500u32).map(|i| (i % 253) as u8).collect();
        let mut wire = Vec::new();
        write_message(&mut wire, &msg).unwrap();
        let second = FRAGMENT_SIZE;
        for kind in [WouldBlock, TimedOut, Interrupted] {
            let err = || Err(std::io::Error::from(kind));
            let script = vec![
                // Before the first header byte.
                err(),
                err(),
                // Inside the first fragment's header.
                Ok(wire[..2].to_vec()),
                err(),
                // Inside the first fragment's payload.
                Ok(wire[2..500].to_vec()),
                err(),
                // Inside the second fragment's header.
                Ok(wire[500..second + 1].to_vec()),
                err(),
                // Inside the second fragment's payload.
                Ok(wire[second + 1..second + 100].to_vec()),
                err(),
                Ok(wire[second + 100..].to_vec()),
                // Between messages, before a clean end of stream.
                err(),
            ];
            let mut reader = Scripted(script.into());
            assert_eq!(read_message(&mut reader).unwrap().unwrap(), msg, "{kind:?}");
            assert!(read_message(&mut reader).unwrap().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn oversized_fragment_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(2000u16).to_le_bytes());
        bytes.push(1);
        bytes.push(0);
        bytes.extend_from_slice(&vec![0u8; 2000]);
        let mut cursor = Cursor::new(bytes);
        assert!(read_message(&mut cursor).is_err());
    }
}
