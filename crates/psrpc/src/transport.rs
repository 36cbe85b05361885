//! Transports: how framed messages move between an application and the
//! cache.
//!
//! Two transports are provided:
//!
//! * **TCP** — applications are separate processes, as in the paper's
//!   deployments; fragmentation happens on the byte stream.
//! * **In-process loopback** — both ends live in the same process, used for
//!   deterministic tests and benchmarks. Messages are still fragmented and
//!   reassembled so the 1024-byte behaviour of Fig. 13 is preserved.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::error::{Error, Result};
use crate::framing::{self, fragment_into, FRAGMENT_SIZE};

/// The sending half of a duplex message transport.
pub trait SendHalf: Send {
    /// Send one logical message (fragmented as needed).
    ///
    /// # Errors
    ///
    /// Returns an error when the peer is gone or the transport fails.
    fn send(&mut self, message: &[u8]) -> Result<()>;
}

/// The receiving half of a duplex message transport.
pub trait RecvHalf: Send {
    /// Receive one logical message; `Ok(None)` means the peer closed the
    /// connection cleanly.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failures or protocol violations.
    fn recv(&mut self) -> Result<Option<Vec<u8>>>;
}

/// TCP sending half (buffered).
#[derive(Debug)]
pub struct TcpSendHalf {
    writer: BufWriter<TcpStream>,
}

/// TCP receiving half (buffered).
#[derive(Debug)]
pub struct TcpRecvHalf {
    reader: BufReader<TcpStream>,
}

/// Split a connected [`TcpStream`] into framed halves.
///
/// # Errors
///
/// Returns an I/O error if the stream cannot be cloned.
pub fn tcp_split(stream: TcpStream) -> Result<(TcpSendHalf, TcpRecvHalf)> {
    stream.set_nodelay(true).ok();
    let read_stream = stream.try_clone()?;
    Ok((
        TcpSendHalf {
            writer: BufWriter::new(stream),
        },
        TcpRecvHalf {
            reader: BufReader::new(read_stream),
        },
    ))
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, message: &[u8]) -> Result<()> {
        framing::write_message(&mut self.writer, message)
    }
}

impl Drop for TcpSendHalf {
    fn drop(&mut self) {
        // The receive half holds a duplicated file descriptor for the same
        // socket, so merely closing this one would not signal end-of-stream
        // to the peer; an explicit write-side shutdown does.
        use std::io::Write as _;
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Write);
    }
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        framing::read_message(&mut self.reader)
    }
}

/// In-process sending half: fragments are individual channel messages.
#[derive(Debug, Clone)]
pub struct InprocSendHalf {
    tx: Sender<Vec<u8>>,
}

/// In-process receiving half.
#[derive(Debug)]
pub struct InprocRecvHalf {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

/// One side of an in-process duplex connection.
pub type InprocEndpoint = (InprocSendHalf, InprocRecvHalf);

/// Create a connected pair of in-process endpoints (client side, server
/// side).
pub fn inproc_pair() -> (InprocEndpoint, InprocEndpoint) {
    let (a_tx, a_rx) = unbounded();
    let (b_tx, b_rx) = unbounded();
    (
        (
            InprocSendHalf { tx: a_tx },
            InprocRecvHalf {
                rx: b_rx,
                pending: Vec::new(),
            },
        ),
        (
            InprocSendHalf { tx: b_tx },
            InprocRecvHalf {
                rx: a_rx,
                pending: Vec::new(),
            },
        ),
    )
}

impl SendHalf for InprocSendHalf {
    fn send(&mut self, message: &[u8]) -> Result<()> {
        let mut wire = Vec::new();
        fragment_into(&mut wire, message);
        // Every fragment but the last is exactly `FRAGMENT_SIZE` bytes.
        for frag in wire.chunks(FRAGMENT_SIZE) {
            self.tx
                .send(frag.to_vec())
                .map_err(|_| Error::Disconnected)?;
        }
        Ok(())
    }
}

impl RecvHalf for InprocRecvHalf {
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        self.pending.clear();
        loop {
            let Ok(frag) = self.rx.recv() else {
                return if self.pending.is_empty() {
                    Ok(None)
                } else {
                    Err(Error::protocol("peer vanished mid-message"))
                };
            };
            if frag.len() < crate::framing::FRAGMENT_HEADER {
                return Err(Error::protocol("runt fragment"));
            }
            let len = u16::from_le_bytes([frag[0], frag[1]]) as usize;
            let last = frag[2] != 0;
            if frag.len() != crate::framing::FRAGMENT_HEADER + len {
                return Err(Error::protocol("fragment length mismatch"));
            }
            self.pending
                .extend_from_slice(&frag[crate::framing::FRAGMENT_HEADER..]);
            if last {
                return Ok(Some(std::mem::take(&mut self.pending)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn inproc_round_trip_small_and_large() {
        let ((mut client_tx, mut client_rx), (mut server_tx, mut server_rx)) = inproc_pair();
        client_tx.send(b"hello").unwrap();
        assert_eq!(server_rx.recv().unwrap().unwrap(), b"hello");

        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        server_tx.send(&big).unwrap();
        assert_eq!(client_rx.recv().unwrap().unwrap(), big);
    }

    #[test]
    fn inproc_clean_close_yields_none() {
        let ((client_tx, _client_rx), (_server_tx, mut server_rx)) = inproc_pair();
        drop(client_tx);
        assert!(server_rx.recv().unwrap().is_none());
    }

    #[test]
    fn inproc_sender_vanishing_mid_message_is_a_protocol_error() {
        let ((client_tx, _client_rx), (_server_tx, mut server_rx)) = inproc_pair();
        let mut wire = Vec::new();
        fragment_into(&mut wire, &[9u8; 3000]);
        let first = wire[..FRAGMENT_SIZE].to_vec();
        assert_eq!(first[2], 0, "the first of several fragments is not last");
        client_tx.tx.send(first).unwrap();
        drop(client_tx);
        match server_rx.recv() {
            Err(Error::Protocol { message }) => assert_eq!(message, "peer vanished mid-message"),
            other => panic!("expected a mid-message protocol error, got {other:?}"),
        }
    }

    #[test]
    fn tcp_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (mut tx, mut rx) = tcp_split(stream).unwrap();
            let msg = rx.recv().unwrap().unwrap();
            tx.send(&msg).unwrap(); // echo
            let big = rx.recv().unwrap().unwrap();
            tx.send(&big).unwrap();
        });

        let stream = TcpStream::connect(addr).unwrap();
        let (mut tx, mut rx) = tcp_split(stream).unwrap();
        tx.send(b"ping").unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), b"ping");
        let big = vec![42u8; 5000];
        tx.send(&big).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), big);
        server.join().unwrap();
    }
}
