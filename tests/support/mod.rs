//! The differential oracle on a TCP port, and raw framed connections.
//!
//! An accept loop that hands each connection, on a thread of its own,
//! to the blocking request loop `psrpc::server::serve_connection` — the
//! reference the reactor is held to. It has no drain, no stats and no
//! admission policy: what it answers is the request core's answer.
//!
//! Each test crate that includes this module uses a part of it.
#![allow(dead_code)]

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use psrpc::framing;
use psrpc::message::{ClientMessage, Request, ServerMessage};
use psrpc::transport::tcp_split;

/// A raw connection whose reads give up after 30 s without a byte (see
/// [`next_frame`]).
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Write one untokened, untraced request.
pub fn send(stream: &mut TcpStream, seq: u64, request: Request) {
    let msg = ClientMessage {
        seq,
        token: None,
        trace: None,
        request,
    };
    framing::write_message(stream, &msg.encode()).unwrap();
}

/// The next logical message on the wire. A fragment of one message
/// spliced into another fails here, in reassembly or in decoding.
///
/// `framing::read_message` waits through read timeouts, so that a slow
/// peer never tears a message. Here the stream's read timeout is an
/// error: a reply the server loses fails the test by name instead of
/// stalling the suite.
pub fn next_frame(stream: &mut TcpStream) -> ServerMessage {
    ServerMessage::decode(&next_frame_bytes(stream)).unwrap()
}

/// [`next_frame`] before decoding: the message's bytes as the socket
/// carried them, under the same read timeout.
pub fn next_frame_bytes(stream: &mut TcpStream) -> Vec<u8> {
    framing::read_message(&mut Impatient(stream))
        .unwrap()
        .expect("the server closed the connection")
}

/// A reader that reports a read timeout as a plain error, which
/// `framing::read_message` does not wait through.
struct Impatient<'a>(&'a mut TcpStream);

impl Read for Impatient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                std::io::Error::other("no byte within the stream's read timeout")
            }
            _ => e,
        })
    }
}

type Conns = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// The blocking request loop behind a loopback listener.
pub struct OracleServer {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    conns: Conns,
}

impl OracleServer {
    /// Serve `cache` on an ephemeral loopback port.
    pub fn bind(cache: pscache::Cache) -> OracleServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Conns::default();
        let accept = {
            let (stopping, conns) = (Arc::clone(&stopping), Arc::clone(&conns));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    if stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let closer = stream.try_clone().unwrap();
                    let cache = cache.clone();
                    let conn = std::thread::spawn(move || {
                        let (send, recv) = tcp_split(stream).unwrap();
                        let _ = psrpc::server::serve_connection(cache, send, recv);
                    });
                    conns.lock().unwrap().push((closer, conn));
                }
            })
        };
        OracleServer {
            addr,
            stopping,
            accept,
            conns,
        }
    }

    /// The address the oracle is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection and join its thread: when
    /// this returns, every connection's automata are unregistered.
    pub fn shutdown(self) {
        self.stopping.store(true, Ordering::Release);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        self.accept.join().unwrap();
        for (stream, conn) in self.conns.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
            conn.join().unwrap();
        }
    }
}
