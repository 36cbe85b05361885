//! The differential oracle on a TCP port.
//!
//! An accept loop that hands each connection, on a thread of its own,
//! to the blocking request loop `psrpc::server::serve_connection` — the
//! reference the reactor is held to. It has no drain, no stats and no
//! admission policy: what it answers is the request core's answer.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use psrpc::transport::tcp_split;

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
