//! The socket transport: many concurrent connections over one engine.
//!
//! [`SocketServer::spawn`] binds a TCP listener and serves the same
//! line-delimited JSON protocol as the stdio transport — one request
//! per line in, one response per line out, in request order *per
//! connection*. Each accepted connection gets a reader thread that
//! submits lines to the shared [`Executor`]; sessions are free to span
//! or share connections (the session name, not the connection, is the
//! unit of state and of ordering).
//!
//! # Graceful shutdown
//!
//! A `shutdown` request from any connection:
//!
//! 1. stops admission — every request submitted after this point (on
//!    any connection) answers a `shutting-down` error immediately,
//! 2. waits until every in-flight request has been answered *and
//!    written* to its connection,
//! 3. answers the `shutdown` request itself with
//!    `{"type":"ok","request":"shutdown"}`, and
//! 4. stops the accept loop.
//!
//! Idle connections (blocked reading their socket) are not waited for:
//! their threads exit when the peer closes. [`SocketServer::join`]
//! returns once the accept loop has stopped and in-flight work has
//! drained.

use crate::exec::{internal_error, Executor, Submitted};
use crate::{write_response, ServerOptions};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Shared {
    exec: Executor,
    addr: SocketAddr,
    /// Requests submitted but not yet written back to their connection.
    /// The shutdown drain waits on this, not on the executor's queues:
    /// a response only counts as delivered once it is on the wire.
    inflight: Mutex<usize>,
    drained: Condvar,
    stop: AtomicBool,
}

impl Shared {
    fn begin_request(&self) {
        *self.inflight.lock().expect("inflight lock") += 1;
    }

    fn end_request(&self) {
        let mut n = self.inflight.lock().expect("inflight lock");
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    /// Stops admission and blocks until every in-flight request has
    /// been answered and written.
    fn drain(&self) {
        self.exec.stop_accepting();
        let mut n = self.inflight.lock().expect("inflight lock");
        while *n > 0 {
            let (guard, _) = self
                .drained
                .wait_timeout(n, Duration::from_millis(50))
                .expect("inflight lock");
            n = guard;
        }
    }

    /// Wakes the accept loop (blocked in `accept`) so it can observe
    /// the stop flag: a throwaway self-connection.
    fn wake_accept(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running socket server. Dropping the handle does *not* stop the
/// server; send a `shutdown` request (or kill the process).
pub struct SocketServer {
    addr: SocketAddr,
    accept: JoinHandle<()>,
}

impl SocketServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. Returns once the listener is bound, so a client
    /// may connect to [`SocketServer::addr`] immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(opts: ServerOptions, addr: &str) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(crate::engine::Engine::new(opts));
        let shared = Arc::new(Shared {
            exec: Executor::new(engine),
            addr,
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let accept = std::thread::Builder::new()
            .name("spllift-accept".to_owned())
            .spawn(move || accept_loop(listener, shared))
            .expect("spawn accept loop");
        Ok(SocketServer { addr, accept })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits until the server has shut down (a client sent `shutdown`
    /// and the drain completed).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let sh = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("spllift-conn".to_owned())
            .spawn(move || {
                let _ = handle_connection(stream, sh);
            });
    }
    // The executor (inside `shared`) is dropped — draining and joining
    // the shard workers — when the last connection thread releases it.
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) -> std::io::Result<()> {
    // With Nagle's algorithm on, a small response written while an
    // earlier one is still unacknowledged (pipelined requests) waits
    // for the peer's ACK, which a delayed ACK holds back for ~40 ms.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    crate::for_each_request(reader, |request| {
        shared.begin_request();
        let submitted = match request {
            Ok(line) => shared.exec.submit(line),
            Err(resp) => Submitted::Ready(resp),
        };
        let resp = match submitted {
            Submitted::Ready(resp) => resp,
            Submitted::Pending(rx) => rx.recv().unwrap_or_else(|_| internal_error()),
            Submitted::Shutdown(resp) => {
                // Our own slot must not hold up the drain.
                shared.end_request();
                shared.drain();
                write_response(&mut writer, resp)?;
                shared.wake_accept();
                return Ok(false);
            }
        };
        let done = write_response(&mut writer, resp);
        shared.end_request();
        done?;
        Ok(true)
    })
}
