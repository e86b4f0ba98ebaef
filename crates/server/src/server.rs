//! The listener: accepts connections, enforces the connection cap, and runs
//! one session thread per client (plain `std::net` blocking I/O — the session
//! count is bounded, so threads are the worker pool).

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dataspace_core::dataspace::Dataspace;
use wire::frame::SERVER_ORIGIN_ID;
use wire::proto::{ErrorCode, RespOp, Response};

use crate::session::run_session;
use crate::stats::ServerStats;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections admitted concurrently; excess connections get a
    /// [`ErrorCode::ServerBusy`] error frame and are closed.
    pub max_connections: usize,
    /// Query/write executions allowed to run concurrently across all
    /// sessions (the worker-pool bound on engine work).
    pub exec_permits: usize,
    /// How long a request may wait for an execution permit before it is
    /// answered with [`ErrorCode::Timeout`].
    pub request_timeout: Duration,
    /// Open streams + subscriptions one session may hold; the next open is
    /// answered with [`ErrorCode::ServerBusy`].
    pub max_session_handles: usize,
    /// Rows per result chunk when the client asks for the default (0).
    pub default_chunk_rows: usize,
    /// Hard ceiling on rows per chunk regardless of what the client asks.
    pub max_chunk_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            exec_permits: 8,
            request_timeout: Duration::from_secs(10),
            max_session_handles: 64,
            default_chunk_rows: 256,
            max_chunk_rows: 16_384,
        }
    }
}

/// A counting semaphore with deadline acquisition — the execution worker pool.
#[derive(Debug)]
pub(crate) struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    pub(crate) fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Take a permit, waiting at most `timeout`; `false` means the deadline
    /// passed with every permit still busy.
    pub(crate) fn acquire(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut free = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if *free > 0 {
                *free -= 1;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(free, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            free = guard;
        }
    }

    pub(crate) fn release(&self) {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.freed.notify_one();
    }
}

/// Start a server on `addr` (use port 0 for an OS-assigned port) serving the
/// given dataspace. Returns once the listener is bound; connections are
/// accepted on a background thread until [`ServerHandle::shutdown`].
pub fn serve(
    dataspace: Arc<RwLock<Dataspace>>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stats = Arc::new(ServerStats::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let permits = Arc::new(Semaphore::new(config.exec_permits));
    let sessions: Arc<Mutex<Vec<SessionSlot>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        let sessions = Arc::clone(&sessions);
        std::thread::spawn(move || {
            accept_loop(
                listener, dataspace, stats, config, shutdown, permits, sessions,
            )
        })
    };

    Ok(ServerHandle {
        local_addr,
        stats,
        shutdown,
        acceptor: Some(acceptor),
        sessions,
    })
}

/// One admitted connection, as the listener tracks it: the session's thread
/// and a clone of its socket, through which shutdown ends the session's
/// blocking read.
struct SessionSlot {
    thread: JoinHandle<()>,
    stream: TcpStream,
}

/// Control handle for a running server.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, tell live sessions to finish (each
    /// sends a [`ErrorCode::ShuttingDown`] frame and tears down, joining its
    /// push thread and dropping its subscriptions and streams), and join
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop();
        let slots: Vec<_> =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(PoisonError::into_inner));
        for slot in slots {
            let _ = slot.thread.join();
        }
    }

    /// Stop the acceptor, then end every session's blocking read so it sees
    /// the flag. Idempotent.
    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a throwaway connect.
        let _ = TcpStream::connect(self.local_addr);
        let _ = acceptor.join();
        // With the acceptor joined the slot list is final. Only the read half
        // goes: the session still writes its `ShuttingDown` frame.
        for slot in self
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = slot.stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
) {
    for incoming in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        // Reap finished session threads so the handle list doesn't grow
        // unboundedly on long-lived servers.
        {
            let mut live = sessions.lock().unwrap_or_else(PoisonError::into_inner);
            live.retain(|slot| !slot.thread.is_finished());
        }
        if stats.connections_open() >= config.max_connections as u64 {
            stats.connection_rejected();
            reject(stream, &stats, "connection limit reached");
            continue;
        }
        // Without a second handle on the socket shutdown could not reach the
        // session; drop the connection rather than admit it.
        let Ok(wake_stream) = stream.try_clone() else {
            continue;
        };
        stats.connection_accepted();
        let dataspace = Arc::clone(&dataspace);
        let session_stats = Arc::clone(&stats);
        let session_config = config.clone();
        let session_shutdown = Arc::clone(&shutdown);
        let session_permits = Arc::clone(&permits);
        let thread = std::thread::spawn(move || {
            let guard_stats = Arc::clone(&session_stats);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(move || {
                run_session(
                    stream,
                    dataspace,
                    session_stats,
                    session_config,
                    session_shutdown,
                    session_permits,
                );
            }));
            if outcome.is_err() {
                guard_stats.session_panic();
            }
            guard_stats.connection_closed();
        });
        sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SessionSlot {
                thread,
                stream: wake_stream,
            });
    }
}

/// Turn a connection away with a pre-session `ServerBusy` error frame.
fn reject(mut stream: TcpStream, stats: &ServerStats, detail: &str) {
    let response = Response::Error {
        code: ErrorCode::ServerBusy,
        message: detail.to_string(),
    };
    let body = response.encode_body();
    if let Ok(n) =
        wire::frame::write_frame(&mut stream, SERVER_ORIGIN_ID, RespOp::Error as u8, &body)
    {
        stats.add_bytes_out(n);
        stats.error_sent();
    }
    let _ = stream.flush();
}
