//! Lock-free server counters, surfaced to clients through the `Stats` opcode
//! alongside the dataspace's own [`dataspace_core::dataspace::DataspaceStats`].

use std::sync::atomic::{AtomicU64, Ordering};

use wire::proto::ReqOp;

/// Cumulative counters for one server instance. All counters are monotonic
/// except [`ServerStats::connections_open`], which is a gauge.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections_accepted: AtomicU64,
    /// Connections turned away at the door (`max_connections`).
    connections_rejected: AtomicU64,
    connections_open: AtomicU64,
    /// Requests dispatched, by opcode (indexed in [`ReqOp::ALL`] order).
    requests: [AtomicU64; ReqOp::ALL.len()],
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Typed error frames written (all codes, including admission).
    errors_sent: AtomicU64,
    /// Requests answered `ServerBusy` (per-session stream/subscription caps).
    busy_rejections: AtomicU64,
    /// Requests answered `Timeout` (no execution permit within the deadline).
    timeouts: AtomicU64,
    chunks_sent: AtomicU64,
    pushes_sent: AtomicU64,
    /// Socket writes that carried pushes: every update pending across a
    /// session's subscriptions leaves in one, so `pushes_sent / push_flushes`
    /// is how many a wake-up found ready.
    push_flushes: AtomicU64,
    streams_opened: AtomicU64,
    subscriptions_opened: AtomicU64,
    /// Frame-layer failures that tore a session down (checksum, oversize,
    /// version, mid-frame disconnects).
    frame_errors: AtomicU64,
    /// Session threads that panicked (caught; the connection just drops).
    session_panics: AtomicU64,
}

impl ServerStats {
    pub fn new() -> Self {
        ServerStats::default()
    }

    pub(crate) fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn request(&self, op: ReqOp) {
        let idx = ReqOp::ALL.iter().position(|o| *o == op).expect("known op");
        self.requests[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn error_sent(&self) {
        self.errors_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn chunk_sent(&self) {
        self.chunks_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// One coalesced write carrying `pushes` update frames.
    pub(crate) fn pushes_flushed(&self, pushes: u64) {
        self.pushes_sent.fetch_add(pushes, Ordering::Relaxed);
        self.push_flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stream_opened(&self) {
        self.streams_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn subscription_opened(&self) {
        self.subscriptions_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn frame_error(&self) {
        self.frame_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_panic(&self) {
        self.session_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections turned away by admission control so far.
    pub fn connections_rejected(&self) -> u64 {
        self.connections_rejected.load(Ordering::Relaxed)
    }

    /// Requests answered with `ServerBusy`.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }

    /// Requests answered with `Timeout`.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Session threads that panicked.
    pub fn session_panics(&self) -> u64 {
        self.session_panics.load(Ordering::Relaxed)
    }

    /// Subscription pushes written to clients.
    pub fn pushes_sent(&self) -> u64 {
        self.pushes_sent.load(Ordering::Relaxed)
    }

    /// Socket writes those pushes were coalesced into.
    pub fn push_flushes(&self) -> u64 {
        self.push_flushes.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Flat `name → value` snapshot, `server_`-prefixed, wire-ready.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            (
                "server_connections_accepted".to_string(),
                self.connections_accepted.load(Ordering::Relaxed),
            ),
            (
                "server_connections_rejected".to_string(),
                self.connections_rejected.load(Ordering::Relaxed),
            ),
            (
                "server_connections_open".to_string(),
                self.connections_open.load(Ordering::Relaxed),
            ),
            (
                "server_bytes_in".to_string(),
                self.bytes_in.load(Ordering::Relaxed),
            ),
            (
                "server_bytes_out".to_string(),
                self.bytes_out.load(Ordering::Relaxed),
            ),
            (
                "server_errors_sent".to_string(),
                self.errors_sent.load(Ordering::Relaxed),
            ),
            (
                "server_busy_rejections".to_string(),
                self.busy_rejections.load(Ordering::Relaxed),
            ),
            (
                "server_timeouts".to_string(),
                self.timeouts.load(Ordering::Relaxed),
            ),
            (
                "server_chunks_sent".to_string(),
                self.chunks_sent.load(Ordering::Relaxed),
            ),
            (
                "server_pushes_sent".to_string(),
                self.pushes_sent.load(Ordering::Relaxed),
            ),
            (
                "server_push_flushes".to_string(),
                self.push_flushes.load(Ordering::Relaxed),
            ),
            (
                "server_streams_opened".to_string(),
                self.streams_opened.load(Ordering::Relaxed),
            ),
            (
                "server_subscriptions_opened".to_string(),
                self.subscriptions_opened.load(Ordering::Relaxed),
            ),
            (
                "server_frame_errors".to_string(),
                self.frame_errors.load(Ordering::Relaxed),
            ),
            (
                "server_session_panics".to_string(),
                self.session_panics.load(Ordering::Relaxed),
            ),
        ];
        for (idx, op) in ReqOp::ALL.iter().enumerate() {
            out.push((
                format!("server_requests_{}", op.name()),
                self.requests[idx].load(Ordering::Relaxed),
            ));
        }
        out
    }
}
