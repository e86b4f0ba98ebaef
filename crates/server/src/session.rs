//! Per-connection session: the dispatch loop that turns request frames into
//! engine calls and responses, the push thread a commit wakes to forward
//! subscription updates, and the teardown of everything the client held
//! (streams, subscriptions, snapshot pins) when it goes away — cleanly or not.
//!
//! Every frame leaves through one [`Outbound`] behind one lock, which also
//! holds the session's subscriptions. That single lock is what orders pushes:
//!
//! - [`flush_pushes`] drains every subscription and writes the frames inside
//!   it, so whichever thread calls it (the push thread on a wake, the request
//!   loop after a frame it handled) each update leaves exactly once and in
//!   queue order;
//! - `Subscribed` is written before the subscription is entered in the map,
//!   so no `Push` for a `sub_id` precedes the frame that announces it;
//! - the subscription leaves the map before `Unsubscribed` is written, so no
//!   `Push` for a `sub_id` follows it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

use dataspace_core::dataspace::{Dataspace, DataspaceStats};
use dataspace_core::error::CoreError;
use dataspace_core::subscriptions::{Subscription, SubscriptionUpdate, Waker};
use iql::value::{Bag, Value};
use iql::Params;

use wire::frame::{encode_frame, write_frame, FrameError, FrameReader, SERVER_ORIGIN_ID};
use wire::proto::{ErrorCode, PushUpdate, Request, Response};

use crate::server::{Semaphore, ServerConfig};
use crate::stats::ServerStats;

/// A materialised result mid-stream. The rows are already computed (under the
/// execution permit that produced them); what remains is pacing them out at
/// the client's ack rate. The snapshot pins mark the member sources as "being
/// read" for the stream's whole life.
struct StreamState {
    rows: Vec<Value>,
    cursor: usize,
    chunk_rows: usize,
    _pins: Vec<relational::Snapshot>,
}

/// The session's write side: the socket (a `try_clone` of the one the request
/// loop reads) and the live subscriptions whose updates are pushed down it,
/// keyed by `sub_id`. See the module docs for what holding both under one
/// lock guarantees.
struct Outbound {
    stream: TcpStream,
    subs: BTreeMap<u64, Subscription>,
}

impl Outbound {
    /// Write one response frame; `false` means the client is unreachable.
    fn write(&mut self, stats: &ServerStats, request_id: u64, response: &Response) -> bool {
        let body = response.encode_body();
        match write_frame(&mut self.stream, request_id, response.opcode() as u8, &body) {
            Ok(n) => {
                stats.add_bytes_out(n);
                if matches!(response, Response::Error { .. }) {
                    stats.error_sent();
                }
                true
            }
            Err(_) => false,
        }
    }
}

fn lock_outbound(outbound: &Mutex<Outbound>) -> MutexGuard<'_, Outbound> {
    // A panic mid-write leaves at worst a torn frame, which the client's
    // checksum catches; the map itself is valid at every step.
    outbound.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drain every subscription's pending updates and write them as `Push` frames
/// in one `write_all` — subscription order, queue order within each. The one
/// function that forwards updates; `false` means the client is unreachable.
fn flush_pushes(outbound: &Mutex<Outbound>, stats: &ServerStats) -> bool {
    let mut out = lock_outbound(outbound);
    let mut framed = Vec::new();
    let mut pushes = 0u64;
    for (&sub_id, subscription) in &out.subs {
        for update in subscription.drain_updates() {
            let update = match update {
                SubscriptionUpdate::Delta(bag) => PushUpdate::Delta(bag.into_items()),
                SubscriptionUpdate::Refreshed(value) => PushUpdate::Refreshed(value),
            };
            let push = Response::Push { sub_id, update };
            framed.extend(encode_frame(
                SERVER_ORIGIN_ID,
                push.opcode() as u8,
                &push.encode_body(),
            ));
            pushes += 1;
        }
    }
    if pushes == 0 {
        return true;
    }
    if out.stream.write_all(&framed).is_err() {
        return false;
    }
    stats.add_bytes_out(framed.len() as u64);
    stats.pushes_flushed(pushes);
    true
}

/// What a commit's waker sets and the push thread sleeps on. Level-triggered:
/// a wake that lands while the thread is busy flushing is not lost, and any
/// number of wakes before it looks again cost one flush.
#[derive(Default)]
struct PushSignal {
    state: Mutex<SignalState>,
    changed: Condvar,
}

#[derive(Default)]
struct SignalState {
    pending: bool,
    stop: bool,
}

impl PushSignal {
    fn set(&self, change: impl FnOnce(&mut SignalState)) {
        change(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_one();
    }

    /// Sleep until woken; `false` once the session is tearing down.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.pending && !state.stop {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.pending = false;
        !state.stop
    }
}

/// The push thread of a session that has subscribed: woken by commits through
/// [`Pusher::waker`], it forwards the updates they queued. Dropping it stops
/// and joins the thread.
struct Pusher {
    signal: Arc<PushSignal>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl Pusher {
    fn spawn(outbound: Arc<Mutex<Outbound>>, stats: Arc<ServerStats>) -> std::io::Result<Pusher> {
        let signal = Arc::new(PushSignal::default());
        // Called from the session's request thread, whose own commits need no
        // wake: its loop flushes right behind the reply it is about to send.
        let request_thread = std::thread::current().id();
        let waker: Waker = {
            let signal = Arc::clone(&signal);
            Arc::new(move || {
                if std::thread::current().id() != request_thread {
                    signal.set(|s| s.pending = true);
                }
            })
        };
        let thread = {
            let (signal, stats) = (Arc::clone(&signal), Arc::clone(&stats));
            std::thread::Builder::new()
                .name("session-push".into())
                .spawn(move || {
                    while signal.wait() {
                        if !flush_pushes(&outbound, &stats) {
                            // End the request loop's blocking read too: the
                            // session tears down as for any vanished client.
                            let _ = lock_outbound(&outbound).stream.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                })?
        };
        Ok(Pusher {
            signal,
            waker,
            thread: Some(thread),
            stats,
        })
    }
}

impl Drop for Pusher {
    fn drop(&mut self) {
        self.signal.set(|s| s.stop = true);
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                self.stats.session_panic();
            }
        }
    }
}

pub(crate) fn run_session(
    stream: TcpStream,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut session = Session {
        stream,
        outbound: Arc::new(Mutex::new(Outbound {
            stream: writer,
            subs: BTreeMap::new(),
        })),
        pusher: None,
        reader: FrameReader::new(),
        consumed_in: 0,
        dataspace,
        stats,
        config,
        shutdown,
        permits,
        handles: HashMap::new(),
        next_handle: 1,
        streams: HashMap::new(),
        next_sub: 1,
    };
    session.run();
    // Dropping the session joins its push thread, then drops every
    // Subscription handle (unregistering the standing queries) and every
    // stream's snapshot pins.
}

struct Session {
    /// The read half; every write goes through `outbound`.
    stream: TcpStream,
    outbound: Arc<Mutex<Outbound>>,
    /// Spawned by the first `Subscribe`; sessions that never subscribe run on
    /// their one thread.
    pusher: Option<Pusher>,
    reader: FrameReader,
    /// Frame bytes already credited to the server's `bytes_in` counter.
    consumed_in: u64,
    dataspace: Arc<RwLock<Dataspace>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    permits: Arc<Semaphore>,
    /// Prepared handles: id → query text, re-prepared per request through the
    /// dataspace's parse memo (a `PreparedQuery` borrows the dataspace, so
    /// the text is the only thing a session can hold across lock releases —
    /// and re-preparing a memoised text is a few `Arc` bumps, not a re-parse).
    handles: HashMap<u64, String>,
    next_handle: u64,
    /// Open result streams, keyed by the request id that opened them.
    streams: HashMap<u64, StreamState>,
    next_sub: u64,
}

impl Drop for Session {
    fn drop(&mut self) {
        // The listener keeps a clone of the socket until it reaps the thread,
        // so closing this end takes an explicit shutdown; it also fails any
        // write the push thread is blocked in, so `pusher`'s join returns.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Session {
    fn run(&mut self) {
        self.stream.set_nodelay(true).ok();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.send(
                    SERVER_ORIGIN_ID,
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                );
                return;
            }
            // A blocking read: nothing is polled for. Updates from other
            // sessions' commits wake the push thread, shutdown ends the read.
            match self.reader.poll(&mut self.stream) {
                Ok(None) => continue,
                Ok(Some(frame)) => {
                    let fresh = self.reader.bytes_in() - self.consumed_in;
                    self.consumed_in = self.reader.bytes_in();
                    self.stats.add_bytes_in(fresh);
                    if !self.handle_frame(frame.request_id, frame.opcode, &frame.body) {
                        return;
                    }
                    // Updates this frame queued (the session's own insert, or
                    // commits that raced its `Subscribe`) follow the reply on
                    // this thread, without waiting for the push thread.
                    if self.pusher.is_some() && !flush_pushes(&self.outbound, &self.stats) {
                        return;
                    }
                }
                // `ServerHandle::shutdown` ended the read: say goodbye above.
                Err(_) if self.shutdown.load(Ordering::SeqCst) => continue,
                // Clean close between frames: the client vanished without a
                // `Close`; tear down silently.
                Err(FrameError::Closed) => return,
                // Framing is lost (corruption, oversize, bad version, or a
                // disconnect mid-frame): answer with a typed error where a
                // write can still succeed, then drop the connection — no
                // later byte boundary can be trusted.
                Err(e) => {
                    self.stats.frame_error();
                    let code = match &e {
                        FrameError::TooLarge { .. } => ErrorCode::FrameTooLarge,
                        FrameError::Version { .. } => ErrorCode::VersionMismatch,
                        _ => ErrorCode::MalformedBody,
                    };
                    self.send(
                        SERVER_ORIGIN_ID,
                        &Response::Error {
                            code,
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            }
        }
    }

    /// Dispatch one frame. Returns `false` when the session should end.
    fn handle_frame(&mut self, request_id: u64, opcode: u8, body: &[u8]) -> bool {
        let request = match Request::decode(opcode, body) {
            Ok(Some(request)) => request,
            Ok(None) => {
                // Unknown opcode: framing is intact, so answer and carry on.
                return self.send_error(
                    request_id,
                    ErrorCode::UnknownOpcode,
                    format!("unknown request opcode 0x{opcode:02x}"),
                );
            }
            Err(e) => {
                // The frame passed its checksum but the body does not match
                // the opcode's shape — a client bug, not lost framing.
                return self.send_error(request_id, ErrorCode::MalformedBody, e.to_string());
            }
        };
        self.stats.request(request.opcode());
        match request {
            Request::Prepare { text } => self.on_prepare(request_id, &text),
            Request::Execute {
                handle,
                params,
                chunk_rows,
            } => self.on_execute(request_id, handle, &params, chunk_rows),
            Request::ExecuteValue { handle, params } => {
                self.on_execute_value(request_id, handle, &params)
            }
            Request::Query { text, chunk_rows } => self.on_query(request_id, &text, chunk_rows),
            Request::NextChunk { stream_id } => self.on_next_chunk(request_id, stream_id),
            Request::CancelStream { stream_id } => {
                self.streams.remove(&stream_id);
                self.send(
                    request_id,
                    &Response::Chunk {
                        rows: Vec::new(),
                        done: true,
                    },
                )
            }
            Request::Subscribe { handle, params } => self.on_subscribe(request_id, handle, &params),
            Request::Unsubscribe { sub_id } => self.on_unsubscribe(request_id, sub_id),
            Request::Insert {
                source,
                table,
                rows,
            } => self.on_insert(request_id, &source, &table, rows),
            Request::Checkpoint => self.on_checkpoint(request_id),
            Request::Stats => self.on_stats(request_id),
            Request::Close => {
                self.send(request_id, &Response::Closed);
                false
            }
        }
    }

    fn on_prepare(&mut self, request_id: u64, text: &str) -> bool {
        let prepared = {
            let ds = self.read_ds();
            match ds.prepare(text) {
                Ok(q) => Ok(q.param_names().map(str::to_string).collect::<Vec<_>>()),
                Err(e) => Err(e),
            }
        };
        match prepared {
            Ok(param_names) => {
                let handle = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(handle, text.to_string());
                self.send(
                    request_id,
                    &Response::Prepared {
                        handle,
                        param_names,
                    },
                )
            }
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    /// Run a bag-producing execution and open a stream over its rows.
    fn run_bag(&mut self, request_id: u64, text: &str, params: &Params, chunk_rows: u32) -> bool {
        let open_handles = self.open_handles();
        if open_handles >= self.config.max_session_handles {
            self.stats.busy_rejection();
            return self.send_error(
                request_id,
                ErrorCode::ServerBusy,
                format!(
                    "session holds {open_handles} open streams/subscriptions (limit {})",
                    self.config.max_session_handles
                ),
            );
        }
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome: Result<(Bag, Vec<relational::Snapshot>), CoreError> = {
            let ds = self.read_ds();
            let pins = ds.pin_snapshots();
            ds.prepare(text)
                .and_then(|q| q.execute(params))
                .map(|bag| (bag, pins))
        };
        self.permits.release();
        match outcome {
            Ok((bag, pins)) => self.open_stream(request_id, bag.into_items(), chunk_rows, pins),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_execute(
        &mut self,
        request_id: u64,
        handle: u64,
        params: &Params,
        chunk_rows: u32,
    ) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        self.run_bag(request_id, &text, params, chunk_rows)
    }

    fn on_query(&mut self, request_id: u64, text: &str, chunk_rows: u32) -> bool {
        self.run_bag(request_id, text, &Params::new(), chunk_rows)
    }

    fn on_execute_value(&mut self, request_id: u64, handle: u64, params: &Params) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome = {
            let ds = self.read_ds();
            ds.prepare(&text).and_then(|q| q.execute_value(params))
        };
        self.permits.release();
        match outcome {
            Ok(value) => self.send(request_id, &Response::ValueResult { value }),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    /// Send the first chunk; park the rest as a stream if anything remains.
    fn open_stream(
        &mut self,
        request_id: u64,
        rows: Vec<Value>,
        chunk_rows: u32,
        pins: Vec<relational::Snapshot>,
    ) -> bool {
        let chunk = if chunk_rows == 0 {
            self.config.default_chunk_rows
        } else {
            (chunk_rows as usize).min(self.config.max_chunk_rows)
        }
        .max(1);
        if rows.len() <= chunk {
            self.stats.chunk_sent();
            return self.send(request_id, &Response::Chunk { rows, done: true });
        }
        let first: Vec<Value> = rows[..chunk].to_vec();
        self.streams.insert(
            request_id,
            StreamState {
                rows,
                cursor: chunk,
                chunk_rows: chunk,
                _pins: pins,
            },
        );
        self.stats.stream_opened();
        self.stats.chunk_sent();
        self.send(
            request_id,
            &Response::Chunk {
                rows: first,
                done: false,
            },
        )
    }

    fn on_next_chunk(&mut self, request_id: u64, stream_id: u64) -> bool {
        let Some(state) = self.streams.get_mut(&stream_id) else {
            return self.send_error(
                request_id,
                ErrorCode::BadStream,
                format!("no open stream {stream_id}"),
            );
        };
        let end = (state.cursor + state.chunk_rows).min(state.rows.len());
        let rows: Vec<Value> = state.rows[state.cursor..end].to_vec();
        state.cursor = end;
        let done = end == state.rows.len();
        if done {
            self.streams.remove(&stream_id);
        }
        self.stats.chunk_sent();
        self.send(request_id, &Response::Chunk { rows, done })
    }

    fn on_subscribe(&mut self, request_id: u64, handle: u64, params: &Params) -> bool {
        let Some(text) = self.handles.get(&handle).cloned() else {
            return self.send_error(
                request_id,
                ErrorCode::BadHandle,
                format!("no prepared handle {handle}"),
            );
        };
        let open_handles = self.open_handles();
        if open_handles >= self.config.max_session_handles {
            self.stats.busy_rejection();
            return self.send_error(
                request_id,
                ErrorCode::ServerBusy,
                format!(
                    "session holds {open_handles} open streams/subscriptions (limit {})",
                    self.config.max_session_handles
                ),
            );
        }
        let waker = match &self.pusher {
            Some(pusher) => Arc::clone(&pusher.waker),
            None => match Pusher::spawn(Arc::clone(&self.outbound), Arc::clone(&self.stats)) {
                Ok(pusher) => Arc::clone(&self.pusher.insert(pusher).waker),
                Err(e) => {
                    self.stats.busy_rejection();
                    return self.send_error(
                        request_id,
                        ErrorCode::ServerBusy,
                        format!("cannot start the session's push thread: {e}"),
                    );
                }
            },
        };
        // Register, snapshot `initial` and arm the waker under one read lock:
        // commits take the write lock, so every insert is either folded into
        // `initial` or queued as an update — never both, never neither.
        let outcome = {
            let ds = self.read_ds();
            ds.prepare(&text)
                .and_then(|q| q.subscribe(params))
                .map(|subscription| {
                    subscription.notify_on_update(waker);
                    (subscription.result(), subscription)
                })
        };
        match outcome {
            Ok((initial, subscription)) => {
                let sub_id = self.next_sub;
                self.next_sub += 1;
                self.stats.subscription_opened();
                // Announce, then make it visible to `flush_pushes`; updates
                // queued since the snapshot leave with the flush after this
                // frame.
                let mut out = lock_outbound(&self.outbound);
                let sent = out.write(
                    &self.stats,
                    request_id,
                    &Response::Subscribed { sub_id, initial },
                );
                out.subs.insert(sub_id, subscription);
                sent
            }
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_unsubscribe(&mut self, request_id: u64, sub_id: u64) -> bool {
        let mut out = lock_outbound(&self.outbound);
        if out.subs.remove(&sub_id).is_some() {
            return out.write(&self.stats, request_id, &Response::Unsubscribed);
        }
        drop(out);
        self.send_error(
            request_id,
            ErrorCode::BadSubscription,
            format!("no live subscription {sub_id}"),
        )
    }

    fn on_insert(
        &mut self,
        request_id: u64,
        source: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> bool {
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let count = rows.len() as u64;
        let outcome = self.write_ds().insert_many(source, table, rows);
        self.permits.release();
        match outcome {
            Ok(()) => self.send(request_id, &Response::Inserted { rows: count }),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_checkpoint(&mut self, request_id: u64) -> bool {
        if !self.permits.acquire(self.config.request_timeout) {
            self.stats.timeout();
            return self.send_error(
                request_id,
                ErrorCode::Timeout,
                format!("no execution slot within {:?}", self.config.request_timeout),
            );
        }
        let outcome = self.write_ds().checkpoint();
        self.permits.release();
        match outcome {
            Ok(report) => self.send(
                request_id,
                &Response::CheckpointDone {
                    records_before: report.records_before as u64,
                    records_after: report.records_after as u64,
                },
            ),
            Err(e) => self.send_core_error(request_id, &e),
        }
    }

    fn on_stats(&mut self, request_id: u64) -> bool {
        let ds_stats = self.read_ds().stats();
        let mut counters = self.stats.snapshot();
        counters.extend(dataspace_counters(&ds_stats));
        self.send(request_id, &Response::StatsResult { counters })
    }

    /// Open streams + live subscriptions, the count `max_session_handles` caps.
    fn open_handles(&self) -> usize {
        self.streams.len() + lock_outbound(&self.outbound).subs.len()
    }

    fn read_ds(&self) -> std::sync::RwLockReadGuard<'_, Dataspace> {
        self.dataspace
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_ds(&self) -> std::sync::RwLockWriteGuard<'_, Dataspace> {
        self.dataspace
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write one response frame; `false` means the client is unreachable.
    fn send(&mut self, request_id: u64, response: &Response) -> bool {
        lock_outbound(&self.outbound).write(&self.stats, request_id, response)
    }

    fn send_error(&mut self, request_id: u64, code: ErrorCode, message: String) -> bool {
        self.send(request_id, &Response::Error { code, message })
    }

    fn send_core_error(&mut self, request_id: u64, e: &CoreError) -> bool {
        let code = match e {
            CoreError::Parse(_) => ErrorCode::Parse,
            CoreError::UnboundParam(_) => ErrorCode::UnboundParam,
            CoreError::UnknownParam(_) => ErrorCode::UnknownParam,
            CoreError::Storage(_) => ErrorCode::Storage,
            CoreError::Relational(_) => ErrorCode::Rejected,
            CoreError::Automed(_)
            | CoreError::Query(_)
            | CoreError::InvalidSpec(_)
            | CoreError::WorkflowOrder(_) => ErrorCode::Query,
        };
        self.send_error(request_id, code, e.to_string())
    }
}

/// Flatten the dataspace's stats snapshot into `ds_`-prefixed counters.
fn dataspace_counters(s: &DataspaceStats) -> Vec<(String, u64)> {
    vec![
        ("ds_plan_cache_hits".into(), s.plan_cache_hits),
        ("ds_plan_cache_misses".into(), s.plan_cache_misses),
        ("ds_plan_cache_evictions".into(), s.plan_cache_evictions),
        ("ds_plan_cache_len".into(), s.plan_cache_len as u64),
        ("ds_plan_reopts".into(), s.plan_reopts),
        ("ds_index_hits".into(), s.index_hits),
        ("ds_index_misses".into(), s.index_misses),
        ("ds_index_builds".into(), s.index_builds),
        ("ds_index_evictions".into(), s.index_evictions),
        ("ds_extent_memo_len".into(), s.extent_memo_len as u64),
        ("ds_extent_memo_evictions".into(), s.extent_memo_evictions),
        ("ds_parse_memo_len".into(), s.parse_memo_len as u64),
        ("ds_subscriptions".into(), s.subscriptions as u64),
        ("ds_delta_evals".into(), s.delta_evals),
        ("ds_fallback_reexecs".into(), s.fallback_reexecs),
        ("ds_columnar_execs".into(), s.columnar_execs),
        ("ds_row_fallbacks".into(), s.row_fallbacks),
        ("ds_snapshots_active".into(), s.snapshots_active as u64),
        ("ds_wal_appends".into(), s.wal_appends),
        ("ds_recovery_replays".into(), s.recovery_replays),
    ]
}
