//! Everything that happens over the wire: timed setup of a served dataspace,
//! the closed-loop and open-loop drivers, and the checks made at quiesce.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use dataspace_core::dataspace::Dataspace;
use iql::{Params, Value};
use server::{ServerConfig, ServerHandle};
use wire::{Client, ClientError, PushUpdate, Request};

use crate::fixture::{build, config_for, Stages};
use crate::oracle::{same_bag, Oracle};
use crate::schedule::{
    adhoc_text, Op, Schedule, Workload, CLIENTS, FANOUT_RATE_PER_S, KIND_CHECKPOINT, SCAN, TARGETS,
    TEXTS,
};
use crate::stats::Sample;

/// Rounds of the warm-up pass before setup gives up waiting for the plan,
/// index and extent counters to stop moving (`join_spill`'s never do).
const MAX_WARM_ROUNDS: usize = 4;

/// One standing subscription as its client sees it: the initial result with
/// every push folded in.
pub struct Sub {
    pub id: u64,
    pub text: &'static str,
    pub rows: Vec<Value>,
    /// Arrival time of each push, nanoseconds after the run started.
    pub arrivals_ns: Vec<u64>,
}

pub struct Conn {
    pub client: Client,
    /// Server-side handle per [`TEXTS`] index (0 where not prepared).
    handles: [u64; TEXTS.len()],
    pub subs: Vec<Sub>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr, texts: &[usize]) -> Result<Conn, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client.set_response_timeout(Duration::from_secs(10));
        let mut handles = [0; TEXTS.len()];
        for &t in texts {
            handles[t] = client.prepare(TEXTS[t]).map_err(|e| e.to_string())?.0;
        }
        Ok(Conn {
            client,
            handles,
            subs: Vec::new(),
        })
    }

    fn fold(&mut self, sub_id: u64, update: PushUpdate, at_ns: u64) {
        if let Some(sub) = self.subs.iter_mut().find(|s| s.id == sub_id) {
            match update {
                PushUpdate::Delta(rows) => sub.rows.extend(rows),
                PushUpdate::Refreshed(value) => {
                    sub.rows = value
                        .expect_bag()
                        .map(|b| b.into_items())
                        .unwrap_or_default()
                }
            }
            sub.arrivals_ns.push(at_ns);
        }
    }

    /// Move pushes diverted into the client's inbox while it waited for
    /// replies into the subscriptions (never touches the socket).
    fn drain_inbox(&mut self, at_ns: u64) -> Result<(), ClientError> {
        while let Some((sub_id, update)) = self.client.recv_push(Duration::ZERO)? {
            self.fold(sub_id, update, at_ns);
        }
        Ok(())
    }
}

/// A dataspace being served, with its clients connected and warmed.
pub struct Running {
    pub workload: Workload,
    pub ds: Arc<RwLock<Dataspace>>,
    server: ServerHandle,
    pub clients: Vec<Conn>,
    /// A third, otherwise idle connection: warm-up, `Stats`, state checks.
    pub control: Conn,
    /// generate → … → warm-up pass, wall time.
    pub setup_s: f64,
    pub stages: Stages,
    pub log: Option<PathBuf>,
}

/// Set up `workload`: generate sources → `add_source` ×3 → `federate` → five
/// `integrate` iterations → `Dataspace::open` replay (given a `seeded_log`,
/// which is copied aside first, untimed) → `serve` → connect, `prepare`,
/// subscribe → warm-up pass until the plan/index/extent counters stop moving.
pub fn setup(
    workload: Workload,
    warm_params: &[Vec<Params>; 7],
    seeded_log: Option<&Path>,
) -> Result<Running, String> {
    let log = match seeded_log {
        Some(seed) => {
            let work = seed.with_extension("run.wal");
            std::fs::copy(seed, &work).map_err(|e| format!("copy seeded log: {e}"))?;
            Some(work)
        }
        None => None,
    };
    let started = Instant::now();
    let (ds, stages) = build(workload.rows(), config_for(workload, true), log.as_deref())?;
    let ds = Arc::new(RwLock::new(ds));
    let server = server::serve(Arc::clone(&ds), ("127.0.0.1", 0), ServerConfig::default())
        .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = server.local_addr();
    let mut clients = (0..CLIENTS)
        .map(|_| Conn::open(addr, workload.queries()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut control = Conn::open(addr, workload.queries())?;

    let holder = clients.last_mut().expect("at least one client");
    for &text in workload.subscriptions() {
        let (handle, _) = holder.client.prepare(text).map_err(|e| e.to_string())?;
        let (id, initial) = holder
            .client
            .subscribe(handle, &Params::new())
            .map_err(|e| e.to_string())?;
        holder.subs.push(Sub {
            id,
            text,
            rows: initial
                .expect_bag()
                .map_err(|e| e.to_string())?
                .into_items(),
            arrivals_ns: Vec::new(),
        });
    }

    let mut before = None;
    for _ in 0..MAX_WARM_ROUNDS {
        for &q in workload.queries() {
            let params = warm_params.get(q).map(|p| p[0].clone()).unwrap_or_default();
            control
                .client
                .execute(control.handles[q], &params)
                .map_err(|e| format!("warm-up {}: {e}", TEXTS[q]))?;
        }
        let s = ds.read().expect("dataspace lock").stats();
        let now = (
            s.plan_cache_misses,
            s.index_builds,
            s.extent_memo_len,
            s.plan_cache_len,
        );
        if before == Some(now) {
            break;
        }
        before = Some(now);
    }
    Ok(Running {
        workload,
        ds,
        server,
        clients,
        control,
        setup_s: started.elapsed().as_secs_f64(),
        stages,
        log,
    })
}

impl Running {
    /// Close every connection and stop the server, joining its threads.
    pub fn teardown(self) -> Option<PathBuf> {
        for conn in self.clients.into_iter().chain([self.control]) {
            conn.client.close().ok();
        }
        self.server.shutdown();
        self.log
    }
}

/// What one measured window produced.
#[derive(Default)]
pub struct Outcome {
    /// Correct operations completed inside the window.
    pub samples: Vec<Sample>,
    /// Operations completed (or due, open loop) inside the window.
    pub attempted: u64,
    /// Errors, timeouts, refusals and wrong answers among them.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// `Stats` counters at window open and close.
    pub counters: (Counters, Counters),
    /// `ds_snapshots_active` once every client has stopped.
    pub snapshots_at_quiesce: u64,
    /// Bytes on the wire (both directions) per operation, warm-up included.
    pub bytes_per_op: f64,
    /// `(start, end)` of each `Checkpoint`, nanoseconds after window open.
    pub checkpoints: Vec<(u64, u64)>,
    /// Open loop: how late each insert left the generator, nanoseconds.
    pub lateness_ns: Vec<u64>,
    /// Open loop: insert acknowledged → last of its pushes received.
    pub push_lag_ns: Vec<u64>,
}

/// A `Stats` snapshot: counter name → value.
pub type Counters = Vec<(String, u64)>;
/// Acknowledged inserts, as `(TARGETS index, rows)`, in per-client order.
pub type Acked = Vec<(usize, Vec<Vec<Value>>)>;

impl Outcome {
    /// Called once the client threads have been joined.
    fn with_counters(
        (open, close): (Result<Counters, ClientError>, Result<Counters, ClientError>),
        ds: &RwLock<Dataspace>,
    ) -> Result<Outcome, String> {
        Ok(Outcome {
            counters: (
                open.map_err(|e| format!("Stats at window open: {e}"))?,
                close.map_err(|e| format!("Stats at window close: {e}"))?,
            ),
            snapshots_at_quiesce: ds.read().expect("dataspace lock").stats().snapshots_active
                as u64,
            ..Outcome::default()
        })
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    /// Indexes into the client's schedule of acknowledged inserts.
    acked: Vec<usize>,
    checkpoints: Vec<(u64, u64)>,
    ops: u64,
    exhausted: bool,
}

/// Perform one operation and check its answer; `Ok(false)` is a wrong answer.
fn perform(conn: &mut Conn, op: &Op, oracle: &Oracle) -> Result<bool, ClientError> {
    match op {
        Op::Execute { query, binding } => {
            let (q, b) = (*query as usize, *binding as usize);
            let rows = conn
                .client
                .execute(conn.handles[q], &oracle.pools.params[q][b])?;
            Ok(same_bag(rows, &oracle.answers[q][b]))
        }
        Op::Scan { chunk } => {
            let (rows, chunks) =
                conn.client
                    .execute_chunked(conn.handles[SCAN], &Params::new(), *chunk)?;
            let expected_chunks = oracle.scan.len().div_ceil(*chunk as usize).max(1);
            Ok(chunks == expected_chunks && same_bag(rows, &oracle.scan))
        }
        Op::AdHoc { text } => {
            let rows = conn.client.query(&adhoc_text(*text as usize))?;
            Ok(same_bag(rows, &oracle.adhoc[*text as usize]))
        }
        Op::Insert { target, rows } => {
            let (source, table) = TARGETS[*target as usize];
            Ok(conn.client.insert(source, table, rows.clone())? == rows.len() as u64)
        }
        Op::Stats => Ok(!conn.client.stats()?.is_empty()),
    }
}

/// One client's closed loop: the next request goes out when the reply to the
/// last one has been checked. Operations completing in `[open, close)` count.
fn client_loop(
    conn: &mut Conn,
    ops: &[Op],
    cycle: bool,
    oracle: &Oracle,
    (start, open, close): (Instant, Instant, Instant),
    checkpoint_every: Option<Duration>,
) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::with_capacity(1 << 20),
        attempted: 0,
        failures: Vec::new(),
        acked: Vec::new(),
        checkpoints: Vec::new(),
        ops: 0,
        exhausted: false,
    };
    let mut next_checkpoint = checkpoint_every.map(|every| open + every / 2);
    let mut i = 0;
    loop {
        let checkpoint = next_checkpoint.is_some_and(|at| Instant::now() >= at);
        if !checkpoint && i == ops.len() {
            if !cycle || ops.is_empty() {
                log.exhausted = !ops.is_empty();
                break;
            }
            i = 0;
        }
        let sent = Instant::now();
        let (kind, result) = if checkpoint {
            next_checkpoint = next_checkpoint.map(|at| at + checkpoint_every.expect("set"));
            (KIND_CHECKPOINT, conn.client.checkpoint().map(|_| true))
        } else {
            let op = &ops[i];
            i += 1;
            let result = perform(conn, op, oracle);
            if matches!((op, &result), (Op::Insert { .. }, Ok(true))) {
                log.acked.push(i - 1);
            }
            (op.kind(), result)
        };
        let done = Instant::now();
        log.ops += 1;
        let drained = conn.drain_inbox((done - start).as_nanos() as u64);
        if done >= close {
            break;
        }
        if checkpoint {
            // The first checkpoint is due half a period after the window opens.
            log.checkpoints.push((
                (sent - open).as_nanos() as u64,
                (done - open).as_nanos() as u64,
            ));
        }
        if done >= open {
            log.attempted += 1;
            match (&result, &drained) {
                (Ok(true), Ok(())) => log.samples.push(Sample {
                    done_ns: (done - open).as_nanos() as u64,
                    lat_ns: (done - sent).as_nanos() as u64,
                    kind,
                }),
                (Ok(false), _) => log.failures.push(format!(
                    "wrong answer to {:?}",
                    if checkpoint { None } else { Some(&ops[i - 1]) }
                )),
                (Err(e), _) | (_, Err(e)) => log.failures.push(e.to_string()),
            }
        }
        // A transport failure leaves the connection unusable.
        let broken = |e: &ClientError| !matches!(e, ClientError::Server { .. });
        if result.as_ref().err().is_some_and(broken) || drained.as_ref().err().is_some_and(broken) {
            log.failures.push("connection lost; client stopped".into());
            break;
        }
    }
    log
}

/// Drive a closed-loop workload: `warm` unmeasured, then `window` measured.
/// Returns the outcome and the acknowledged inserts, in per-client order.
pub fn closed_loop(
    running: &mut Running,
    schedule: &Schedule,
    oracle: &Oracle,
    warm: Duration,
    window: Duration,
) -> Result<(Outcome, Acked), String> {
    let traffic_before: u64 = running
        .clients
        .iter()
        .map(|c| sum(c.client.traffic()))
        .sum();
    let start = Instant::now();
    let times = (start, start + warm, start + warm + window);
    // `mixed_rw`'s first client checkpoints four times per window.
    let checkpoint_every = (running.workload == Workload::MixedRw).then(|| window / 4);
    let (logs, counters) = std::thread::scope(|scope| {
        let handles: Vec<_> = running
            .clients
            .iter_mut()
            .zip(&schedule.clients)
            .enumerate()
            .map(|(c, (conn, ops))| {
                let every = checkpoint_every.filter(|_| c == 0);
                scope.spawn(move || client_loop(conn, ops, schedule.cycle, oracle, times, every))
            })
            .collect();
        let (control, ds) = (&mut running.control.client, &running.ds);
        std::thread::sleep(times.1.saturating_duration_since(Instant::now()));
        let at_open = counters(control, ds);
        std::thread::sleep(times.2.saturating_duration_since(Instant::now()));
        let at_close = counters(control, ds);
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, (at_open, at_close))
    });
    let mut outcome = Outcome::with_counters(counters, &running.ds)?;
    let mut acked = Vec::new();
    let mut ops = 0;
    for (log, schedule_ops) in logs.into_iter().zip(&schedule.clients) {
        if log.exhausted {
            return Err(format!(
                "a client ran through its whole {}-operation schedule before the window \
                 closed: raise MIXED_OPS_PER_CLIENT_S",
                schedule_ops.len()
            ));
        }
        outcome.samples.extend(log.samples);
        outcome.attempted += log.attempted;
        outcome.checkpoints.extend(log.checkpoints);
        for failure in log.failures {
            outcome.fail(failure);
        }
        ops += log.ops;
        for i in log.acked {
            if let Op::Insert { target, rows } = &schedule_ops[i] {
                acked.push((*target as usize, rows.clone()));
            }
        }
    }
    let traffic_after: u64 = running
        .clients
        .iter()
        .map(|c| sum(c.client.traffic()))
        .sum();
    outcome.bytes_per_op = (traffic_after - traffic_before) as f64 / ops.max(1) as f64;
    Ok((outcome, acked))
}

/// The `Stats` opcode's counters, plus the two refresh counters the opcode
/// does not carry, read in-process.
fn counters(control: &mut Client, ds: &RwLock<Dataspace>) -> Result<Counters, ClientError> {
    let mut counters = control.stats()?;
    let stats = ds.read().expect("dataspace lock").stats();
    counters.push(("ds_index_refreshes".into(), stats.index_refreshes));
    counters.push(("ds_histogram_refreshes".into(), stats.histogram_refreshes));
    Ok(counters)
}

fn sum((a, b): (u64, u64)) -> u64 {
    a + b
}

/// When the `i`-th open-loop operation is due, nanoseconds after the start.
pub fn due_ns(i: u64, rate_per_s: u64) -> u64 {
    (i as u128 * 1_000_000_000 / rate_per_s as u128) as u64
}

/// Open-loop accounting for one operation, all nanoseconds after the start.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOp {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl OpenLoopOp {
    /// Timed from when the operation was *due*, so the wait a stall imposes
    /// on later operations is counted.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Drive `push_fanout`: the writer inserts one row every 1/rate seconds on
/// its own connection; the subscriber, otherwise idle, receives one push per
/// subscription per insert. An insert is complete when the last of its
/// pushes has arrived.
pub fn open_loop(
    running: &mut Running,
    schedule: &Schedule,
    warm: Duration,
    window: Duration,
) -> Result<(Outcome, Acked), String> {
    let ops = &schedule.clients[0];
    let [writer, subscriber] = &mut running.clients[..] else {
        return Err("push_fanout needs exactly a writer and a subscriber".into());
    };
    let traffic_before = sum(writer.client.traffic()) + sum(subscriber.client.traffic());
    let expected_subs = subscriber.subs.len();
    let stop = AtomicBool::new(false);
    let acked_total = AtomicU64::new(u64::MAX);
    let start = Instant::now();
    let (open_ns, close_ns) = (warm.as_nanos() as u64, (warm + window).as_nanos() as u64);
    let (control, ds) = (&mut running.control.client, &running.ds);

    let (sends, counters, receive_error) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| {
            // (due, sent, acked) per insert; `acked` is None for a failure.
            let mut sends: Vec<(u64, u64, Result<u64, String>)> = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let Op::Insert { target, rows } = op else {
                    continue;
                };
                let due = due_ns(i as u64, FANOUT_RATE_PER_S);
                if due >= close_ns {
                    break;
                }
                // Sleep towards the due time, then spin the last stretch.
                loop {
                    let now = start.elapsed().as_nanos() as u64;
                    if now >= due {
                        break;
                    }
                    if due - now > 200_000 {
                        std::thread::sleep(Duration::from_nanos(due - now - 100_000));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let sent = start.elapsed().as_nanos() as u64;
                let (source, table) = TARGETS[*target as usize];
                let acked = writer
                    .client
                    .insert(source, table, rows.clone())
                    .map(|_| start.elapsed().as_nanos() as u64)
                    .map_err(|e| e.to_string());
                sends.push((due, sent, acked));
            }
            let acked = sends.iter().filter(|s| s.2.is_ok()).count() as u64;
            acked_total.store(acked, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            sends
        });
        let subscriber_thread = scope.spawn(|| {
            let mut stopped_at = None;
            loop {
                match subscriber.client.recv_push(Duration::from_millis(20)) {
                    Ok(Some((sub_id, update))) => {
                        let at = start.elapsed().as_nanos() as u64;
                        subscriber.fold(sub_id, update, at);
                    }
                    Ok(None) => {}
                    Err(e) => return Some(e.to_string()),
                }
                if stop.load(Ordering::SeqCst) {
                    let want = acked_total.load(Ordering::SeqCst) as usize;
                    let since = *stopped_at.get_or_insert_with(Instant::now);
                    if subscriber.subs.iter().all(|s| s.arrivals_ns.len() >= want)
                        || since.elapsed() > Duration::from_secs(2)
                    {
                        return None;
                    }
                }
            }
        });
        std::thread::sleep(warm.saturating_sub(start.elapsed()));
        let at_open = counters(control, ds);
        std::thread::sleep((warm + window).saturating_sub(start.elapsed()));
        let at_close = counters(control, ds);
        (
            writer_thread.join().expect("writer panicked"),
            (at_open, at_close),
            subscriber_thread.join().expect("subscriber panicked"),
        )
    });

    let mut outcome = Outcome::with_counters(counters, ds)?;
    if let Some(e) = receive_error {
        outcome.fail(format!("subscriber connection: {e}"));
    }
    let mut acked = Vec::new();
    let mut push_index = 0;
    for (op, (due, sent, ack)) in ops.iter().zip(&sends) {
        let measured = (open_ns..close_ns).contains(due);
        outcome.attempted += measured as u64;
        let ack = match ack {
            Ok(at) => *at,
            Err(e) => {
                if measured {
                    outcome.fail(format!("insert: {e}"));
                }
                continue;
            }
        };
        if let Op::Insert { target, rows } = op {
            acked.push((*target as usize, rows.clone()));
        }
        // The n-th acknowledged insert is the n-th push of every subscription.
        let arrivals: Vec<u64> = subscriber
            .subs
            .iter()
            .filter_map(|s| s.arrivals_ns.get(push_index).copied())
            .collect();
        push_index += 1;
        if !measured {
            continue;
        }
        if arrivals.len() < expected_subs {
            outcome.fail(format!(
                "insert due at {due} ns: {} of {expected_subs} pushes arrived",
                arrivals.len()
            ));
            continue;
        }
        let timing = OpenLoopOp {
            due_ns: *due,
            sent_ns: *sent,
            done_ns: *arrivals.iter().max().expect("eight arrivals"),
        };
        outcome.samples.push(Sample {
            done_ns: timing.done_ns.saturating_sub(open_ns),
            lat_ns: timing.latency_ns(),
            kind: op.kind(),
        });
        outcome.lateness_ns.push(timing.lateness_ns());
        outcome.push_lag_ns.push(timing.done_ns.saturating_sub(ack));
    }
    let traffic_after = sum(writer.client.traffic()) + sum(subscriber.client.traffic());
    outcome.bytes_per_op = (traffic_after - traffic_before) as f64 / sends.len().max(1) as f64;
    Ok((outcome, acked))
}

/// The checks made once traffic has stopped on a workload that writes: the
/// acknowledged inserts are replayed into the oracle, then the seven priority
/// queries, the insert targets and every subscription (initial result with
/// each pushed update folded in, exactly once) must equal the oracle's
/// re-execution, with no snapshot still pinned and no session panicked.
/// Returns what disagreed.
pub fn quiesce_check(
    running: &mut Running,
    oracle: &mut Oracle,
    acked: Acked,
) -> Result<Vec<String>, String> {
    for (target, rows) in acked {
        oracle.apply(target, rows)?;
    }
    let mut wrong = Vec::new();
    for conn in &mut running.clients {
        if conn.subs.is_empty() {
            continue;
        }
        // Pushes still queued behind the last insert arrive within one poll
        // interval of the session; wait until the connection stays quiet.
        while let Some((sub_id, update)) = conn
            .client
            .recv_push(Duration::from_millis(200))
            .map_err(|e| e.to_string())?
        {
            conn.fold(sub_id, update, 0);
        }
        for sub in &conn.subs {
            if !same_bag(sub.rows.clone(), &oracle.answer(sub.text)?) {
                wrong.push(format!(
                    "subscription `{}` drifted from re-execution",
                    sub.text
                ));
            }
        }
    }
    let control = &mut running.control.client;
    wrong.extend(oracle.state_mismatches(|text, params| {
        let (handle, _) = control.prepare(text).map_err(|e| e.to_string())?;
        control.execute(handle, params).map_err(|e| e.to_string())
    })?);
    let counters = running.control.client.stats().map_err(|e| e.to_string())?;
    for name in ["ds_snapshots_active", "server_session_panics"] {
        match counters.iter().find(|(n, _)| n == name) {
            Some((_, 0)) => {}
            other => wrong.push(format!("{name} is {other:?} at quiesce, expected 0")),
        }
    }
    Ok(wrong)
}

/// Reopen `log` in a fresh dataspace and hold its state against the oracle:
/// every acknowledged row must be found. The process was not killed and
/// `wal_fsync` is off, so this is a reopen check, not a power-loss check.
pub fn reopen_check(
    workload: Workload,
    log: &Path,
    oracle: &Oracle,
) -> Result<Vec<String>, String> {
    let (ds, _) = build(workload.rows(), config_for(workload, true), Some(log))?;
    oracle.state_mismatches(|text, params| {
        let prepared = ds.prepare(text).map_err(|e| e.to_string())?;
        Ok(prepared
            .execute(params)
            .map_err(|e| e.to_string())?
            .into_items())
    })
}

/// The cheapest opcode's round trip (`CancelStream` of a stream that is not
/// open touches neither the dataspace nor a lock): median of `n`, µs.
pub fn min_rtt_us(control: &mut Client, n: usize) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        control
            .call(&Request::CancelStream {
                stream_id: u64::MAX,
            })
            .map_err(|e| e.to_string())?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(crate::stats::median(&rtts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An insert the server acknowledged but the oracle never hears of stands
    /// for a lost write: the quiesce check must notice the two states differ.
    #[test]
    fn quiesce_check_notices_a_row_the_oracle_does_not_have() {
        let workload = Workload::PushFanout;
        let mut oracle = Oracle::build(workload, 2).unwrap();
        let schedule = Schedule::generate(workload, 2, 0.3, &oracle.pools.sizes());
        let mut running = setup(workload, &oracle.pools.params, None).unwrap();
        let (outcome, mut acked) = open_loop(
            &mut running,
            &schedule,
            Duration::from_millis(50),
            Duration::from_millis(250),
        )
        .unwrap();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
        assert!(acked.len() > 100);
        acked.pop();
        let wrong = quiesce_check(&mut running, &mut oracle, acked).unwrap();
        running.teardown();
        // Every subscription holds the row, and so does `pedro.protein`.
        assert_eq!(wrong.len(), workload.subscriptions().len() + 1, "{wrong:?}");
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_not_the_send_time() {
        assert_eq!(due_ns(0, 1_250), 0);
        assert_eq!(due_ns(1, 1_250), 800_000);
        assert_eq!(due_ns(1_250, 1_250), 1_000_000_000);
        // The generator stalled 5 ms; the server then took 1 ms.
        let op = OpenLoopOp {
            due_ns: 800_000,
            sent_ns: 5_800_000,
            done_ns: 6_800_000,
        };
        assert_eq!(op.lateness_ns(), 5_000_000);
        assert_eq!(op.latency_ns(), 6_000_000);
        // An on-time send has no lateness.
        let prompt = OpenLoopOp {
            due_ns: 800_000,
            sent_ns: 800_000,
            done_ns: 900_000,
        };
        assert_eq!((prompt.lateness_ns(), prompt.latency_ns()), (0, 100_000));
    }
}
