//! The traced run and the per-layer ledger.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions: a single-threaded, in-process replay pushes the head of a
//! workload's schedule through the layers in the order the server would —
//! encode request → decode request → `Dataspace::prepare` →
//! `PreparedQuery::execute` / `insert_many` / `CommitLog::append` → encode
//! response → decode response — with a span around each call. Spans stay in
//! memory and are written out when the replay ends. None of this touches the
//! end-to-end numbers: those come from the untraced wire run.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use dataspace_core::dataspace::Dataspace;
use dataspace_core::subscriptions::{Subscription, SubscriptionUpdate};
use iql::eval::ExtentProvider;
use iql::{Params, SchemeRef, Value};
use relational::{CommitLog, LogRecord};
use wire::{encode_frame, FrameReader, PushUpdate, Request, Response};

use crate::drive::Outcome;
use crate::fixture::{build, config_for, log_seed_batches, out_dir, scale_for, Stages};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::report::{put, Metrics};
use crate::schedule::{adhoc_text, build_row, Op, Schedule, Workload, KINDS, SCAN, TARGETS, TEXTS};
use crate::stats::{median, percentile};

/// The per-layer metrics `BENCHMARK.json` lists: every one is defined on
/// every workload. Layer names are module names; names without a layer prefix
/// are deltas of the `Stats` opcode's counters across the measured window.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.bytes_per_op", "B"),
    ("server.min_rtt_us", "us"),
    ("server.residual_us", "us"),
    ("server_timeouts", "count"),
    ("server_busy_rejections", "count"),
    ("server_chunks_sent", "count"),
    ("server_pushes_sent", "count"),
    ("server_session_panics", "count"),
    ("core.prepare_ns", "ns"),
    ("core.engine_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.sub_fanout_ns", "ns"),
    ("core.delta_share", "ratio"),
    ("core.federate_s", "s"),
    ("core.integrate_s", "s"),
    ("iql.parse_ns", "ns"),
    ("iql.plan_build_ns", "ns"),
    ("iql.exec_columnar_ns", "ns"),
    ("iql.exec_row_ns", "ns"),
    ("iql.plan_cache_hit_rate", "ratio"),
    ("iql.index_hit_rate", "ratio"),
    ("iql.columnar_share", "ratio"),
    ("plan_cache_evictions", "count"),
    ("plan_reopts", "count"),
    ("index_builds", "count"),
    ("index_refreshes", "count"),
    ("automed.extent_fetch_cold_ns", "ns"),
    ("automed.extent_fetch_warm_ns", "ns"),
    ("extent_memo_evictions", "count"),
    ("extent_memo_len", "count"),
    ("relational.commit_ns", "ns"),
    ("relational.wal_append_ns", "ns"),
    ("relational.wal_bytes_per_user_byte", "ratio"),
    ("relational.wal_replay_rows_s", "1/s"),
    ("relational.checkpoint_ms", "ms"),
    ("snapshots_active", "count"),
    ("proteomics.generate_s", "s"),
    ("trace.replayed_ops", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Operations replayed per workload. Sized so that a traced run — window,
/// two replays and the micro-measurements — stays inside the driver's time
/// budget: a `join_spill` operation takes milliseconds, a `point_read` one
/// microseconds.
fn replay_ops(workload: Workload) -> usize {
    match workload {
        Workload::PointRead => 20_000,
        Workload::JoinRead => 4_000,
        Workload::JoinSpill => 600,
        Workload::MixedRw => 1_000,
        Workload::PushFanout => 10_000,
    }
}

/// One timed call: `parent` is the index of the operation's root span, or
/// -1 for a root. Spans of one operation share `op_id`.
struct Span {
    op_id: u32,
    name: &'static str,
    parent: i64,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, op_id: u32, name: &'static str, parent: i64) -> i64 {
        if !self.on {
            return -1;
        }
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.spans.len() as i64 - 1
    }

    fn end(&mut self, span: i64) {
        if self.on {
            self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// The in-process stand-in for a served dataspace during a replay.
struct Replay {
    ds: Dataspace,
    subs: Vec<Subscription>,
    log: Option<CommitLog>,
    server_reader: FrameReader,
    client_reader: FrameReader,
    tracer: Tracer,
}

impl Replay {
    fn new(workload: Workload, trace: bool) -> Result<Replay, String> {
        let (mut ds, _) = build(workload.rows(), config_for(workload, true), None)?;
        let mut log = None;
        if workload == Workload::MixedRw {
            for (target, rows) in log_seed_batches() {
                let (source, table) = TARGETS[target];
                ds.insert_many(source, table, rows)
                    .map_err(|e| e.to_string())?;
            }
            let path = out_dir().join(format!("trace-{}.wal", std::process::id()));
            std::fs::remove_file(&path).ok();
            log = Some(
                CommitLog::open(&path, false)
                    .map_err(|e| e.to_string())?
                    .log,
            );
        }
        let subs = workload
            .subscriptions()
            .iter()
            .map(|text| {
                ds.prepare(text)
                    .and_then(|q| q.subscribe(&Params::new()))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Replay {
            ds,
            subs,
            log,
            server_reader: FrameReader::new(),
            client_reader: FrameReader::new(),
            tracer: Tracer::new(trace),
        })
    }

    /// Request → server side → responses, each hop in a span.
    fn request(&mut self, op_id: u32, root: i64, request: &Request) -> Result<(), String> {
        let t = &mut self.tracer;
        let span = t.begin(op_id, "wire.encode_req", root);
        let body = request.encode_body();
        let bytes = encode_frame(op_id as u64 + 1, request.opcode() as u8, &body);
        t.end(span);

        let span = t.begin(op_id, "wire.decode_req", root);
        let frame = self
            .server_reader
            .poll(&mut &bytes[..])
            .map_err(|e| e.to_string())?
            .ok_or("frame reader wants more bytes")?;
        let decoded = Request::decode(frame.opcode, &frame.body)
            .map_err(|e| e.to_string())?
            .ok_or("unknown opcode")?;
        t.end(span);

        let responses = self.serve(op_id, root, decoded)?;
        for response in &responses {
            let t = &mut self.tracer;
            let span = t.begin(op_id, "wire.encode_resp", root);
            let body = response.encode_body();
            let bytes = encode_frame(op_id as u64 + 1, response.opcode() as u8, &body);
            t.end(span);
            let span = t.begin(op_id, "wire.decode_resp", root);
            let frame = self
                .client_reader
                .poll(&mut &bytes[..])
                .map_err(|e| e.to_string())?
                .ok_or("frame reader wants more bytes")?;
            black_box(Response::decode(frame.opcode, &frame.body).map_err(|e| e.to_string())?);
            t.end(span);
        }
        Ok(())
    }

    /// What a session does with a decoded request, minus socket and lock.
    fn serve(&mut self, op_id: u32, root: i64, request: Request) -> Result<Vec<Response>, String> {
        let t = &mut self.tracer;
        match request {
            Request::Execute {
                handle,
                params,
                chunk_rows,
            } => self.answer(op_id, root, TEXTS[handle as usize], &params, chunk_rows),
            Request::Query { text, chunk_rows } => {
                self.answer(op_id, root, &text, &Params::new(), chunk_rows)
            }
            Request::Insert {
                source,
                table,
                rows,
            } => {
                let count = rows.len() as u64;
                let logged = self.log.is_some().then(|| rows.clone());
                let span = t.begin(op_id, "core.insert", root);
                self.ds
                    .insert_many(&source, &table, rows)
                    .map_err(|e| e.to_string())?;
                t.end(span);
                if let (Some(log), Some(rows)) = (self.log.as_mut(), logged) {
                    let record = LogRecord {
                        snapshot: op_id as u64,
                        source,
                        table,
                        rows,
                    };
                    let span = t.begin(op_id, "relational.wal_append", root);
                    log.append(&record).map_err(|e| e.to_string())?;
                    t.end(span);
                }
                let mut responses = vec![Response::Inserted { rows: count }];
                for (sub_id, sub) in self.subs.iter().enumerate() {
                    for update in sub.drain_updates() {
                        responses.push(Response::Push {
                            sub_id: sub_id as u64 + 1,
                            update: match update {
                                SubscriptionUpdate::Delta(bag) => {
                                    PushUpdate::Delta(bag.into_items())
                                }
                                SubscriptionUpdate::Refreshed(value) => {
                                    PushUpdate::Refreshed(value)
                                }
                            },
                        });
                    }
                }
                Ok(responses)
            }
            Request::Stats => {
                let span = t.begin(op_id, "core.stats", root);
                let stats = self.ds.stats();
                t.end(span);
                Ok(vec![Response::StatsResult {
                    counters: vec![
                        ("ds_plan_cache_hits".into(), stats.plan_cache_hits),
                        ("ds_plan_cache_misses".into(), stats.plan_cache_misses),
                    ],
                }])
            }
            other => Err(format!("the replay does not model {:?}", other.opcode())),
        }
    }

    /// `prepare` by text, as a session does per request, then `execute`.
    fn answer(
        &mut self,
        op_id: u32,
        root: i64,
        text: &str,
        params: &Params,
        chunk_rows: u32,
    ) -> Result<Vec<Response>, String> {
        let t = &mut self.tracer;
        let span = t.begin(op_id, "core.prepare", root);
        let prepared = self.ds.prepare(text).map_err(|e| e.to_string())?;
        t.end(span);
        let span = t.begin(op_id, "core.execute", root);
        let rows = prepared
            .execute(params)
            .map_err(|e| e.to_string())?
            .into_items();
        t.end(span);
        Ok(chunks(rows, chunk_rows))
    }

    fn run(&mut self, op_id: u32, op: &Op, oracle: &Oracle) -> Result<(), String> {
        let root = self.tracer.begin(op_id, KINDS[op.kind() as usize], -1);
        let request = match op {
            Op::Execute { query, binding } => Request::Execute {
                handle: *query as u64,
                params: oracle.pools.params[*query as usize][*binding as usize].clone(),
                chunk_rows: 0,
            },
            Op::Scan { chunk } => Request::Execute {
                handle: SCAN as u64,
                params: Params::new(),
                chunk_rows: *chunk,
            },
            Op::AdHoc { text } => Request::Query {
                text: adhoc_text(*text as usize),
                chunk_rows: 0,
            },
            Op::Insert { target, rows } => Request::Insert {
                source: TARGETS[*target as usize].0.into(),
                table: TARGETS[*target as usize].1.into(),
                rows: rows.clone(),
            },
            Op::Stats => Request::Stats,
        };
        self.request(op_id, root, &request)?;
        self.tracer.end(root);
        Ok(())
    }
}

/// Split a result into the chunk responses a session would send (the
/// server's default chunk is 256 rows).
fn chunks(rows: Vec<Value>, chunk_rows: u32) -> Vec<Response> {
    let size = if chunk_rows == 0 {
        256
    } else {
        chunk_rows as usize
    };
    if rows.len() <= size {
        return vec![Response::Chunk { rows, done: true }];
    }
    let pieces = rows.len().div_ceil(size);
    rows.chunks(size)
        .enumerate()
        .map(|(i, piece)| Response::Chunk {
            rows: piece.to_vec(),
            done: i + 1 == pieces,
        })
        .collect()
}

/// Replay the first `limit` scheduled operations, clients interleaved;
/// returns the replay and its operations per second.
fn replay(
    workload: Workload,
    schedule: &Schedule,
    oracle: &Oracle,
    limit: usize,
    trace: bool,
) -> Result<(Replay, usize, f64), String> {
    let mut replay = Replay::new(workload, trace)?;
    let lanes: Vec<&Vec<Op>> = schedule.clients.iter().filter(|c| !c.is_empty()).collect();
    let available: usize = lanes.iter().map(|l| l.len()).sum();
    let ops = limit.min(available);
    let started = Instant::now();
    replay.tracer.epoch = started;
    for i in 0..ops {
        let op = &lanes[i % lanes.len()][i / lanes.len()];
        replay.run(i as u32, op, oracle)?;
    }
    let rate = ops as f64 / started.elapsed().as_secs_f64();
    if let Some(log) = replay.log.take() {
        std::fs::remove_file(log.path()).ok();
    }
    Ok((replay, ops, rate))
}

fn write_spans(workload: Workload, spans: &[Span]) -> Result<std::path::PathBuf, String> {
    let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, span) in spans.iter().enumerate() {
        let line = Json::obj([
            ("span", Json::Num(id as f64)),
            ("op_id", Json::Num(span.op_id as f64)),
            ("name", Json::str(span.name)),
            (
                "parent",
                if span.parent < 0 {
                    Json::Null
                } else {
                    Json::Num(span.parent as f64)
                },
            ),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.encode()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(path)
}

fn p50_ns(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    percentile(values, 500) as f64
}

/// Median nanoseconds of `n` timed calls of `f`.
fn time_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<u64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    p50_ns(&mut samples)
}

/// Micro-measurements of single public functions, on the workload's data
/// shape but independent of its traffic.
fn micro(workload: Workload, oracle: &Oracle, m: &mut Metrics) -> Result<(), String> {
    let rows = workload.rows();
    let err = |e: dataspace_core::error::CoreError| e.to_string();
    let (mut ds, _) = build(rows, config_for(Workload::JoinRead, true), None)?;

    // automed: extent fetch before and after memoisation.
    let schemes = [
        SchemeRef::column("UProtein", "accession_num"),
        SchemeRef::column("UPeptideHit", "sequence"),
        SchemeRef::column("UProteinHit", "protein"),
        SchemeRef::column("UPeptideHit", "probability"),
    ];
    let fetch = |ds: &Dataspace| -> Result<f64, String> {
        let provider = ds.provider().map_err(err)?;
        let mut times = Vec::new();
        for scheme in &schemes {
            let t = Instant::now();
            black_box(provider.extent(scheme).map_err(|e| e.to_string())?);
            times.push(t.elapsed().as_nanos() as f64);
        }
        Ok(median(&times))
    };
    put(m, "automed.extent_fetch_cold_ns", fetch(&ds)?, "ns");
    put(m, "automed.extent_fetch_warm_ns", fetch(&ds)?, "ns");

    // iql: parse, plan build (first execution of an unseen text minus a warm
    // one), and the two engines on one plan.
    put(
        m,
        "iql.parse_ns",
        time_ns(200, |_| drop(black_box(iql::parse(TEXTS[3])))),
        "ns",
    );
    let mut build_ns = Vec::new();
    for i in 0..20 {
        let text = adhoc_text(1_000_000 + i);
        let cold = Instant::now();
        black_box(ds.query(&text).map_err(err)?);
        let cold = cold.elapsed().as_nanos() as f64;
        let warm = Instant::now();
        black_box(ds.query(&text).map_err(err)?);
        build_ns.push(cold - warm.elapsed().as_nanos() as f64);
    }
    put(m, "iql.plan_build_ns", median(&build_ns), "ns");
    let q4 = &oracle.pools.params[3][0];
    for (name, engine) in [
        ("iql.exec_columnar_ns", &ds),
        ("iql.exec_row_ns", &oracle.ds),
    ] {
        let prepared = engine.prepare(TEXTS[3]).map_err(err)?;
        prepared.execute(q4).map_err(err)?;
        put(
            m,
            name,
            time_ns(200, |_| drop(black_box(prepared.execute(q4)))),
            "ns",
        );
    }
    put(
        m,
        "core.prepare_ns",
        time_ns(200, |_| drop(black_box(ds.prepare(TEXTS[3])))),
        "ns",
    );

    // core: a one-row insert with no subscription, then with eight.
    let mut rng = rand::SeedableRng::seed_from_u64(9);
    let mut key = 900_000_000;
    let mut insert = |ds: &mut Dataspace| {
        time_ns(200, |_| {
            key += 1;
            let row = build_row(0, key, &mut rng);
            ds.insert("pedro", "protein", row).expect("insert");
        })
    };
    let bare = insert(&mut ds);
    let subs: Vec<Subscription> = Workload::PushFanout
        .subscriptions()
        .iter()
        .map(|text| {
            ds.prepare(text)
                .and_then(|q| q.subscribe(&Params::new()))
                .map_err(err)
        })
        .collect::<Result<_, _>>()?;
    let fanned = insert(&mut ds);
    drop(subs);
    put(m, "core.insert_ns", bare, "ns");
    put(m, "core.sub_fanout_ns", (fanned - bare) / 8.0, "ns");

    // relational: a commit without a log, an append to the log, log growth
    // per user byte, replay speed and a checkpoint.
    let mut pedro = proteomics::generate_pedro(&scale_for(rows));
    let commit = time_ns(200, |_| {
        key += 1;
        let row = build_row(0, key, &mut rng);
        pedro.insert_many("protein", vec![row]).expect("commit");
    });
    put(m, "relational.commit_ns", commit, "ns");
    let path = out_dir().join(format!("micro-{}.wal", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut log = CommitLog::open(&path, false)
        .map_err(|e| e.to_string())?
        .log;
    let before = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut user_bytes = 0;
    let records: Vec<LogRecord> = log_seed_batches()
        .into_iter()
        .enumerate()
        .map(|(i, (target, rows))| {
            for row in &rows {
                let mut encoded = Vec::new();
                wire::codec::put_values(&mut encoded, row);
                user_bytes += encoded.len() as u64;
            }
            LogRecord {
                snapshot: i as u64 + 1,
                source: TARGETS[target].0.into(),
                table: TARGETS[target].1.into(),
                rows,
            }
        })
        .collect();
    let append = time_ns(records.len(), |i| log.append(&records[i]).expect("append"));
    drop(log);
    let grown = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() - before;
    put(m, "relational.wal_append_ns", append, "ns");
    put(
        m,
        "relational.wal_bytes_per_user_byte",
        grown as f64 / user_bytes as f64,
        "ratio",
    );
    let (mut reopened, stages) = build(rows, config_for(Workload::MixedRw, true), Some(&path))?;
    put(
        m,
        "relational.wal_replay_rows_s",
        stages.replayed_rows as f64 / stages.replay_s,
        "1/s",
    );
    let t = Instant::now();
    reopened.checkpoint().map_err(err)?;
    put(
        m,
        "relational.checkpoint_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    drop(reopened);
    std::fs::remove_file(&path).ok();
    Ok(())
}

/// Build the ledger of one traced run: counter deltas across the measured
/// window, the replay's spans, and the micro-measurements.
pub fn ledger(
    workload: Workload,
    schedule: &Schedule,
    oracle: &Oracle,
    outcome: &Outcome,
    stages: &Stages,
    p50_us: Option<f64>,
    min_rtt_us: f64,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();

    // Untraced first, then traced, each on a fresh dataspace: the difference
    // in operations per second is what tracing costs.
    let limit = replay_ops(workload);
    let (_, _, untraced_rate) = replay(workload, schedule, oracle, limit, false)?;
    let (traced, ops, traced_rate) = replay(workload, schedule, oracle, limit, true)?;
    let spans = &traced.tracer.spans;
    let path = write_spans(workload, spans)?;
    eprintln!("loadgen: wrote {} spans to {}", spans.len(), path.display());

    // Per span name: median duration. Per operation: time in each layer and
    // what the root span does not hand to a child (the harness's own time).
    let mut by_name: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    let mut per_op: Vec<[u64; 5]> = vec![[0; 5]; ops];
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        if span.parent < 0 {
            per_op[span.op_id as usize][4] = duration;
            continue;
        }
        by_name.entry(span.name).or_default().push(duration);
        let layer = match span.name.split('.').next() {
            Some("wire") => 0,
            Some("core") => 1,
            _ => 2,
        };
        per_op[span.op_id as usize][layer] += duration;
        per_op[span.op_id as usize][3] += duration;
    }
    let mut span_p50 = |name: &str| by_name.get_mut(name).map_or(0.0, |v| p50_ns(v));
    for name in ["encode_req", "decode_req", "encode_resp", "decode_resp"] {
        put(
            &mut m,
            format!("wire.{name}_ns"),
            span_p50(&format!("wire.{name}")),
            "ns",
        );
    }
    let mut engine: Vec<u64> = ["core.execute", "core.insert", "core.stats"]
        .iter()
        .flat_map(|n| by_name.get(n).cloned().unwrap_or_default())
        .collect();
    put(&mut m, "core.engine_ns", p50_ns(&mut engine), "ns");
    put(&mut m, "wire.bytes_per_op", outcome.bytes_per_op, "B");
    put(&mut m, "server.min_rtt_us", min_rtt_us, "us");

    let layer_p50 =
        |layer: usize| p50_ns(&mut per_op.iter().map(|op| op[layer]).collect::<Vec<_>>()) / 1e3;
    let in_process_us = layer_p50(3);
    let wire_p50_us = p50_us.unwrap_or(f64::NAN);
    // Labelled a residual: what the wire run's median has that the layers'
    // public functions do not — socket, thread wake-up, lock, dispatch.
    let residual_us = wire_p50_us - in_process_us;
    put(&mut m, "server.residual_us", residual_us, "us");
    put(&mut m, "in_process_p50_us", in_process_us, "us");
    // Shares of the wire median that add up to one: the residual's, and the
    // in-process part split by each layer's share of the replay's time (layer
    // medians do not add up across a mix of cheap and dear operations).
    let replay_ns: u64 = per_op.iter().map(|op| op[3]).sum();
    for (layer, name) in ["wire", "core", "relational"].iter().enumerate() {
        let layer_ns: u64 = per_op.iter().map(|op| op[layer]).sum();
        put(&mut m, format!("self_us.{name}"), layer_p50(layer), "us");
        put(
            &mut m,
            format!("share_of_p50.{name}"),
            (in_process_us / wire_p50_us) * (layer_ns as f64 / replay_ns.max(1) as f64),
            "ratio",
        );
    }
    put(
        &mut m,
        "share_of_p50.server_residual",
        residual_us / wire_p50_us,
        "ratio",
    );
    let mut harness: Vec<u64> = per_op
        .iter()
        .map(|op| op[4].saturating_sub(op[3]))
        .collect();
    put(
        &mut m,
        "self_us.replay_harness",
        p50_ns(&mut harness) / 1e3,
        "us",
    );
    // The engine call, per operation kind.
    for name in KINDS {
        let roots: std::collections::BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.parent < 0 && s.name == name)
            .map(|s| s.op_id)
            .collect();
        let mut calls: Vec<u64> = spans
            .iter()
            .filter(|s| {
                matches!(s.name, "core.execute" | "core.insert") && roots.contains(&s.op_id)
            })
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if !calls.is_empty() {
            put(
                &mut m,
                format!("core.execute_ns.{name}"),
                p50_ns(&mut calls),
                "ns",
            );
        }
    }

    // Counter deltas across the measured window of the wire run.
    let (open, close) = &outcome.counters;
    let at = |side: &[(String, u64)], name: &str| {
        side.iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let delta = |name: &str| at(close, name) - at(open, name);
    let share = |useful: &str, wasted: &str| {
        let total = delta(useful) + delta(wasted);
        if total > 0.0 {
            delta(useful) / total
        } else {
            0.0
        }
    };
    for name in [
        "server_timeouts",
        "server_busy_rejections",
        "server_chunks_sent",
        "server_pushes_sent",
        "server_session_panics",
    ] {
        put(&mut m, name, delta(name), "count");
    }
    put(
        &mut m,
        "core.delta_share",
        share("ds_delta_evals", "ds_fallback_reexecs"),
        "ratio",
    );
    put(&mut m, "core.federate_s", stages.federate_s, "s");
    put(&mut m, "core.integrate_s", stages.integrate_s, "s");
    put(
        &mut m,
        "iql.plan_cache_hit_rate",
        share("ds_plan_cache_hits", "ds_plan_cache_misses"),
        "ratio",
    );
    put(
        &mut m,
        "iql.index_hit_rate",
        share("ds_index_hits", "ds_index_misses"),
        "ratio",
    );
    put(
        &mut m,
        "iql.columnar_share",
        share("ds_columnar_execs", "ds_row_fallbacks"),
        "ratio",
    );
    for name in [
        "plan_cache_evictions",
        "plan_reopts",
        "index_builds",
        "index_refreshes",
        "extent_memo_evictions",
    ] {
        put(&mut m, name, delta(&format!("ds_{name}")), "count");
    }
    put(
        &mut m,
        "extent_memo_len",
        at(close, "ds_extent_memo_len"),
        "count",
    );
    put(
        &mut m,
        "snapshots_active",
        outcome.snapshots_at_quiesce as f64,
        "count",
    );
    put(&mut m, "proteomics.generate_s", stages.generate_s, "s");
    put(&mut m, "trace.replayed_ops", ops as f64, "count");
    put(&mut m, "trace.untraced_ops_s", untraced_rate, "1/s");
    put(&mut m, "trace.traced_ops_s", traced_rate, "1/s");
    put(
        &mut m,
        "trace.overhead_share",
        1.0 - traced_rate / untraced_rate,
        "ratio",
    );

    micro(workload, oracle, &mut m)?;
    Ok(m)
}

/// `loadgen budgets`: the resident bytes `join_read`'s queries reach after
/// warm-up on `join_spill`'s data shape — what `join_spill`'s budgets are a
/// quarter of.
pub fn print_budgets() -> Result<(), String> {
    let workload = Workload::JoinSpill;
    let oracle = Oracle::build(Workload::JoinRead, 1)?;
    let (ds, _) = build(workload.rows(), config_for(Workload::JoinRead, true), None)?;
    let mut extent_bytes = 0;
    // The two extents the derived `uPeptideHitToProteinHit_mm` query pulls in
    // are memoised too, though no query text names them.
    let mut seen = std::collections::BTreeSet::new();
    let mut schemes = vec![
        SchemeRef::column("UPeptideHit", "dbsearch"),
        SchemeRef::column("UProteinHit", "dbsearch"),
    ];
    for &q in workload.queries() {
        let prepared = ds.prepare(TEXTS[q]).map_err(|e| e.to_string())?;
        for params in oracle.pools.params[q].iter().take(8) {
            prepared.execute(params).map_err(|e| e.to_string())?;
        }
        schemes.extend(iql::rewrite::collect_schemes(prepared.expr()));
    }
    let provider = ds.provider().map_err(|e| e.to_string())?;
    for scheme in schemes {
        if seen.insert(scheme.key()) {
            let bytes = provider
                .extent(&scheme)
                .map_err(|e| e.to_string())?
                .approx_bytes();
            println!("  extent {:<44} {bytes:>12} B", scheme.key());
            extent_bytes += bytes;
        }
    }
    let stats = ds.stats();
    println!(
        "resident after join_read's warm-up at {} rows:",
        workload.rows()
    );
    for (name, bytes) in [
        ("plan cache", ds.plan_cache().approx_bytes()),
        ("extent memo", extent_bytes),
        ("index store", ds.index_store().approx_bytes()),
    ] {
        let quarter = bytes as f64 / 4.0;
        println!(
            "  {name:<12} {bytes:>12} B   a quarter is {quarter:>10.0} B, to a power of two {:>8} B",
            1u64 << (quarter.log2().round() as u32)
        );
    }
    if seen.len() != stats.extent_memo_len {
        println!(
            "  note: {} extents are memoised but {} were summed",
            stats.extent_memo_len,
            seen.len()
        );
    }
    Ok(())
}
