//! Protocol robustness: every way a client can misbehave — malformed,
//! truncated, oversized frames, unknown opcodes, bodies that don't match
//! their opcode, vanishing mid-stream — must produce a typed error frame or
//! a clean session teardown. Never a panic, never a leaked subscription.

#[path = "wire_support/mod.rs"]
mod wire_support;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use iql::{Params, Value};
use proptest::prelude::*;
use server::ServerConfig;
use wire::{encode_frame, Client, ClientError, ErrorCode, FrameReader, ReqOp, Request, Response};

use wire_support::{eventually, serve_default, serve_with, INCREMENTAL_SHAPE};

/// Read one response frame off a raw socket (blocking, short timeout).
fn read_response(stream: &mut TcpStream) -> Option<(u64, Response)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut reader = FrameReader::new();
    match reader.poll(stream) {
        Ok(Some(frame)) => Some((
            frame.request_id,
            Response::decode(frame.opcode, &frame.body).expect("decodable response"),
        )),
        _ => None,
    }
}

/// Drain the socket until EOF, proving the server closed the connection.
fn assert_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected server-side close, got {e}"),
        }
    }
}

#[test]
fn full_surface_round_trip() {
    let (handle, addr, ds) = serve_default();
    let mut client = Client::connect(addr).unwrap();

    // Prepare + execute with bindings, checked against in-process execution.
    let (h, params) = client
        .prepare("[{s, k} | {s, k, x} <- <<UAcc, label>>; x = ?label]")
        .unwrap();
    assert_eq!(params, vec!["label".to_string()]);
    let rows = client
        .execute(h, &Params::new().with("label", "ACC2"))
        .unwrap();
    let expected = ds
        .read()
        .unwrap()
        .prepare("[{s, k} | {s, k, x} <- <<UAcc, label>>; x = ?label]")
        .unwrap()
        .execute(&Params::new().with("label", "ACC2"))
        .unwrap();
    assert_eq!(rows, expected.into_items());

    // Aggregate through ExecuteValue.
    let (agg, _) = client.prepare("count <<UAcc, label>>").unwrap();
    assert_eq!(
        client.execute_value(agg, &Params::new()).unwrap(),
        Value::Int(5)
    );

    // One-shot query.
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);

    // Insert through the wire, visible to a following query.
    assert_eq!(
        client
            .insert("alpha", "t", vec![vec![90.into(), "ACC90".into()]])
            .unwrap(),
        1
    );
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 4);

    // Stats carries both server and dataspace counters.
    let stats = client.stats().unwrap();
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert!(get("server_requests_prepare") >= 2);
    assert!(get("server_requests_insert") >= 1);
    assert!(get("server_bytes_in") > 0);
    assert!(get("server_bytes_out") > 0);
    assert!(get("ds_plan_cache_hits") + get("ds_plan_cache_misses") > 0);

    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn streaming_uses_bounded_client_acked_chunks() {
    let (handle, addr, ds) = serve_default();
    let mut client = Client::connect(addr).unwrap();

    // 3 alpha + 2 beta = 5 UAcc rows; chunk_rows = 2 → 3 chunks.
    let (rows, chunks) = client
        .query_chunked("[{s, k} | {s, k, x} <- <<UAcc, label>>]", 2)
        .unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(chunks, 3);

    let expected = ds
        .read()
        .unwrap()
        .query("[{s, k} | {s, k, x} <- <<UAcc, label>>]")
        .unwrap();
    assert_eq!(rows, expected.into_items());

    // While no stream is open, NextChunk on a stale id is a typed error and
    // the session survives it.
    let err = client.call(&Request::NextChunk { stream_id: 424242 });
    assert!(matches!(
        err,
        Err(ClientError::Server {
            code: ErrorCode::BadStream,
            ..
        })
    ));
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);

    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn unknown_opcode_and_malformed_body_answer_typed_errors_and_keep_the_session() {
    let (handle, addr, _ds) = serve_default();
    let mut stream = TcpStream::connect(addr).unwrap();

    // Unknown opcode: framing intact, so the server answers and carries on.
    stream.write_all(&encode_frame(1, 0x7f, &[])).unwrap();
    let (id, response) = read_response(&mut stream).expect("a response");
    assert_eq!(id, 1);
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::UnknownOpcode,
            ..
        }
    ));

    // Well-framed body that doesn't decode as a Prepare.
    stream
        .write_all(&encode_frame(2, ReqOp::Prepare as u8, &[0xff, 0x01]))
        .unwrap();
    let (id, response) = read_response(&mut stream).expect("a response");
    assert_eq!(id, 2);
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::MalformedBody,
            ..
        }
    ));

    // The session is still alive: a valid request round-trips.
    let body = Request::Stats.encode_body();
    stream
        .write_all(&encode_frame(3, ReqOp::Stats as u8, &body))
        .unwrap();
    let (id, response) = read_response(&mut stream).expect("a response");
    assert_eq!(id, 3);
    assert!(matches!(response, Response::StatsResult { .. }));

    handle.shutdown();
}

/// 20 000 nested one-element tuples around a `Null` — a 100 KB value, far
/// under the frame cap. Decoding it recursively used to overflow a session
/// thread's stack, which aborts the whole server (no panic handler can catch
/// a stack overflow); the codec's depth budget answers a typed error instead.
#[test]
fn deeply_nested_values_answer_typed_errors_and_keep_the_session() {
    use wire::codec::{put_str, put_u32, put_u64};
    let mut deep = [0x05, 1, 0, 0, 0].repeat(20_000);
    deep.push(0x00);

    let mut insert = Vec::new();
    put_str(&mut insert, "alpha");
    put_str(&mut insert, "t");
    put_u32(&mut insert, 1); // one row
    put_u32(&mut insert, 1); // of one value
    insert.extend_from_slice(&deep);
    let mut execute = Vec::new();
    put_u64(&mut execute, 1); // handle
    put_u32(&mut execute, 64); // chunk rows
    put_u32(&mut execute, 1); // one binding
    put_str(&mut execute, "p");
    execute.extend_from_slice(&deep);

    let (handle, addr, _ds) = serve_default();
    let mut stream = TcpStream::connect(addr).unwrap();
    for (id, op, body) in [(1, ReqOp::Insert, insert), (2, ReqOp::Execute, execute)] {
        stream
            .write_all(&encode_frame(id, op as u8, &body))
            .unwrap();
        let (got, response) = read_response(&mut stream).expect("a response");
        assert_eq!(got, id);
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::MalformedBody,
                    ..
                }
            ),
            "{op:?}: {response:?}"
        );
    }

    let body = Request::Stats.encode_body();
    stream
        .write_all(&encode_frame(3, ReqOp::Stats as u8, &body))
        .unwrap();
    let (id, response) = read_response(&mut stream).expect("the session still answers");
    assert_eq!(id, 3);
    assert!(matches!(response, Response::StatsResult { .. }));
    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}

#[test]
fn oversized_corrupt_and_misversioned_frames_close_with_typed_errors() {
    let (handle, addr, _ds) = serve_default();

    // Oversized declared length → FrameTooLarge, then close.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    oversized.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&oversized).unwrap();
    let (_, response) = read_response(&mut stream).expect("a response");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::FrameTooLarge,
            ..
        }
    ));
    assert_closed(&mut stream);

    // Corrupt checksum → MalformedBody, then close.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut corrupt = encode_frame(1, ReqOp::Stats as u8, &[]);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    // Stats has an empty body: flipping the last byte corrupts the opcode
    // under an unchanged checksum declaration.
    stream.write_all(&corrupt).unwrap();
    let (_, response) = read_response(&mut stream).expect("a response");
    assert!(matches!(response, Response::Error { .. }));
    assert_closed(&mut stream);

    // Wrong version byte (checksum re-stamped) → VersionMismatch, then close.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = encode_frame(1, ReqOp::Stats as u8, &[]);
    frame[8] = 42;
    let payload_len = frame.len() - 8;
    let checksum = wire::codec::fnv1a(&frame[8..8 + payload_len]);
    frame[4..8].copy_from_slice(&checksum.to_le_bytes());
    stream.write_all(&frame).unwrap();
    let (_, response) = read_response(&mut stream).expect("a response");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::VersionMismatch,
            ..
        }
    ));
    assert_closed(&mut stream);

    handle.shutdown();
}

#[test]
fn abrupt_disconnect_mid_stream_leaks_nothing() {
    let (handle, addr, ds) = serve_default();

    {
        let mut client = Client::connect(addr).unwrap();
        let (h, _) = client.prepare(INCREMENTAL_SHAPE).unwrap();
        let (_sub_id, initial) = client.subscribe(h, &Params::new()).unwrap();
        assert!(matches!(initial, Value::Bag(_)));
        eventually("subscription registered", || {
            ds.read().unwrap().stats().subscriptions == 1
        });

        // Open a stream and walk away with chunks still pending.
        let opening = client
            .send(&Request::Query {
                text: "[{s, k} | {s, k, x} <- <<UAcc, label>>]".into(),
                chunk_rows: 1,
            })
            .unwrap();
        let first = client.wait_response(opening).unwrap();
        assert!(matches!(first, Response::Chunk { done: false, .. }));
        // Drop the client without Close: the TCP stream just dies.
    }

    // The server notices the dead socket on its next poll and tears the
    // session down, dropping its subscription and stream state.
    eventually("subscription unregistered", || {
        ds.read().unwrap().stats().subscriptions == 0
    });
    eventually("connection reaped", || {
        handle.stats().connections_open() == 0
    });
    // Stream teardown released its MVCC snapshot pins too.
    eventually("snapshot pins released", || {
        ds.read().unwrap().stats().snapshots_active == 0
    });
    assert_eq!(handle.stats().session_panics(), 0);

    // And the server still serves new clients.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn admission_control_rejects_connections_over_the_cap() {
    let (handle, addr, _ds) = serve_with(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });

    let mut first = Client::connect(addr).unwrap();
    assert_eq!(first.query(INCREMENTAL_SHAPE).unwrap().len(), 3);

    // The second connection is turned away with a pre-session ServerBusy.
    let mut second = Client::connect(addr).unwrap();
    second.set_response_timeout(Duration::from_secs(2));
    let err = second.stats().expect_err("over the connection cap");
    assert_eq!(err.server_code(), Some(ErrorCode::ServerBusy));
    assert!(handle.stats().connections_rejected() >= 1);

    // Closing the first frees the slot.
    first.close().unwrap();
    eventually("slot freed", || handle.stats().connections_open() == 0);
    let mut third = Client::connect(addr).unwrap();
    assert_eq!(third.query(INCREMENTAL_SHAPE).unwrap().len(), 3);
    third.close().unwrap();
    handle.shutdown();
}

#[test]
fn session_handle_cap_answers_server_busy() {
    let (handle, addr, _ds) = serve_with(ServerConfig {
        max_session_handles: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let (h, _) = client.prepare(INCREMENTAL_SHAPE).unwrap();
    let (_sub, _) = client.subscribe(h, &Params::new()).unwrap();
    let err = client
        .subscribe(h, &Params::new())
        .expect_err("handle cap enforced");
    assert_eq!(err.server_code(), Some(ErrorCode::ServerBusy));
    assert!(handle.stats().busy_rejections() >= 1);
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn query_errors_map_to_typed_codes() {
    let (handle, addr, _ds) = serve_default();
    let mut client = Client::connect(addr).unwrap();

    let parse = client.prepare("[ oh no").expect_err("parse error");
    assert_eq!(parse.server_code(), Some(ErrorCode::Parse));

    let (h, _) = client
        .prepare("[x | {k, x} <- <<ALPHA_t, ALPHA_label>>; x = ?label]")
        .unwrap();
    let unbound = client.execute(h, &Params::new()).expect_err("unbound");
    assert_eq!(unbound.server_code(), Some(ErrorCode::UnboundParam));
    let unknown = client
        .execute(h, &Params::new().with("label", "A").with("typo", 1i64))
        .expect_err("unknown param");
    assert_eq!(unknown.server_code(), Some(ErrorCode::UnknownParam));

    let bad_handle = client.execute(999, &Params::new()).expect_err("bad handle");
    assert_eq!(bad_handle.server_code(), Some(ErrorCode::BadHandle));

    let bad_sub = client.unsubscribe(999).expect_err("bad subscription");
    assert_eq!(bad_sub.server_code(), Some(ErrorCode::BadSubscription));

    // Checkpoint without an attached commit log is a typed error (the
    // workflow-order failure maps to the generic query-error code).
    let no_wal = client.checkpoint().expect_err("no log attached");
    assert_eq!(no_wal.server_code(), Some(ErrorCode::Query));

    // A bad insert (arity mismatch) is rejected without killing the session.
    let rejected = client
        .insert("alpha", "t", vec![vec![1.into()]])
        .expect_err("arity mismatch");
    assert_eq!(rejected.server_code(), Some(ErrorCode::Rejected));

    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);
    client.close().unwrap();
    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}

/// A join tree's leaf sets are `u64` masks indexed by chain position, so a
/// chain of more than 64 generators — a few KiB of query text, far under the
/// frame cap — must keep its textual plan rather than reach the tree executor
/// (where, in this debug build, the mask shift would overflow and panic).
#[test]
fn seventy_generator_chain_answers_like_the_nested_loop_in_process_and_over_the_wire() {
    let (handle, addr, ds) = serve_default();
    let mut quals = vec!["{s0, k0, x0} <- <<UAcc, label>>".to_string()];
    for i in 1..70 {
        quals.push(format!("{{s{i}, k{i}, x{i}}} <- <<UAcc, label>>"));
        quals.push(format!("k{i} = k{}", i - 1));
    }
    let text = format!("[{{k0, x69}} | {}]", quals.join("; "));
    let expr = iql::parse(&text).unwrap();

    let (nested_loop, stats) = {
        let ds = ds.read().unwrap();
        let provider = ds.provider().unwrap();
        (
            provider.answer_with_nested_loops(&expr).unwrap(),
            provider.explain(&expr).unwrap(),
        )
    };
    let nested_loop = nested_loop.expect_bag().unwrap().items().to_vec();
    assert_eq!(
        nested_loop.len(),
        5,
        "keys are unique: one row per UAcc row"
    );
    assert_eq!(stats.len(), 69, "one textual hash join per later generator");
    assert!(
        stats.iter().all(|s| s.strategy == iql::JoinStrategy::Hash),
        "a chain wider than a leaf mask keeps its textual plan"
    );

    let in_process = ds.read().unwrap().query(&text).unwrap();
    assert_eq!(in_process.into_items(), nested_loop);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(&text).unwrap(), nested_loop);
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);
    client.close().unwrap();
    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}

proptest! {
    /// Fuzz: arbitrary byte blobs thrown at the socket never panic a session
    /// thread and never leak a subscription — the server either answers with
    /// typed errors or closes the connection.
    #[test]
    fn random_garbage_never_panics_the_server(blob in proptest::collection::vec(any::<u8>(), 0..256)) {
        use std::sync::OnceLock;
        use std::sync::{Arc, RwLock};
        use dataspace_core::dataspace::Dataspace;
        use server::ServerHandle;
        // One server shared across all proptest cases (cases run sequentially
        // within the test).
        #[allow(clippy::type_complexity)]
        static SHARED: OnceLock<(ServerHandle, std::net::SocketAddr, Arc<RwLock<Dataspace>>)> =
            OnceLock::new();
        let (handle, addr, ds) = SHARED.get_or_init(serve_default);

        let mut stream = TcpStream::connect(*addr).unwrap();
        stream.write_all(&blob).unwrap();
        // Half the cases end with a clean shutdown of our half, half abort.
        if blob.len() % 2 == 0 {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        drop(stream);

        eventually("garbage session reaped", || handle.stats().connections_open() == 0);
        prop_assert_eq!(handle.stats().session_panics(), 0);
        prop_assert_eq!(ds.read().unwrap().stats().subscriptions, 0);

        // The server still answers a well-behaved client.
        let mut client = Client::connect(*addr).unwrap();
        prop_assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);
        client.close().unwrap();
    }
}

#[test]
fn shutdown_is_graceful_with_live_sessions() {
    let (handle, addr, ds) = serve_default();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(INCREMENTAL_SHAPE).unwrap().len(), 3);

    // A second session sits idle in its blocking read, holding a subscription
    // (and so a push thread).
    let mut idle = Client::connect(addr).unwrap();
    let (h, _) = idle.prepare(INCREMENTAL_SHAPE).unwrap();
    idle.subscribe(h, &Params::new()).unwrap();
    assert_eq!(ds.read().unwrap().stats().subscriptions, 1);

    // Shutdown joins the acceptor and every session thread (each of which
    // joins its push thread first); live sessions are told with a
    // ShuttingDown frame before their sockets close.
    let stats = std::sync::Arc::clone(handle.stats());
    handle.shutdown();
    assert_eq!(ds.read().unwrap().stats().subscriptions, 0);
    assert_eq!(stats.session_panics(), 0);
    assert_eq!(stats.connections_open(), 0);

    let told = idle.recv_push(Duration::from_secs(2));
    assert_eq!(
        told.expect_err("no push, a goodbye").server_code(),
        Some(ErrorCode::ShuttingDown)
    );

    client.set_response_timeout(Duration::from_secs(2));
    let err = client.stats().expect_err("server is gone");
    match err {
        ClientError::Server {
            code: ErrorCode::ShuttingDown,
            ..
        }
        | ClientError::Frame(_) => {}
        other => panic!("expected ShuttingDown or a transport error, got {other}"),
    }
}
