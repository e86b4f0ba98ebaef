//! Concurrent clients vs an in-process differential oracle.
//!
//! N client threads hammer one server with a mix of prepares, executes
//! (point and streamed), subscribes and inserts. An identically seeded
//! in-process dataspace mirrors every insert (applied under one lock so both
//! sides see the same commit order); when the dust settles, every query
//! answered over the wire must equal in-process execution — rows **and
//! order** — and every standing subscription must have received exactly one
//! push per delta.
//!
//! The push-path legs hold the server to what event-driven delivery promises:
//! a subscription opened or closed while inserts land folds to re-execution
//! (nothing twice, nothing after `Unsubscribed`), an idle subscriber hears of
//! a commit within a wake-up rather than a polling period, and a subscriber
//! that stops reading stalls nobody else.

#[path = "wire_support/mod.rs"]
mod wire_support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use iql::{Params, Value};
use server::ServerConfig;
use wire::{Client, PushUpdate};

use wire_support::{eventually, integrated, serve_with, ALPHA_SEED, BETA_SEED, INCREMENTAL_SHAPE};

const POINT_SHAPE: &str = "[{s, k} | {s, k, x} <- <<UAcc, label>>; x = ?label]";
const SCAN_SHAPE: &str = "[{s, k, x} | {s, k, x} <- <<UAcc, label>>]";

#[test]
fn concurrent_clients_match_in_process_execution() {
    const THREADS: i64 = 4;
    const ROUNDS: i64 = 6;

    let (handle, addr, _ds) = serve_with(ServerConfig {
        exec_permits: 2, // contended on purpose
        ..ServerConfig::default()
    });
    // The oracle: an identically seeded dataspace, mirrored insert-for-insert.
    let oracle = Arc::new(RwLock::new(integrated(ALPHA_SEED, BETA_SEED)));
    // One lock serialises each wire insert with its oracle mirror, so both
    // dataspaces commit the same rows in the same order.
    let insert_order = Arc::new(Mutex::new(()));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let oracle = Arc::clone(&oracle);
            let insert_order = Arc::clone(&insert_order);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (point, _) = client.prepare(POINT_SHAPE).unwrap();
                let (scan, _) = client.prepare(SCAN_SHAPE).unwrap();
                for round in 0..ROUNDS {
                    // Disjoint id ranges per thread keep the primary key happy.
                    let id = 1000 + t * 100 + round;
                    let label = format!("T{t}R{round}");
                    {
                        let _serialised = insert_order.lock().unwrap();
                        client
                            .insert("alpha", "t", vec![vec![id.into(), label.as_str().into()]])
                            .unwrap();
                        oracle
                            .write()
                            .unwrap()
                            .insert("alpha", "t", vec![id.into(), label.as_str().into()])
                            .unwrap();
                    }
                    // Point lookup for the row just inserted: committed before
                    // the insert reply, so it must be visible.
                    let hits = client
                        .execute(point, &Params::new().with("label", label.as_str()))
                        .unwrap();
                    assert_eq!(hits.len(), 1, "thread {t} round {round}");
                    // Streamed scan with a small chunk to exercise ack-paced
                    // chunking under concurrency.
                    let (rows, chunks) = client.execute_chunked(scan, &Params::new(), 3).unwrap();
                    assert!(chunks >= 2);
                    assert!(rows.len() >= ALPHA_SEED.len() + BETA_SEED.len());
                }
                client.close().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }

    // Differential check: the full scan and every point lookup agree with the
    // oracle exactly (both sides committed the same rows in the same order).
    let mut client = Client::connect(addr).unwrap();
    let wire_rows = client.query(SCAN_SHAPE).unwrap();
    let oracle_rows = oracle.read().unwrap().query(SCAN_SHAPE).unwrap();
    assert_eq!(wire_rows, oracle_rows.into_items());
    assert_eq!(
        wire_rows.len(),
        ALPHA_SEED.len() + BETA_SEED.len() + (THREADS * ROUNDS) as usize
    );

    let (point, _) = client.prepare(POINT_SHAPE).unwrap();
    for t in 0..THREADS {
        for round in 0..ROUNDS {
            let label = format!("T{t}R{round}");
            let params = Params::new().with("label", label.as_str());
            let via_wire = client.execute(point, &params).unwrap();
            let via_oracle = oracle
                .read()
                .unwrap()
                .prepare(POINT_SHAPE)
                .unwrap()
                .execute(&params)
                .unwrap();
            assert_eq!(via_wire, via_oracle.into_items(), "label {label}");
        }
    }

    assert_eq!(handle.stats().session_panics(), 0);
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn standing_subscription_pushes_arrive_exactly_once_per_delta() {
    const INSERTS: usize = 8;

    let (handle, addr, ds) = serve_with(ServerConfig::default());

    // Subscriber client: standing query on the O(delta)-maintained shape.
    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let (sub_id, initial) = subscriber.subscribe(h, &Params::new()).unwrap();
    let Value::Bag(initial) = initial else {
        panic!("bag-shaped standing result")
    };
    assert_eq!(initial.len(), ALPHA_SEED.len());
    eventually("subscription registered", || {
        ds.read().unwrap().stats().subscriptions == 1
    });

    // Writer client: one single-row batch per delta.
    let mut writer = Client::connect(addr).unwrap();
    for i in 0..INSERTS {
        let id = 500 + i as i64;
        writer
            .insert(
                "alpha",
                "t",
                vec![vec![id.into(), format!("PUSH{i}").as_str().into()]],
            )
            .unwrap();
    }

    // Exactly one Delta push per insert, each carrying exactly its one row,
    // in commit order.
    let mut pushed = Vec::new();
    while pushed.len() < INSERTS {
        match subscriber.recv_push(Duration::from_secs(5)).unwrap() {
            Some((got_sub, PushUpdate::Delta(rows))) => {
                assert_eq!(got_sub, sub_id);
                assert_eq!(rows.len(), 1, "one row per single-row delta");
                pushed.extend(rows);
            }
            Some((_, PushUpdate::Refreshed(_))) => {
                panic!("identity-extent shape must take the O(delta) path")
            }
            None => panic!("missing push: got {} of {INSERTS}", pushed.len()),
        }
    }
    assert_eq!(
        pushed,
        (0..INSERTS)
            .map(|i| Value::str(format!("PUSH{i}")))
            .collect::<Vec<_>>()
    );
    // ... and not a single push more.
    assert!(
        subscriber
            .recv_push(Duration::from_millis(300))
            .unwrap()
            .is_none(),
        "exactly once means no extras"
    );

    // Folding initial + deltas reproduces re-execution.
    let mut folded: Vec<Value> = initial.into_items();
    folded.extend(pushed);
    let reexecuted = writer.query(INCREMENTAL_SHAPE).unwrap();
    assert_eq!(folded, reexecuted);

    assert!(handle.stats().pushes_sent() >= INSERTS as u64);

    // Unsubscribe stops the flow: a further insert pushes nothing.
    subscriber.unsubscribe(sub_id).unwrap();
    eventually("subscription dropped", || {
        ds.read().unwrap().stats().subscriptions == 0
    });
    writer
        .insert("alpha", "t", vec![vec![900.into(), "AFTER".into()]])
        .unwrap();
    assert!(subscriber
        .recv_push(Duration::from_millis(300))
        .unwrap()
        .is_none());

    subscriber.close().unwrap();
    writer.close().unwrap();
    handle.shutdown();
}

#[test]
fn mixed_subscribers_and_writers_stay_consistent() {
    const WRITERS: i64 = 3;
    const ROUNDS: i64 = 5;

    let (handle, addr, _ds) = serve_with(ServerConfig::default());

    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let (sub_id, initial) = subscriber.subscribe(h, &Params::new()).unwrap();
    let initial_len = match &initial {
        Value::Bag(b) => b.len(),
        other => panic!("expected bag, got {other:?}"),
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let id = 2000 + t * 100 + round;
                    client
                        .insert(
                            "alpha",
                            "t",
                            vec![vec![id.into(), format!("W{t}R{round}").as_str().into()]],
                        )
                        .unwrap();
                }
                client.close().unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    // Every committed delta arrives exactly once: the pushed rows (in some
    // commit order) plus the initial result must equal re-execution.
    let expected = (WRITERS * ROUNDS) as usize;
    let mut pushed = Vec::new();
    while pushed.len() < expected {
        match subscriber.recv_push(Duration::from_secs(5)).unwrap() {
            Some((got_sub, PushUpdate::Delta(rows))) => {
                assert_eq!(got_sub, sub_id);
                pushed.extend(rows);
            }
            Some((_, PushUpdate::Refreshed(_))) => panic!("unexpected fallback refresh"),
            None => panic!("missing pushes: got {} of {expected}", pushed.len()),
        }
    }
    assert!(subscriber
        .recv_push(Duration::from_millis(300))
        .unwrap()
        .is_none());
    assert_eq!(pushed.len(), expected);

    let final_rows = subscriber.query(INCREMENTAL_SHAPE).unwrap();
    assert_eq!(final_rows.len(), initial_len + expected);
    // Same rows, and the pushes replay the commit order exactly: the stream
    // tail equals the final result's tail.
    assert_eq!(final_rows[initial_len..], pushed[..]);

    assert_eq!(handle.stats().session_panics(), 0);
    subscriber.close().unwrap();
    handle.shutdown();
}

/// One alpha row; `label` is what [`INCREMENTAL_SHAPE`] projects.
fn alpha_row(id: i64, label: &str) -> Vec<Vec<Value>> {
    vec![vec![id.into(), label.into()]]
}

#[test]
fn subscriptions_racing_inserts_fold_to_reexecution() {
    const CYCLES: usize = 300;

    let (handle, addr, ds) = serve_with(ServerConfig::default());

    // Writer: single-row inserts back to back until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut id = 10_000i64;
            while !stop.load(Ordering::SeqCst) {
                client
                    .insert("alpha", "t", alpha_row(id, &format!("R{id}")))
                    .unwrap();
                id += 1;
            }
            client.close().unwrap();
        })
    };

    // Subscriber: open, linger a moment, close — over and over, against the
    // insert stream. The shape is append-only in commit order, so `initial`
    // plus the deltas in arrival order is a prefix of the final result iff no
    // row was delivered twice, skipped or reordered.
    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let mut folds: Vec<Vec<Value>> = Vec::new();
    let mut last = None;
    for cycle in 0..=CYCLES {
        let (sub_id, initial) = subscriber.subscribe(h, &Params::new()).unwrap();
        let Value::Bag(initial) = initial else {
            panic!("bag-shaped standing result")
        };
        let mut fold = initial.into_items();
        if cycle == CYCLES {
            // The last one stays open across the writer's end.
            last = Some((sub_id, fold));
            break;
        }
        // Pushes read while lingering, then — `recv_push(ZERO)` reads only
        // the inbox — those the client set aside while it waited for the
        // `Unsubscribed` reply.
        let linger_until = Instant::now() + Duration::from_micros(300 * (cycle % 4) as u64);
        let mut closed = false;
        loop {
            let wait = linger_until.saturating_duration_since(Instant::now());
            match subscriber.recv_push(wait).unwrap() {
                Some((got, PushUpdate::Delta(rows))) => {
                    // A push for an earlier `sub_id` would have followed its
                    // `Unsubscribed`.
                    assert_eq!(got, sub_id, "cycle {cycle}");
                    fold.extend(rows);
                }
                Some((_, PushUpdate::Refreshed(_))) => panic!("unexpected fallback refresh"),
                None if closed => break,
                None => {
                    subscriber.unsubscribe(sub_id).unwrap();
                    closed = true;
                }
            }
        }
        folds.push(fold);
    }

    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");
    let reexecuted = subscriber.query(INCREMENTAL_SHAPE).unwrap();
    assert!(reexecuted.len() > ALPHA_SEED.len(), "the writer wrote");

    let (sub_id, mut fold) = last.expect("final subscription");
    while fold.len() < reexecuted.len() {
        match subscriber.recv_push(Duration::from_secs(5)).unwrap() {
            Some((got, PushUpdate::Delta(rows))) => {
                assert_eq!(got, sub_id);
                fold.extend(rows);
            }
            other => panic!("missing pushes at quiesce: {other:?}"),
        }
    }
    assert_eq!(fold, reexecuted, "the open subscription at quiesce");
    for (cycle, fold) in folds.iter().enumerate() {
        assert!(
            reexecuted.starts_with(fold),
            "cycle {cycle}: initial + pushes is not a prefix of re-execution"
        );
    }

    subscriber.close().unwrap();
    eventually("subscriptions dropped", || {
        ds.read().unwrap().stats().subscriptions == 0
    });
    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}

#[test]
fn idle_subscriber_hears_of_a_commit_within_two_milliseconds() {
    const INSERTS: usize = 200;
    const SUBS: usize = 4;

    let (handle, addr, _ds) = serve_with(ServerConfig::default());
    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    for _ in 0..SUBS {
        subscriber.subscribe(h, &Params::new()).unwrap();
    }

    // The subscriber does nothing but wait for pushes, stamping the arrival
    // of the last one each insert owes it.
    let listener = std::thread::spawn(move || {
        let arrivals: Vec<Instant> = (0..INSERTS)
            .map(|i| {
                for _ in 0..SUBS {
                    subscriber
                        .recv_push(Duration::from_secs(5))
                        .unwrap()
                        .unwrap_or_else(|| panic!("a push of insert {i} never arrived"));
                }
                Instant::now()
            })
            .collect();
        subscriber.close().unwrap();
        arrivals
    });

    let mut writer = Client::connect(addr).unwrap();
    let mut sent = Vec::with_capacity(INSERTS);
    for i in 0..INSERTS {
        std::thread::sleep(Duration::from_millis(2));
        sent.push(Instant::now());
        writer
            .insert("alpha", "t", alpha_row(3000 + i as i64, "PACED"))
            .unwrap();
    }
    let arrivals = listener.join().expect("listener thread");

    let mut lag: Vec<Duration> = sent
        .iter()
        .zip(&arrivals)
        .map(|(sent, arrived)| arrived.duration_since(*sent))
        .collect();
    lag.sort();
    let median = lag[INSERTS / 2];
    assert!(
        median < Duration::from_millis(2),
        "median insert-to-push {median:?} (slowest {:?})",
        lag[INSERTS - 1]
    );
    // One wake per commit, after all four updates are queued: a commit's
    // pushes are never split across writes (a late wake may merge two).
    assert_eq!(handle.stats().pushes_sent(), (SUBS * INSERTS) as u64);
    let flushes = handle.stats().push_flushes();
    assert!(
        flushes <= INSERTS as u64,
        "{flushes} writes for {INSERTS} commits"
    );

    writer.close().unwrap();
    handle.shutdown();
}

#[test]
fn a_subscriber_that_stops_reading_stalls_nobody_else() {
    const INSERTS: usize = 64;
    const STALLED_SUBS: usize = 16;

    let (handle, addr, ds) = serve_with(ServerConfig::default());

    // Sixteen subscriptions on a connection that never reads again: every
    // insert owes it 16 x 64 KiB, far beyond what loopback buffers hold, so
    // its push thread ends up blocked mid-write.
    let mut stalled = Client::connect(addr).unwrap();
    let (h, _) = stalled.prepare(INCREMENTAL_SHAPE).unwrap();
    for _ in 0..STALLED_SUBS {
        stalled.subscribe(h, &Params::new()).unwrap();
    }
    let mut reader = Client::connect(addr).unwrap();
    let (h, _) = reader.prepare(INCREMENTAL_SHAPE).unwrap();
    let (reader_sub, _) = reader.subscribe(h, &Params::new()).unwrap();

    let mut writer = Client::connect(addr).unwrap();
    writer.set_response_timeout(Duration::from_secs(5));
    let payload = "x".repeat(64 * 1024);
    for i in 0..INSERTS {
        // Acknowledged: the commit only sets the stalled session's flag.
        writer
            .insert("alpha", "t", alpha_row(4000 + i as i64, &payload))
            .unwrap();
        // And the healthy subscriber still gets its push.
        match reader.recv_push(Duration::from_secs(5)).unwrap() {
            Some((sub_id, PushUpdate::Delta(rows))) => {
                assert_eq!((sub_id, rows.len()), (reader_sub, 1), "insert {i}");
            }
            other => panic!("insert {i}: expected a delta, got {other:?}"),
        }
    }
    let owed = (INSERTS * (STALLED_SUBS + 1)) as u64;
    assert!(
        handle.stats().pushes_sent() < owed,
        "the stalled connection took every push: nothing was blocked"
    );

    // Closing the stalled socket fails the blocked write; the session ends.
    drop(stalled);
    reader.close().unwrap();
    writer.close().unwrap();
    eventually("subscriptions dropped", || {
        ds.read().unwrap().stats().subscriptions == 0
    });
    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}
