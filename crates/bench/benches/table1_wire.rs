//! Wire-protocol overhead on the Table 1 workload: the same prepared queries
//! executed in-process vs over a loopback TCP connection.
//!
//! Five legs on the integrated dataspace at the bench scale:
//!
//! * **q1_in_process**: `PreparedQuery::execute` directly — the floor the wire
//!   path is measured against;
//! * **q1_over_wire**: the same prepared execute through `wire::Client` on a
//!   loopback socket — adds frame encode/decode, one request/response round
//!   trip, and the server's session dispatch;
//! * **scan_streamed_over_wire**: a full accession scan pulled through the
//!   client-acked chunk stream (chunk 16), paying one round trip per chunk —
//!   the backpressure tax in its most visible form;
//! * **insert_to_push**: commit one row and block until the standing-query
//!   delta push arrives on the same connection — the write-to-notification
//!   latency of the subscription path when the session's own request loop
//!   forwards the update behind the reply;
//! * **insert_to_push_cross_connection**: the writer and the subscriber on
//!   separate connections — the commit has to wake the idle subscriber's
//!   session, which the in-connection leg cannot see.

use bench::{bench_scale, integrated_dataspace};
use criterion::{criterion_group, criterion_main, Criterion};
use iql::Value;
use proteomics::queries::{q1, Q1_IQL};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, RwLock};
use std::time::Duration;

const ACCESSION_FEED: &str = "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";
const ACCESSION_SCAN: &str = "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";

fn table1_wire(c: &mut Criterion) {
    let ds = Arc::new(RwLock::new(integrated_dataspace(&bench_scale())));
    let handle = server::serve(
        Arc::clone(&ds),
        ("127.0.0.1", 0),
        server::ServerConfig::default(),
    )
    .expect("bind loopback server");
    let client = RefCell::new(wire::Client::connect(handle.local_addr()).expect("connect"));

    let mut group = c.benchmark_group("table1_wire");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));

    // Both Q1 legs advance one counter so neither sees a repeated binding.
    let ticks = Cell::new(0u64);
    {
        let ds = ds.read().unwrap();
        let prepared_q1 = ds.prepare(Q1_IQL).expect("q1 prepares");
        group.bench_function("q1_in_process", |b| {
            b.iter(|| {
                let i = ticks.get();
                ticks.set(i + 1);
                prepared_q1
                    .execute(&q1(&format!("ACC{i:05}q")))
                    .expect("q1 answers")
            })
        });
    }
    {
        let mut client = client.borrow_mut();
        let (q1_handle, _) = client.prepare(Q1_IQL).expect("q1 prepares over the wire");
        group.bench_function("q1_over_wire", |b| {
            b.iter(|| {
                let i = ticks.get();
                ticks.set(i + 1);
                client
                    .execute(q1_handle, &q1(&format!("ACC{i:05}q")))
                    .expect("q1 answers over the wire")
            })
        });

        group.bench_function("scan_streamed_over_wire", |b| {
            b.iter(|| {
                let (rows, chunks) = client
                    .query_chunked(ACCESSION_SCAN, 16)
                    .expect("scan streams");
                assert!(chunks >= 2);
                rows
            })
        });
    }

    // insert → push on its own connection, so the stream of deltas never
    // interleaves with the other legs' responses.
    {
        let mut subscriber = wire::Client::connect(handle.local_addr()).expect("connect");
        let (feed, _) = subscriber.prepare(ACCESSION_FEED).expect("feed prepares");
        let (sub_id, _) = subscriber
            .subscribe(feed, &iql::Params::new())
            .expect("subscribe");
        let next_id = Cell::new(5_000_000i64);
        let fresh_row = || {
            let id = next_id.get();
            next_id.set(id + 1);
            vec![vec![
                id.into(),
                format!("WIRE{id}").into(),
                "bench".into(),
                "E. remoti".into(),
                Value::Float(1.0),
                Value::Null,
            ]]
        };
        let await_push = |subscriber: &mut wire::Client| {
            let push = subscriber
                .recv_push(Duration::from_secs(5))
                .expect("push channel healthy")
                .expect("delta arrives");
            assert_eq!(push.0, sub_id);
        };
        group.bench_function("insert_to_push", |b| {
            b.iter(|| {
                subscriber
                    .insert("pedro", "protein", fresh_row())
                    .expect("insert commits");
                await_push(&mut subscriber);
            })
        });
        let mut writer = client.borrow_mut();
        group.bench_function("insert_to_push_cross_connection", |b| {
            b.iter(|| {
                writer
                    .insert("pedro", "protein", fresh_row())
                    .expect("insert commits");
                await_push(&mut subscriber);
            })
        });
        drop(writer);
        subscriber.close().expect("clean close");
    }

    group.finish();
    client.into_inner().close().expect("clean close");
    handle.shutdown();
}

criterion_group!(benches, table1_wire);
criterion_main!(benches);
