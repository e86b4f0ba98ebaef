//! Serve the integrated proteomics dataspace over the wire protocol.
//!
//! Paper scenario: the §3 iSpider dataspace — Pedro, gpmDB and PepSeeker
//! federated and integrated through the five intersection iterations — exposed
//! to remote clients as a network service: the Table 1 queries run over TCP as
//! prepared statements, and standing queries push deltas to subscribers as
//! writes commit.
//!
//! Two modes:
//!
//! - `cargo run --release --example serve_proteomics` — integrate the sources,
//!   attach a commit log, bind a port and serve until Enter is pressed.
//! - `cargo run --release --example serve_proteomics -- --smoke` — additionally
//!   drive one client through the whole surface (prepare → execute → subscribe
//!   → insert → push → streamed query → checkpoint → stats) and shut down
//!   cleanly; used as the CI server smoke step.

use std::sync::{Arc, RwLock};
use std::time::Duration;

use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use iql::Value;
use proteomics::intersection_integration::all_iterations;
use proteomics::queries::{q1, Q1_IQL};
use proteomics::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};
use server::ServerConfig;
use wire::{Client, PushUpdate};

/// Standing query maintained O(delta) on `pedro.protein` inserts.
const ACCESSION_FEED: &str = "[x | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";
/// Streamed scan used to demonstrate client-acked chunking.
const ACCESSION_SCAN: &str = "[{k, x} | {k, x} <- <<PEDRO_protein, PEDRO_accession_num>>]";

fn build_dataspace(scale: &CaseStudyScale) -> Result<Dataspace, Box<dyn std::error::Error>> {
    let mut ds = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false, // keep federated extents queryable alongside UProtein
        ..DataspaceConfig::default()
    });
    ds.add_source(generate_pedro(scale))?;
    ds.add_source(generate_gpmdb(scale))?;
    ds.add_source(generate_pepseeker(scale))?;
    ds.federate()?;
    for (_query, spec) in all_iterations()? {
        ds.integrate(spec)?;
    }
    Ok(ds)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke {
        CaseStudyScale::tiny()
    } else {
        CaseStudyScale::default()
    };

    println!(
        "integrating proteomics sources (proteins={}, overlap={})…",
        scale.proteins, scale.overlap
    );
    let mut ds = build_dataspace(&scale)?;

    // Attach a commit log so inserts are durable and Checkpoint has a log to
    // compact. A throwaway path keeps the example re-runnable.
    let wal_path =
        std::env::temp_dir().join(format!("serve_proteomics_{}.wal", std::process::id()));
    let replay = ds.open(&wal_path)?;
    println!(
        "commit log attached at {} ({} batches replayed)",
        wal_path.display(),
        replay.batches_replayed
    );

    let ds = Arc::new(RwLock::new(ds));
    let handle = server::serve(Arc::clone(&ds), ("127.0.0.1", 0), ServerConfig::default())?;
    let addr = handle.local_addr();
    println!("serving on {addr}");

    if smoke {
        run_smoke(addr)?;
        handle.shutdown();
        println!("smoke ok: server shut down cleanly");
    } else {
        println!("press Enter to stop…");
        let mut line = String::new();
        std::io::stdin().read_line(&mut line)?;
        handle.shutdown();
        println!("server shut down cleanly");
    }
    std::fs::remove_file(&wal_path).ok();
    Ok(())
}

/// One client, the whole protocol surface, every step checked.
fn run_smoke(addr: std::net::SocketAddr) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = Client::connect(addr)?;

    // Prepare the paper's Q1 and the standing accession feed.
    let (q1_handle, param_names) = client.prepare(Q1_IQL)?;
    assert_eq!(param_names, vec!["accession".to_string()]);
    let (feed, _) = client.prepare(ACCESSION_FEED)?;
    println!("prepared Q1 (handle {q1_handle}) and the accession feed (handle {feed})");

    // Subscribe before writing: the new accession must arrive as a push.
    let (sub_id, initial) = client.subscribe(feed, &iql::Params::new())?;
    let initial_len = match &initial {
        Value::Bag(b) => b.len(),
        other => return Err(format!("expected bag-shaped standing result, got {other:?}").into()),
    };
    println!("subscribed (sub {sub_id}): {initial_len} accessions standing");

    // Insert a protein nothing in the synthetic data can collide with.
    let inserted = client.insert(
        "pedro",
        "protein",
        vec![vec![
            1_000_000.into(),
            "WIREACC1".into(),
            "wire-protocol smoke protein".into(),
            "E. remoti".into(),
            Value::Float(42_000.0),
            Value::Null,
        ]],
    )?;
    assert_eq!(inserted, 1);

    // The committed delta is pushed exactly once, without re-execution.
    match client.recv_push(Duration::from_secs(5))? {
        Some((got_sub, PushUpdate::Delta(rows))) => {
            assert_eq!(got_sub, sub_id);
            assert_eq!(rows, vec![Value::from("WIREACC1")]);
            println!("push received: delta of {} row(s)", rows.len());
        }
        other => return Err(format!("expected one delta push, got {other:?}").into()),
    }

    // The prepared Q1 sees the new row.
    let hits = client.execute(q1_handle, &q1("WIREACC1"))?;
    assert_eq!(hits.len(), 1);
    println!("Q1(WIREACC1) over the wire: {} hit", hits.len());

    // Streamed scan: bounded chunks, advanced only on client acks.
    let (rows, chunks) = client.query_chunked(ACCESSION_SCAN, 5)?;
    assert!(chunks >= 2, "expected multiple chunks, got {chunks}");
    println!(
        "streamed scan: {} rows across {chunks} acked chunks",
        rows.len()
    );

    // Checkpoint compacts the attached commit log.
    let (before, after) = client.checkpoint()?;
    println!("checkpoint: {before} log records compacted to {after}");

    // Server counters ride the stats surface.
    let stats = client.stats()?;
    let get = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing stat {name}"))
    };
    assert!(get("server_requests_prepare") >= 2);
    assert_eq!(get("server_pushes_sent"), 1);
    assert_eq!(get("server_push_flushes"), 1);
    assert!(get("server_chunks_sent") >= chunks as u64);
    assert_eq!(get("server_session_panics"), 0);
    println!(
        "stats: {} connections accepted, {} bytes in, {} bytes out, {} pushes in {} writes",
        get("server_connections_accepted"),
        get("server_bytes_in"),
        get("server_bytes_out"),
        get("server_pushes_sent"),
        get("server_push_flushes"),
    );

    client.unsubscribe(sub_id)?;
    client.close()?;
    Ok(())
}
