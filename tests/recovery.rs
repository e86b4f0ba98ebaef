//! Durable commit-log recovery: a dataspace that dies and is reborn from its
//! log must be indistinguishable from one that never died.
//!
//! The tentpole here is a differential proptest: a random workload of insert
//! batches (including empty ones) runs simultaneously against an
//! uninterrupted in-memory *mirror* and a WAL-backed *durable* dataspace that
//! is killed and reborn (drop → rebuild sources → re-subscribe →
//! [`Dataspace::open`]) and checkpointed at random points. After every
//! operation the durable dataspace's query answers and standing-subscription
//! results must equal the mirror's, each life's drained update stream must
//! replay its seeded baseline into the final result, and the durability
//! counters in [`DataspaceStats`] must account for exactly the batches
//! logged and replayed.
//!
//! A second proptest fuzzes the commit log itself with the codec's own value
//! generator: random record sequences, torn at any offset or with any one
//! byte flipped, must recover a prefix of what was appended — never a panic.
//!
//! Deterministic companions pin the crash story (a torn tail is truncated,
//! the intact prefix replays — the CI crash-recovery smoke), checkpoint
//! compaction (fewer records, same answers), and Table-1 survival (the
//! seven priority queries answer identically across a crash/reopen).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use dataspace_core::mapping::{IntersectionSpec, ObjectMapping, SourceContribution};
use dataspace_core::{Subscription, SubscriptionUpdate};
use iql::{Bag, Params, Value};
use proptest::prelude::*;
use relational::schema::{DataType, RelColumn, RelSchema, RelTable};
use relational::{CommitLog, Database, LogRecord};

#[path = "../crates/iql/src/codec/arb_value.rs"]
mod arb_value;

/// A collision-free commit-log path under the OS temp dir.
fn temp_wal(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dataspace-recovery-{}-{tag}-{seq}.wal",
        std::process::id()
    ))
}

/// Deletes the commit log on drop so failed runs don't leak temp files.
struct WalGuard(PathBuf);

impl Drop for WalGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn source(name: &str, table: &str) -> Database {
    let mut schema = RelSchema::new(name);
    schema
        .add_table(
            RelTable::new(table)
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("label", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
    Database::new(schema)
}

fn uacc_spec() -> IntersectionSpec {
    IntersectionSpec::new("I1").with_mapping(
        ObjectMapping::column("UAcc", "label")
            .with_contribution(
                SourceContribution::parsed(
                    "alpha",
                    "[{'ALPHA', k, x} | {k, x} <- <<t, label>>]",
                    ["t,label"],
                )
                .unwrap(),
            )
            .with_contribution(
                SourceContribution::parsed(
                    "beta",
                    "[{'BETA', k, x} | {k, x} <- <<u, label>>]",
                    ["u,label"],
                )
                .unwrap(),
            ),
    )
}

/// A fresh, *empty* two-source dataspace — every row it will ever hold flows
/// through the commit log, so a reborn instance is rebuilt from exactly this
/// plus [`Dataspace::open`].
fn empty_integrated() -> Dataspace {
    let mut ds = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false,
        ..DataspaceConfig::default()
    });
    ds.add_source(source("alpha", "t")).unwrap();
    ds.add_source(source("beta", "u")).unwrap();
    ds.federate().unwrap();
    ds.integrate(uacc_spec()).unwrap();
    ds
}

/// The shapes recovery must preserve: an identity extent (pure delta), the
/// integrated union, a cross-source join chain, and a never-incremental
/// aggregate.
const SHAPES: &[&str] = &[
    "[x | {k, x} <- <<ALPHA_t, ALPHA_label>>]",
    "[{s, k} | {s, k, x} <- <<UAcc, label>>]",
    "[{x, y} | {k, x} <- <<ALPHA_t, ALPHA_label>>; {j, y} <- <<BETA_u, BETA_label>>; j = k]",
    "count <<UAcc, label>>",
];

fn subscribe_panel(ds: &Dataspace) -> Vec<(Subscription, Value)> {
    SHAPES
        .iter()
        .map(|text| {
            let sub = ds.prepare(text).unwrap().subscribe(&Params::new()).unwrap();
            let baseline = sub.result();
            (sub, baseline)
        })
        .collect()
}

/// Fold an update stream over a baseline result: `Delta` appends at the
/// tail, `Refreshed` replaces wholesale.
fn replay(mut baseline: Value, updates: &[SubscriptionUpdate]) -> Value {
    for update in updates {
        match update {
            SubscriptionUpdate::Delta(delta) => {
                let Value::Bag(bag) = &mut baseline else {
                    panic!("Delta update against a non-bag result");
                };
                for v in delta.iter() {
                    bag.push(v.clone());
                }
            }
            SubscriptionUpdate::Refreshed(value) => baseline = value.clone(),
        }
    }
    baseline
}

/// Sorted row display so bag comparisons are order-insensitive where the
/// engine makes no ordering promise across a rebuild.
fn canonical(v: &Value) -> Vec<String> {
    match v {
        Value::Bag(bag) => {
            let mut rows: Vec<String> = bag.iter().map(|x| x.to_string()).collect();
            rows.sort();
            rows
        }
        other => vec![other.to_string()],
    }
}

fn assert_answers_match(durable: &Dataspace, mirror: &Dataspace, when: &str) {
    for text in SHAPES {
        let d = durable
            .prepare(text)
            .unwrap()
            .execute_value(&Params::new())
            .unwrap();
        let m = mirror
            .prepare(text)
            .unwrap()
            .execute_value(&Params::new())
            .unwrap();
        assert_eq!(
            canonical(&d),
            canonical(&m),
            "recovered answers diverged from the uninterrupted run for `{text}` ({when})"
        );
    }
}

/// One workload step for the differential harness.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch (possibly empty) into alpha (`true`) or beta.
    Insert {
        into_alpha: bool,
        labels: Vec<String>,
    },
    /// Kill the durable dataspace and rebuild it from the log.
    Restart,
    /// Compact the commit log in place.
    Checkpoint,
}

const LABELS: &[&str] = &["a", "b", "c"];

fn op() -> impl Strategy<Value = Op> {
    // The vendored shim's `prop_oneof!` is uniform; bias toward inserts by
    // folding the choice into one weighted-by-range integer.
    (
        0usize..7,
        any::<bool>(),
        prop::collection::vec(0usize..LABELS.len(), 0..3),
    )
        .prop_map(|(kind, into_alpha, label_idxs)| match kind {
            0..=4 => Op::Insert {
                into_alpha,
                labels: label_idxs.iter().map(|&i| LABELS[i].to_string()).collect(),
            },
            5 => Op::Restart,
            _ => Op::Checkpoint,
        })
}

proptest! {
    /// The recovery differential: under random batches, restarts and
    /// checkpoints, the durable dataspace is observationally identical to
    /// the mirror that never crashed — answers, subscription results,
    /// update-stream replays, and the durability counters.
    #[test]
    fn recovered_dataspace_is_indistinguishable_from_uninterrupted_run(
        ops in prop::collection::vec(op(), 0..12),
    ) {
        let path = temp_wal("prop");
        let _guard = WalGuard(path.clone());

        let mut mirror = empty_integrated();
        let mut durable = empty_integrated();
        let mut panel = subscribe_panel(&durable);
        durable.open(&path).unwrap();

        let (mut next_alpha, mut next_beta) = (0i64, 0i64);
        // Ground truth for the durability counters: non-empty batches
        // committed through the log since the last restart (`wal_appends`),
        // and the batch count the last rebirth replayed (`recovery_replays` —
        // checkpoints compact history, so this is what the log held, not how
        // many commits ever happened).
        let (mut logged_since_restart, mut last_rebirth_replays) = (0u64, 0u64);

        for op in &ops {
            match op {
                Op::Insert { into_alpha, labels } => {
                    let (src, table, next) = if *into_alpha {
                        ("alpha", "t", &mut next_alpha)
                    } else {
                        ("beta", "u", &mut next_beta)
                    };
                    let rows: Vec<Vec<Value>> = labels
                        .iter()
                        .map(|l| {
                            let row = vec![(*next).into(), l.as_str().into()];
                            *next += 1;
                            row
                        })
                        .collect();
                    durable.insert_many(src, table, rows.clone()).unwrap();
                    mirror.insert_many(src, table, rows).unwrap();
                    if !labels.is_empty() {
                        logged_since_restart += 1;
                    }
                }
                Op::Restart => {
                    // Each life's update stream must replay its baseline
                    // into the result it held at death.
                    for (sub, baseline) in &panel {
                        prop_assert_eq!(
                            canonical(&replay(baseline.clone(), &sub.drain_updates())),
                            canonical(&sub.result()),
                            "pre-crash update replay diverged"
                        );
                    }
                    drop(panel);
                    drop(durable);
                    durable = empty_integrated();
                    panel = subscribe_panel(&durable);
                    let report = durable.open(&path).unwrap();
                    prop_assert_eq!(report.truncated_bytes, 0);
                    prop_assert_eq!(report.batches_replayed, durable.stats().recovery_replays);
                    // Re-armed subscriptions catch up to the replayed state;
                    // their post-recovery baseline is the recovered result.
                    for (sub, baseline) in &mut panel {
                        sub.drain_updates();
                        *baseline = sub.result();
                    }
                    logged_since_restart = 0;
                    last_rebirth_replays = report.batches_replayed;
                }
                Op::Checkpoint => {
                    let report = durable.checkpoint().unwrap();
                    prop_assert!(report.records_after <= report.records_before);
                }
            }
            assert_answers_match(&durable, &mirror, "mid-workload");
            for ((sub, _), text) in panel.iter().zip(SHAPES) {
                prop_assert_eq!(
                    canonical(&sub.result()),
                    canonical(&mirror.prepare(text).unwrap().execute_value(&Params::new()).unwrap()),
                    "recovered subscription diverged for `{}`", text
                );
            }
        }

        // Final life's update stream still replays.
        for (sub, baseline) in &panel {
            prop_assert_eq!(
                canonical(&replay(baseline.clone(), &sub.drain_updates())),
                canonical(&sub.result())
            );
        }
        // Durability counters account for exactly the logged batches: the
        // mirror logged (and replayed) nothing.
        let stats = durable.stats();
        prop_assert_eq!(stats.wal_appends, logged_since_restart);
        prop_assert_eq!(stats.recovery_replays, last_rebirth_replays);
        prop_assert_eq!(mirror.stats().wal_appends, 0);
        prop_assert_eq!(mirror.stats().recovery_replays, 0);
    }
}

/// Random records of random values (every codec tag, nested): the log is
/// value-agnostic, so it is fuzzed with the wire codec's own generator.
fn log_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        "[a-z]{0,6}",
        "[a-z]{0,6}",
        prop::collection::vec(prop::collection::vec(arb_value::arb_value(), 0..4), 0..4),
    )
        .prop_map(|(snapshot, source, table, rows)| LogRecord {
            snapshot,
            source,
            table,
            rows,
        })
}

proptest! {
    /// Commit-log recovery fuzz: append a random record sequence, then tear
    /// the file at any offset or flip one byte anywhere. `CommitLog::open`
    /// never panics (a damaged magic is a typed `InvalidData` error), the
    /// records it recovers are a prefix of those appended, and the log it
    /// leaves behind reopens clean.
    #[test]
    fn commit_log_recovery_yields_a_prefix_under_any_tear_or_flip(
        records in prop::collection::vec(log_record(), 0..6),
        at in any::<usize>(),
        flip in 0u32..256,
    ) {
        const MAGIC_LEN: usize = 8;
        let path = temp_wal("fuzz");
        let _guard = WalGuard(path.clone());
        let mut log = CommitLog::open(&path, false).unwrap().log;
        for record in &records {
            log.append(record).unwrap();
        }
        drop(log);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = at % (bytes.len() + 1);
        // A zero mask tears the file at `at`; any other flips the byte there.
        match bytes.get_mut(at) {
            Some(byte) if flip != 0 => *byte ^= flip as u8,
            _ => bytes.truncate(at),
        }
        std::fs::write(&path, &bytes).unwrap();

        match CommitLog::open(&path, false) {
            Err(e) => {
                prop_assert!(at < MAGIC_LEN, "only a damaged magic may refuse: {e}");
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            Ok(recovered) => {
                let recovered = recovered.records;
                prop_assert!(recovered.len() <= records.len());
                prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
                let again = CommitLog::open(&path, false).unwrap();
                prop_assert_eq!(again.truncated_bytes, 0);
                prop_assert_eq!(again.records, recovered);
            }
        }
    }
}

/// The crash-recovery smoke (run standalone by CI): a log whose tail was torn
/// mid-append — simulated by appending a record header that promises more
/// bytes than the file holds — reopens cleanly, reports the truncation, and
/// replays the intact prefix exactly.
#[test]
fn torn_tail_is_truncated_and_the_intact_prefix_replays() {
    let path = temp_wal("torn");
    let _guard = WalGuard(path.clone());

    let mut ds = empty_integrated();
    ds.open(&path).unwrap();
    ds.insert("alpha", "t", vec![0.into(), "a".into()]).unwrap();
    ds.insert("beta", "u", vec![0.into(), "b".into()]).unwrap();
    ds.insert("alpha", "t", vec![1.into(), "c".into()]).unwrap();
    let committed = canonical(
        &ds.prepare(SHAPES[1])
            .unwrap()
            .execute_value(&Params::new())
            .unwrap(),
    );
    drop(ds);

    // Tear the tail: a length prefix claiming 64 payload bytes, then EOF.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&64u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
    }

    let mut ds = empty_integrated();
    let report = ds.open(&path).unwrap();
    assert!(
        report.truncated_bytes > 0,
        "the torn tail must be detected and truncated"
    );
    assert_eq!((report.batches_replayed, report.rows_replayed), (3, 3));
    assert_eq!(
        canonical(
            &ds.prepare(SHAPES[1])
                .unwrap()
                .execute_value(&Params::new())
                .unwrap()
        ),
        committed,
        "the intact prefix must replay to the pre-crash committed state"
    );

    // The truncation is durable: writing through the recovered log and
    // reopening once more replays cleanly (no lingering garbage).
    ds.insert("alpha", "t", vec![2.into(), "d".into()]).unwrap();
    drop(ds);
    let mut ds = empty_integrated();
    let report = ds.open(&path).unwrap();
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.batches_replayed, 4);
}

/// Checkpointing compacts history — one record per (source, table) — without
/// changing what a reborn dataspace answers.
#[test]
fn checkpoint_compacts_history_without_changing_answers() {
    let path = temp_wal("checkpoint");
    let _guard = WalGuard(path.clone());

    let mut ds = empty_integrated();
    ds.open(&path).unwrap();
    for i in 0..6i64 {
        ds.insert("alpha", "t", vec![i.into(), "x".into()]).unwrap();
        ds.insert("beta", "u", vec![i.into(), "y".into()]).unwrap();
    }
    let before: Vec<Vec<String>> = SHAPES
        .iter()
        .map(|t| {
            canonical(
                &ds.prepare(t)
                    .unwrap()
                    .execute_value(&Params::new())
                    .unwrap(),
            )
        })
        .collect();

    let report = ds.checkpoint().unwrap();
    assert_eq!(report.records_before, 12);
    assert_eq!(report.records_after, 2, "one compacted record per table");
    drop(ds);

    let mut ds = empty_integrated();
    let report = ds.open(&path).unwrap();
    assert_eq!(report.batches_replayed, 2);
    assert_eq!(report.rows_replayed, 12);
    let after: Vec<Vec<String>> = SHAPES
        .iter()
        .map(|t| {
            canonical(
                &ds.prepare(t)
                    .unwrap()
                    .execute_value(&Params::new())
                    .unwrap(),
            )
        })
        .collect();
    assert_eq!(after, before, "compaction must not change answers");
}

/// `wal_appends` counts exactly the batches committed *through* the attached
/// log: empty batches and replayed records don't count, and a dataspace with
/// no log attached logs nothing.
#[test]
fn durability_counters_track_logged_and_replayed_batches() {
    let path = temp_wal("counters");
    let _guard = WalGuard(path.clone());

    let mut ds = empty_integrated();
    assert_eq!(ds.stats().wal_appends, 0);
    // Pre-attachment inserts are not logged...
    ds.insert("alpha", "t", vec![0.into(), "a".into()]).unwrap();
    ds.open(&path).unwrap();
    assert_eq!(ds.stats().wal_appends, 0);
    // ...post-attachment non-empty batches are, empty ones aren't.
    ds.insert("alpha", "t", vec![1.into(), "b".into()]).unwrap();
    ds.insert_many("beta", "u", vec![]).unwrap();
    ds.insert("beta", "u", vec![0.into(), "c".into()]).unwrap();
    let stats = ds.stats();
    assert_eq!(stats.wal_appends, 2);
    assert_eq!(stats.recovery_replays, 0);
    drop(ds);

    // The reborn dataspace replays the two logged batches; the
    // pre-attachment row is gone — the log records what it saw.
    let mut ds = empty_integrated();
    let report = ds.open(&path).unwrap();
    assert_eq!(report.batches_replayed, 2);
    let stats = ds.stats();
    assert_eq!(stats.recovery_replays, 2);
    assert_eq!(
        stats.wal_appends, 0,
        "replayed records must not be re-appended"
    );
    assert_eq!(
        ds.query_value("count <<ALPHA_t>>").unwrap(),
        Value::Int(1),
        "only the logged alpha row survives rebirth"
    );
}

/// Acceptance: the seven Table-1 priority queries answer identically before
/// and after a crash/reopen of a WAL-backed proteomics dataspace that took
/// writes through the log.
#[test]
fn table1_priority_queries_survive_crash_and_recovery() {
    use proteomics::intersection_integration::all_iterations;
    use proteomics::queries::priority_queries;
    use proteomics::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};

    fn proteomics_ds() -> Dataspace {
        let scale = CaseStudyScale::tiny();
        let mut ds = Dataspace::with_config(DataspaceConfig {
            drop_redundant: false,
            ..DataspaceConfig::default()
        });
        ds.add_source(generate_pedro(&scale)).unwrap();
        ds.add_source(generate_gpmdb(&scale)).unwrap();
        ds.add_source(generate_pepseeker(&scale)).unwrap();
        ds.federate().unwrap();
        for (_q, spec) in all_iterations().unwrap() {
            ds.integrate(spec).unwrap();
        }
        ds
    }

    fn answers(ds: &Dataspace) -> Vec<(String, Vec<String>)> {
        priority_queries()
            .iter()
            .map(|q| {
                let bag = ds
                    .prepare(&q.iql)
                    .and_then(|p| p.execute(&q.params))
                    .unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
                let mut rows: Vec<String> = bag.iter().map(|v| v.to_string()).collect();
                rows.sort();
                (q.name.clone(), rows)
            })
            .collect()
    }

    let path = temp_wal("table1");
    let _guard = WalGuard(path.clone());

    let mut ds = proteomics_ds();
    ds.open(&path).unwrap();
    // Take writes through the log so recovery has real work to do.
    ds.insert(
        "pedro",
        "protein",
        vec![
            1000.into(),
            "ACC90001".into(),
            "Recovered kinase 1".into(),
            "H. sapiens".into(),
            Value::Null,
            Value::Null,
        ],
    )
    .unwrap();
    ds.insert(
        "pedro",
        "protein",
        vec![
            1001.into(),
            "ACC90002".into(),
            "Recovered kinase 2".into(),
            "H. sapiens".into(),
            Value::Null,
            Value::Null,
        ],
    )
    .unwrap();
    let before = answers(&ds);
    drop(ds);

    let mut ds = proteomics_ds();
    let report = ds.open(&path).unwrap();
    assert_eq!((report.batches_replayed, report.rows_replayed), (2, 2));
    assert_eq!(
        answers(&ds),
        before,
        "Table-1 answers must survive crash and recovery identically"
    );
}
