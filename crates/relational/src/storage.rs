//! The storage layer beneath [`iql::ExtentProvider`]: MVCC snapshots over an
//! append-only store.
//!
//! A [`StorageEngine`] is what a wrapped data source actually persists rows in.
//! The contract is deliberately small and log-structured:
//!
//! * writes land as **committed batches** — [`StorageEngine::commit_batch`]
//!   validates and applies a whole batch atomically and returns a
//!   [`BatchCommit`] naming the snapshot ids on either side of the commit;
//! * every row carries the [`SnapshotId`] of the batch that appended it, so
//!   the rows **visible at** any snapshot are a stable prefix of each table
//!   ([`StorageEngine::visible_rows`]) — readers evaluate against an immutable
//!   snapshot while writers keep appending;
//! * [`StorageEngine::begin_snapshot`] hands out a [`Snapshot`] pin: a cheap,
//!   clonable handle that keeps the engine's active-reader count honest
//!   (observable via [`StorageEngine::snapshots_active`] and the dataspace's
//!   `stats()`).
//!
//! [`crate::store::Database`] is the in-memory implementation; the file-backed
//! commit log in [`crate::wal`] makes any engine's history durable by recording
//! one [`crate::wal::LogRecord`] per committed batch, written ahead of the
//! batch's apply. The snapshot id doubles as the provider version stamp
//! ([`iql::ExtentProvider::version`]), which is how plan caches, extent memos,
//! point-lookup indexes, key histograms and subscription `synced` stamps all
//! become snapshot-pinned without changing their types.

use crate::error::RelError;
use crate::schema::RelSchema;
use crate::store::{Row, TableDelta};
use crate::wal::CommitLog;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The identifier of one consistent point in an engine's commit history.
///
/// Re-exported from [`iql::SnapshotId`] so the provider contract and the
/// storage layer agree on the stamp type: snapshot 0 is the empty engine, and
/// every committed (non-empty) batch advances the current snapshot by one.
pub type SnapshotId = iql::SnapshotId;

/// A pinned MVCC snapshot: the id of a consistent point in the commit history
/// plus a liveness token counted by [`StorageEngine::snapshots_active`].
///
/// Cloning a snapshot pins it again; dropping the last clone releases the pin.
/// A `Snapshot` is a *pin*, not a borrow — it stays valid (and cheap) however
/// long the reader holds it, because the store is append-only: the rows visible
/// at `id` are never reordered, rewritten or removed by later commits.
#[derive(Debug)]
pub struct Snapshot {
    id: SnapshotId,
    active: Arc<AtomicUsize>,
}

impl Snapshot {
    pub(crate) fn pin(id: SnapshotId, active: Arc<AtomicUsize>) -> Self {
        active.fetch_add(1, Ordering::AcqRel);
        Snapshot { id, active }
    }

    /// The snapshot's id — what [`iql::ExtentProvider::version`] reports for a
    /// provider pinned to this snapshot.
    pub fn id(&self) -> SnapshotId {
        self.id
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        Snapshot::pin(self.id, Arc::clone(&self.active))
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What one committed write batch did: the extent-level [`TableDelta`] plus the
/// snapshot ids on either side of the commit.
///
/// Both stamps come from **inside the commit's critical section** (the engine
/// is `&mut` for the duration), so `pre_snapshot`/`post_snapshot` are exact —
/// there is no window in which a concurrent writer can slip between reading
/// the pre-stamp and applying the batch. Downstream stamp consumers (the
/// dataspace's subscription `synced` bookkeeping) derive their pre/post pair
/// from these instead of sampling the provider before the write.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCommit {
    /// Scheme-keyed extent contributions of the batch (empty for empty batches).
    pub delta: TableDelta,
    /// The snapshot the engine was at when the commit started.
    pub pre_snapshot: SnapshotId,
    /// The snapshot the commit produced. Equals `pre_snapshot` for an empty
    /// batch (nothing appended, history unchanged); exactly
    /// `pre_snapshot + 1` otherwise.
    pub post_snapshot: SnapshotId,
}

impl BatchCommit {
    /// Whether the batch appended anything (an empty batch commits nothing and
    /// leaves the snapshot untouched).
    pub fn appended(&self) -> bool {
        self.post_snapshot != self.pre_snapshot
    }
}

/// An append-only, snapshot-versioned row store for one relational schema.
///
/// See the module docs for the contract. Implementations must keep the
/// invariants:
///
/// * `current_snapshot` starts at 0 and advances by exactly one per committed
///   non-empty batch; failed or empty batches leave it unchanged;
/// * `visible_rows(t, s)` is a prefix of `visible_rows(t, s')` for `s <= s'`,
///   and `visible_rows(t, current_snapshot())` is the whole table;
/// * a row appended by the commit that produced snapshot `s` is visible at `s`
///   and invisible at every earlier snapshot.
pub trait StorageEngine {
    /// The schema the engine stores rows for.
    fn schema(&self) -> &RelSchema;

    /// The id of the latest committed snapshot.
    fn current_snapshot(&self) -> SnapshotId;

    /// Pin the latest committed snapshot for reading.
    fn begin_snapshot(&self) -> Snapshot;

    /// How many [`Snapshot`] pins are currently live (clones included).
    fn snapshots_active(&self) -> usize;

    /// Validate and apply one write batch atomically; on success every row is
    /// stamped with the new snapshot id. On error nothing is applied and the
    /// snapshot does not move.
    ///
    /// With a `log`, the commit is write-ahead — validate → append → apply:
    /// the batch's record is appended after validation and before anything
    /// in memory changes, so a failed append ([`RelError::LogAppend`] /
    /// [`RelError::LogPoisoned`]) leaves the engine exactly as it was.
    /// Recovery replays records with no log.
    fn commit_batch(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        log: Option<&mut CommitLog>,
    ) -> Result<BatchCommit, RelError>;

    /// The rows of `table` visible at `snapshot`: the stable prefix appended
    /// by commits up to and including that snapshot. An unknown table is an
    /// empty slice, and a snapshot at or past `current_snapshot()` sees the
    /// whole table.
    fn visible_rows(&self, table: &str, snapshot: SnapshotId) -> &[Row];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, RelColumn, RelTable};
    use crate::store::Database;
    use iql::value::Value;

    fn engine() -> Database {
        let mut s = RelSchema::new("pedro");
        s.add_table(
            RelTable::new("protein")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("accession_num", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
        Database::new(s)
    }

    fn row(id: i64) -> Row {
        vec![id.into(), format!("P{id}").into()]
    }

    #[test]
    fn commit_stamps_are_contiguous_and_from_the_commit() {
        let mut db = engine();
        assert_eq!(db.current_snapshot(), 0);
        let c1 = db
            .commit_batch("protein", vec![row(1), row(2)], None)
            .unwrap();
        assert_eq!((c1.pre_snapshot, c1.post_snapshot), (0, 1));
        assert!(c1.appended());
        let c2 = db.commit_batch("protein", vec![row(3)], None).unwrap();
        assert_eq!((c2.pre_snapshot, c2.post_snapshot), (1, 2));
        assert_eq!(db.current_snapshot(), 2);
    }

    #[test]
    fn empty_and_failed_batches_leave_the_snapshot_alone() {
        let mut db = engine();
        db.commit_batch("protein", vec![row(1)], None).unwrap();
        let empty = db.commit_batch("protein", Vec::new(), None).unwrap();
        assert_eq!((empty.pre_snapshot, empty.post_snapshot), (1, 1));
        assert!(!empty.appended());
        assert!(empty.delta.appended.is_empty());
        // Duplicate key: the whole batch is rejected, snapshot untouched.
        assert!(db
            .commit_batch("protein", vec![row(2), row(1)], None)
            .is_err());
        assert_eq!(db.current_snapshot(), 1);
        assert_eq!(db.visible_rows("protein", 1).len(), 1);
    }

    #[test]
    fn visible_rows_are_a_snapshot_prefix() {
        let mut db = engine();
        db.commit_batch("protein", vec![row(1), row(2)], None)
            .unwrap();
        db.commit_batch("protein", vec![row(3)], None).unwrap();
        db.commit_batch("protein", vec![row(4), row(5)], None)
            .unwrap();
        assert_eq!(db.visible_rows("protein", 0).len(), 0);
        assert_eq!(db.visible_rows("protein", 1).len(), 2);
        assert_eq!(db.visible_rows("protein", 2).len(), 3);
        assert_eq!(db.visible_rows("protein", 3).len(), 5);
        // Past-the-end snapshots and the current snapshot see everything.
        assert_eq!(db.visible_rows("protein", 99).len(), 5);
        assert_eq!(db.visible_rows("protein", 2)[2][0], Value::Int(3));
        assert!(db.visible_rows("no_such_table", 3).is_empty());
    }

    #[test]
    fn snapshot_pins_are_counted_and_survive_commits() {
        let mut db = engine();
        db.commit_batch("protein", vec![row(1)], None).unwrap();
        assert_eq!(db.snapshots_active(), 0);
        let snap = db.begin_snapshot();
        assert_eq!(snap.id(), 1);
        let again = snap.clone();
        assert_eq!(db.snapshots_active(), 2);
        db.commit_batch("protein", vec![row(2)], None).unwrap();
        // The pinned snapshot still answers with its stable prefix.
        assert_eq!(db.visible_rows("protein", snap.id()).len(), 1);
        assert_eq!(db.visible_rows("protein", db.current_snapshot()).len(), 2);
        drop(again);
        assert_eq!(db.snapshots_active(), 1);
        drop(snap);
        assert_eq!(db.snapshots_active(), 0);
    }
}
