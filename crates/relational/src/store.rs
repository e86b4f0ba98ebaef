//! An in-memory relational database.

use crate::error::RelError;
use crate::schema::{DataType, RelSchema, RelTable};
use crate::storage::{BatchCommit, Snapshot, SnapshotId, StorageEngine};
use crate::wal::CommitLog;
use iql::value::{Bag, Value};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A row of a table: one IQL value per column, in declaration order.
pub type Row = Vec<Value>;

/// The extent-level contribution one insert (or one batch of inserts) made,
/// reported by [`Database::insert_with_delta`] / [`Database::insert_many_with_delta`]
/// so downstream consumers (standing-query fan-out, cache maintenance) can see
/// *what* changed without diffing extents.
///
/// Keys follow the wrapper's canonical short form (`"t"` for the table scheme,
/// `"t,c"` per column scheme); every appended element is listed in insert
/// order, exactly as it lands at the tail of the corresponding extent. Columns
/// whose inserted values were all null contribute no entry (the paper's extents
/// list only present values).
#[derive(Debug, Clone, PartialEq)]
pub struct TableDelta {
    /// The table the rows went into.
    pub table: String,
    /// Scheme key → elements appended to that scheme's extent, in insert order.
    pub appended: BTreeMap<String, Vec<Value>>,
}

impl TableDelta {
    fn new(table: &str) -> Self {
        TableDelta {
            table: table.to_string(),
            appended: BTreeMap::new(),
        }
    }

    /// Record one row's contributions, mirroring [`crate::wrapper::extent_of`]:
    /// the table scheme gains the primary-key value, each column scheme gains a
    /// `{key, value}` pair unless the value is null.
    fn push_row(&mut self, table: &RelTable, row: &Row) {
        let key = key_of(table, row);
        self.appended
            .entry(table.name.clone())
            .or_default()
            .push(key.clone());
        for (idx, col) in table.columns.iter().enumerate() {
            if matches!(row[idx], Value::Null) {
                continue;
            }
            self.appended
                .entry(format!("{},{}", table.name, col.name))
                .or_default()
                .push(Value::pair(key.clone(), row[idx].clone()));
        }
    }
}

/// An in-memory relational database: a schema plus rows per table.
///
/// Inserts are validated against the schema (arity, types, nullability, primary-key
/// uniqueness). The database also acts as an [`iql::ExtentProvider`] through the
/// wrapper in [`crate::wrapper`], so IQL queries can be evaluated directly against it;
/// computed extents are memoised per scheme (shared `Arc<Bag>` handles) so repeated
/// queries never rebuild or deep-copy an extent.
///
/// The extent memo sits behind an [`RwLock`] (not a `RefCell`), so a shared
/// `&Database` can serve concurrent queries from many threads — the
/// [`iql::ExtentProvider`] `Sync` contract. Inserts (which need `&mut self`)
/// maintain cached extents **incrementally**: the new row's contribution is appended
/// to each affected cached bag (copy-on-write) instead of throwing the bag away, so
/// streaming loads interleaved with queries stay linear instead of quadratic.
/// Every insert also bumps a monotonic version stamp, which is what invalidates any
/// [`iql::PlanCache`] entries whose hash-join indexes baked in the old extents.
#[derive(Debug)]
pub struct Database {
    schema: RelSchema,
    rows: BTreeMap<String, Vec<Row>>,
    /// Per-table MVCC stamps, parallel to `rows`: `row_stamps[t][i]` is the
    /// [`SnapshotId`] of the commit that appended `rows[t][i]`. The store is
    /// append-only and commits are monotone, so each vector is non-decreasing
    /// and the rows visible at any snapshot are a stable prefix
    /// ([`StorageEngine::visible_rows`]).
    row_stamps: BTreeMap<String, Vec<SnapshotId>>,
    extent_cache: RwLock<BTreeMap<String, Arc<Bag>>>,
    /// Per-table primary-key sets, seeded lazily from the existing rows on a
    /// table's first keyed insert and maintained on every later one. The store
    /// is append-only, so once seeded a set never goes stale — uniqueness
    /// checks are O(batch), not O(table).
    pk_index: BTreeMap<String, HashSet<Value>>,
    /// The current snapshot id: 0 for the empty store, advanced by exactly one
    /// per committed non-empty batch. Doubles as the provider version stamp.
    version: AtomicU64,
    /// Live [`Snapshot`] pins handed out by [`StorageEngine::begin_snapshot`].
    active_snapshots: Arc<AtomicUsize>,
}

impl Clone for Database {
    /// Cloning carries the memoised extents along (shared `Arc` handles, no deep
    /// copy) and the current version stamp.
    fn clone(&self) -> Self {
        Database {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            row_stamps: self.row_stamps.clone(),
            extent_cache: RwLock::new(
                self.extent_cache
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            pk_index: self.pk_index.clone(),
            version: AtomicU64::new(self.version.load(Ordering::Relaxed)),
            // Snapshot pins are per-engine liveness tokens, not data: pins on
            // the original must not count against (or keep alive reads on) the
            // clone, so the clone starts with zero active snapshots.
            active_snapshots: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl PartialEq for Database {
    /// Databases compare by schema and contents; the extent cache is derived state.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

/// What an insert does to one cached extent.
enum Delta {
    /// The extent does not cover the inserted row (different table, or a null
    /// column value the extent omits): keep the cached bag as is.
    Unchanged,
    /// The extent gains exactly this element: append it to the cached bag.
    Append(Value),
    /// The key shape is not understood: drop the entry and let it recompute.
    Drop,
}

impl Database {
    /// Create an empty database over the given schema.
    pub fn new(schema: RelSchema) -> Self {
        let rows: BTreeMap<String, Vec<Row>> = schema
            .tables()
            .map(|t| (t.name.clone(), Vec::new()))
            .collect();
        let row_stamps = rows.keys().map(|t| (t.clone(), Vec::new())).collect();
        Database {
            schema,
            rows,
            row_stamps,
            extent_cache: RwLock::new(BTreeMap::new()),
            pk_index: BTreeMap::new(),
            version: AtomicU64::new(0),
            active_snapshots: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Cached extent for a scheme key, if previously computed.
    pub(crate) fn cached_extent(&self, scheme_key: &str) -> Option<Arc<Bag>> {
        self.extent_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(scheme_key)
            .cloned()
    }

    /// Memoise a computed extent.
    pub(crate) fn store_extent(&self, scheme_key: String, bag: Arc<Bag>) {
        self.extent_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(scheme_key, bag);
    }

    /// The database's data version: bumped on every mutation, so plan caches keyed
    /// on [`iql::ExtentProvider::version`] invalidate (see [`iql::PlanCache`]).
    pub fn data_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Plan the incremental extent maintenance for inserting `row` into `table`:
    /// for each cached key, the element to append (`Some`) or a drop marker
    /// (`None`). Computed *before* the row is moved into storage so the insert
    /// path clones neither the row nor the table metadata.
    fn extent_deltas(&self, table: &RelTable, row: &Row) -> Vec<(String, Option<Value>)> {
        let cache = self
            .extent_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        cache
            .keys()
            .filter_map(|key| match extent_insert_delta(key, table, row) {
                Delta::Unchanged => None,
                Delta::Append(value) => Some((key.clone(), Some(value))),
                Delta::Drop => Some((key.clone(), None)),
            })
            .collect()
    }

    /// Apply planned deltas: append the row's contribution to each cached bag
    /// (copy-on-write — O(delta) when the bag is unshared, one copy when a reader
    /// still holds the old handle) instead of invalidating per table. Keys whose
    /// shape was not understood are dropped and recompute lazily.
    fn apply_extent_deltas(&mut self, deltas: Vec<(String, Option<Value>)>) {
        if deltas.is_empty() {
            return;
        }
        let cache = self
            .extent_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (key, delta) in deltas {
            match delta {
                Some(value) => {
                    if let Some(bag) = cache.get_mut(&key) {
                        Arc::make_mut(bag).push(value);
                    }
                }
                None => {
                    cache.remove(&key);
                }
            }
        }
    }

    /// The database's schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The data source name (same as the schema name).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Insert a row into a table, validating arity, types, nullability and key
    /// uniqueness.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), RelError> {
        self.insert_with_delta(table, row).map(drop)
    }

    /// Insert a row and report the [`TableDelta`] it appended to the table's
    /// extents — the fan-out hook standing-query maintenance consumes. Bumps
    /// the data version by exactly one.
    pub fn insert_with_delta(&mut self, table: &str, row: Row) -> Result<TableDelta, RelError> {
        self.insert_many_with_delta(table, vec![row])
    }

    /// Insert many rows as **one batch**: all rows are validated up front (on
    /// any error nothing is inserted), the primary-key uniqueness check uses a
    /// hash set over existing + in-batch keys (O(N + M), not O(N·M) rescans),
    /// cached extents gain the whole batch's contributions in one append round,
    /// and the data version bumps **once per call** — so downstream
    /// version-guarded machinery (plan caches, point-lookup indexes, key
    /// histograms) pays one invalidation/refresh round per bulk load instead of
    /// one per row.
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> Result<(), RelError> {
        self.insert_many_with_delta(table, rows).map(drop)
    }

    /// Batched insert reporting the combined [`TableDelta`] (see
    /// [`Database::insert_many`] for the batch semantics). An empty batch is a
    /// no-op: nothing is appended and the version does not move.
    pub fn insert_many_with_delta(
        &mut self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<TableDelta, RelError> {
        self.commit_batch(table, rows, None).map(|c| c.delta)
    }

    /// All rows of a table (empty if the table has no rows or does not exist).
    pub fn rows(&self, table: &str) -> &[Row] {
        self.rows.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> usize {
        self.rows(table).len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Project a single column of a table as a vector of values.
    pub fn column_values(&self, table: &str, column: &str) -> Result<Vec<Value>, RelError> {
        let t = self
            .schema
            .table(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        let idx = t
            .column_index(column)
            .ok_or_else(|| RelError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(self.rows(table).iter().map(|r| r[idx].clone()).collect())
    }

    /// The primary-key value of each row of a table. Single-column keys produce the
    /// bare value; composite keys produce a tuple.
    pub fn key_values(&self, table: &str) -> Result<Vec<Value>, RelError> {
        let t = self
            .schema
            .table(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(self.rows(table).iter().map(|r| key_of(t, r)).collect())
    }

    /// Find the rows of a table whose primary key equals `key`.
    pub fn find_by_key(&self, table: &str, key: &Value) -> Vec<&Row> {
        match self.schema.table(table) {
            Some(t) => self
                .rows(table)
                .iter()
                .filter(|r| &key_of(t, r) == key)
                .collect(),
            None => Vec::new(),
        }
    }
}

impl StorageEngine for Database {
    fn schema(&self) -> &RelSchema {
        Database::schema(self)
    }

    /// The current snapshot id *is* the data version: both advance by exactly
    /// one per committed non-empty batch.
    fn current_snapshot(&self) -> SnapshotId {
        self.data_version()
    }

    fn begin_snapshot(&self) -> Snapshot {
        Snapshot::pin(self.data_version(), Arc::clone(&self.active_snapshots))
    }

    fn snapshots_active(&self) -> usize {
        self.active_snapshots.load(Ordering::Acquire)
    }

    /// The commit path every insert takes: validate the whole batch, append
    /// it to `log` (write-ahead: nothing in memory has changed yet, so a
    /// failed append leaves no trace), apply it, stamp every appended row with
    /// the new snapshot id, and report the pre/post snapshot pair **from
    /// inside the critical section** (`&mut self` spans the whole commit, so
    /// no concurrent writer can move the stamp between the pre-read and the
    /// apply).
    fn commit_batch(
        &mut self,
        table: &str,
        rows: Vec<Row>,
        log: Option<&mut CommitLog>,
    ) -> Result<BatchCommit, RelError> {
        let pre_snapshot = self.version.load(Ordering::Acquire);
        let t = self
            .schema
            .table(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        let mut delta = TableDelta::new(table);
        if rows.is_empty() {
            return Ok(BatchCommit {
                delta,
                pre_snapshot,
                post_snapshot: pre_snapshot,
            });
        }
        // Validate the whole batch before mutating anything (all-or-nothing).
        for row in &rows {
            if row.len() != t.columns.len() {
                return Err(RelError::ArityMismatch {
                    table: table.to_string(),
                    expected: t.columns.len(),
                    found: row.len(),
                });
            }
            for (col, val) in t.columns.iter().zip(row.iter()) {
                check_type(t, col.name.as_str(), col.data_type, col.nullable, val)?;
            }
        }
        // The persistent key set makes the uniqueness check O(batch): it
        // seeds from the existing rows once per table (first keyed insert)
        // and is maintained incrementally forever after — the store is
        // append-only, so it never goes stale. The batch validates against a
        // side set, merged only once the batch is durable.
        let mut fresh: HashSet<Value> = HashSet::new();
        if !t.primary_key.is_empty() {
            let seen = self.pk_index.entry(table.to_string()).or_insert_with(|| {
                self.rows
                    .get(table)
                    .map(|existing| existing.iter().map(|r| key_of(t, r)).collect())
                    .unwrap_or_default()
            });
            fresh.reserve(rows.len());
            for row in &rows {
                let key = key_of(t, row);
                if seen.contains(&key) || !fresh.insert(key.clone()) {
                    return Err(RelError::DuplicateKey {
                        table: table.to_string(),
                        key: format!("{key:?}"),
                    });
                }
            }
        }
        let post_snapshot = pre_snapshot + 1;
        if let Some(log) = log {
            log.append_batch(post_snapshot, &self.schema.name, table, &rows)?;
        }
        if !fresh.is_empty() {
            self.pk_index
                .get_mut(table)
                .expect("seeded by validation")
                .extend(fresh);
        }
        // One cache-delta round and one snapshot advance for the whole batch.
        let mut cache_deltas = Vec::new();
        for row in &rows {
            cache_deltas.extend(self.extent_deltas(t, row));
            delta.push_row(t, row);
        }
        let appended = rows.len();
        self.rows.entry(table.to_string()).or_default().extend(rows);
        self.row_stamps
            .entry(table.to_string())
            .or_default()
            .extend(std::iter::repeat_n(post_snapshot, appended));
        self.apply_extent_deltas(cache_deltas);
        self.version.store(post_snapshot, Ordering::Release);
        Ok(BatchCommit {
            delta,
            pre_snapshot,
            post_snapshot,
        })
    }

    /// The stable prefix of `table` visible at `snapshot`. Stamps are
    /// non-decreasing (commits are monotone and only ever append), so the
    /// boundary is a binary search, not a scan.
    fn visible_rows(&self, table: &str, snapshot: SnapshotId) -> &[Row] {
        let rows = self.rows.get(table).map(Vec::as_slice).unwrap_or(&[]);
        let stamps = self.row_stamps.get(table).map(Vec::as_slice).unwrap_or(&[]);
        let visible = stamps.partition_point(|&s| s <= snapshot).min(rows.len());
        &rows[..visible]
    }
}

/// The contribution one inserted row makes to the cached extent stored under
/// `key`, mirroring the wrapper conventions of [`crate::wrapper::extent_of`]:
/// a table scheme gains the row's primary-key value, a column scheme gains a
/// `{key, value}` pair (nothing when the column value is null), schemes over other
/// tables are untouched, and fully-qualified `sql,…` keys are stripped and retried.
fn extent_insert_delta(key: &str, table: &RelTable, row: &Row) -> Delta {
    let parts: Vec<&str> = key.split(',').collect();
    delta_for_parts(&parts, table, row)
}

fn delta_for_parts(parts: &[&str], table: &RelTable, row: &Row) -> Delta {
    match parts {
        [t] => {
            if *t == table.name {
                Delta::Append(key_of(table, row))
            } else {
                Delta::Unchanged
            }
        }
        [t, column] => {
            if *t != table.name {
                return Delta::Unchanged;
            }
            let Some(idx) = table.column_index(column) else {
                // A two-part key naming this table but no known column: not an
                // extent shape we can maintain — recompute lazily.
                return Delta::Drop;
            };
            let value = &row[idx];
            if matches!(value, Value::Null) {
                Delta::Unchanged
            } else {
                Delta::Append(Value::pair(key_of(table, row), value.clone()))
            }
        }
        ["sql", _construct, rest @ ..] if !rest.is_empty() => delta_for_parts(rest, table, row),
        _ => Delta::Drop,
    }
}

/// Compute the primary-key value of a row: the key column's value, or a tuple of them
/// for composite keys, or the whole row when the table declares no key.
pub fn key_of(table: &RelTable, row: &Row) -> Value {
    if table.primary_key.is_empty() {
        return Value::tuple(row.clone());
    }
    let mut parts = Vec::with_capacity(table.primary_key.len());
    for k in &table.primary_key {
        let idx = table.column_index(k).expect("validated key column");
        parts.push(row[idx].clone());
    }
    if parts.len() == 1 {
        parts.pop().expect("one element")
    } else {
        Value::tuple(parts)
    }
}

fn check_type(
    table: &RelTable,
    column: &str,
    expected: DataType,
    nullable: bool,
    value: &Value,
) -> Result<(), RelError> {
    let ok = match (expected, value) {
        (_, Value::Null) => {
            if nullable {
                true
            } else {
                return Err(RelError::NullViolation {
                    table: table.name.clone(),
                    column: column.to_string(),
                });
            }
        }
        (DataType::Int, Value::Int(_)) => true,
        (DataType::Float, Value::Float(_)) | (DataType::Float, Value::Int(_)) => true,
        (DataType::Text, Value::Str(_)) => true,
        (DataType::Bool, Value::Bool(_)) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(RelError::TypeMismatch {
            table: table.name.clone(),
            column: column.to_string(),
            expected: expected.to_string(),
            found: value.type_name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RelColumn, RelTable};

    fn schema() -> RelSchema {
        let mut s = RelSchema::new("pedro");
        s.add_table(
            RelTable::new("protein")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("accession_num", DataType::Text))
                .with_column(RelColumn::nullable("organism", DataType::Text))
                .with_primary_key(["id"]),
        )
        .unwrap();
        s.add_table(
            RelTable::new("link")
                .with_column(RelColumn::new("a", DataType::Int))
                .with_column(RelColumn::new("b", DataType::Int))
                .with_primary_key(["a", "b"]),
        )
        .unwrap();
        s
    }

    #[test]
    fn insert_and_project() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![1.into(), "P100".into(), "human".into()])
            .unwrap();
        db.insert("protein", vec![2.into(), "P200".into(), Value::Null])
            .unwrap();
        assert_eq!(db.row_count("protein"), 2);
        assert_eq!(
            db.column_values("protein", "accession_num").unwrap(),
            vec![Value::str("P100"), Value::str("P200")]
        );
        assert_eq!(
            db.key_values("protein").unwrap(),
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn arity_and_type_checks() {
        let mut db = Database::new(schema());
        assert!(matches!(
            db.insert("protein", vec![1.into()]),
            Err(RelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert("protein", vec!["x".into(), "P1".into(), Value::Null]),
            Err(RelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.insert("protein", vec![1.into(), Value::Null, Value::Null]),
            Err(RelError::NullViolation { .. })
        ));
        assert!(matches!(
            db.insert("missing", vec![]),
            Err(RelError::UnknownTable(_))
        ));
    }

    #[test]
    fn primary_key_uniqueness_enforced() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        assert!(matches!(
            db.insert("protein", vec![1.into(), "P999".into(), Value::Null]),
            Err(RelError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn composite_keys_are_tuples() {
        let mut db = Database::new(schema());
        db.insert("link", vec![1.into(), 2.into()]).unwrap();
        db.insert("link", vec![1.into(), 3.into()]).unwrap();
        assert!(matches!(
            db.insert("link", vec![1.into(), 2.into()]),
            Err(RelError::DuplicateKey { .. })
        ));
        let keys = db.key_values("link").unwrap();
        assert_eq!(keys[0], Value::tuple(vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn find_by_key() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![7.into(), "P700".into(), Value::Null])
            .unwrap();
        let found = db.find_by_key("protein", &Value::Int(7));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0][1], Value::str("P700"));
        assert!(db.find_by_key("protein", &Value::Int(8)).is_empty());
    }

    #[test]
    fn insert_appends_to_cached_extents_instead_of_recomputing() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![1.into(), "P100".into(), "human".into()])
            .unwrap();
        // Prime the cache with a doctored sentinel bag: if an insert recomputed the
        // extent the sentinel would vanish; incremental maintenance appends to it.
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "protein".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.store_extent(
            "protein,accession_num".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.insert("protein", vec![2.into(), "P200".into(), Value::Null])
            .unwrap();
        let table_bag = db.cached_extent("protein").unwrap();
        assert_eq!(
            table_bag.items(),
            &[sentinel.clone(), Value::Int(2)],
            "table extent must gain the new key by append"
        );
        let col_bag = db.cached_extent("protein,accession_num").unwrap();
        assert_eq!(
            col_bag.items(),
            &[
                sentinel.clone(),
                Value::pair(Value::Int(2), Value::str("P200"))
            ]
        );
    }

    #[test]
    fn null_column_values_leave_cached_column_extent_unchanged() {
        let mut db = Database::new(schema());
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "protein,organism".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        assert_eq!(
            db.cached_extent("protein,organism").unwrap().items(),
            &[sentinel],
            "null organism contributes nothing to the column extent"
        );
    }

    #[test]
    fn insert_into_other_table_leaves_cached_extents_alone() {
        let mut db = Database::new(schema());
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "protein".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.insert("link", vec![1.into(), 2.into()]).unwrap();
        assert_eq!(db.cached_extent("protein").unwrap().items(), &[sentinel]);
    }

    #[test]
    fn fully_qualified_cached_keys_are_maintained_too() {
        let mut db = Database::new(schema());
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "sql,table,protein".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.insert("protein", vec![3.into(), "P300".into(), Value::Null])
            .unwrap();
        assert_eq!(
            db.cached_extent("sql,table,protein").unwrap().items(),
            &[sentinel, Value::Int(3)]
        );
    }

    #[test]
    fn unknown_cached_key_shapes_are_dropped_on_insert() {
        let mut db = Database::new(schema());
        db.store_extent(
            "protein,no_such_column".into(),
            Arc::new(Bag::from_values(vec![Value::Int(0)])),
        );
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        assert!(db.cached_extent("protein,no_such_column").is_none());
    }

    #[test]
    fn version_bumps_on_every_insert() {
        let mut db = Database::new(schema());
        let v0 = db.data_version();
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        db.insert("protein", vec![2.into(), "P200".into(), Value::Null])
            .unwrap();
        assert_eq!(db.data_version(), v0 + 2);
        // Failed inserts mutate nothing and must not bump the version.
        let v2 = db.data_version();
        assert!(db
            .insert("protein", vec![1.into(), "P999".into(), Value::Null])
            .is_err());
        assert_eq!(db.data_version(), v2);
    }

    #[test]
    fn streaming_load_keeps_cached_extent_coherent() {
        // Prime the extent once, then stream many inserts: the cached bag must
        // track the table exactly (this is the incremental-maintenance path — the
        // seed behaviour recomputed the extent from scratch on every access).
        let mut db = Database::new(schema());
        db.insert("protein", vec![0.into(), "P0".into(), Value::Null])
            .unwrap();
        use iql::eval::ExtentProvider;
        use iql::SchemeRef;
        let _ = db.extent(&SchemeRef::table("protein")).unwrap();
        for i in 1..200i64 {
            db.insert(
                "protein",
                vec![i.into(), format!("P{i}").into(), Value::Null],
            )
            .unwrap();
        }
        let cached = db.extent(&SchemeRef::table("protein")).unwrap();
        assert_eq!(cached.len(), 200);
        assert_eq!(
            cached.items(),
            crate::wrapper::extent_of(&db, &SchemeRef::table("protein"))
                .unwrap()
                .items(),
            "incrementally maintained extent equals a fresh recompute"
        );
    }

    #[test]
    fn insert_many_bumps_version_once_per_batch() {
        let mut db = Database::new(schema());
        let v0 = db.data_version();
        db.insert_many(
            "protein",
            vec![
                vec![1.into(), "P100".into(), Value::Null],
                vec![2.into(), "P200".into(), "human".into()],
                vec![3.into(), "P300".into(), Value::Null],
            ],
        )
        .unwrap();
        assert_eq!(db.data_version(), v0 + 1, "one version delta per batch");
        assert_eq!(db.row_count("protein"), 3);
        // An empty batch is a no-op and must not move the version either.
        db.insert_many("protein", vec![]).unwrap();
        assert_eq!(db.data_version(), v0 + 1);
    }

    #[test]
    fn insert_many_is_atomic() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        let v1 = db.data_version();
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "protein".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        // Second row collides with the existing key: the whole batch must be
        // rejected with nothing inserted, no version bump, caches untouched.
        let err = db.insert_many(
            "protein",
            vec![
                vec![2.into(), "P200".into(), Value::Null],
                vec![1.into(), "P999".into(), Value::Null],
            ],
        );
        assert!(matches!(err, Err(RelError::DuplicateKey { .. })));
        assert_eq!(db.row_count("protein"), 1);
        assert_eq!(db.data_version(), v1);
        assert_eq!(db.cached_extent("protein").unwrap().items(), &[sentinel]);
        // Same for a mid-batch validation error.
        assert!(matches!(
            db.insert_many(
                "protein",
                vec![
                    vec![2.into(), "P200".into(), Value::Null],
                    vec![3.into(), Value::Null, Value::Null],
                ],
            ),
            Err(RelError::NullViolation { .. })
        ));
        assert_eq!(db.row_count("protein"), 1);
        assert_eq!(db.data_version(), v1);
    }

    #[test]
    fn insert_many_rejects_intra_batch_duplicate_keys() {
        let mut db = Database::new(schema());
        assert!(matches!(
            db.insert_many(
                "protein",
                vec![
                    vec![1.into(), "P100".into(), Value::Null],
                    vec![1.into(), "P999".into(), Value::Null],
                ],
            ),
            Err(RelError::DuplicateKey { .. })
        ));
        assert_eq!(db.row_count("protein"), 0);
    }

    #[test]
    fn persistent_key_index_stays_coherent_across_calls_failures_and_clones() {
        let mut db = Database::new(schema());
        db.insert("protein", vec![1.into(), "P100".into(), Value::Null])
            .unwrap();
        // A rejected batch must leave no trace in the maintained key set: the
        // fresh key 2 from the failed batch stays insertable afterwards.
        assert!(matches!(
            db.insert_many(
                "protein",
                vec![
                    vec![2.into(), "P200".into(), Value::Null],
                    vec![1.into(), "P999".into(), Value::Null],
                ],
            ),
            Err(RelError::DuplicateKey { .. })
        ));
        db.insert("protein", vec![2.into(), "P200".into(), Value::Null])
            .unwrap();
        // Duplicates are caught across separate calls (through the index, not
        // a rescan) and after cloning (the clone carries the index along).
        assert!(matches!(
            db.insert("protein", vec![1.into(), "again".into(), Value::Null]),
            Err(RelError::DuplicateKey { .. })
        ));
        let mut copy = db.clone();
        assert!(matches!(
            copy.insert("protein", vec![2.into(), "again".into(), Value::Null]),
            Err(RelError::DuplicateKey { .. })
        ));
        copy.insert("protein", vec![3.into(), "P300".into(), Value::Null])
            .unwrap();
        assert_eq!(copy.row_count("protein"), 3);
        assert_eq!(db.row_count("protein"), 2);
    }

    #[test]
    fn insert_many_maintains_cached_extents_in_one_round() {
        let mut db = Database::new(schema());
        let sentinel = Value::str("sentinel");
        db.store_extent(
            "protein".into(),
            Arc::new(Bag::from_values(vec![sentinel.clone()])),
        );
        db.insert_many(
            "protein",
            vec![
                vec![1.into(), "P100".into(), Value::Null],
                vec![2.into(), "P200".into(), Value::Null],
            ],
        )
        .unwrap();
        assert_eq!(
            db.cached_extent("protein").unwrap().items(),
            &[sentinel, Value::Int(1), Value::Int(2)],
            "cached extent gains the whole batch by append, in batch order"
        );
    }

    #[test]
    fn insert_with_delta_reports_appended_extent_contributions() {
        let mut db = Database::new(schema());
        let delta = db
            .insert_many_with_delta(
                "protein",
                vec![
                    vec![1.into(), "P100".into(), "human".into()],
                    vec![2.into(), "P200".into(), Value::Null],
                ],
            )
            .unwrap();
        assert_eq!(delta.table, "protein");
        assert_eq!(
            delta.appended["protein"],
            vec![Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            delta.appended["protein,accession_num"],
            vec![
                Value::pair(Value::Int(1), Value::str("P100")),
                Value::pair(Value::Int(2), Value::str("P200")),
            ]
        );
        assert_eq!(
            delta.appended["protein,organism"],
            vec![Value::pair(Value::Int(1), Value::str("human"))],
            "null column values contribute nothing to the column extent"
        );
        let single = db
            .insert_with_delta("protein", vec![3.into(), "P300".into(), Value::Null])
            .unwrap();
        assert_eq!(single.appended["protein"], vec![Value::Int(3)]);
        assert!(!single.appended.contains_key("protein,organism"));
    }

    #[test]
    fn insert_many_refreshes_point_lookup_indexes_once_per_batch() {
        use iql::env::Env;
        use iql::eval::Evaluator;
        use iql::index::IndexStore;
        let mut db = Database::new(schema());
        db.insert("protein", vec![0.into(), "P0".into(), Value::Null])
            .unwrap();
        let store = Arc::new(IndexStore::new());
        let q = iql::parse("[x | {k, x} <- <<protein, accession_num>>; k = ?k]").unwrap();
        let env = Env::new().with_params(iql::Params::new().with("k", 0));
        {
            let ev = Evaluator::new(&db).with_index_store(Arc::clone(&store));
            ev.eval(&q, &env).unwrap();
        }
        assert_eq!(store.build_count(), 1);
        db.insert_many(
            "protein",
            (1..50i64)
                .map(|i| vec![i.into(), format!("P{i}").into(), Value::Null])
                .collect(),
        )
        .unwrap();
        let ev = Evaluator::new(&db).with_index_store(Arc::clone(&store));
        let env49 = Env::new().with_params(iql::Params::new().with("k", 49));
        let bag = ev.eval(&q, &env49).unwrap().expect_bag().unwrap();
        assert_eq!(bag.items(), &[Value::str("P49")]);
        assert_eq!(store.build_count(), 1, "no full rebuild after a batch");
        assert_eq!(
            store.refresh_count(),
            1,
            "one copy-on-write index refresh per batch, not one per row"
        );
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut s = RelSchema::new("x");
        s.add_table(
            RelTable::new("m")
                .with_column(RelColumn::new("id", DataType::Int))
                .with_column(RelColumn::new("score", DataType::Float))
                .with_primary_key(["id"]),
        )
        .unwrap();
        let mut db = Database::new(s);
        assert!(db.insert("m", vec![1.into(), 5.into()]).is_ok());
        assert!(db.insert("m", vec![2.into(), Value::Float(5.5)]).is_ok());
    }
}
