//! A file-backed commit log: the durable half of the storage layer.
//!
//! Every committed write batch ([`crate::storage::BatchCommit`]) can be
//! recorded as one [`LogRecord`] — the snapshot id the commit produced, the
//! source and table it landed in, and the raw rows. Replaying the records in
//! order through the normal validated insert path reproduces the exact store
//! (same rows, same snapshot ids, same extents), which is what
//! `core::Dataspace::open` does on recovery.
//!
//! ## On-disk format
//!
//! The log is a single append-only file:
//!
//! ```text
//! [8-byte magic "DSWAL\0\0\x01"]
//! [record]*
//!
//! record  := envelope(payload)
//! payload := [u64 LE snapshot id] [str source] [str table] [rows]
//! ```
//!
//! The envelope (length, FNV-1a checksum, payload), `str`, `rows` and the
//! value tags are [`iql::codec`]'s — the same bytes the wire protocol uses.
//! Rows hold scalars only (the schema type checker admits nothing else).
//! Recovery reads records until the first torn or corrupt one — a partial
//! envelope at the tail is the signature of a crash mid-append — **truncates**
//! the file back to the last whole record, and reports how many bytes were
//! dropped. A corrupt record costs only itself and what follows it:
//! everything durably committed before it survives.
//!
//! ## Write-ahead
//!
//! [`crate::storage::StorageEngine::commit_batch`] appends a batch's record
//! after validating the batch and before applying it, so a batch is visible
//! only once it is in the log. A failed append (write or sync error)
//! **poisons** the log: the write may have left a torn record mid-file, and
//! recovery truncates at the first bad record, so any record appended after
//! it would be silently dropped on restart. A poisoned log refuses every
//! later append with [`RelError::LogPoisoned`] until it is reopened.
//!
//! Durability is a knob: with `fsync` on, every append runs `File::sync_data`
//! before returning (a crash loses nothing acknowledged); with it off the OS
//! page cache decides (a crash may drop the newest suffix, but the truncating
//! recovery still yields a consistent prefix). [`CommitLog::compact`] rewrites
//! the log as one merged record per (source, table) — same replayed state,
//! bounded file size — via a temp file + atomic rename.

use crate::error::RelError;
use crate::storage::SnapshotId;
use crate::store::Row;
use iql::codec::{self, get_rows, get_str, get_u64, put_rows, put_str, put_u64, CodecError};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte file magic: identifies a dataspace commit log, format version 1.
const MAGIC: [u8; 8] = *b"DSWAL\0\0\x01";

/// The longest record payload recovery accepts: anything the envelope's
/// length can declare. A record is as large as its batch — a compacted table
/// can outgrow any frame cap — and a torn length is caught by the missing
/// bytes or the checksum, not by a cap.
const MAX_RECORD_BYTES: usize = u32::MAX as usize;

/// One committed write batch, as recorded in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The snapshot id the commit produced in its source database.
    pub snapshot: SnapshotId,
    /// The data source (member database) the batch landed in.
    pub source: String,
    /// The table the rows went into.
    pub table: String,
    /// The raw rows, exactly as passed to the insert.
    pub rows: Vec<Row>,
}

/// What [`CommitLog::open`] found on disk.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, positioned for appending.
    pub log: CommitLog,
    /// Every whole record, in append order — replay these through the insert
    /// path to reproduce the logged state.
    pub records: Vec<LogRecord>,
    /// Bytes dropped from a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// What [`CommitLog::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records in the log before compaction.
    pub records_before: usize,
    /// Records after: one per (source, table) pair with any rows.
    pub records_after: usize,
}

/// An append-only, checksummed commit log backed by one file.
#[derive(Debug)]
pub struct CommitLog {
    file: File,
    path: PathBuf,
    fsync: bool,
    appends: u64,
    /// Set by a failed append; see the module docs.
    poisoned: bool,
}

impl CommitLog {
    /// Open (or create) the log at `path`, validating every record and
    /// truncating a torn tail. With `fsync` set, every later append is
    /// `sync_data`'d before it returns.
    pub fn open(path: impl AsRef<Path>, fsync: bool) -> io::Result<RecoveredLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.sync_data()?;
            bytes.extend_from_slice(&MAGIC);
        }
        if !bytes.starts_with(&MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a dataspace commit log (bad magic)", path.display()),
            ));
        }
        // Everything after the last whole record is a crash artefact.
        let (records, good_end) = read_records(&bytes);
        let truncated_bytes = (bytes.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        Ok(RecoveredLog {
            log: CommitLog {
                file,
                path,
                fsync,
                appends: 0,
                poisoned: false,
            },
            records,
            truncated_bytes,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appends are fsync'd before returning.
    pub fn fsync(&self) -> bool {
        self.fsync
    }

    /// Records appended through this handle (recovery replays not included).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Append one committed batch to the log.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), RelError> {
        self.append_batch(record.snapshot, &record.source, &record.table, &record.rows)
    }

    /// Append one batch's record, borrowing its rows — the write-ahead step
    /// of [`crate::storage::StorageEngine::commit_batch`]. Any failure
    /// poisons the log.
    pub(crate) fn append_batch(
        &mut self,
        snapshot: SnapshotId,
        source: &str,
        table: &str,
        rows: &[Row],
    ) -> Result<(), RelError> {
        if self.poisoned {
            return Err(RelError::LogPoisoned);
        }
        let record = seal_record(snapshot, source, table, rows);
        let written = self.file.write_all(&record).and_then(|()| {
            if self.fsync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = written {
            self.poisoned = true;
            return Err(RelError::LogAppend(e.to_string()));
        }
        self.appends += 1;
        Ok(())
    }

    /// Test hook: send later appends to `target` instead of the log file — on
    /// Linux, `/dev/full` makes every write fail with `ENOSPC`. Leaves the
    /// poisoned flag alone.
    #[doc(hidden)]
    pub fn redirect_writes(&mut self, target: impl AsRef<Path>) -> io::Result<()> {
        self.file = OpenOptions::new().append(true).open(target)?;
        Ok(())
    }

    /// Read back every record currently in the log (the handle's append
    /// position is preserved).
    pub fn records(&mut self) -> io::Result<Vec<LogRecord>> {
        let end = self.file.stream_position()?;
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        self.file.seek(SeekFrom::Start(end))?;
        Ok(read_records(&bytes).0)
    }

    /// Compact the log: merge its records into one record per (source, table)
    /// pair — first-appearance order, rows concatenated in append order,
    /// stamped with the group's latest snapshot id — and atomically replace
    /// the file (temp file + rename, both fsync'd). Tables are independent, so
    /// replaying the compacted log rebuilds the same store as the full
    /// history, just in fewer, bigger batches.
    pub fn compact(&mut self) -> io::Result<CompactionReport> {
        let records = self.records()?;
        let records_before = records.len();
        let mut merged: Vec<LogRecord> = Vec::new();
        for record in records {
            match merged
                .iter_mut()
                .find(|m| m.source == record.source && m.table == record.table)
            {
                Some(m) => {
                    m.rows.extend(record.rows);
                    m.snapshot = m.snapshot.max(record.snapshot);
                }
                None => merged.push(record),
            }
        }
        merged.retain(|m| !m.rows.is_empty());
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        for m in &merged {
            tmp.write_all(&seal_record(m.snapshot, &m.source, &m.table, &m.rows))?;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // The handle now points at the new file, positioned at its end.
        self.file = tmp;
        Ok(CompactionReport {
            records_before,
            records_after: merged.len(),
        })
    }
}

/// One record's envelope, ready for a single `write_all`.
fn seal_record(snapshot: SnapshotId, source: &str, table: &str, rows: &[Row]) -> Vec<u8> {
    // Exact for numeric columns; strings grow the buffer as they go.
    let hint =
        20 + source.len() + table.len() + rows.iter().map(|r| 4 + 9 * r.len()).sum::<usize>();
    codec::seal(hint, |out| {
        put_u64(out, snapshot);
        put_str(out, source);
        put_str(out, table);
        put_rows(out, rows);
    })
}

/// The whole records of a log image (magic included) in order, and the
/// offset where the first torn or corrupt one — or the clean end — begins.
fn read_records(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut end = MAGIC.len();
    while let Ok(Some((payload, consumed))) = codec::open(&bytes[end..], MAX_RECORD_BYTES) {
        let Ok(record) = decode_record(payload) else {
            break; // well-framed but undecodable: corrupt all the same
        };
        records.push(record);
        end += consumed;
    }
    (records, end)
}

fn decode_record(payload: &[u8]) -> Result<LogRecord, CodecError> {
    let mut c = codec::Cursor::new(payload);
    let record = LogRecord {
        snapshot: get_u64(&mut c)?,
        source: get_str(&mut c)?,
        table: get_str(&mut c)?,
        rows: get_rows(&mut c)?,
    };
    c.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per test (no tempfile crate in the offline build).
    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dataspace-wal-{tag}-{}-{n}.wal",
            std::process::id()
        ))
    }

    fn record(snapshot: SnapshotId, table: &str, ids: &[i64]) -> LogRecord {
        LogRecord {
            snapshot,
            source: "pedro".into(),
            table: table.into(),
            rows: ids
                .iter()
                .map(|&i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("P{i}")),
                        if i % 2 == 0 {
                            Value::Null
                        } else {
                            Value::Float(i as f64 / 2.0)
                        },
                        Value::Bool(i % 3 == 0),
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn append_then_reopen_round_trips_every_record() {
        let path = temp_log("roundtrip");
        let records = vec![
            record(1, "protein", &[1, 2, 3]),
            record(2, "gene", &[10]),
            record(3, "protein", &[4]),
            LogRecord {
                snapshot: 4,
                source: "gpmdb".into(),
                table: "empty".into(),
                rows: vec![],
            },
        ];
        {
            let mut opened = CommitLog::open(&path, true).unwrap();
            assert!(opened.records.is_empty());
            for r in &records {
                opened.log.append(r).unwrap();
            }
            assert_eq!(opened.log.appends(), 4);
        }
        let reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.records, records);
        assert_eq!(reopened.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let path = temp_log("torn");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
            opened.log.append(&record(2, "protein", &[2])).unwrap();
        }
        // Simulate a crash mid-append: a frame header promising more payload
        // than was ever written.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&999u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"partial payload").unwrap();
        }
        let recovered = CommitLog::open(&path, false).unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.records[1].snapshot, 2);
        assert_eq!(recovered.truncated_bytes, 8 + 15);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_at_the_bad_record() {
        let path = temp_log("corrupt");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
            opened.log.append(&record(2, "protein", &[2])).unwrap();
            opened.log.append(&record(3, "protein", &[3])).unwrap();
        }
        // Flip one payload byte of the second record: it and everything after
        // it are dropped; the first record survives.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_end = {
            let len = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap())
                as usize;
            MAGIC.len() + 8 + len
        };
        bytes[first_end + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = CommitLog::open(&path, false).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.records[0].snapshot, 1);
        assert!(recovered.truncated_bytes > 0);
        // A third open finds the truncated log clean.
        let clean = CommitLog::open(&path, false).unwrap();
        assert_eq!(clean.records.len(), 1);
        assert_eq!(clean.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_log("resume");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
        }
        {
            let mut recovered = CommitLog::open(&path, false).unwrap();
            assert_eq!(recovered.records.len(), 1);
            recovered.log.append(&record(2, "protein", &[2])).unwrap();
        }
        let all = CommitLog::open(&path, false).unwrap();
        assert_eq!(
            all.records.iter().map(|r| r.snapshot).collect::<Vec<_>>(),
            vec![1, 2]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_merges_per_table_preserving_row_order() {
        let path = temp_log("compact");
        let mut opened = CommitLog::open(&path, false).unwrap();
        opened.log.append(&record(1, "protein", &[1, 2])).unwrap();
        opened.log.append(&record(2, "gene", &[10])).unwrap();
        opened.log.append(&record(3, "protein", &[3])).unwrap();
        let report = opened.log.compact().unwrap();
        assert_eq!(report.records_before, 3);
        assert_eq!(report.records_after, 2);
        let compacted = opened.log.records().unwrap();
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted[0].table, "protein");
        assert_eq!(compacted[0].snapshot, 3, "group keeps its latest snapshot");
        let ids: Vec<_> = compacted[0].rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // The compacted log keeps accepting appends and survives reopen.
        opened.log.append(&record(4, "protein", &[4])).unwrap();
        let reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_log_file_is_rejected() {
        let path = temp_log("badmagic");
        std::fs::write(&path, b"definitely not a commit log").unwrap();
        let err = CommitLog::open(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// A v1 log assembled byte by byte from the grammar in the module docs —
    /// one record, every scalar tag — as a log written before the shared
    /// codec existed. It replays, and appending its record writes exactly
    /// these bytes again.
    #[test]
    fn v1_golden_bytes_replay_and_are_rewritten_identically() {
        #[rustfmt::skip]
        let payload: &[u8] = &[
            7, 0, 0, 0, 0, 0, 0, 0,                         // snapshot id 7
            5, 0, 0, 0, b'p', b'e', b'd', b'r', b'o',        // source
            7, 0, 0, 0, b'p', b'r', b'o', b't', b'e', b'i', b'n', // table
            1, 0, 0, 0,                                     // one row
            5, 0, 0, 0,                                     // of five columns
            0x00,                                           // Null
            0x01, 1,                                        // Bool true
            0x02, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int -2
            0x03, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f,             // Float 1.5
            0x04, 2, 0, 0, 0, 0xc3, 0xa9,                   // Str "é"
        ];
        let mut golden = b"DSWAL\0\0\x01".to_vec();
        golden.extend_from_slice(&64u32.to_le_bytes());
        golden.extend_from_slice(&0x96c7_4168u32.to_le_bytes());
        golden.extend_from_slice(payload);
        let expected = LogRecord {
            snapshot: 7,
            source: "pedro".into(),
            table: "protein".into(),
            rows: vec![vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-2),
                Value::Float(1.5),
                Value::str("é"),
            ]],
        };

        let path = temp_log("golden");
        std::fs::write(&path, &golden).unwrap();
        let replayed = CommitLog::open(&path, false).unwrap();
        assert_eq!(replayed.records, vec![expected.clone()]);
        assert_eq!(replayed.truncated_bytes, 0);
        drop(replayed);

        std::fs::remove_file(&path).unwrap();
        let mut log = CommitLog::open(&path, false).unwrap().log;
        log.append(&expected).unwrap();
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), golden);
        std::fs::remove_file(&path).ok();
    }

    /// A compacted table can outgrow the wire's 16 MiB frame cap; the log's
    /// envelope must not inherit that cap, or recovery would truncate the
    /// whole table away.
    #[test]
    fn a_record_bigger_than_a_wire_frame_survives_reopen() {
        const WIRE_FRAME_CAP: u64 = 16 * 1024 * 1024;
        let path = temp_log("big");
        let text = Value::str("x".repeat(64 * 1024));
        let batch = |first: i64| LogRecord {
            snapshot: first as u64,
            source: "pedro".into(),
            table: "protein".into(),
            rows: (first..first + 100)
                .map(|i| vec![Value::Int(i), text.clone()])
                .collect(),
        };
        let mut log = CommitLog::open(&path, false).unwrap().log;
        for first in [0, 100, 200] {
            log.append(&batch(first)).unwrap();
        }
        log.compact().unwrap();
        drop(log);
        assert!(std::fs::metadata(&path).unwrap().len() > WIRE_FRAME_CAP);
        let reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.truncated_bytes, 0);
        assert_eq!(reopened.records.len(), 1);
        assert_eq!(reopened.records[0].rows.len(), 300);
        drop(reopened);
        std::fs::remove_file(&path).ok();
    }

    /// A failed append poisons the log: later appends are refused without
    /// touching the file, until the log is reopened. Linux only: `/dev/full`
    /// fails every write.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_poisons_the_log_until_it_is_reopened() {
        let path = temp_log("poison");
        let mut log = CommitLog::open(&path, false).unwrap().log;
        log.append(&record(1, "protein", &[1])).unwrap();
        log.redirect_writes("/dev/full").unwrap();
        assert!(matches!(
            log.append(&record(2, "protein", &[2])),
            Err(RelError::LogAppend(_))
        ));
        // Writes would reach the log file again, but the log refuses them.
        log.redirect_writes(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            log.append(&record(2, "protein", &[2])),
            Err(RelError::LogPoisoned)
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(log.appends(), 1);
        drop(log);

        let mut reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.records.len(), 1);
        reopened.log.append(&record(2, "protein", &[2])).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
