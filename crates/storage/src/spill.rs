//! Temp-file spill substrate for out-of-core execution.
//!
//! When a query's tracked memory approaches its budget, the executor's
//! spill-capable operators (`bdcc-exec`'s hash-join build and radix
//! aggregation) *freeze* resident partitions: they serialize the
//! partition's batches through a [`SpillWriter`] into a real temp file
//! and drop the in-memory copy. On *restore* the partition's batches are
//! read back **in exactly the order they were written** — which, by the
//! executor's freeze discipline, is the original input stream order — so
//! spilled execution stays byte-identical to in-memory execution.
//!
//! This module is mechanism only; *when* to freeze is the
//! `bdcc-exec::broker::MemoryBroker`'s policy call. The contract pinned
//! here:
//!
//! * **Serialization is exact.** Every column round-trips bit-for-bit:
//!   integer-backed columns (with their `Int`-vs-`Date` logical type) use
//!   the same frame-of-reference + bit-packing codec as the block
//!   encodings ([`PackedInts`], with a raw fallback for full-range
//!   deltas), floats round-trip through their IEEE bit pattern (NaN
//!   payloads included), strings byte-for-byte.
//! * **Order is preserved.** A [`SpillReader`] yields entries in write
//!   order; nothing is reordered, deduplicated, or compacted.
//! * **Spill I/O is metered.** Every byte written and every byte read
//!   back is recorded against the query's [`IoTracker`] (under per-file
//!   write/read keys), so `EXPLAIN ANALYZE` and the device cost model see
//!   spill traffic like any other I/O. Writes and first reads are
//!   sequential appends/scans by construction; re-restores of the same
//!   partition charge no new bytes (the tracker's once-per-query
//!   buffer-pool semantics), but still count accesses.
//! * **Cleanup is RAII — cancellation included.** [`SpillWriter`] and
//!   [`SpillHandle`] unlink their temp file on drop. A query that errors,
//!   exceeds its deadline, or is cancelled unwinds its operator tree, and
//!   the unwind drops the handles — no leaked files, verified by
//!   [`live_spill_files`] (a process-wide registry of not-yet-unlinked
//!   spill paths that tests assert drains to empty).
//!
//! Files live in `BDCC_SPILL_DIR` when set, else the OS temp dir.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::column::Column;
use crate::encode::PackedInts;
use crate::error::{Result, StorageError};
use crate::io::IoTracker;
use crate::value::DataType;

// ---------------------------------------------------------------------------
// Live-file registry
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<HashSet<PathBuf>> {
    static LIVE: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Number of spill files currently on disk (process-wide). Tests assert
/// this returns to its baseline after every query — including queries
/// that were cancelled or failed mid-spill.
pub fn live_spill_files() -> usize {
    registry().lock().expect("spill registry poisoned").len()
}

fn register(path: &Path) {
    registry().lock().expect("spill registry poisoned").insert(path.to_path_buf());
}

fn unlink(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    registry().lock().expect("spill registry poisoned").remove(path);
}

/// Directory spill files are created in: `BDCC_SPILL_DIR` or the OS
/// temp dir.
pub fn spill_dir() -> PathBuf {
    match std::env::var_os("BDCC_SPILL_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => std::env::temp_dir(),
    }
}

fn fresh_path(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    spill_dir().join(format!("bdcc-spill-{}-{label}-{n}.tmp", std::process::id()))
}

/// Stable I/O-tracker key for a spill path (FNV-1a over the path bytes).
/// The write stream records under `key`, the read stream under `key + 1`,
/// so written and restored bytes are both charged exactly once per query.
fn path_key(path: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & !1
}

fn ioerr(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Primitive wire helpers
// ---------------------------------------------------------------------------

struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_all(bytes).map_err(ioerr)?;
        self.written += bytes.len() as u64;
        Ok(())
    }
    fn u8(&mut self, v: u8) -> Result<()> {
        self.put(&[v])
    }
    fn u32(&mut self, v: u32) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
    fn i64(&mut self, v: i64) -> Result<()> {
        self.put(&v.to_le_bytes())
    }
}

struct CountingReader<R> {
    inner: R,
    consumed: u64,
}

impl<R: Read> CountingReader<R> {
    fn take(&mut self, buf: &mut [u8]) -> Result<()> {
        self.inner.read_exact(buf).map_err(ioerr)?;
        self.consumed += buf.len() as u64;
        Ok(())
    }
    fn u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.take(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn i64(&mut self) -> Result<i64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }
}

// Column tags.
const TAG_I64_FOR: u8 = 0;
const TAG_I64_RAW: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;

fn write_column<W: Write>(w: &mut CountingWriter<W>, col: &Column) -> Result<()> {
    match col {
        Column::I64 { values, logical } => {
            let logical_tag = if *logical == DataType::Date { 1u8 } else { 0u8 };
            // Frame-of-reference + bit-packing, the block codec's integer
            // scheme: deltas from the minimum, wrapping arithmetic so a
            // full-range `max - min` still round-trips — but a ≥ 64-bit
            // delta range means packing cannot narrow anything, so fall
            // back to raw values.
            let min = values.iter().copied().min().unwrap_or(0);
            let deltas: Vec<u64> = values.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
            let width = PackedInts::bits_for(deltas.iter().copied().max().unwrap_or(0));
            if width >= 64 {
                w.u8(TAG_I64_RAW)?;
                w.u8(logical_tag)?;
                w.u64(values.len() as u64)?;
                for &v in values {
                    w.i64(v)?;
                }
            } else {
                let packed = PackedInts::pack(&deltas, width);
                w.u8(TAG_I64_FOR)?;
                w.u8(logical_tag)?;
                w.i64(min)?;
                w.u8(width)?;
                w.u64(values.len() as u64)?;
                w.u64(packed.words().len() as u64)?;
                for &word in packed.words() {
                    w.u64(word)?;
                }
            }
        }
        Column::F64(values) => {
            w.u8(TAG_F64)?;
            w.u64(values.len() as u64)?;
            for &v in values {
                w.u64(v.to_bits())?;
            }
        }
        Column::Str(values) => {
            w.u8(TAG_STR)?;
            w.u64(values.len() as u64)?;
            for s in values {
                w.u32(s.len() as u32)?;
                w.put(s.as_bytes())?;
            }
        }
    }
    Ok(())
}

fn read_column<R: Read>(r: &mut CountingReader<R>) -> Result<Column> {
    let logical_of = |tag: u8| if tag == 1 { DataType::Date } else { DataType::Int };
    match r.u8()? {
        TAG_I64_FOR => {
            let logical = logical_of(r.u8()?);
            let min = r.i64()?;
            let width = r.u8()?;
            let len = r.u64()? as usize;
            let nwords = r.u64()? as usize;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(r.u64()?);
            }
            let packed = PackedInts::from_parts(width, len, words);
            let values: Vec<i64> =
                (0..len).map(|i| min.wrapping_add(packed.get(i) as i64)).collect();
            Ok(Column::I64 { values, logical })
        }
        TAG_I64_RAW => {
            let logical = logical_of(r.u8()?);
            let len = r.u64()? as usize;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(r.i64()?);
            }
            Ok(Column::I64 { values, logical })
        }
        TAG_F64 => {
            let len = r.u64()? as usize;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(f64::from_bits(r.u64()?));
            }
            Ok(Column::F64(values))
        }
        TAG_STR => {
            let len = r.u64()? as usize;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                let bytes = r.u32()? as usize;
                let mut buf = vec![0u8; bytes];
                r.take(&mut buf)?;
                values.push(String::from_utf8(buf).map_err(|e| StorageError::Io(e.to_string()))?);
            }
            Ok(Column::Str(values))
        }
        tag => Err(StorageError::Io(format!("unknown spill column tag {tag}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer / handle / reader
// ---------------------------------------------------------------------------

/// Append-only writer for one spill file. Each [`write_columns`] call
/// appends one *entry* (a batch's columns); [`finish`] seals the file
/// into a [`SpillHandle`]. Dropping an unfinished writer unlinks the
/// file (a query that dies mid-freeze leaks nothing).
///
/// [`write_columns`]: Self::write_columns
/// [`finish`]: Self::finish
pub struct SpillWriter {
    out: CountingWriter<BufWriter<File>>,
    /// `Some` until `finish` — `Drop` unlinks while this is `Some`.
    path: Option<PathBuf>,
    io: IoTracker,
    key: u64,
    entries: u64,
    rows: u64,
}

impl SpillWriter {
    /// Create a fresh temp spill file; `label` tags the file name for
    /// debuggability (e.g. `"join-build"` / `"agg-p3"`).
    pub fn create(label: &str, io: &IoTracker) -> Result<SpillWriter> {
        let path = fresh_path(label);
        let file = File::create(&path).map_err(ioerr)?;
        register(&path);
        let key = path_key(&path);
        Ok(SpillWriter {
            out: CountingWriter { inner: BufWriter::new(file), written: 0 },
            path: Some(path),
            io: io.clone(),
            key,
            entries: 0,
            rows: 0,
        })
    }

    /// Append one entry. Returns the entry's on-disk byte size (metered
    /// against the query's `IoTracker` under the file's write key).
    pub fn write_columns(&mut self, cols: &[Column]) -> Result<u64> {
        let start = self.out.written;
        self.out.u32(cols.len() as u32)?;
        let rows = cols.first().map(|c| c.len()).unwrap_or(0);
        self.out.u64(rows as u64)?;
        for col in cols {
            debug_assert_eq!(col.len(), rows, "spill entry columns must align");
            write_column(&mut self.out, col)?;
        }
        let end = self.out.written;
        if end > start {
            self.io.record_span(self.key, start, end - 1);
        }
        self.entries += 1;
        self.rows += rows as u64;
        Ok(end - start)
    }

    /// Total bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.out.written
    }

    /// Entries appended so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total rows across all entries.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the file. The returned handle owns the temp file
    /// (unlinks it on drop) and can open any number of sequential readers.
    pub fn finish(mut self) -> Result<SpillHandle> {
        self.out.inner.flush().map_err(ioerr)?;
        let path = self.path.take().expect("finish called once");
        Ok(SpillHandle {
            path,
            io: self.io.clone(),
            key: self.key,
            bytes: self.out.written,
            entries: self.entries,
            rows: self.rows,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            unlink(path);
        }
    }
}

/// A sealed spill file: metadata plus RAII ownership of the temp file.
/// Dropping the handle unlinks the file — this is the cancellation
/// cleanup path (an unwinding operator tree drops its handles).
pub struct SpillHandle {
    path: PathBuf,
    io: IoTracker,
    key: u64,
    bytes: u64,
    entries: u64,
    rows: u64,
}

impl SpillHandle {
    /// On-disk size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of entries (batches) in the file.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total rows across all entries.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Open a sequential reader over the file's entries (write order).
    /// Restored bytes are metered under the file's read key.
    pub fn open(&self) -> Result<SpillReader> {
        let file = File::open(&self.path).map_err(ioerr)?;
        Ok(SpillReader {
            input: CountingReader { inner: BufReader::new(file), consumed: 0 },
            io: self.io.clone(),
            key: self.key | 1,
            remaining: self.entries,
        })
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        unlink(&self.path);
    }
}

/// Sequential reader over a spill file's entries, in write order.
pub struct SpillReader {
    input: CountingReader<BufReader<File>>,
    io: IoTracker,
    key: u64,
    remaining: u64,
}

impl SpillReader {
    /// The next entry's columns, or `None` past the last entry.
    pub fn next_columns(&mut self) -> Result<Option<Vec<Column>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let start = self.input.consumed;
        let ncols = self.input.u32()? as usize;
        let _rows = self.input.u64()?;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            cols.push(read_column(&mut self.input)?);
        }
        let end = self.input.consumed;
        if end > start {
            self.io.record_span(self.key, start, end - 1);
        }
        Ok(Some(cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test here creates spill files and one compares the
    /// process-wide live count, so they run one at a time. The guarded
    /// data is `()`, so a lock poisoned by a failed test is still safe to
    /// take.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn columns() -> Vec<Column> {
        vec![
            Column::from_i64(vec![5, -3, 1 << 40, 5, 0]),
            Column::from_dates(vec![9131, 9132, 9131, 10000, 0]),
            Column::from_f64(vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-300]),
            Column::from_strings(vec![
                "".into(),
                "alpha".into(),
                "βeta".into(),
                "x".repeat(300),
                "end".into(),
            ]),
        ]
    }

    #[test]
    fn round_trips_every_type_bit_exactly() {
        let _serial = serial();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        let cols = columns();
        w.write_columns(&cols).unwrap();
        // A second entry with different shapes, including the raw-i64
        // fallback (full-range deltas) and empty columns.
        let extreme = vec![
            Column::from_i64(vec![i64::MIN, i64::MAX, 0]),
            Column::from_dates(vec![1, 2, 3]),
            Column::from_f64(vec![0.0; 3]),
            Column::from_strings(vec!["a".into(), "".into(), "b".into()]),
        ];
        w.write_columns(&extreme).unwrap();
        w.write_columns(&[Column::from_i64(vec![]), Column::from_strings(vec![])]).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.entries(), 3);
        assert_eq!(h.rows(), 8);

        let mut r = h.open().unwrap();
        let got = r.next_columns().unwrap().unwrap();
        // Bit-exactness for floats: compare bit patterns (NaN != NaN).
        assert_eq!(got.len(), cols.len());
        assert_eq!(got[0], cols[0]);
        assert_eq!(got[1], cols[1]);
        assert_eq!(got[1].data_type(), DataType::Date, "logical type survives");
        let (a, b) = (got[2].as_f64().unwrap(), cols[2].as_f64().unwrap());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(got[3], cols[3]);
        assert_eq!(r.next_columns().unwrap().unwrap(), extreme);
        let empty = r.next_columns().unwrap().unwrap();
        assert_eq!(empty[0].len(), 0);
        assert!(r.next_columns().unwrap().is_none());
    }

    #[test]
    fn rereads_yield_identical_entries() {
        let _serial = serial();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        let h = w.finish().unwrap();
        let a = h.open().unwrap().next_columns().unwrap().unwrap();
        let b = h.open().unwrap().next_columns().unwrap().unwrap();
        assert_eq!(a[0], b[0]);
        assert_eq!(a[3], b[3]);
    }

    #[test]
    fn spill_io_is_metered_once_per_direction() {
        let _serial = serial();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        let written = w.bytes();
        assert!(written > 0);
        assert_eq!(io.stats().bytes_read, written, "write bytes metered");
        let h = w.finish().unwrap();
        let mut r = h.open().unwrap();
        while r.next_columns().unwrap().is_some() {}
        assert_eq!(io.stats().bytes_read, 2 * written, "restore bytes metered");
        // A re-restore charges no *new* bytes (buffer-pool semantics).
        let mut r = h.open().unwrap();
        while r.next_columns().unwrap().is_some() {}
        assert_eq!(io.stats().bytes_read, 2 * written);
    }

    #[test]
    fn files_unlink_on_drop_and_on_unfinished_writer() {
        let _serial = serial();
        let base = live_spill_files();
        let io = IoTracker::new();
        let mut w = SpillWriter::create("test", &io).unwrap();
        w.write_columns(&columns()).unwrap();
        assert_eq!(live_spill_files(), base + 1);
        let h = w.finish().unwrap();
        assert_eq!(live_spill_files(), base + 1);
        drop(h);
        assert_eq!(live_spill_files(), base, "handle drop unlinks");
        // Unfinished writer (mid-freeze failure / cancellation): same.
        let w = SpillWriter::create("test", &io).unwrap();
        assert_eq!(live_spill_files(), base + 1);
        drop(w);
        assert_eq!(live_spill_files(), base, "writer drop unlinks");
    }
}
