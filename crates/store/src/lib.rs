//! # cyclesteal-store
//!
//! Versioned, checksummed binary snapshots of solved
//! [`CompressedTable`]s — the persistence layer that lets a restarted
//! process **warm-start** from disk instead of re-paying the solve. A
//! run-backed `(Q=32, p=16, L=10⁹ ticks)` table is ~16 MB on disk and
//! loads in tens of milliseconds; the solve it replaces takes on the
//! order of a second.
//!
//! ## Format
//!
//! A snapshot is a little-endian byte stream:
//!
//! ```text
//! magic      8 B   b"CYCSTORE"
//! version    u32   FORMAT_VERSION (readers reject anything newer/older)
//! header     section
//! row        section × row_count        (one per interrupt level)
//! ```
//!
//! Every **section** is `len: u32`, `payload: len bytes`,
//! `crc: u32` (CRC-32/IEEE of the payload — see [`crc::crc32`]), so
//! truncation and bit corruption are detected per section before any of
//! the payload is interpreted. The header payload records the grid
//! (`setup_bits`, `ticks_per_setup`), extent (`max_ticks`,
//! `max_interrupts`), a row-representation tag and the build-event
//! counter; each row payload repeats the tag and stores its runs
//! **natively** — `(start, step_fx, len, has_residuals)` descriptors
//! plus the shared residual byte stream, exactly mirroring
//! [`cyclesteal_dp::snapshot::RowParts`]. Nothing is re-encoded, so
//! `load(save(t))` is **bit-identical** to `t` (structural equality,
//! pinned by the property suite in `tests/store_props.rs`).
//!
//! The tag is always the runs tag. Tag 0 marked flat-tick-list rows, a
//! representation the solver no longer has: a snapshot carrying it
//! decodes to [`StoreError::FlatListRows`] (and a warm start
//! quarantines it), so the table is simply re-solved on first use.
//!
//! Decoding is defensive end to end: unknown magic, unsupported
//! versions, truncated sections, checksum mismatches, retired or unknown
//! tags and structurally invalid parts (the validation of
//! [`CompressedTable::from_parts`]) all return [`StoreError`] — never a
//! panic, never a silently wrong table.
//!
//! ## Cache warm-start
//!
//! [`CacheSnapshotExt`] extends [`TableCache`] with directory-level
//! persistence: [`CacheSnapshotExt::snapshot_to_dir`] writes every
//! cached table (atomically: temp file + rename) under a key-derived
//! name, [`CacheSnapshotExt::warm_from_dir`] loads every `*.cst`
//! snapshot back, in file-name order, and
//! [`TableCache::admit_compressed`]s it, so the next
//! `get_compressed` covering query is a hit instead of a solve.
//! [`evict_hook_to_dir`] packages the same save as a
//! [`cyclesteal_dp::EvictHook`], which is how `cyclesteal-serve`
//! snapshots tables the memory budget pushes out.
//!
//! ```no_run
//! use cyclesteal_core::time::secs;
//! use cyclesteal_dp::TableCache;
//! use cyclesteal_store::CacheSnapshotExt;
//!
//! let dir = std::path::Path::new("snapshots");
//! let cache = TableCache::new();
//! let _ = cache.get_compressed(secs(1.0), 32, secs(1e6), 16); // cold solve
//! cache.snapshot_to_dir(dir).unwrap();
//! // …process restarts…
//! let cache = TableCache::new();
//! let report = cache.warm_from_dir(dir).unwrap();
//! assert_eq!(report.loaded, 1);
//! let _ = cache.get_compressed(secs(1.0), 32, secs(1e6), 16); // warm hit
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod crc;

use cyclesteal_core::time::Time;
use cyclesteal_dp::compressed::CompressedTable;
use cyclesteal_dp::snapshot::{PartsError, RowParts, RunParts, TableParts};
use cyclesteal_dp::TableCache;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"CYCSTORE";

/// Snapshot format version this build writes and reads. Readers reject
/// any other version outright — the format is versioned precisely so a
/// newer layout can never be misparsed as this one.
pub const FORMAT_VERSION: u32 = 1;

/// File extension of directory snapshots (`q…-p…-s….cst`).
pub const SNAPSHOT_EXTENSION: &str = "cst";

/// Retired representation tag: flat-tick-list rows. Recognized only to
/// reject it as [`StoreError::FlatListRows`].
const TAG_FLATS: u8 = 0;
/// Representation tag: arithmetic-run rows, the only kind written.
const TAG_RUNS: u8 = 1;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot of an unknown format version.
    UnsupportedVersion(u32),
    /// The byte stream ended (or a section length pointed) before the
    /// named piece was complete.
    Truncated(&'static str),
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Which section failed ("header", or "row N").
        section: String,
    },
    /// A field holds a value the format does not admit (unknown row
    /// tag, impossible count, non-finite setup, …).
    Malformed(String),
    /// The snapshot stores flat-tick-list rows (representation tag 0),
    /// which the solver no longer has; the table must be re-solved.
    FlatListRows {
        /// Which section carried the tag ("header", or "row N").
        section: String,
    },
    /// The decoded parts failed [`CompressedTable::from_parts`]'s
    /// structural validation.
    Invalid(PartsError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            StoreError::BadMagic => write!(f, "not a cyclesteal snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            StoreError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "snapshot corrupt: checksum mismatch in {section}")
            }
            StoreError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
            StoreError::FlatListRows { section } => {
                write!(f, "snapshot stores retired flat-list rows ({section})")
            }
            StoreError::Invalid(e) => write!(f, "snapshot decodes to an invalid table: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<PartsError> for StoreError {
    fn from(e: PartsError) -> StoreError {
        StoreError::Invalid(e)
    }
}

// ---- encoding ---------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends one framed section: `len`, payload, CRC-32 of the payload.
fn push_section(out: &mut Vec<u8>, payload: &[u8]) {
    // lint:allow(lossy-cast): a section wraps u32 only past ~200
    // million run descriptors (or 4 GiB of residuals) in one row, far
    // beyond any table the compressor emits — and a wrapped length
    // cannot misparse silently, the CRC framing makes an oversized
    // section fail closed at load
    push_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    push_u32(out, crc::crc32(payload));
}

fn encode_row(row: &RowParts) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(TAG_RUNS);
    push_i64(&mut p, row.zero_until);
    push_u64(&mut p, row.runs.len() as u64);
    push_u64(&mut p, row.residuals.len() as u64);
    p.reserve(row.runs.len() * 21 + row.residuals.len());
    for r in &row.runs {
        push_i64(&mut p, r.start);
        push_i64(&mut p, r.step_fx);
        push_u32(&mut p, r.len);
        p.push(u8::from(r.has_residuals));
    }
    for &b in &row.residuals {
        // lint:allow(lossy-cast): two's-complement byte
        // reinterpret of the i8 residual, inverted by the
        // matching `as i8` in decode_row
        p.push(b as u8);
    }
    p
}

/// Serializes a table into the snapshot byte format.
pub fn to_bytes(table: &CompressedTable) -> Vec<u8> {
    let parts = table.to_parts();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);

    let mut header = Vec::with_capacity(41);
    push_u64(&mut header, parts.setup.get().to_bits());
    push_u32(&mut header, parts.ticks_per_setup);
    push_u32(&mut header, parts.max_interrupts);
    push_i64(&mut header, parts.max_ticks);
    header.push(TAG_RUNS);
    push_u64(&mut header, parts.events);
    // lint:allow(lossy-cast): the row count is max_interrupts + 1 and
    // max_interrupts is itself a u32 header field two lines up
    push_u32(&mut header, parts.rows.len() as u32);
    push_section(&mut out, &header);

    for row in &parts.rows {
        push_section(&mut out, &encode_row(row));
    }
    out
}

// ---- decoding ---------------------------------------------------------

/// Bounds-checked forward reader over the snapshot bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(StoreError::Truncated(what))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self, what: &'static str) -> Result<i64, StoreError> {
        let b = self.take(8, what)?;
        // Exact inverse of push_i64's to_le_bytes — negative values
        // round-trip without any integer cast.
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Reads one framed section and verifies its CRC before handing the
/// payload out.
fn read_section<'a>(r: &mut Reader<'a>, section: &str) -> Result<&'a [u8], StoreError> {
    let len = r.u32("section length")? as usize;
    let payload = r.take(len, "section payload")?;
    let stored = r.u32("section checksum")?;
    if crc::crc32(payload) != stored {
        return Err(StoreError::ChecksumMismatch {
            section: section.to_string(),
        });
    }
    Ok(payload)
}

fn decode_row(payload: &[u8], level: usize) -> Result<RowParts, StoreError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    match r.u8("row tag")? {
        TAG_RUNS => {}
        TAG_FLATS => {
            return Err(StoreError::FlatListRows {
                section: format!("row {level}"),
            })
        }
        other => {
            return Err(StoreError::Malformed(format!(
                "unknown row tag {other} at level {level}"
            )))
        }
    }
    let zero_until = r.i64("row zero_until")?;
    let count = |n: u64, what: &str| {
        usize::try_from(n).map_err(|_| {
            StoreError::Malformed(format!("{what} {n} at level {level} exceeds usize"))
        })
    };
    let run_count = count(r.u64("run count")?, "run count")?;
    let res_count = count(r.u64("residual count")?, "residual count")?;
    // The counts must match the section exactly: a corrupt count is
    // caught before any allocation larger than the payload.
    let run_bytes = r.take(
        run_count
            .checked_mul(21)
            .ok_or(StoreError::Truncated("runs"))?,
        "run descriptors",
    )?;
    let runs = run_bytes
        .chunks_exact(21)
        .map(|c| RunParts {
            start: i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]),
            step_fx: i64::from_le_bytes([c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]]),
            len: u32::from_le_bytes([c[16], c[17], c[18], c[19]]),
            has_residuals: c[20] != 0,
        })
        .collect();
    let residuals = r
        .take(res_count, "residual stream")?
        .iter()
        // lint:allow(lossy-cast): inverse of encode_row's
        // `as u8` — the same two's-complement byte reinterpret
        .map(|&b| b as i8)
        .collect();
    let row = RowParts {
        zero_until,
        runs,
        residuals,
    };
    if !r.done() {
        return Err(StoreError::Malformed(format!(
            "trailing bytes in row section at level {level}"
        )));
    }
    Ok(row)
}

/// Deserializes a snapshot byte stream back into the exact table it was
/// written from. Every defect — wrong magic, unsupported version,
/// truncation, checksum mismatch, structural invalidity — is an error,
/// never a panic.
pub fn from_bytes(bytes: &[u8]) -> Result<CompressedTable, StoreError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(8, "magic")? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }

    let header = read_section(&mut r, "header")?;
    let mut h = Reader {
        buf: header,
        pos: 0,
    };
    // Validate *before* constructing a Time: `Time::new` asserts
    // finiteness, and a crafted (or 2⁻³²-lucky corrupt) header must
    // error here, never panic.
    let setup_raw = f64::from_bits(h.u64("setup")?);
    if !setup_raw.is_finite() {
        return Err(StoreError::Malformed(format!(
            "non-finite setup charge {setup_raw}"
        )));
    }
    let setup = Time::new(setup_raw);
    let ticks_per_setup = h.u32("ticks_per_setup")?;
    let max_interrupts = h.u32("max_interrupts")?;
    let max_ticks = h.i64("max_ticks")?;
    match h.u8("repr")? {
        TAG_RUNS => {}
        TAG_FLATS => {
            return Err(StoreError::FlatListRows {
                section: "header".into(),
            })
        }
        other => return Err(StoreError::Malformed(format!("unknown repr tag {other}"))),
    }
    let events = h.u64("events")?;
    let row_count = h.u32("row count")?;
    if !h.done() {
        return Err(StoreError::Malformed("trailing bytes in header".into()));
    }
    if row_count != max_interrupts.saturating_add(1) {
        return Err(StoreError::Malformed(format!(
            "row count {row_count} does not match max_interrupts {max_interrupts}"
        )));
    }

    let mut rows = Vec::new();
    for level in 0..row_count as usize {
        let payload = read_section(&mut r, &format!("row {level}"))?;
        rows.push(decode_row(payload, level)?);
    }
    if !r.done() {
        return Err(StoreError::Malformed(
            "trailing bytes after last row".into(),
        ));
    }

    Ok(CompressedTable::from_parts(TableParts {
        setup,
        ticks_per_setup,
        max_ticks,
        max_interrupts,
        events,
        rows,
    })?)
}

// ---- files and directories -------------------------------------------

/// Test-only save fault: consulted once per write attempt; returning
/// `true` makes that attempt fail with an injected I/O error (see
/// [`set_save_fault`]).
type SaveFault = Box<dyn Fn(&Path) -> bool + Send + Sync>;

static SAVE_FAULT_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn save_fault_slot() -> &'static std::sync::Mutex<Option<SaveFault>> {
    static SLOT: std::sync::OnceLock<std::sync::Mutex<Option<SaveFault>>> =
        std::sync::OnceLock::new();
    SLOT.get_or_init(|| std::sync::Mutex::new(None))
}

/// Installs (or, with `None`, removes) a **test-only** fault hook
/// consulted once per [`save`] write attempt; a `true` return fails
/// that attempt with an injected I/O error. This is how the
/// fault-injection harness in `cyclesteal-serve` exercises the save
/// retry and the snapshot-on-evict failure path. Disarmed, the hook
/// costs one relaxed atomic load per save.
#[doc(hidden)]
pub fn set_save_fault(hook: Option<SaveFault>) {
    let armed = hook.is_some();
    *save_fault_slot().lock().unwrap_or_else(|e| e.into_inner()) = hook;
    SAVE_FAULT_ARMED.store(armed, std::sync::atomic::Ordering::Release);
}

fn save_fault_fires(path: &Path) -> bool {
    if !SAVE_FAULT_ARMED.load(std::sync::atomic::Ordering::Acquire) {
        return false;
    }
    save_fault_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .is_some_and(|hook| hook(path))
}

/// Write attempts [`save`] makes before giving up: the first try plus
/// `SAVE_RETRIES` retries with a short doubling backoff. Snapshot saves
/// sit off the serving path (evictions, shutdown), so a few retries
/// against transient I/O (fd pressure, a busy volume) are cheap
/// insurance; persistent failures still surface as the last error.
pub const SAVE_RETRIES: u32 = 2;

/// Writes `table` to `path` atomically: the bytes land in a temp file
/// in the same directory first, are fsynced, and are `rename`d into
/// place — so a concurrent reader or a process crash can never observe
/// a half-written snapshot, and a power loss cannot persist the rename
/// ahead of the data. (The directory entry itself is not fsynced; after
/// a power loss the file may be absent entirely, which a warm start
/// treats as "not snapshotted yet" and simply re-solves.) The temp name
/// carries a process-wide counter on top of the pid, so concurrent
/// savers of the *same* key (e.g. the evict hook racing a periodic
/// snapshot) each write their own temp file and the rename stays whole.
///
/// Transient I/O failures are retried ([`SAVE_RETRIES`] retries, 1 ms
/// doubling backoff); the final error is returned if every attempt
/// fails.
pub fn save(table: &CompressedTable, path: &Path) -> Result<(), StoreError> {
    let bytes = to_bytes(table);
    // The first attempt seeds `last`, so the retry loop never has an
    // empty error slot to unwrap at the end.
    let mut last: io::Error = match save_attempt(&bytes, path) {
        Ok(()) => return Ok(()),
        Err(e) => e,
    };
    for attempt in 1..=SAVE_RETRIES {
        std::thread::sleep(std::time::Duration::from_millis(1 << (attempt - 1)));
        match save_attempt(&bytes, path) {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(last.into())
}

/// One atomic temp-write + rename attempt.
fn save_attempt(bytes: &[u8], path: &Path) -> io::Result<()> {
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if save_fault_fires(path) {
        return Err(io::Error::other("injected store write failure"));
    }
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
    let write = |tmp: &Path| -> io::Result<()> {
        let mut file = std::fs::File::create(tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()
    };
    match write(&tmp).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Reads the snapshot at `path` back into the exact table it was saved
/// from (see [`from_bytes`] for the failure modes).
pub fn load(path: &Path) -> Result<CompressedTable, StoreError> {
    from_bytes(&std::fs::read(path)?)
}

/// The key-derived file name a table snapshots under inside a snapshot
/// directory: one file per `(setup, resolution, p_max)` cache key, so a
/// re-solve at a larger lifespan overwrites its predecessor instead of
/// accumulating stale siblings.
pub fn snapshot_file_name(table: &CompressedTable) -> String {
    format!(
        "q{}-p{}-s{:016x}.{SNAPSHOT_EXTENSION}",
        table.grid().q(),
        table.max_interrupts(),
        table.grid().setup().get().to_bits()
    )
}

/// What [`CacheSnapshotExt::warm_from_dir`] found.
#[derive(Debug, Default)]
pub struct WarmReport {
    /// Snapshots loaded, validated and admitted into the cache.
    pub loaded: usize,
    /// Snapshot files whose *read* failed (I/O error), with why. The
    /// failure may be transient (permissions, fd pressure), so the file
    /// is left in place for the next warm start. A warm start never
    /// fails wholesale because one file rotted — the table is simply
    /// re-solved on first use.
    pub skipped: Vec<(PathBuf, StoreError)>,
    /// Snapshot files whose *bytes* are provably bad or unreadable by
    /// this build (wrong magic, unsupported version, truncation, checksum
    /// mismatch, retired flat-list rows, structural invalidity) and were
    /// quarantined: renamed with a `.corrupt`
    /// suffix so they stop matching the `*.cst` glob, keep their bytes
    /// for post-mortem, and never waste another warm start. The path
    /// recorded is the original (pre-rename) one.
    pub quarantined: Vec<(PathBuf, StoreError)>,
}

/// Directory-level persistence for [`TableCache`] — the warm-start
/// interface of the serving layer.
pub trait CacheSnapshotExt {
    /// Writes every cached compressed table into `dir` (created if
    /// missing), one atomic file per cache key. Returns how many were
    /// written.
    fn snapshot_to_dir(&self, dir: &Path) -> Result<usize, StoreError>;

    /// Loads every `*.cst` snapshot in `dir`, in file-name order, and
    /// admits it into the cache, so covering `get_compressed` queries
    /// become hits instead of solves. The order fixes the LRU stamps the
    /// warm start assigns, and with them which tables a memory budget
    /// keeps: the last snapshots by name are the most recently used.
    /// A missing directory is an empty warm start; unreadable
    /// files are reported in [`WarmReport::skipped`] and provably
    /// corrupt ones are renamed `*.corrupt` and reported in
    /// [`WarmReport::quarantined`] — neither is fatal.
    fn warm_from_dir(&self, dir: &Path) -> Result<WarmReport, StoreError>;
}

impl CacheSnapshotExt for TableCache {
    fn snapshot_to_dir(&self, dir: &Path) -> Result<usize, StoreError> {
        std::fs::create_dir_all(dir)?;
        let tables = self.compressed_tables();
        for table in &tables {
            save(table, &dir.join(snapshot_file_name(table)))?;
        }
        Ok(tables.len())
    }

    fn warm_from_dir(&self, dir: &Path) -> Result<WarmReport, StoreError> {
        let mut report = WarmReport::default();
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e.into()),
        };
        // `read_dir` order is unspecified; sort so the admission order
        // (and with it LRU recency and budget survivors) is the same on
        // every filesystem.
        let mut paths = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXTENSION) {
                paths.push(path);
            }
        }
        paths.sort();
        for path in paths {
            match load(&path) {
                Ok(table) => {
                    self.admit_compressed(Arc::new(table));
                    report.loaded += 1;
                }
                // An I/O failure may be transient: leave the file alone
                // and let the next warm start retry it.
                Err(e @ StoreError::Io(_)) => report.skipped.push((path, e)),
                // Anything else means the *bytes* are bad — the file
                // can never load. Quarantine it out of the `*.cst` glob
                // (best-effort; a failed rename degrades to a skip).
                Err(e) => {
                    if quarantine(&path).is_ok() {
                        report.quarantined.push((path, e));
                    } else {
                        report.skipped.push((path, e));
                    }
                }
            }
        }
        Ok(report)
    }
}

/// Renames a provably corrupt snapshot by appending
/// [`QUARANTINE_SUFFIX`] to its file name (`rotten.cst` →
/// `rotten.cst.corrupt`), taking it out of the warm-start glob while
/// preserving the bytes for inspection.
pub fn quarantine(path: &Path) -> io::Result<()> {
    let mut name = path.as_os_str().to_os_string();
    name.push(QUARANTINE_SUFFIX);
    std::fs::rename(path, PathBuf::from(name))
}

/// Suffix appended to quarantined snapshot file names.
pub const QUARANTINE_SUFFIX: &str = ".corrupt";

/// Packages "save to `dir` on eviction" as a
/// [`cyclesteal_dp::EvictHook`] for
/// [`TableCache::set_evict_hook`]: every compressed table the memory
/// budget pushes out is snapshotted (best-effort — an I/O failure drops
/// the snapshot, never the serving path) before the cache forgets it.
pub fn evict_hook_to_dir(dir: PathBuf) -> cyclesteal_dp::EvictHook {
    evict_hook_to_dir_counting(dir, Arc::new(std::sync::atomic::AtomicU64::new(0)))
}

/// Like [`evict_hook_to_dir`], but every failed snapshot-on-evict write
/// bumps `failures` (and logs to stderr) instead of disappearing — the
/// serving layer surfaces the counter as
/// `BrokerStats.resilience.snapshot_failures`. The failure is *never*
/// propagated: the hook runs from [`TableCache`]'s eviction path, and
/// an error escaping there would trade a lost snapshot for a broken
/// cache.
pub fn evict_hook_to_dir_counting(
    dir: PathBuf,
    failures: Arc<std::sync::atomic::AtomicU64>,
) -> cyclesteal_dp::EvictHook {
    Box::new(move |table: &Arc<CompressedTable>| {
        let result = std::fs::create_dir_all(&dir)
            .map_err(StoreError::Io)
            .and_then(|()| save(table, &dir.join(snapshot_file_name(table))));
        if let Err(e) = result {
            failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            eprintln!("cyclesteal-store: snapshot-on-evict failed: {e}");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::time::secs;

    fn table() -> CompressedTable {
        CompressedTable::solve_event_driven(secs(1.0), 8, secs(400.0), 3)
    }

    /// Overwrites the representation-tag byte at `payload_offset` inside
    /// the section starting at `section_at` and re-seals the section's
    /// CRC, so only the tag itself is wrong.
    fn retag(bytes: &mut [u8], section_at: usize, payload_offset: usize, tag: u8) {
        let len = u32::from_le_bytes([
            bytes[section_at],
            bytes[section_at + 1],
            bytes[section_at + 2],
            bytes[section_at + 3],
        ]) as usize;
        let payload = section_at + 4;
        bytes[payload + payload_offset] = tag;
        let crc = crc::crc32(&bytes[payload..payload + len]);
        bytes[payload + len..payload + len + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Offset of the header section and of the first row section.
    const HEADER_AT: usize = 12;
    /// Header payload: setup 8 + ticks_per_setup 4 + max_interrupts 4 +
    /// max_ticks 8, then the representation tag.
    const HEADER_TAG: usize = 24;

    fn first_row_at(bytes: &[u8]) -> usize {
        let header_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        HEADER_AT + 4 + header_len as usize + 4
    }

    #[test]
    fn bytes_round_trip_bit_identically() {
        let walked = CompressedTable::solve(secs(1.0), 8, secs(400.0), 3);
        for t in [table(), walked] {
            let back = from_bytes(&to_bytes(&t)).unwrap();
            assert_eq!(t, back);
        }
    }

    #[test]
    fn flat_list_tags_decode_to_a_typed_error() {
        let bytes = to_bytes(&table());
        // In the header…
        let mut bad = bytes.clone();
        retag(&mut bad, HEADER_AT, HEADER_TAG, TAG_FLATS);
        assert!(matches!(
            from_bytes(&bad),
            Err(StoreError::FlatListRows { section }) if section == "header"
        ));
        // …or in a row of an otherwise run-tagged snapshot.
        let mut bad = bytes.clone();
        retag(&mut bad, first_row_at(&bytes), 0, TAG_FLATS);
        assert!(matches!(
            from_bytes(&bad),
            Err(StoreError::FlatListRows { section }) if section == "row 0"
        ));
        // Any other tag is malformed, not a flat list.
        let mut bad = bytes.clone();
        retag(&mut bad, first_row_at(&bytes), 0, 7);
        assert!(matches!(from_bytes(&bad), Err(StoreError::Malformed(_))));
        let mut bad = bytes;
        retag(&mut bad, HEADER_AT, HEADER_TAG, 7);
        assert!(matches!(from_bytes(&bad), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn warm_start_quarantines_flat_list_snapshots() {
        let dir = std::env::temp_dir().join(format!("cyclesteal-flats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = table();
        let mut bytes = to_bytes(&t);
        retag(&mut bytes, HEADER_AT, HEADER_TAG, TAG_FLATS);
        std::fs::write(dir.join("old.cst"), &bytes).unwrap();
        // Plain writes, not `save`: the save fault hook is process-global.
        std::fs::write(dir.join(snapshot_file_name(&t)), to_bytes(&t)).unwrap();

        let cache = TableCache::new();
        let report = cache.warm_from_dir(&dir).unwrap();
        assert_eq!(report.loaded, 1, "the run-backed snapshot still warms");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, dir.join("old.cst"));
        assert!(matches!(
            report.quarantined[0].1,
            StoreError::FlatListRows { .. }
        ));
        assert!(dir.join("old.cst.corrupt").exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_admits_in_file_name_order() {
        // A budget that fits exactly one table: each admission evicts the
        // previous one, so the survivor is the last snapshot admitted —
        // which must be the last by file name, whatever order the
        // filesystem lists the directory in.
        let dir = std::env::temp_dir().join(format!("cyclesteal-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tables: Vec<CompressedTable> = [(1.0, 8u32), (2.0, 4), (3.0, 16), (4.0, 8), (5.0, 2)]
            .into_iter()
            .map(|(setup, q)| CompressedTable::solve_event_driven(secs(setup), q, secs(200.0), 2))
            .collect();
        for t in &tables {
            // Plain writes, not `save`: the save fault hook is
            // process-global.
            std::fs::write(dir.join(snapshot_file_name(t)), to_bytes(t)).unwrap();
        }
        let largest = tables.iter().map(|t| t.memory_bytes()).max().unwrap();
        let last = tables.iter().max_by_key(|t| snapshot_file_name(t)).unwrap();

        let cache = TableCache::new();
        cache.set_memory_budget(Some(largest));
        let report = cache.warm_from_dir(&dir).unwrap();
        assert_eq!(report.loaded, 5);
        let survivors = cache.compressed_tables();
        assert_eq!(survivors.len(), 1);
        assert_eq!(*survivors[0], *last);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = to_bytes(&table());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(from_bytes(&bad), Err(StoreError::BadMagic)));
        let mut bad = bytes.clone();
        bad[8] = 0xFE; // version LSB
        assert!(matches!(
            from_bytes(&bad),
            Err(StoreError::UnsupportedVersion(_))
        ));
        assert!(matches!(from_bytes(&[]), Err(StoreError::Truncated(_))));
    }

    #[test]
    fn non_finite_setup_with_a_valid_crc_errors_instead_of_panicking() {
        // Single-byte flips are always caught by the CRC; a *crafted*
        // header (NaN setup, CRC recomputed to match) must still come
        // back as Malformed — never reach Time::new's panic.
        let mut bytes = to_bytes(&table());
        // Layout: magic 8 + version 4 + header len 4, then the header
        // payload (setup bits first), then its CRC.
        let header_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        bytes[16..24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let crc = crc::crc32(&bytes[16..16 + header_len]);
        let crc_at = 16 + header_len;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn save_load_files_and_directories() {
        let dir = std::env::temp_dir().join(format!("cyclesteal-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cache = TableCache::new();
        let a = cache.get_compressed(secs(1.0), 8, secs(200.0), 2);
        let b = cache.get_compressed(secs(2.0), 4, secs(100.0), 1);
        assert_eq!(cache.snapshot_to_dir(&dir).unwrap(), 2);

        let warmed = TableCache::new();
        let report = warmed.warm_from_dir(&dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.skipped.is_empty());
        // Covering queries are now hits, and bit-identical to the solves.
        let wa = warmed.get_compressed(secs(1.0), 8, secs(200.0), 2);
        let wb = warmed.get_compressed(secs(2.0), 4, secs(100.0), 1);
        let s = warmed.stats();
        assert_eq!((s.hits, s.misses), (2, 0), "warm start skips the solve");
        assert_eq!(*wa, *a);
        assert_eq!(*wb, *b);

        // A corrupt file is quarantined (renamed `.corrupt`), not fatal.
        std::fs::write(dir.join("rotten.cst"), b"not a snapshot").unwrap();
        let partial = TableCache::new();
        let report = partial.warm_from_dir(&dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.skipped.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, dir.join("rotten.cst"));
        assert!(!dir.join("rotten.cst").exists());
        assert!(dir.join("rotten.cst.corrupt").exists());

        // The quarantined file no longer matches the glob: the next warm
        // start is clean.
        let report = TableCache::new().warm_from_dir(&dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.skipped.is_empty());
        assert!(report.quarantined.is_empty());

        // A missing directory is an empty warm start.
        let report = TableCache::new()
            .warm_from_dir(&dir.join("does-not-exist"))
            .unwrap();
        assert_eq!(report.loaded, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evict_hook_snapshots_what_the_budget_drops() {
        let dir = std::env::temp_dir().join(format!("cyclesteal-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cache = TableCache::new();
        cache.set_evict_hook(Some(evict_hook_to_dir(dir.clone())));
        let a = cache.get_compressed(secs(1.0), 8, secs(300.0), 2);
        cache.set_memory_budget(Some(1)); // evict everything
        assert_eq!(cache.stats().compressed_entries, 0);

        let warmed = TableCache::new();
        assert_eq!(warmed.warm_from_dir(&dir).unwrap().loaded, 1);
        let back = warmed.get_compressed(secs(1.0), 8, secs(300.0), 2);
        assert_eq!(warmed.stats().misses, 0);
        assert_eq!(*back, *a);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_retries_past_transient_injected_failures() {
        // NOTE: set_save_fault is process-global; this is the only unit
        // test in this crate that arms it, and it disarms before exiting.
        // The hooks only ever fire for this test's own path, so saves by
        // tests running concurrently are neither counted nor failed.
        let dir = std::env::temp_dir().join(format!("cyclesteal-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = table();
        let path = dir.join(snapshot_file_name(&t));

        // Fail the first attempt only: the retry succeeds.
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = calls.clone();
        let own = path.clone();
        set_save_fault(Some(Box::new(move |p| {
            p == own && c.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 0
        })));
        save(&t, &path).expect("retry rides past one transient failure");
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(load(&path).unwrap(), t);

        // Fail every attempt: the last error surfaces, no temp litter.
        let own = path.clone();
        set_save_fault(Some(Box::new(move |p| p == own)));
        assert!(matches!(save(&t, &path), Err(StoreError::Io(_))));
        set_save_fault(None);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXTENSION))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counting_evict_hook_counts_failures_without_propagating() {
        let dir =
            std::env::temp_dir().join(format!("cyclesteal-evict-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Make the directory path unusable: a *file* where the hook
        // wants a directory, so create_dir_all fails persistently.
        std::fs::write(&dir, b"in the way").unwrap();

        let failures = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let hook = evict_hook_to_dir_counting(dir.clone(), failures.clone());
        let t = Arc::new(table());
        hook(&t); // must not panic
        hook(&t);
        assert_eq!(failures.load(std::sync::atomic::Ordering::Relaxed), 2);

        std::fs::remove_file(&dir).unwrap();
    }
}
