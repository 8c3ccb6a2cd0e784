//! Append-only segmented log files: the byte layer under the durability
//! subsystem (`orthrus-durability`).
//!
//! The paper's prototype is main-memory only; this module is the storage
//! half of the reproduction's command-logging extension. It is
//! deliberately content-agnostic — payloads are opaque byte slices — so
//! the record framing, segment management, and crash-tail semantics can
//! be property-tested here without any transaction vocabulary.
//!
//! ## On-disk format
//!
//! A log is a directory of segments `seg-<index>.olog`, appended in index
//! order. Each segment starts with an 8-byte magic/version header
//! ([`SEGMENT_MAGIC`]); records follow back to back:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! A writer rolls to a fresh segment once the current one reaches its
//! byte budget (records are never split across segments). Records are
//! framed by the caller ([`frame_record`]) and written a batch at a time
//! ([`SegmentedLog::append_frames`]): one `write` per batch, cut between
//! records only where a segment fills. `std::fs` only — no external
//! dependencies.
//!
//! ## Crash semantics
//!
//! The reader ([`LogReader`]) accepts the longest **valid prefix**: it
//! stops at the first record whose length prefix is incomplete, whose
//! payload is shorter than its length, or whose checksum mismatches — a
//! *torn tail*, the signature of a crash mid-append — and at the first
//! segment whose header is cut or whose index does not follow its
//! predecessor's (a segment file is missing). Everything before the tear
//! is intact (checksummed), everything from it on is reported as dropped
//! bytes. [`truncate_to`] repairs a log in place at the position where a
//! reader stopped (truncates that segment, deletes every later one) so a
//! recovered log can be appended to again.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Segment header: magic + format version in one 8-byte stamp.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ORTHLOG1";

/// Default segment byte budget. Small enough that the segment-rolling
/// path is exercised by real runs, large enough that rolling is rare.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

/// Sanity cap on a single record's payload (a length prefix beyond this
/// is treated as corruption, not as a 4 GiB allocation request).
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Bytes of framing per record (length prefix + checksum).
pub const RECORD_OVERHEAD: u64 = 8;

/// The eight lookup tables of slice-by-8 CRC-32: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table of the reflected IEEE polynomial, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table reads fold eight input bytes at once. Built at compile
/// time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3), table-driven, eight bytes a step (slice-by-8;
/// the tail of fewer than eight bytes goes one at a time). Same
/// polynomial and output as the byte-at-a-time loop. Vendored: the
/// offline build environment has no registry access (see
/// `crates/shims/`). Shared with the checkpoint framing
/// (`checkpoint.rs`) and the TCP wire framing (`orthrus-net`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame one record at the end of `out` — `[len][crc32(payload)]
/// [payload]`, the on-disk record format — with the payload written in
/// place by `encode` (no copy). Returns the framed byte count. A
/// committing thread frames several records back to back into one
/// buffer and hands them to [`SegmentedLog::append_frames`] in one write.
pub fn frame_record(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let start = out.len();
    out.extend_from_slice(&[0u8; RECORD_OVERHEAD as usize]);
    encode(out);
    let body = start + RECORD_OVERHEAD as usize;
    let len = out.len() - body;
    assert!(
        len <= MAX_RECORD_BYTES as usize,
        "record payload exceeds the format cap"
    );
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    (out.len() - start) as u64
}

/// Framed length of the record that starts `frames` (its length prefix
/// plus [`RECORD_OVERHEAD`]).
fn framed_len(frames: &[u8]) -> u64 {
    let len = u32::from_le_bytes([frames[0], frames[1], frames[2], frames[3]]);
    RECORD_OVERHEAD + len as u64
}

/// Segment file name for `index`.
fn segment_name(index: u32) -> String {
    format!("seg-{index:06}.olog")
}

/// Parse a segment file's index out of its name.
fn segment_index_of(path: &Path) -> Option<u32> {
    path.file_name()?
        .to_str()?
        .strip_prefix("seg-")?
        .strip_suffix(".olog")?
        .parse()
        .ok()
}

/// The indices of a log directory's segments, in index order.
pub fn segment_indices(dir: &Path) -> io::Result<Vec<u32>> {
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some(idx) = segment_index_of(&entry?.path()) {
            indices.push(idx);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// List a log directory's segments with their indices, in index order.
pub fn indexed_segment_paths(dir: &Path) -> io::Result<Vec<(u32, PathBuf)>> {
    Ok(segment_indices(dir)?
        .into_iter()
        .map(|idx| (idx, dir.join(segment_name(idx))))
        .collect())
}

/// List a log directory's segments in index order.
pub fn segment_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(indexed_segment_paths(dir)?
        .into_iter()
        .map(|(_, p)| p)
        .collect())
}

/// A position in the log, stable across segment GC: the segment's
/// **index** (not its rank in the directory — earlier segments may have
/// been truncated away) plus a byte offset *within* that segment's file,
/// magic header included. Checkpoints record one of these; recovery
/// resumes reading there via [`LogReader::open_at`]. The derived ordering
/// (segment index first, then offset) is log order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogPos {
    /// Index encoded in the segment's file name (`seg-NNNNNN.olog`).
    pub seg_index: u32,
    /// Byte offset within that segment, [`SEGMENT_MAGIC`] included.
    pub offset: u64,
}

impl LogPos {
    /// The position before any record of a fresh log.
    pub fn start() -> LogPos {
        LogPos {
            seg_index: 0,
            offset: SEGMENT_MAGIC.len() as u64,
        }
    }
}

/// Delete every segment whose index is **below** `seg_index` — the
/// truncation pass after a checkpoint has made those records redundant.
/// Returns how many segments were removed. The caller must guarantee no
/// live reader needs them (a checkpoint at a [`LogPos`] inside
/// `seg_index` does exactly that).
pub fn remove_segments_below(dir: &Path, seg_index: u32) -> io::Result<u64> {
    let mut removed = 0u64;
    for (idx, path) in indexed_segment_paths(dir)? {
        if idx < seg_index {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    if removed > 0 {
        // The unlinks must survive power loss, or a resurrected segment
        // would sit in front of the checkpoint's suffix at next replay.
        sync_dir(dir)?;
    }
    Ok(removed)
}

/// An append-only segmented log writer. Single-writer by construction
/// (`&mut self` appends); `orthrus-durability` serializes engine threads
/// in front of it.
pub struct SegmentedLog {
    dir: PathBuf,
    segment_bytes: u64,
    file: File,
    seg_index: u32,
    /// Bytes in the current segment, header included.
    seg_len: u64,
}

impl SegmentedLog {
    /// Open `dir` for appending, creating it (and the first segment) if
    /// needed. An existing log is continued at its physical end — callers
    /// recovering after a crash must first cut it where a [`LogReader`]
    /// stopped ([`truncate_to`]), or new records would hide behind the
    /// tear forever.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<Self> {
        assert!(
            segment_bytes > SEGMENT_MAGIC.len() as u64 + RECORD_OVERHEAD,
            "segment budget below one record's framing"
        );
        std::fs::create_dir_all(dir)?;
        let segments = indexed_segment_paths(dir)?;
        // The index comes from the *file name*, not the directory count:
        // after checkpoint GC the surviving segments no longer start at 0,
        // and a count-derived index would mint clashing names.
        let (seg_index, path) = match segments.last() {
            Some((idx, last)) => (*idx, last.clone()),
            None => (0, dir.join(segment_name(0))),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let mut seg_len = file.metadata()?.len();
        if seg_len == 0 {
            file.write_all(&SEGMENT_MAGIC)?;
            seg_len = SEGMENT_MAGIC.len() as u64;
            // Make the new file's directory entry durable: without this a
            // power loss can forget the whole segment even though its
            // *data* was fsynced (the "delivered completion implies
            // durable" contract of log+fsync hangs on it).
            sync_dir(dir)?;
        }
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            segment_bytes,
            file,
            seg_index,
            seg_len,
        })
    }

    /// Append one record; returns the framed byte count written. One
    /// `write`: the record is framed ([`frame_record`]) and handed to
    /// [`Self::append_frames`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut frame = Vec::with_capacity(RECORD_OVERHEAD as usize + payload.len());
        frame_record(&mut frame, |out| out.extend_from_slice(payload));
        self.append_frames(&frame)
    }

    /// Whether a record of `framed` bytes must start a fresh segment: the
    /// current one already holds a record and would grow past its budget
    /// (a record never splits across segments; an oversized one gets a
    /// segment of its own).
    fn must_roll_before(&self, seg_len: u64, framed: u64) -> bool {
        seg_len > SEGMENT_MAGIC.len() as u64 && seg_len + framed > self.segment_bytes
    }

    /// Append records already framed back to back ([`frame_record`]);
    /// returns the bytes written. One `write` for the whole batch while
    /// it fits the current segment; where the budget runs out the batch
    /// is cut **between** records, the segment is rolled, and the rest
    /// continues in the next one — exactly the layout per-record
    /// [`Self::append`] calls would leave.
    pub fn append_frames(&mut self, frames: &[u8]) -> io::Result<u64> {
        let (mut written, mut at) = (0usize, 0usize);
        let mut seg_len = self.seg_len;
        while at < frames.len() {
            let framed = framed_len(&frames[at..]);
            if self.must_roll_before(seg_len, framed) {
                self.file.write_all(&frames[written..at])?;
                self.seg_len = seg_len;
                self.roll()?;
                written = at;
                seg_len = self.seg_len;
            }
            seg_len += framed;
            at += framed as usize;
        }
        debug_assert_eq!(at, frames.len(), "a frame runs past the batch");
        self.file.write_all(&frames[written..])?;
        self.seg_len = seg_len;
        Ok(frames.len() as u64)
    }

    /// Append a **torn** batch: write only the first `keep` bytes of
    /// `frames` (records framed as for [`Self::append_frames`]), exactly
    /// the physical state a crash mid-write leaves behind.
    /// Fault-injection primitive — the resulting tail fails the scan and
    /// must be repaired before further appends. Returns how many bytes
    /// actually landed.
    pub fn append_torn(&mut self, frames: &[u8], keep: u64) -> io::Result<u64> {
        if !frames.is_empty() && self.must_roll_before(self.seg_len, framed_len(frames)) {
            self.roll()?;
        }
        let keep = keep.min(frames.len() as u64) as usize;
        self.file.write_all(&frames[..keep])?;
        self.seg_len += keep as u64;
        Ok(keep as u64)
    }

    /// Force appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// A second handle on the current segment, for an `fdatasync` that
    /// must not hold up appends: syncing it covers every record appended
    /// so far, since a roll syncs the segment it closes.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Close the current segment (syncing it) and start the next one.
    fn roll(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.seg_index += 1;
        let path = self.dir.join(segment_name(self.seg_index));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .read(true)
            .open(&path)?;
        file.write_all(&SEGMENT_MAGIC)?;
        // Directory-entry durability for the fresh segment (see open()).
        sync_dir(&self.dir)?;
        self.file = file;
        self.seg_len = SEGMENT_MAGIC.len() as u64;
        Ok(())
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current append position (end of the last written byte). Every
    /// record appended so far ends at or before this position.
    pub fn position(&self) -> LogPos {
        LogPos {
            seg_index: self.seg_index,
            offset: self.seg_len,
        }
    }
}

/// Fsync a directory so freshly created entries survive power loss.
/// Directory fds are a Unix notion; elsewhere this is a best-effort
/// no-op (the containers this reproduction targets are Linux).
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Why reading stopped before the physical end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TornTail {
    /// A record's framing or payload was cut short (crash mid-append).
    Truncated,
    /// A record's checksum mismatched (partial overwrite / bit rot).
    BadChecksum,
    /// A segment's magic header was missing or short.
    BadSegmentHeader,
    /// A segment's index does not follow its predecessor's: the file
    /// between them is gone, and nothing behind the gap replays in order.
    MissingSegment,
}

/// The outcome of scanning a log directory.
#[derive(Debug)]
pub struct LogScan {
    /// Every valid payload, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Framed bytes of the valid record prefix (per record: length
    /// prefix, checksum, and payload), summed over segments. Segment
    /// magic headers are **excluded**, so this is *not* a physical
    /// offset — crash points come from [`LogScan::record_ends`] (or
    /// [`LogReader::last_record_end`]), which do include headers.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (the torn tail plus any later
    /// segments), `0` for a clean log.
    pub dropped_bytes: u64,
    /// Why the scan stopped early, if it did.
    pub tear: Option<TornTail>,
    /// Global byte offset (across concatenated segments) at the end of
    /// each valid record — the crash points a failpoint test scripts.
    pub record_ends: Vec<u64>,
}

/// A streaming log reader: yields valid payloads in log order while
/// holding **one segment** in memory at a time, so recovery of a
/// multi-gigabyte log needs `O(segment_bytes)` RAM, not `O(log)`.
/// Stops at the first tear (see [`TornTail`]); [`Self::tear`] and
/// [`Self::dropped_bytes`] describe the tail after the stream ends, and
/// [`Self::position`] is where a repair ([`truncate_to`]) cuts.
pub struct LogReader {
    dir: PathBuf,
    /// Segment indices in index order; a path is derived when a segment
    /// loads, so what the reader keeps per segment is four bytes.
    segments: Vec<u32>,
    /// Rank (in `segments`) of the next segment to load.
    next_seg: usize,
    /// The currently loaded segment's bytes (empty before the first
    /// load).
    bytes: Vec<u8>,
    pos: usize,
    /// Segment index (file-name index) of the currently loaded segment.
    cur_index: u32,
    /// In-segment byte offset to start reading the *first* loaded
    /// segment at (a checkpoint's resume position); later segments start
    /// after their magic header.
    start_offset: Option<u64>,
    /// Physical bytes of fully consumed (or skipped) earlier segments.
    consumed_prior: u64,
    /// Physical end offset (headers included) of the last yielded
    /// record; [`SEGMENT_MAGIC`]-sized before any record (the repair
    /// cut for a log whose very first record is bad keeps the header).
    last_record_end: u64,
    /// GC-stable position of the last yielded record's end.
    mark: LogPos,
    valid_bytes: u64,
    tear: Option<TornTail>,
    done: bool,
}

impl LogReader {
    /// Open `dir` for reading. A missing directory reads as an empty log
    /// (recovery from "never ran" is not an error).
    pub fn open(dir: &Path) -> io::Result<Self> {
        let segments = match segment_indices(dir) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let first_index = segments.first().copied().unwrap_or(0);
        Ok(LogReader {
            dir: dir.to_path_buf(),
            segments,
            next_seg: 0,
            bytes: Vec::new(),
            pos: 0,
            cur_index: first_index,
            start_offset: None,
            consumed_prior: 0,
            last_record_end: SEGMENT_MAGIC.len() as u64,
            mark: LogPos {
                seg_index: first_index,
                offset: SEGMENT_MAGIC.len() as u64,
            },
            valid_bytes: 0,
            tear: None,
            done: false,
        })
    }

    /// Open `dir` for reading **from `pos` on** — the suffix replay a
    /// checkpoint enables. Segments below `pos.seg_index` are skipped
    /// (they may already be GC'd); reading starts at `pos.offset` inside
    /// segment `pos.seg_index`. Errors with `InvalidData` when the log
    /// physically ends before `pos` (a checkpoint pointing past the log
    /// is corrupt — callers fall back to an older checkpoint) or has no
    /// segment `pos.seg_index`: a full-log replay opens at
    /// [`LogPos::start`], so a log whose segment 0 is gone is refused
    /// here rather than replayed from a later segment. A segment's very
    /// start stays a valid position when a crash cut its header; the
    /// stream reports that as a tear.
    pub fn open_at(dir: &Path, pos: LogPos) -> io::Result<Self> {
        let mut reader = Self::open(dir)?;
        // Skip whole segments before the position, keeping the global
        // physical offset honest for `last_record_end`.
        let mut skipped_bytes = 0u64;
        let mut skip = 0usize;
        for &idx in &reader.segments {
            if idx >= pos.seg_index {
                break;
            }
            skipped_bytes += std::fs::metadata(reader.segment_path(idx))?.len();
            skip += 1;
        }
        let corrupt =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("log suffix: {what}"));
        match reader.segments.get(skip) {
            Some(&idx) => {
                if idx != pos.seg_index {
                    return Err(corrupt("resume segment missing"));
                }
                let len = std::fs::metadata(reader.segment_path(idx))?.len();
                if pos.offset > SEGMENT_MAGIC.len() as u64 && len < pos.offset {
                    return Err(corrupt("resume position past segment end"));
                }
            }
            None => {
                // An empty suffix is fine only when the position is the
                // very start of a (still) empty log.
                if !reader.segments.is_empty() || pos != LogPos::start() {
                    return Err(corrupt("resume segment missing"));
                }
            }
        }
        reader.next_seg = skip;
        reader.consumed_prior = skipped_bytes;
        reader.cur_index = pos.seg_index;
        reader.start_offset = Some(pos.offset.max(SEGMENT_MAGIC.len() as u64));
        reader.last_record_end = skipped_bytes + pos.offset;
        reader.mark = pos;
        Ok(reader)
    }

    /// The next valid payload, or `None` at end of log *or* at a tear —
    /// check [`Self::tear`] to distinguish.
    pub fn next_record(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if self.done {
                return Ok(None);
            }
            if self.pos == self.bytes.len() {
                // Clean segment boundary (or first call): load the next.
                self.consumed_prior += self.bytes.len() as u64;
                let Some(&idx) = self.segments.get(self.next_seg) else {
                    self.done = true;
                    return Ok(None);
                };
                // A loaded segment is never empty (it has its header), so
                // a non-empty buffer means this is not the first load.
                if !self.bytes.is_empty() && idx != self.cur_index + 1 {
                    return Ok(self.stop(TornTail::MissingSegment));
                }
                self.next_seg += 1;
                self.bytes.clear();
                File::open(self.segment_path(idx))?.read_to_end(&mut self.bytes)?;
                if self.bytes.len() < SEGMENT_MAGIC.len()
                    || self.bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC
                {
                    return Ok(self.stop(TornTail::BadSegmentHeader));
                }
                self.cur_index = idx;
                // A checkpoint resume position applies to the first
                // loaded segment only; `open_at` validated it in bounds.
                self.pos = match self.start_offset.take() {
                    Some(off) => off as usize,
                    None => SEGMENT_MAGIC.len(),
                };
                continue;
            }
            return Ok(match read_record(&self.bytes, self.pos) {
                Some((Some(payload), next)) => {
                    self.valid_bytes += (next - self.pos) as u64;
                    self.pos = next;
                    self.last_record_end = self.consumed_prior + next as u64;
                    self.mark = LogPos {
                        seg_index: self.cur_index,
                        offset: next as u64,
                    };
                    Some(payload)
                }
                Some((None, _)) => self.stop(TornTail::BadChecksum),
                None => self.stop(TornTail::Truncated),
            });
        }
    }

    /// End the stream at a tear.
    fn stop(&mut self, tear: TornTail) -> Option<Vec<u8>> {
        self.tear = Some(tear);
        self.done = true;
        None
    }

    fn segment_path(&self, idx: u32) -> PathBuf {
        self.dir.join(segment_name(idx))
    }

    /// Why the stream stopped early, if it did.
    pub fn tear(&self) -> Option<&TornTail> {
        self.tear.as_ref()
    }

    /// Framed record bytes yielded so far (segment headers excluded).
    pub fn valid_bytes(&self) -> u64 {
        self.valid_bytes
    }

    /// Physical end offset of the last yielded record (headers
    /// included) — the `truncate_at` cut that keeps exactly the records
    /// seen so far.
    pub fn last_record_end(&self) -> u64 {
        self.last_record_end
    }

    /// GC-stable [`LogPos`] of the last yielded record's end — what a
    /// checkpoint records so a later replay can resume exactly here.
    pub fn position(&self) -> LogPos {
        self.mark
    }

    /// Bytes past the valid prefix (torn-tail remainder of the current
    /// segment plus every unread segment). Call after the stream ends.
    pub fn dropped_bytes(&self) -> io::Result<u64> {
        let mut total = if self.tear == Some(TornTail::BadSegmentHeader) {
            self.bytes.len() as u64
        } else {
            (self.bytes.len() - self.pos) as u64
        };
        for &idx in &self.segments[self.next_seg.min(self.segments.len())..] {
            total += std::fs::metadata(self.segment_path(idx))?.len();
        }
        Ok(total)
    }
}

/// Scan `dir` eagerly and return the longest valid record prefix (every
/// payload materialized — tests and small logs; recovery streams through
/// [`LogReader`] instead).
pub fn scan(dir: &Path) -> io::Result<LogScan> {
    let mut reader = LogReader::open(dir)?;
    let mut out = LogScan {
        payloads: Vec::new(),
        valid_bytes: 0,
        dropped_bytes: 0,
        tear: None,
        record_ends: Vec::new(),
    };
    while let Some(payload) = reader.next_record()? {
        out.payloads.push(payload);
        out.record_ends.push(reader.last_record_end());
    }
    out.valid_bytes = reader.valid_bytes();
    out.tear = reader.tear().cloned();
    out.dropped_bytes = reader.dropped_bytes()?;
    Ok(out)
}

/// Parse one record at `pos`. `None` = framing cut short;
/// `Some((None, _))` = checksum mismatch; `Some((Some(payload), next))` =
/// valid.
#[allow(clippy::type_complexity)]
fn read_record(bytes: &[u8], pos: usize) -> Option<(Option<Vec<u8>>, usize)> {
    let rest = &bytes[pos..];
    if rest.len() < RECORD_OVERHEAD as usize {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return Some((None, pos)); // nonsense length = corruption
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let body = &rest[RECORD_OVERHEAD as usize..];
    if body.len() < len as usize {
        return None;
    }
    let payload = &body[..len as usize];
    if crc32(payload) != crc {
        return Some((None, pos));
    }
    Some((
        Some(payload.to_vec()),
        pos + RECORD_OVERHEAD as usize + len as usize,
    ))
}

/// Repair a crashed log in place: make `end` — where a [`LogReader`]
/// stopped ([`LogReader::position`]) — the log's physical end. The
/// segment holding `end` is cut there and every later segment is
/// deleted, so nothing sits between the replayable prefix and the next
/// append; segments below `end` are not touched. A cut at a segment's
/// very start also rewrites its header, which the crash may have cut.
pub fn truncate_to(dir: &Path, end: LogPos) -> io::Result<()> {
    for (idx, path) in indexed_segment_paths(dir)? {
        if idx > end.seg_index {
            std::fs::remove_file(path)?;
        }
    }
    let mut f = OpenOptions::new()
        .write(true)
        .open(dir.join(segment_name(end.seg_index)))?;
    f.set_len(end.offset)?;
    if end.offset == SEGMENT_MAGIC.len() as u64 {
        f.write_all(&SEGMENT_MAGIC)?;
    }
    f.sync_data()?;
    // Make the unlinks durable: a resurrected segment would sit behind
    // the repaired tail and hijack the append position.
    sync_dir(dir)
}

/// Cut the log at a **global physical byte offset** (concatenated
/// segments, headers included): the failpoint primitive crash tests
/// script. Truncates the segment the offset lands in and deletes every
/// later segment — exactly what a crash after `offset` durable bytes
/// leaves behind.
pub fn truncate_at(dir: &Path, offset: u64) -> io::Result<()> {
    let segments = segment_paths(dir)?;
    let mut start = 0u64;
    let mut cut = false;
    for path in &segments {
        let len = std::fs::metadata(path)?.len();
        if cut {
            std::fs::remove_file(path)?;
            continue;
        }
        if offset < start + len {
            let local = offset - start;
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(local)?;
            f.sync_data()?;
            cut = true;
        }
        start += len;
    }
    if cut {
        // As in [`truncate_to`]: deleted segments must stay
        // deleted across power loss.
        sync_dir(dir)?;
    }
    Ok(())
}

/// Total physical bytes across the log's segments.
pub fn total_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for path in segment_paths(dir)? {
        total += std::fs::metadata(path)?.len();
    }
    Ok(total)
}

/// Whether the log's physical tail is clean — a reader started at its
/// last segment reaches the end without a tear (an empty log is clean).
/// Cheap: reads one segment. The append layer checks this before
/// continuing a log, because records appended behind a tear are
/// unreachable to every future replay. A tear hiding in an *earlier*
/// segment, or a missing segment (possible only through external
/// mutilation, never through a crash), is caught by replay itself.
pub fn tail_is_clean(dir: &Path) -> io::Result<bool> {
    let Some(&seg_index) = LogReader::open(dir)?.segments.last() else {
        return Ok(true);
    };
    let start = LogPos {
        seg_index,
        offset: SEGMENT_MAGIC.len() as u64,
    };
    let mut reader = LogReader::open_at(dir, start)?;
    while reader.next_record()?.is_some() {}
    Ok(reader.tear().is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::TempDir;

    fn write_log(dir: &Path, payloads: &[&[u8]], segment_bytes: u64) {
        let mut log = SegmentedLog::open(dir, segment_bytes).unwrap();
        for p in payloads {
            log.append(p).unwrap();
        }
        log.sync().unwrap();
    }

    /// Cut the log where a reader stops — the repair recovery makes.
    fn repair(dir: &Path) {
        let mut reader = LogReader::open(dir).unwrap();
        while reader.next_record().unwrap().is_some() {}
        truncate_to(dir, reader.position()).unwrap();
    }

    #[test]
    fn roundtrip_preserves_order_and_bytes() {
        let t = TempDir::new("seglog");
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-gamma", b"\x00\xFF"];
        write_log(t.path(), &payloads, DEFAULT_SEGMENT_BYTES);
        let scan = scan(t.path()).unwrap();
        assert_eq!(scan.tear, None);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(
            scan.payloads,
            payloads.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(scan.record_ends.len(), payloads.len());
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let t = TempDir::new("seglog");
        write_log(t.path(), &[b"one"], DEFAULT_SEGMENT_BYTES);
        write_log(t.path(), &[b"two"], DEFAULT_SEGMENT_BYTES);
        let scan = scan(t.path()).unwrap();
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn rolling_splits_segments_but_not_records() {
        let t = TempDir::new("seglog");
        // Budget fits roughly one 32-byte record per segment.
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        write_log(t.path(), &refs, 48);
        let segs = segment_paths(t.path()).unwrap();
        assert!(segs.len() >= 5, "tiny budget must roll: {}", segs.len());
        let scan = scan(t.path()).unwrap();
        assert_eq!(scan.tear, None);
        assert_eq!(scan.payloads, payloads);
    }

    #[test]
    fn torn_payload_drops_only_the_tail() {
        let t = TempDir::new("seglog");
        write_log(
            t.path(),
            &[b"first", b"second", b"third"],
            DEFAULT_SEGMENT_BYTES,
        );
        let full = total_bytes(t.path()).unwrap();
        // Cut 2 bytes into the last record's payload.
        truncate_at(t.path(), full - 2).unwrap();
        let torn = scan(t.path()).unwrap();
        assert_eq!(torn.payloads, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(torn.tear, Some(TornTail::Truncated));
        assert!(torn.dropped_bytes > 0);
        // Repair, then append again: the log stitches cleanly.
        repair(t.path());
        write_log(t.path(), &[b"fourth"], DEFAULT_SEGMENT_BYTES);
        let stitched = scan(t.path()).unwrap();
        assert_eq!(
            stitched.payloads,
            vec![b"first".to_vec(), b"second".to_vec(), b"fourth".to_vec()]
        );
        assert_eq!(stitched.tear, None);
    }

    #[test]
    fn corrupt_byte_stops_at_the_bad_record() {
        let t = TempDir::new("seglog");
        write_log(t.path(), &[b"aaaa", b"bbbb"], DEFAULT_SEGMENT_BYTES);
        // Flip one byte inside the second record's payload.
        let seg = &segment_paths(t.path()).unwrap()[0];
        let mut bytes = std::fs::read(seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(seg, &bytes).unwrap();
        let scan = scan(t.path()).unwrap();
        assert_eq!(scan.payloads, vec![b"aaaa".to_vec()]);
        assert_eq!(scan.tear, Some(TornTail::BadChecksum));
    }

    #[test]
    fn truncation_inside_earlier_segment_drops_later_segments() {
        let t = TempDir::new("seglog");
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        write_log(t.path(), &refs, 48);
        assert!(segment_paths(t.path()).unwrap().len() >= 3);
        // Cut mid-way through the physical stream: later segments must go.
        let full = total_bytes(t.path()).unwrap();
        truncate_at(t.path(), full / 2).unwrap();
        let torn = scan(t.path()).unwrap();
        assert!(torn.payloads.len() < payloads.len());
        assert_eq!(torn.payloads, payloads[..torn.payloads.len()].to_vec());
        repair(t.path());
        let repaired = scan(t.path()).unwrap();
        assert_eq!(repaired.tear, None);
        assert_eq!(repaired.payloads.len(), torn.payloads.len());
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let t = TempDir::new("seglog");
        let ghost = t.path().join("never-created");
        let s = scan(&ghost).unwrap();
        assert!(s.payloads.is_empty());
        assert_eq!(s.tear, None);
    }

    #[test]
    fn open_at_resumes_exactly_where_a_reader_stopped() {
        let t = TempDir::new("seglog");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 24]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        write_log(t.path(), &refs, 64); // tiny budget: crosses segments
        let mut reader = LogReader::open(t.path()).unwrap();
        for _ in 0..3 {
            reader.next_record().unwrap().unwrap();
        }
        let pos = reader.position();
        let mut rest = Vec::new();
        let mut resumed = LogReader::open_at(t.path(), pos).unwrap();
        while let Some(p) = resumed.next_record().unwrap() {
            rest.push(p);
        }
        assert_eq!(rest, payloads[3..].to_vec());
        assert_eq!(resumed.tear(), None);
    }

    #[test]
    fn open_at_rejects_positions_past_the_physical_log() {
        let t = TempDir::new("seglog");
        write_log(t.path(), &[b"only"], DEFAULT_SEGMENT_BYTES);
        let beyond = LogPos {
            seg_index: 0,
            offset: total_bytes(t.path()).unwrap() + 64,
        };
        let err = LogReader::open_at(t.path(), beyond).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let missing_seg = LogPos {
            seg_index: 7,
            offset: SEGMENT_MAGIC.len() as u64,
        };
        let err = LogReader::open_at(t.path(), missing_seg).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Start-of-log over an empty directory is the one empty-suffix case.
        let empty = t.path().join("fresh");
        std::fs::create_dir_all(&empty).unwrap();
        let mut r = LogReader::open_at(&empty, LogPos::start()).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn gc_preserves_indices_and_reopen_appends_past_them() {
        let t = TempDir::new("seglog");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 24]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        write_log(t.path(), &refs, 64);
        let before = indexed_segment_paths(t.path()).unwrap();
        assert!(before.len() >= 3, "budget must roll: {}", before.len());
        let cut = before[2].0;
        let removed = remove_segments_below(t.path(), cut).unwrap();
        assert_eq!(removed, 2);
        // Reopen for appending: the writer must continue at the *named*
        // index of the last survivor, not at survivor-count - 1 (which
        // would collide with live segments after GC).
        write_log(t.path(), &[b"post-gc"], 64);
        let after = indexed_segment_paths(t.path()).unwrap();
        assert!(after.iter().all(|&(i, _)| i >= cut));
        assert_eq!(
            after.len(),
            before.len() - 2,
            "append reused the last survivor, no index clash"
        );
        // The surviving suffix + new record reads back cleanly from the
        // position the GC cut at.
        let resume = LogPos {
            seg_index: cut,
            offset: SEGMENT_MAGIC.len() as u64,
        };
        let mut reader = LogReader::open_at(t.path(), resume).unwrap();
        let mut got = Vec::new();
        while let Some(p) = reader.next_record().unwrap() {
            got.push(p);
        }
        assert_eq!(reader.tear(), None);
        assert_eq!(*got.last().unwrap(), b"post-gc".to_vec());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // One byte (the tail loop alone), and whole words plus a tail.
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
