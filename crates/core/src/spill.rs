//! Columnar on-disk spill files for the out-of-core pipeline.
//!
//! The streaming analysis path generates events directly into compact
//! on-disk *spill files* instead of materializing them in memory, then
//! folds those files back shard by shard. A spill file is a sequence of
//! CRC32-sealed [`journal`](crate::journal) lines; each line frames one
//! *chunk* — a batch of rows stored column by column as delta-encoded
//! zigzag varints, base64-armored so the sealed line stays valid UTF-8:
//!
//! ```text
//! {crc32:08x} c <kind> <cols> <base64(varint-columns)>
//! ```
//!
//! Each column carries its own length, so columns in one chunk may
//! differ in length. Corruption never produces a wrong number: a chunk
//! whose seal or encoding is damaged is quarantined (counted, skipped),
//! and a torn final line — the signature of a killed writer — is
//! reported as a truncated tail rather than an error.
//!
//! [`ShardPlan`] carves the user-id space into contiguous ranges so that
//! per-shard files, folded in shard order, replay events in globally
//! ascending user order — the invariant the affinity analyses rely on.

use crate::faults::{self, FaultKind};
use crate::journal::{seal, unseal, LossyLines};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Injection site: one sealed chunk appended to a spill file.
pub const SITE_SPILL_WRITE: &str = "core.spill.write";

// --- varint / zigzag / base64 codec ----------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(BASE64_ALPHABET[(triple >> 18) as usize & 0x3F] as char);
        out.push(BASE64_ALPHABET[(triple >> 12) as usize & 0x3F] as char);
        if chunk.len() > 1 {
            out.push(BASE64_ALPHABET[(triple >> 6) as usize & 0x3F] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(BASE64_ALPHABET[triple as usize & 0x3F] as char);
        } else {
            out.push('=');
        }
    }
    out
}

fn base64_decode(text: &str) -> Option<Vec<u8>> {
    fn value_of(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for quad in bytes.chunks(4) {
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || quad[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut triple = 0u32;
        for &c in &quad[..4 - pad] {
            triple = (triple << 6) | value_of(c)?;
        }
        triple <<= 6 * pad;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Some(out)
}

/// Encodes columns (independent lengths allowed) into a chunk payload:
/// `"c <kind> <cols> <base64>"`, ready for sealing.
pub fn encode_chunk(kind: &str, columns: &[&[u64]]) -> String {
    let mut body = Vec::new();
    for column in columns {
        push_varint(&mut body, column.len() as u64);
        let mut previous = 0i64;
        for &value in *column {
            let current = value as i64;
            push_varint(&mut body, zigzag(current.wrapping_sub(previous)));
            previous = current;
        }
    }
    format!("c {kind} {} {}", columns.len(), base64_encode(&body))
}

/// Decodes a chunk payload produced by [`encode_chunk`]. Returns the
/// chunk kind and its columns, or `None` on any structural damage.
pub fn decode_chunk(payload: &str) -> Option<(String, Vec<Vec<u64>>)> {
    let mut parts = payload.splitn(4, ' ');
    if parts.next()? != "c" {
        return None;
    }
    let kind = parts.next()?.to_string();
    let cols: usize = parts.next()?.parse().ok()?;
    let body = base64_decode(parts.next()?)?;
    let mut pos = 0usize;
    let mut columns = Vec::with_capacity(cols);
    for _ in 0..cols {
        let len = read_varint(&body, &mut pos)? as usize;
        // A damaged length varint could claim an absurd column; bound it
        // by what the remaining bytes could possibly hold (≥1 byte each).
        if len > body.len().saturating_sub(pos) {
            return None;
        }
        let mut column = Vec::with_capacity(len);
        let mut previous = 0i64;
        for _ in 0..len {
            let delta = unzigzag(read_varint(&body, &mut pos)?);
            previous = previous.wrapping_add(delta);
            column.push(previous as u64);
        }
        columns.push(column);
    }
    if pos != body.len() {
        return None;
    }
    Some((kind, columns))
}

// --- shard plan ------------------------------------------------------

/// Carves `users` ids into `shards` contiguous ascending ranges.
///
/// Ranges are half-open `[start, end)` over raw user ids; every id maps
/// to exactly one shard and concatenating shards in index order covers
/// ids in ascending order — the property that makes per-shard folds
/// order-equivalent to a single global pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    users: u64,
    width: u64,
    shards: usize,
}

impl ShardPlan {
    /// Plans `shards` ranges over ids `0..users`. `shards` is clamped to
    /// at least 1; empty id spaces get one empty shard.
    pub fn new(users: u64, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let width = users.div_ceil(shards as u64).max(1);
        ShardPlan {
            users,
            width,
            shards,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `user`. Ids at or past `users` land in the last
    /// shard, so late-registered ids (spam users) still have a home.
    pub fn shard_of(&self, user: u64) -> usize {
        ((user / self.width) as usize).min(self.shards - 1)
    }

    /// Half-open id range `[start, end)` of shard `shard`.
    pub fn range_of(&self, shard: usize) -> (u64, u64) {
        let start = self.width * shard as u64;
        let end = if shard + 1 == self.shards {
            u64::MAX
        } else {
            self.width * (shard as u64 + 1)
        };
        (start.min(self.users), end)
    }
}

// --- writer ----------------------------------------------------------

/// Appends sealed columnar chunks to one spill file.
///
/// The writer consults the fault injector at [`SITE_SPILL_WRITE`] once
/// per chunk (the chunk ordinal is the site index): an `IoError` is
/// retried once and only then surfaces; a `PartialWrite` leaves a torn,
/// newline-less prefix of the sealed line on disk; `Corrupt` flips one
/// payload byte after sealing, so the reader's CRC check must catch it.
pub struct SpillWriter {
    writer: BufWriter<File>,
    chunks: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Creates (truncating) the spill file at `path`.
    pub fn create(path: &Path) -> std::io::Result<SpillWriter> {
        Ok(SpillWriter {
            writer: BufWriter::new(File::create(path)?),
            chunks: 0,
            bytes: 0,
        })
    }

    /// Seals and appends one chunk. Returns the bytes appended.
    pub fn append(&mut self, kind: &str, columns: &[&[u64]]) -> std::io::Result<u64> {
        let index = self.chunks;
        self.chunks += 1;
        let mut line = seal(&encode_chunk(kind, columns)).into_bytes();
        let mut fault = faults::roll(SITE_SPILL_WRITE, index, 0);
        if fault == Some(FaultKind::IoError) {
            // Retry-once semantics, matching the journal writers: an
            // `AtIndex` rule clears on attempt 1, a second failure is real.
            fault = faults::roll(SITE_SPILL_WRITE, index, 1);
            if fault == Some(FaultKind::IoError) {
                return Err(std::io::Error::other("injected spill write failure"));
            }
        }
        match fault {
            Some(FaultKind::PartialWrite) => {
                // Torn write: half the sealed line, no newline — exactly
                // what a kill mid-append leaves behind.
                let keep = (line.len() / 2).max(1);
                line.truncate(keep);
                self.writer.write_all(&line)?;
                self.bytes += line.len() as u64;
                return Ok(line.len() as u64);
            }
            Some(FaultKind::Corrupt) => {
                // Flip a payload byte *after* sealing so the CRC check
                // must be the thing that catches it.
                let at = 9 + (index as usize % (line.len() - 9));
                line[at] ^= 0x20;
            }
            _ => {}
        }
        line.push(b'\n');
        self.writer.write_all(&line)?;
        self.bytes += line.len() as u64;
        Ok(line.len() as u64)
    }

    /// Chunks appended so far (including torn/corrupted ones).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes buffered chunks and closes the writer, reporting totals
    /// to the volatile spill counters.
    pub fn finish(mut self) -> std::io::Result<(u64, u64)> {
        self.writer.flush()?;
        appstore_obs::counter_volatile(appstore_obs::names::SPILL_CHUNKS_WRITTEN, self.chunks);
        appstore_obs::counter_volatile(appstore_obs::names::SPILL_BYTES_WRITTEN, self.bytes);
        Ok((self.chunks, self.bytes))
    }
}

// --- reader ----------------------------------------------------------

/// What a [`SpillReader`] saw while scanning one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillHealth {
    /// Chunks decoded successfully.
    pub chunks_read: u64,
    /// Chunks skipped: seal mismatch or undecodable payload.
    pub quarantined: u64,
    /// True when the final line was torn (no newline / damaged) — the
    /// signature of a writer killed mid-append.
    pub torn_tail: bool,
}

/// Streams decoded chunks back out of a spill file.
///
/// Damage is contained, never propagated: an interior bad line counts as
/// quarantined and is skipped; a bad *final* line is reported as a torn
/// tail. Either way `next_chunk` keeps returning only verified chunks.
pub struct SpillReader {
    lines: std::iter::Peekable<LossyLines<BufReader<File>>>,
    health: SpillHealth,
    bytes_read: u64,
}

impl SpillReader {
    /// Opens the spill file at `path`.
    pub fn open(path: &Path) -> std::io::Result<SpillReader> {
        Ok(SpillReader {
            lines: LossyLines::new(BufReader::new(File::open(path)?)).peekable(),
            health: SpillHealth::default(),
            bytes_read: 0,
        })
    }

    /// The next verified chunk `(kind, columns)`, or `None` at the end
    /// of the readable file.
    pub fn next_chunk(&mut self) -> Option<(String, Vec<Vec<u64>>)> {
        loop {
            let line = match self.lines.next()? {
                Ok((line, raw_len)) => {
                    self.bytes_read += raw_len as u64;
                    line
                }
                // An I/O error ends the readable region; treat it like a
                // torn tail. (A non-UTF-8 line is only a bad seal.)
                Err(_) => {
                    self.health.torn_tail = true;
                    return None;
                }
            };
            match unseal(&line).and_then(decode_chunk) {
                Some(chunk) => {
                    self.health.chunks_read += 1;
                    return Some(chunk);
                }
                None if self.lines.peek().is_none() => {
                    // Damage on the last line is a torn tail, not silent
                    // data loss in the middle of the file.
                    self.health.torn_tail = true;
                    return None;
                }
                None => {
                    self.health.quarantined += 1;
                    appstore_obs::counter(appstore_obs::names::SPILL_CHUNKS_QUARANTINED, 1);
                }
            }
        }
    }

    /// Scan health so far (final after `next_chunk` returns `None`).
    pub fn health(&self) -> SpillHealth {
        self.health
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// Folds every verified chunk of `path` through `f`, reporting merge
/// totals to the volatile spill counters. Returns the file's health.
pub fn fold_spill_file(
    path: &Path,
    mut f: impl FnMut(&str, Vec<Vec<u64>>),
) -> std::io::Result<SpillHealth> {
    let mut reader = SpillReader::open(path)?;
    while let Some((kind, columns)) = reader.next_chunk() {
        f(&kind, columns);
    }
    let health = reader.health();
    appstore_obs::counter_volatile(appstore_obs::names::SPILL_CHUNKS_MERGED, health.chunks_read);
    appstore_obs::counter_volatile(appstore_obs::names::SPILL_BYTES_MERGED, reader.bytes_read());
    Ok(health)
}

/// Convenience: a spill file path `dir/<stem>.spill`.
pub fn spill_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.spill"))
}

// --- resident-memory probe -------------------------------------------

/// Peak resident set size of this process in bytes, from Linux
/// `/proc/self/status` (`VmHWM`). `None` on other platforms — callers
/// degrade to "cap not enforceable here".
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::faults::{with_injector, FaultInjector, FaultPlan, FaultTrigger};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spill-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 300, -301, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn base64_round_trip() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = base64_encode(&bytes);
            assert_eq!(base64_decode(&text).unwrap(), bytes, "len {len}");
        }
        assert_eq!(base64_decode("a"), None, "bad length");
        assert_eq!(base64_decode("a=b="), None, "interior padding");
        assert_eq!(base64_decode("a!=="), None, "bad alphabet");
    }

    #[test]
    fn chunk_round_trips_with_ragged_columns() {
        let a = vec![5u64, 5, 9, 1_000_000, 0];
        let b = vec![u64::MAX, 0, u64::MAX];
        let c: Vec<u64> = Vec::new();
        let payload = encode_chunk("dl", &[&a, &b, &c]);
        let (kind, columns) = decode_chunk(&payload).unwrap();
        assert_eq!(kind, "dl");
        assert_eq!(columns, vec![a, b, c]);
    }

    #[test]
    fn truncated_or_garbled_payloads_are_rejected() {
        let payload = encode_chunk("dl", &[&[1, 2, 3]]);
        assert!(decode_chunk(&payload[..payload.len() - 4]).is_none());
        assert!(decode_chunk("c dl 2 AAAA").is_none(), "missing column");
        assert!(decode_chunk("x dl 1 AAAA").is_none(), "wrong magic");
        assert!(decode_chunk("c dl huge AAAA").is_none(), "bad col count");
    }

    #[test]
    fn shard_plan_covers_ids_contiguously() {
        for (users, shards) in [(10u64, 3usize), (1, 8), (0, 4), (1000, 1), (7, 7)] {
            let plan = ShardPlan::new(users, shards);
            let mut previous = None;
            for id in 0..users {
                let shard = plan.shard_of(id);
                assert!(shard < plan.shards());
                if let Some(p) = previous {
                    assert!(shard >= p, "shards ascend with ids");
                }
                previous = Some(shard);
                let (start, end) = plan.range_of(shard);
                assert!(start <= id && id < end);
            }
            // Ids past the planned space land in the final shard.
            assert_eq!(plan.shard_of(users + 99), plan.shards() - 1);
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = spill_path(&dir, "events");
        let mut writer = SpillWriter::create(&path).unwrap();
        writer.append("dl", &[&[1, 2, 3], &[7, 7, 7]]).unwrap();
        writer
            .append("cm", &[&[9], &[0], &[4], &[1], &[5]])
            .unwrap();
        writer.finish().unwrap();

        let mut reader = SpillReader::open(&path).unwrap();
        let (kind, cols) = reader.next_chunk().unwrap();
        assert_eq!((kind.as_str(), cols.len()), ("dl", 2));
        let (kind, cols) = reader.next_chunk().unwrap();
        assert_eq!((kind.as_str(), cols.len()), ("cm", 5));
        assert!(reader.next_chunk().is_none());
        let health = reader.health();
        assert_eq!(health.chunks_read, 2);
        assert_eq!(health.quarantined, 0);
        assert!(!health.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_damage_quarantines_tail_damage_is_torn() {
        let dir = temp_dir("damage");
        let path = spill_path(&dir, "events");
        let mut writer = SpillWriter::create(&path).unwrap();
        for i in 0..3u64 {
            writer.append("dl", &[&[i, i + 1]]).unwrap();
        }
        writer.finish().unwrap();

        // Flip a byte in the middle line: quarantined, neighbors intact.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let flipped = lines[1].replace(' ', "_");
        lines[1] = flipped;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut chunks = Vec::new();
        let health = fold_spill_file(&path, |_, cols| chunks.push(cols)).unwrap();
        assert_eq!(health.chunks_read, 2);
        assert_eq!(health.quarantined, 1);
        assert!(!health.torn_tail);
        assert_eq!(chunks[0][0], vec![0, 1]);
        assert_eq!(chunks[1][0], vec![2, 3]);

        // A high bit flipped inside the middle line leaves invalid UTF-8:
        // still one quarantined chunk, and the chunk after it still reads.
        let mut bytes = text.clone().into_bytes();
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second + 12] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let mut chunks = Vec::new();
        let health = fold_spill_file(&path, |_, cols| chunks.push(cols)).unwrap();
        assert_eq!(health.chunks_read, 2);
        assert_eq!(health.quarantined, 1);
        assert!(!health.torn_tail);
        assert_eq!(chunks[1][0], vec![2, 3]);

        // Truncate the last line mid-way: torn tail, prefix intact.
        let mut torn = text.clone();
        torn.truncate(text.len() - 10);
        std::fs::write(&path, torn).unwrap();
        let mut count = 0;
        let health = fold_spill_file(&path, |_, _| count += 1).unwrap();
        assert_eq!(count, 2);
        assert!(health.torn_tail);
        assert_eq!(health.quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_corrupt_and_partial_writes_are_contained() {
        let dir = temp_dir("faults");
        let path = spill_path(&dir, "events");
        let injector = FaultInjector::new(
            FaultPlan::seeded(77)
                .rule(
                    SITE_SPILL_WRITE,
                    FaultKind::Corrupt,
                    FaultTrigger::AtIndex(1),
                )
                .rule(
                    SITE_SPILL_WRITE,
                    FaultKind::PartialWrite,
                    FaultTrigger::AtIndex(3),
                ),
        );
        with_injector(&injector, || {
            let mut writer = SpillWriter::create(&path).unwrap();
            for i in 0..4u64 {
                writer.append("dl", &[&[i * 10]]).unwrap();
            }
            writer.finish().unwrap();
        });
        let mut values = Vec::new();
        let health = fold_spill_file(&path, |_, cols| values.push(cols[0][0])).unwrap();
        // Chunk 1 corrupted (quarantined), chunk 3 torn (tail); 0 and 2 read.
        assert_eq!(values, vec![0, 20]);
        assert_eq!(health.quarantined, 1);
        assert!(health.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_error_retries_once_then_surfaces() {
        let dir = temp_dir("ioerr");
        let once = FaultInjector::new(FaultPlan::seeded(3).rule(
            SITE_SPILL_WRITE,
            FaultKind::IoError,
            FaultTrigger::AtIndex(0),
        ));
        with_injector(&once, || {
            let path = spill_path(&dir, "retry");
            let mut writer = SpillWriter::create(&path).unwrap();
            // AtIndex clears on attempt 1, so the retry succeeds.
            writer.append("dl", &[&[1]]).unwrap();
            writer.finish().unwrap();
        });
        let always = FaultInjector::new(FaultPlan::seeded(3).rule(
            SITE_SPILL_WRITE,
            FaultKind::IoError,
            FaultTrigger::Probability(1.0),
        ));
        with_injector(&always, || {
            let path = spill_path(&dir, "fail");
            let mut writer = SpillWriter::create(&path).unwrap();
            assert!(writer.append("dl", &[&[1]]).is_err());
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().unwrap();
            assert!(rss > 0);
        }
    }
}
