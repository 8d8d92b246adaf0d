//! The local crawl database.
//!
//! The paper's architecture stores every harvested page "into a local
//! database" that the analyses later read. This module provides that
//! persistence layer: a dataset is written as a self-describing,
//! line-delimited JSON journal (one record per line: header, apps,
//! developers, snapshots, comments, updates, day-complete markers) and
//! read back verbatim. The journal format is append-friendly — a crawl
//! flushes each day's records as the day completes and a truncated file
//! still loads every complete record, which is exactly the durability a
//! long-running crawl needs.
//!
//! Robustness layers on top of the plain format:
//!
//! - every line is **sealed** with a CRC32 of its payload through
//!   [`appstore_core::journal`], so storage corruption is detected
//!   rather than silently parsed, and a line without a valid seal —
//!   bare JSON included — is damage;
//! - [`read_journal_lossy`], the one reader, never fails on damaged
//!   lines: it quarantines them and reports a [`JournalHealth`] summary
//!   (records kept, lines dropped, truncation point, checkpoints);
//! - [`Record::DayComplete`] markers let a resumed campaign find the last
//!   fully-flushed day and re-crawl only what is missing — replay
//!   deduplicates records, so a partially-written day followed by its
//!   re-crawl converges to the same dataset as an uninterrupted run;
//! - [`JournalWriter`] appends sealed records incrementally (create or
//!   resume), giving `run_campaign_resumable` its checkpoint stream; a
//!   resumed campaign first ends a torn final line with
//!   [`appstore_core::journal::heal_torn_tail`].

use appstore_core::journal::{unseal, LossyLines, SealedWriter};
use appstore_core::{
    App, CategorySet, CommentEvent, DailySnapshot, Dataset, Day, Developer, StoreMeta, UpdateEvent,
};
use serde::{Deserialize, Serialize};
use std::io::{BufReader, BufWriter, Read, Write};

/// One line of the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// Store identity + taxonomy; must be the first record.
    Header {
        /// Store metadata.
        store: StoreMeta,
        /// The category taxonomy.
        categories: CategorySet,
    },
    /// A chunk of the app registry (chunked to keep lines bounded).
    Apps(Vec<App>),
    /// A chunk of the developer registry.
    Developers(Vec<Developer>),
    /// One daily snapshot.
    Snapshot(DailySnapshot),
    /// A chunk of comment events.
    Comments(Vec<CommentEvent>),
    /// A chunk of update events.
    Updates(Vec<UpdateEvent>),
    /// Checkpoint marker: every record of this crawl day is flushed.
    DayComplete(Day),
}

/// Chunk size for registry/event records.
const CHUNK: usize = 4096;

/// Errors from reading or writing a journal.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The journal does not start with a header record.
    MissingHeader,
    /// A record could not be serialized for writing.
    Serialize {
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "journal I/O error: {e}"),
            StorageError::MissingHeader => write!(f, "journal missing header record"),
            StorageError::Serialize { detail } => {
                write!(f, "journal record failed to serialize: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Line sealing (format shared with `appstore_core::journal`)
// ---------------------------------------------------------------------------

pub use appstore_core::journal::crc32;

/// Why a journal line was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineFault {
    /// The line carries no valid seal: the checksum disagrees with the
    /// payload (bit rot, torn write), or the line is not sealed at all.
    ChecksumMismatch,
    /// The sealed payload was not a parseable record.
    Unparseable,
}

impl std::fmt::Display for LineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineFault::ChecksumMismatch => write!(f, "checksum mismatch"),
            LineFault::Unparseable => write!(f, "unparseable record"),
        }
    }
}

/// Parses one sealed journal line (`crc32 json`).
fn parse_line(line: &str) -> Result<Record, LineFault> {
    let payload = unseal(line).ok_or(LineFault::ChecksumMismatch)?;
    serde_json::from_str::<Record>(payload).map_err(|_| LineFault::Unparseable)
}

// ---------------------------------------------------------------------------
// Incremental writing
// ---------------------------------------------------------------------------

/// Appends sealed records to a journal stream one at a time, flushing
/// after every record so a crash loses at most the line being written.
/// This is the checkpoint stream a resumable crawl writes as each day
/// completes.
pub struct JournalWriter<W: Write> {
    writer: SealedWriter<W>,
}

impl<W: Write> JournalWriter<W> {
    /// Starts a fresh journal: writes the header record immediately.
    pub fn create(
        writer: W,
        store: &StoreMeta,
        categories: &CategorySet,
    ) -> Result<JournalWriter<W>, StorageError> {
        let mut journal = JournalWriter {
            writer: SealedWriter::new(writer),
        };
        journal.append(&Record::Header {
            store: store.clone(),
            categories: categories.clone(),
        })?;
        Ok(journal)
    }

    /// Wraps a stream positioned at the end of an existing journal
    /// (resume mode): nothing is written until the first append.
    pub fn resume(writer: W) -> JournalWriter<W> {
        JournalWriter {
            writer: SealedWriter::new(writer),
        }
    }

    /// Appends one sealed record and flushes it.
    pub fn append(&mut self, record: &Record) -> Result<(), StorageError> {
        let payload = serde_json::to_string(record).map_err(|e| StorageError::Serialize {
            detail: e.to_string(),
        })?;
        self.writer.append(&payload)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Appends a slice as bounded-size chunk records via `make`.
    pub fn append_chunked<T: Clone>(
        &mut self,
        items: &[T],
        make: impl Fn(Vec<T>) -> Record,
    ) -> Result<(), StorageError> {
        for chunk in items.chunks(CHUNK) {
            self.append(&make(chunk.to_vec()))?;
        }
        Ok(())
    }

    /// Marks `day` fully flushed.
    pub fn day_complete(&mut self, day: Day) -> Result<(), StorageError> {
        self.append(&Record::DayComplete(day))
    }
}

/// Writes a dataset as a sealed line-delimited JSON journal.
pub fn write_journal<W: Write>(dataset: &Dataset, writer: W) -> Result<(), StorageError> {
    let mut journal =
        JournalWriter::create(BufWriter::new(writer), &dataset.store, &dataset.categories)?;
    journal.append_chunked(&dataset.apps, Record::Apps)?;
    journal.append_chunked(&dataset.developers, Record::Developers)?;
    for snapshot in &dataset.snapshots {
        journal.append(&Record::Snapshot(snapshot.clone()))?;
    }
    journal.append_chunked(&dataset.comments, Record::Comments)?;
    journal.append_chunked(&dataset.updates, Record::Updates)
}

// ---------------------------------------------------------------------------
// Lossy, deduplicating replay
// ---------------------------------------------------------------------------

/// A quarantined journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedLine {
    /// 1-based line number in the journal.
    pub line: usize,
    /// Why the line was rejected.
    pub fault: LineFault,
}

/// A [`Record::DayComplete`] marker and where it sits in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The day the marker declares complete.
    pub day: Day,
    /// 1-based line number of the marker.
    pub line: usize,
}

/// Health summary of a journal read by [`read_journal_lossy`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JournalHealth {
    /// Total lines inspected (including the header).
    pub lines_total: usize,
    /// Records absorbed into the dataset (including the header).
    pub records_kept: usize,
    /// Records dropped by deduplicating replay (resume overlap).
    pub records_deduplicated: usize,
    /// Damaged lines that were skipped, in order.
    pub quarantined: Vec<QuarantinedLine>,
    /// True when the final line was damaged — the usual signature of a
    /// crash mid-append; the quarantine entry gives the truncation point.
    pub truncated_tail: bool,
    /// Every day with a [`Record::DayComplete`] marker, ascending.
    pub days_complete: Vec<Day>,
    /// Every marker in journal order with its line number; the basis of
    /// [`JournalHealth::trusted_days`].
    pub checkpoints: Vec<Checkpoint>,
}

impl JournalHealth {
    /// Days whose checkpoint can actually be trusted: the marker exists
    /// *and* no quarantined line falls inside the day's journal segment
    /// (the lines since the previous marker). A damaged line inside a
    /// completed day means some of that day's records are gone, so its
    /// checkpoint must not be honored — the day re-crawls and replay
    /// deduplication merges the overlap.
    pub fn trusted_days(&self) -> Vec<Day> {
        let mut trusted = Vec::new();
        let mut segment_start = 0usize;
        for cp in &self.checkpoints {
            let damaged = self
                .quarantined
                .iter()
                .any(|q| q.line > segment_start && q.line < cp.line);
            if damaged {
                segment_start = cp.line;
                continue;
            }
            if !trusted.contains(&cp.day) {
                trusted.push(cp.day);
            }
            segment_start = cp.line;
        }
        trusted.sort_unstable();
        trusted
    }

    /// Whether every inspected line survived.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.truncated_tail
    }
}

/// Deduplicating record replay: absorbing the same logical record twice
/// (a partially-flushed day followed by its re-crawl) keeps the first
/// copy, so replay converges to the uninterrupted dataset.
struct Replay {
    dataset: Dataset,
    seen_apps: std::collections::HashSet<u32>,
    seen_devs: std::collections::HashSet<u32>,
    seen_days: std::collections::HashSet<u32>,
    seen_comments: std::collections::HashSet<(u32, u32, u32, u32)>,
    seen_updates: std::collections::HashSet<(u32, u32, u32)>,
    deduplicated: usize,
}

impl Replay {
    fn new(store: StoreMeta, categories: CategorySet) -> Replay {
        Replay {
            dataset: Dataset {
                store,
                categories,
                apps: Vec::new(),
                developers: Vec::new(),
                snapshots: Vec::new(),
                comments: Vec::new(),
                updates: Vec::new(),
            },
            seen_apps: Default::default(),
            seen_devs: Default::default(),
            seen_days: Default::default(),
            seen_comments: Default::default(),
            seen_updates: Default::default(),
            deduplicated: 0,
        }
    }

    fn absorb(&mut self, record: Record) {
        match record {
            Record::Header { .. } | Record::DayComplete(_) => {}
            Record::Apps(apps) => {
                for app in apps {
                    if self.seen_apps.insert(app.id.0) {
                        self.dataset.apps.push(app);
                    } else {
                        self.deduplicated += 1;
                    }
                }
            }
            Record::Developers(devs) => {
                for dev in devs {
                    if self.seen_devs.insert(dev.id.0) {
                        self.dataset.developers.push(dev);
                    } else {
                        self.deduplicated += 1;
                    }
                }
            }
            Record::Snapshot(snapshot) => {
                if self.seen_days.insert(snapshot.day.0) {
                    self.dataset.snapshots.push(snapshot);
                } else {
                    self.deduplicated += 1;
                }
            }
            Record::Comments(comments) => {
                for c in comments {
                    if self
                        .seen_comments
                        .insert((c.user.0, c.app.0, c.day.0, c.seq))
                    {
                        self.dataset.comments.push(c);
                    } else {
                        self.deduplicated += 1;
                    }
                }
            }
            Record::Updates(updates) => {
                for u in updates {
                    if self.seen_updates.insert((u.app.0, u.day.0, u.version)) {
                        self.dataset.updates.push(u);
                    } else {
                        self.deduplicated += 1;
                    }
                }
            }
        }
    }
}

/// Reads a journal tolerating arbitrary line damage.
///
/// Damaged lines are quarantined (skipped and reported in the returned
/// [`JournalHealth`]), never fatal. Replay deduplicates overlapping
/// records from crash/resume cycles. Returns `None` for the dataset when
/// no valid header line exists — the health report is still meaningful.
pub fn read_journal_lossy<R: Read>(reader: R) -> (Option<Dataset>, JournalHealth) {
    let mut health = JournalHealth::default();
    let mut replay: Option<Replay> = None;
    let mut last_was_damaged = false;
    for (index, line) in LossyLines::new(BufReader::new(reader)).enumerate() {
        let Ok((line, _)) = line else {
            // An I/O error mid-stream: treat as a damaged final line. (A
            // non-UTF-8 line is only a bad seal, quarantined alone.)
            health.quarantined.push(QuarantinedLine {
                line: index + 1,
                fault: LineFault::Unparseable,
            });
            last_was_damaged = true;
            health.lines_total = index + 1;
            break;
        };
        health.lines_total = index + 1;
        last_was_damaged = false;
        match parse_line(&line) {
            Ok(Record::Header { store, categories }) => {
                if replay.is_none() {
                    replay = Some(Replay::new(store, categories));
                    health.records_kept += 1;
                } else {
                    // Duplicate header: quarantine, keep the first.
                    health.quarantined.push(QuarantinedLine {
                        line: index + 1,
                        fault: LineFault::Unparseable,
                    });
                }
            }
            Ok(Record::DayComplete(day)) => {
                health.records_kept += 1;
                health.checkpoints.push(Checkpoint {
                    day,
                    line: index + 1,
                });
                if !health.days_complete.contains(&day) {
                    health.days_complete.push(day);
                }
            }
            Ok(record) => match replay.as_mut() {
                Some(replay) => {
                    health.records_kept += 1;
                    replay.absorb(record);
                }
                None => health.quarantined.push(QuarantinedLine {
                    line: index + 1,
                    fault: LineFault::Unparseable,
                }),
            },
            Err(fault) => {
                health.quarantined.push(QuarantinedLine {
                    line: index + 1,
                    fault,
                });
                last_was_damaged = true;
            }
        }
    }
    health.truncated_tail = last_was_damaged;
    health.days_complete.sort_unstable();
    if let Some(replay) = &replay {
        health.records_deduplicated = replay.deduplicated;
    }
    appstore_obs::counter(appstore_obs::names::CRAWL_JOURNAL_READS, 1);
    appstore_obs::counter(
        appstore_obs::names::CRAWL_JOURNAL_LINES_QUARANTINED,
        health.quarantined.len() as u64,
    );
    appstore_obs::counter(
        appstore_obs::names::CRAWL_JOURNAL_RECORDS_DEDUPLICATED,
        health.records_deduplicated as u64,
    );
    appstore_obs::counter(
        appstore_obs::names::CRAWL_JOURNAL_TRUNCATED_TAILS,
        u64::from(health.truncated_tail),
    );
    (replay.map(|r| r.dataset), health)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use appstore_core::{Seed, StoreId};
    use appstore_synth::{generate, StoreProfile};

    fn dataset() -> Dataset {
        let mut profile = StoreProfile::anzhi().scaled_down(40);
        profile.commenter_fraction = 0.5;
        profile.comment_rate = 0.2;
        generate(&profile, StoreId(0), Seed::new(31)).dataset
    }

    #[test]
    fn journal_round_trips() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        let (restored, health) = read_journal_lossy(buffer.as_slice());
        let restored = restored.unwrap();
        assert_eq!(restored, original);
        assert!(restored.validate().is_ok());
        assert!(health.is_clean());
        assert_eq!(health.records_kept, health.lines_total);
        assert_eq!(health.records_deduplicated, 0);
    }

    #[test]
    fn truncated_final_line_is_a_quarantined_tail() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        let lines = buffer.iter().filter(|&&b| b == b'\n').count();
        // Chop the tail mid-record (simulating a crash during append).
        let cut = buffer.len() - 40;
        let (restored, health) = read_journal_lossy(&buffer[..cut]);
        let restored = restored.unwrap();
        assert!(health.truncated_tail);
        assert_eq!(
            health.quarantined,
            [QuarantinedLine {
                line: lines,
                fault: LineFault::ChecksumMismatch,
            }]
        );
        // Everything before the damaged record survived.
        assert_eq!(restored.store, original.store);
        assert_eq!(restored.apps, original.apps);
        assert_eq!(restored.snapshots, original.snapshots);
    }

    #[test]
    fn missing_or_wrong_header_gives_no_dataset() {
        let (restored, health) = read_journal_lossy(std::io::empty());
        assert!(restored.is_none());
        assert_eq!(health.lines_total, 0);
        let mut not_header = Vec::new();
        JournalWriter::resume(&mut not_header)
            .append(&Record::Apps(vec![]))
            .unwrap();
        let (restored, health) = read_journal_lossy(not_header.as_slice());
        assert!(restored.is_none());
        assert_eq!(health.quarantined.len(), 1);
    }

    #[test]
    fn duplicate_header_is_quarantined_and_the_first_kept() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        let mut renamed = original.store.clone();
        renamed.name.push_str("-copy");
        JournalWriter::create(&mut buffer, &renamed, &original.categories).unwrap();
        let (restored, health) = read_journal_lossy(buffer.as_slice());
        assert_eq!(restored.unwrap(), original);
        assert_eq!(
            health.quarantined,
            [QuarantinedLine {
                line: health.lines_total,
                fault: LineFault::Unparseable,
            }]
        );
    }

    #[test]
    fn unsealed_record_line_is_quarantined_not_absorbed() {
        let original = dataset();
        let mut partial = original.clone();
        let withheld = partial.snapshots.pop().unwrap();
        let mut buffer = Vec::new();
        write_journal(&partial, &mut buffer).unwrap();
        // A well-formed record in bare JSON: everything but the seal.
        let bare = serde_json::to_string(&Record::Snapshot(withheld)).unwrap();
        buffer.extend_from_slice(bare.as_bytes());
        buffer.push(b'\n');
        JournalWriter::resume(&mut buffer)
            .day_complete(Day(0))
            .unwrap();
        let (restored, health) = read_journal_lossy(buffer.as_slice());
        assert_eq!(restored.unwrap(), partial);
        assert_eq!(
            health.quarantined,
            [QuarantinedLine {
                line: health.lines_total - 1,
                fault: LineFault::ChecksumMismatch,
            }]
        );
        assert!(!health.truncated_tail);
    }

    #[test]
    fn lines_are_sealed_with_crc32() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        for line in text.lines() {
            assert_eq!(&line[8..9], " ");
            let expected = u32::from_str_radix(&line[..8], 16).unwrap();
            assert_eq!(crc32(&line.as_bytes()[9..]), expected);
        }
    }

    #[test]
    fn flipped_bit_is_caught_by_the_seal() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        // Flip one content byte in the middle of the journal. A digit
        // swap like 3 -> 2 still parses as JSON — only the seal sees it.
        let mid = buffer.len() / 2;
        let target = (mid..buffer.len())
            .find(|&i| buffer[i].is_ascii_digit())
            .unwrap();
        buffer[target] = if buffer[target] == b'9' { b'8' } else { b'9' };
        let (restored, health) = read_journal_lossy(buffer.as_slice());
        assert!(restored.is_some());
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].fault, LineFault::ChecksumMismatch);
        assert!(!health.is_clean());
    }

    #[test]
    fn lossy_read_quarantines_the_middle_and_keeps_the_rest() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let damaged_line = 3;
        lines[damaged_line - 1] = "xxxx not a journal line".to_string();
        let damaged = lines.join("\n");
        let (restored, health) = read_journal_lossy(damaged.as_bytes());
        let restored = restored.unwrap();
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].line, damaged_line);
        assert!(!health.truncated_tail);
        assert_eq!(health.records_kept, lines.len() - 1);
        // Only the one damaged chunk is missing.
        assert!(restored.apps.len() < original.apps.len() || restored.apps == original.apps);
    }

    #[test]
    fn replay_deduplicates_resume_overlap() {
        let original = dataset();
        let mut buffer = Vec::new();
        write_journal(&original, &mut buffer).unwrap();
        // Append a duplicate of every non-header record, as a crashed and
        // restarted crawl would after re-crawling flushed days.
        let text = String::from_utf8(buffer.clone()).unwrap();
        for line in text.lines().skip(1) {
            buffer.extend_from_slice(line.as_bytes());
            buffer.push(b'\n');
        }
        let (restored, health) = read_journal_lossy(buffer.as_slice());
        assert_eq!(restored.unwrap(), original);
        assert!(health.records_deduplicated > 0);
    }

    #[test]
    fn day_complete_markers_drive_the_resume_point() {
        let meta = dataset();
        let mut buffer = Vec::new();
        {
            let mut journal =
                JournalWriter::create(&mut buffer, &meta.store, &meta.categories).unwrap();
            journal.day_complete(Day(0)).unwrap();
            journal.day_complete(Day(1)).unwrap();
            // Day 2 never completed; day 3 completed out of order (e.g.
            // its marker survived corruption that ate day 2's).
            journal.day_complete(Day(3)).unwrap();
        }
        let (_, health) = read_journal_lossy(buffer.as_slice());
        assert_eq!(health.days_complete, vec![Day(0), Day(1), Day(3)]);
        assert_eq!(health.trusted_days(), vec![Day(0), Day(1), Day(3)]);
    }

    #[test]
    fn damage_inside_a_completed_day_revokes_its_checkpoint() {
        let meta = dataset();
        let mut buffer = Vec::new();
        {
            let mut journal =
                JournalWriter::create(&mut buffer, &meta.store, &meta.categories).unwrap();
            journal
                .append(&Record::Snapshot(meta.snapshots[0].clone()))
                .unwrap();
            journal.day_complete(Day(0)).unwrap();
            journal
                .append(&Record::Snapshot(meta.snapshots[1].clone()))
                .unwrap();
            journal.day_complete(Day(1)).unwrap();
        }
        // Destroy day 1's snapshot line (line 4) but leave its marker.
        let mut lines: Vec<String> = String::from_utf8(buffer)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[3] = "garbage".to_string();
        let damaged = lines.join("\n");
        let (_, health) = read_journal_lossy(damaged.as_bytes());
        assert_eq!(health.days_complete, vec![Day(0), Day(1)]);
        // Day 1's checkpoint is no longer trustworthy; day 0's is.
        assert_eq!(health.trusted_days(), vec![Day(0)]);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod file_tests {
    use super::*;
    use appstore_core::{Seed, StoreId};
    use appstore_synth::{generate, StoreProfile};

    /// End-to-end through a real file, as a crawl would persist it.
    #[test]
    fn journal_survives_a_disk_round_trip() {
        let dataset = generate(
            &StoreProfile::slideme().scaled_down(40),
            StoreId(3),
            Seed::new(91),
        )
        .dataset;
        let path = std::env::temp_dir().join(format!(
            "planet-apps-journal-{}-{}.jsonl",
            std::process::id(),
            91
        ));
        {
            let file = std::fs::File::create(&path).unwrap();
            write_journal(&dataset, file).unwrap();
        }
        let (restored, health) = {
            let file = std::fs::File::open(&path).unwrap();
            read_journal_lossy(file)
        };
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.unwrap(), dataset);
        assert!(health.is_clean());
    }
}
