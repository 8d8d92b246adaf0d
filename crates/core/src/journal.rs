//! CRC32-sealed journal lines — the shared durable-log primitive.
//!
//! The resumable crawler introduced a line-delimited journal where every
//! line is *sealed*: prefixed with the CRC32 of its payload so storage
//! corruption is detected instead of silently parsed. The checkpointed
//! fit pipeline and the out-of-core spill files need the same guarantee,
//! so the format and the discipline for reading and resuming a sealed
//! log live here, and every log delegates to them.
//!
//! A sealed line is `"{crc32:08x} {payload}"`. [`unseal`] returns the
//! verified payload, or `None` for any other line — a checksum that
//! disagrees (bit rot, a torn write) or a line that is not seal-shaped
//! at all: every log is sealed, so an unsealed line is damage. Payload
//! semantics — what the sealed string *means* — stay with the caller.
//! [`SealedWriter`] writes sealed lines; [`LossyLines`] is the one line
//! reader of every sealed log, and does not trust the stream to be
//! UTF-8, so one damaged byte costs one line; [`heal_torn_tail`] ends a
//! torn final line before a resumed run appends to the log.

use std::io::{BufRead, Write};

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Renders `payload` as a sealed journal line (without trailing newline).
pub fn seal(payload: &str) -> String {
    format!("{:08x} {payload}", crc32(payload.as_bytes()))
}

/// The verified payload of one sealed line, or `None` when the line is
/// damage.
///
/// A line is seal-shaped when it starts with eight hex digits and a
/// space followed by at least one payload byte. A line that is not, or
/// whose seal disagrees with its payload, is `None`.
pub fn unseal(line: &str) -> Option<&str> {
    let bytes = line.as_bytes();
    if bytes.len() <= 9 || bytes[8] != b' ' || !bytes[..8].iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    let expected = u32::from_str_radix(&line[..8], 16).ok()?;
    (crc32(&bytes[9..]) == expected).then(|| &line[9..])
}

/// Ends a torn final line — a partial write without its newline — so
/// the next appended line starts on a line of its own. The fragment
/// stays in the log and reads back as one damaged line; without the
/// newline, the first appended line would be glued to it and lost too.
pub fn heal_torn_tail(log: &mut Vec<u8>) {
    if log.last().is_some_and(|&b| b != b'\n') {
        log.push(b'\n');
    }
}

/// Splits a byte stream into journal lines the way [`BufRead::lines`]
/// does (on `\n`, dropping a `\r` before it), but never fails on a
/// line's content: each line is decoded lossily, so a non-UTF-8 byte
/// becomes U+FFFD and fails that line's seal instead of ending the read.
/// Each item is the line plus the raw bytes it took in the stream,
/// terminator included; only an I/O error yields `Err`.
pub struct LossyLines<R> {
    reader: R,
}

impl<R: BufRead> LossyLines<R> {
    /// Reads lines from `reader`.
    pub fn new(reader: R) -> LossyLines<R> {
        LossyLines { reader }
    }
}

impl<R: BufRead> Iterator for LossyLines<R> {
    type Item = std::io::Result<(String, usize)>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut raw = Vec::new();
        let read = match self.reader.read_until(b'\n', &mut raw) {
            Ok(0) => return None,
            Ok(read) => read,
            Err(e) => return Some(Err(e)),
        };
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let line = String::from_utf8(raw)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        Some(Ok((line, read)))
    }
}

/// Appends sealed lines to a byte stream.
///
/// Each [`append`](SealedWriter::append) writes one sealed line plus a
/// newline; callers decide when to [`flush`](SealedWriter::flush) (a
/// checkpoint stream flushes every line, a bulk export once at the end).
pub struct SealedWriter<W: Write> {
    writer: W,
}

impl<W: Write> SealedWriter<W> {
    /// Wraps a byte stream positioned where the next line should go.
    pub fn new(writer: W) -> SealedWriter<W> {
        SealedWriter { writer }
    }

    /// Seals `payload` and writes it as one newline-terminated line.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        let line = seal(payload);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Flushes the underlying stream.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn seal_then_unseal_round_trips() {
        let line = seal(r#"{"k":1}"#);
        assert_eq!(unseal(&line), Some(r#"{"k":1}"#));
    }

    #[test]
    fn flipped_payload_byte_is_a_mismatch() {
        let mut line = seal("payload").into_bytes();
        let last = line.len() - 1;
        line[last] ^= 0x01;
        let line = String::from_utf8(line).unwrap();
        assert_eq!(unseal(&line), None);
    }

    #[test]
    fn flipped_seal_digit_is_a_mismatch() {
        let line = seal("payload");
        let flipped = if line.starts_with('0') {
            line.replacen('0', "1", 1)
        } else {
            let tail = &line[1..];
            format!("0{tail}")
        };
        assert_eq!(unseal(&flipped), None);
    }

    #[test]
    fn non_seal_shaped_lines_are_damage() {
        for line in [
            "",
            "{}",
            r#"{"k":1}"#,
            "not sealed",
            "0123456 short-prefix",
            "xyz45678 p",
            "0123abcd ",
        ] {
            assert_eq!(unseal(line), None, "line = {line:?}");
        }
    }

    #[test]
    fn heal_torn_tail_ends_only_a_torn_line() {
        let mut log = Vec::new();
        heal_torn_tail(&mut log);
        assert!(log.is_empty(), "an empty log stays empty");
        let mut log = b"00000000 a\n".to_vec();
        heal_torn_tail(&mut log);
        assert_eq!(log, b"00000000 a\n", "a whole last line is left alone");
        let line = seal("whole");
        let mut log = format!("{line}\n{}", &line[..6]).into_bytes();
        heal_torn_tail(&mut log);
        SealedWriter::new(&mut log).append("next").unwrap();
        let lines: Vec<String> = LossyLines::new(log.as_slice())
            .map(|line| line.unwrap().0)
            .collect();
        let payloads: Vec<Option<&str>> = lines.iter().map(|l| unseal(l)).collect();
        assert_eq!(payloads, [Some("whole"), None, Some("next")]);
    }

    #[test]
    fn lossy_lines_split_like_bufread_lines_and_count_raw_bytes() {
        let stream: &[u8] = b"one\r\ntwo\n\nthree";
        let lines: Vec<(String, usize)> = LossyLines::new(stream).map(Result::unwrap).collect();
        assert_eq!(
            lines,
            [
                ("one".to_string(), 5),
                ("two".to_string(), 4),
                (String::new(), 1),
                ("three".to_string(), 5),
            ]
        );
        let std_lines: Vec<String> = std::io::BufRead::lines(stream)
            .map(Result::unwrap)
            .collect();
        let ours: Vec<String> = lines.into_iter().map(|(line, _)| line).collect();
        assert_eq!(ours, std_lines);

        // A byte that is not UTF-8 is replaced, and the read goes on.
        let damaged: &[u8] = b"one\nt\xffo\nthree";
        let lines: Vec<(String, usize)> = LossyLines::new(damaged).map(Result::unwrap).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], ("t\u{FFFD}o".to_string(), 4));
    }

    #[test]
    fn sealed_writer_emits_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut w = SealedWriter::new(&mut buf);
            w.append("one").unwrap();
            w.append("two").unwrap();
            w.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(unseal(lines[0]), Some("one"));
        assert_eq!(unseal(lines[1]), Some("two"));
    }
}
