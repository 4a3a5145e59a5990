//! Minimal FASTQ reading and writing (4-line records).
//!
//! Three reading flavors: [`read_fastq`] (strict, `io::Result`, the
//! original signature), [`read_fastq_with`] (structured
//! [`FastxError`]s plus a strict/lenient [`ParseMode`] and a
//! [`ParseReport`] counting what a lenient pass skipped), and
//! [`FastqStreamer`] — an incremental record iterator over any
//! [`BufRead`] that never holds more than one record in memory, which
//! is what the serving front-end and stdin-fed `map` runs consume.
//! The two batch readers are thin collectors over the streamer, so
//! all three share one set of parse semantics. CRLF line endings are
//! tolerated everywhere, and no line is ever buffered past
//! [`MAX_LINE_BYTES`], so an unterminated line on stdin or a socket
//! cannot grow the process without limit.

use crate::parse::{has_non_acgt, FastxError, ParseError, ParseErrorKind, ParseMode, ParseReport};
use std::io::{self, BufRead, BufReader, Read, Write};

/// The longest line [`FastqStreamer`] will buffer, newline excluded.
/// A longer line is cut here, the rest of it is discarded as it is
/// read, and its record fails with [`ParseErrorKind::LineTooLong`].
/// Four MiB clears the longest real reads (multi-megabase nanopore
/// outliers included) with room to spare.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header line without the leading `@`.
    pub id: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
    /// Phred+33 quality string, same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record, validating that the quality string length
    /// matches the sequence length and that the sequence is non-empty
    /// — the invariants every consumer of [`FastqRecord`] relies on.
    ///
    /// # Errors
    ///
    /// [`ParseErrorKind::LengthMismatch`] when `qual.len() !=
    /// seq.len()`, [`ParseErrorKind::EmptySequence`] when `seq` is
    /// empty.
    pub fn new(id: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> Result<Self, ParseErrorKind> {
        if seq.is_empty() {
            return Err(ParseErrorKind::EmptySequence);
        }
        if qual.len() != seq.len() {
            return Err(ParseErrorKind::LengthMismatch {
                seq: seq.len(),
                qual: qual.len(),
            });
        }
        Ok(FastqRecord {
            id: id.into(),
            seq,
            qual,
        })
    }

    /// Creates a record with a uniform quality score (Phred+33).
    pub fn with_uniform_quality(id: impl Into<String>, seq: Vec<u8>, phred: u8) -> Self {
        let qual = vec![phred + 33; seq.len()];
        FastqRecord {
            id: id.into(),
            seq,
            qual,
        }
    }
}

/// Reads all records from a FASTQ source, strictly.
///
/// # Errors
///
/// Returns I/O errors from the reader and `InvalidData` for malformed
/// records (missing lines, separator not `+`, or quality length
/// differing from sequence length). For structured errors and a
/// lenient skip-and-count mode, use [`read_fastq_with`].
///
/// # Examples
///
/// ```
/// use genasm_seq::fastq::read_fastq;
///
/// # fn main() -> std::io::Result<()> {
/// let records = read_fastq(&b"@r1\nACGT\n+\nIIII\n"[..])?;
/// assert_eq!(records[0].seq, b"ACGT");
/// # Ok(())
/// # }
/// ```
pub fn read_fastq<R: Read>(reader: R) -> io::Result<Vec<FastqRecord>> {
    read_fastq_with(reader, ParseMode::Strict)
        .map(|parse| parse.records)
        .map_err(FastxError::into_io)
}

/// A FASTQ parse: the records that parsed, plus what was skipped or
/// soft-flagged.
#[derive(Debug)]
pub struct FastqParse {
    /// Records that parsed cleanly, in input order.
    pub records: Vec<FastqRecord>,
    /// What a lenient pass skipped and soft-flagged (always clean of
    /// skips in strict mode — strict fails instead).
    pub report: ParseReport,
}

/// Reads all records from a FASTQ source under the given
/// [`ParseMode`].
///
/// In `Strict` mode the first malformed record aborts the parse with
/// [`FastxError::Parse`] naming the record, line, and kind. In
/// `Lenient` mode malformed records are skipped and counted in the
/// returned [`ParseReport`], and the parser resynchronizes at the next
/// `@`-headed record boundary. Sequences containing non-ACGT bases are
/// kept in both modes and counted as soft errors.
///
/// # Errors
///
/// [`FastxError::Io`] when the underlying reader fails (both modes);
/// [`FastxError::Parse`] for the first malformed record (strict mode
/// only).
pub fn read_fastq_with<R: Read>(reader: R, mode: ParseMode) -> Result<FastqParse, FastxError> {
    let mut streamer = FastqStreamer::new(BufReader::new(reader), mode);
    let mut records = Vec::new();
    for record in streamer.by_ref() {
        records.push(record?);
    }
    Ok(FastqParse {
        records,
        report: streamer.into_report(),
    })
}

/// An incremental FASTQ reader over any [`BufRead`]: an iterator of
/// records that holds at most one line of lookahead, so an
/// arbitrarily long stream (stdin, a socket) is parsed in constant
/// memory. Semantics match [`read_fastq_with`] exactly — the batch
/// readers are collectors over this type:
///
/// * In [`ParseMode::Strict`] the first malformed record yields
///   `Err(FastxError::Parse)` and the iterator ends.
/// * In [`ParseMode::Lenient`] malformed records are counted into the
///   [`report`](Self::report) and the parser resynchronizes at the
///   next `@`-headed record boundary without ending the stream — the
///   resync a long-lived serving session relies on to survive damaged
///   input.
/// * An I/O failure of the underlying reader yields
///   `Err(FastxError::Io)` and ends the iterator in both modes.
///
/// # Examples
///
/// ```
/// use genasm_seq::fastq::FastqStreamer;
/// use genasm_seq::ParseMode;
///
/// let input = &b"@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nIIII\n"[..];
/// let mut stream = FastqStreamer::new(input, ParseMode::Strict);
/// let first = stream.next().unwrap().unwrap();
/// assert_eq!(first.id, "r1");
/// assert_eq!(stream.count(), 1); // one more record follows
/// ```
#[derive(Debug)]
pub struct FastqStreamer<R: BufRead> {
    reader: R,
    mode: ParseMode,
    report: ParseReport,
    /// 0-based index of the record being parsed (also the chaos
    /// truncate-failpoint key).
    record_index: usize,
    /// Lines consumed so far; the next line is `line_number + 1`
    /// (1-based, for error reporting).
    line_number: usize,
    /// One line of lookahead (already trimmed), used by blank-line
    /// skipping and lenient resync, and whether it was cut at
    /// [`MAX_LINE_BYTES`].
    peeked: Option<(String, bool)>,
    /// 1-based number of an over-long line consumed since the current
    /// record was last judged; fails that record.
    oversized: Option<usize>,
    done: bool,
}

impl<R: BufRead> FastqStreamer<R> {
    /// Starts streaming records from `reader` under `mode`.
    pub fn new(reader: R, mode: ParseMode) -> Self {
        FastqStreamer {
            reader,
            mode,
            report: ParseReport::default(),
            record_index: 0,
            line_number: 0,
            peeked: None,
            oversized: None,
            done: false,
        }
    }

    /// The running parse report: records yielded so far plus what a
    /// lenient pass skipped and soft-flagged up to this point.
    pub fn report(&self) -> &ParseReport {
        &self.report
    }

    /// Consumes the streamer, returning the final parse report.
    pub fn into_report(self) -> ParseReport {
        self.report
    }

    /// Ensures one line of lookahead (trimmed of trailing whitespace,
    /// so CRLF is tolerated), unless at end of input. At most
    /// [`MAX_LINE_BYTES`] of a line are kept; the excess is consumed
    /// straight out of the reader's buffer.
    fn fill_peek(&mut self) -> io::Result<()> {
        if self.peeked.is_some() {
            return Ok(());
        }
        let mut buf = Vec::new();
        let cap = MAX_LINE_BYTES as u64 + 1; // the line and its newline
        if self.reader.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        let cut = buf.len() as u64 == cap && buf.last() != Some(&b'\n');
        if cut {
            buf.truncate(MAX_LINE_BYTES);
            self.reader.skip_until(b'\n')?;
        }
        let mut line = String::from_utf8(buf)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8"))?;
        line.truncate(line.trim_end().len());
        self.peeked = Some((line, cut));
        Ok(())
    }

    fn peek(&mut self) -> io::Result<Option<&str>> {
        self.fill_peek()?;
        Ok(self.peeked.as_ref().map(|(line, _)| line.as_str()))
    }

    fn next_line(&mut self) -> io::Result<Option<String>> {
        self.fill_peek()?;
        let Some((line, cut)) = self.peeked.take() else {
            return Ok(None);
        };
        self.line_number += 1;
        if cut {
            self.oversized = Some(self.line_number);
        }
        Ok(Some(line))
    }

    /// Lenient resync: drop a malformed record's remaining lines up
    /// to the next record boundary (an `@`-headed or blank line).
    fn resync(&mut self) -> io::Result<()> {
        while self
            .peek()?
            .is_some_and(|l| !l.is_empty() && !l.starts_with('@'))
        {
            self.next_line()?;
        }
        // Over-long lines swallowed here belonged to the record being
        // skipped, which is already reported.
        self.oversized = None;
        Ok(())
    }

    /// Reads the three positional body lines of a record — FASTQ
    /// records are exactly four lines; a missing one is a truncation.
    /// The outer `Result` is reader I/O; the inner carries the
    /// malformed line and kind.
    #[allow(clippy::type_complexity)]
    fn read_body(
        &mut self,
        id: &str,
        header_line: usize,
        chaos_truncated: bool,
    ) -> io::Result<Result<FastqRecord, (usize, ParseErrorKind)>> {
        if chaos_truncated {
            return Ok(Err((header_line, ParseErrorKind::TruncatedRecord)));
        }
        let seq_line = self.line_number + 1;
        let Some(seq) = self.next_line()? else {
            return Ok(Err((seq_line, ParseErrorKind::TruncatedRecord)));
        };
        let sep_line = self.line_number + 1;
        let Some(sep) = self.next_line()? else {
            return Ok(Err((sep_line, ParseErrorKind::TruncatedRecord)));
        };
        if !sep.starts_with('+') {
            return Ok(Err((sep_line, ParseErrorKind::BadSeparator)));
        }
        let qual_line = self.line_number + 1;
        let Some(qual) = self.next_line()? else {
            return Ok(Err((qual_line, ParseErrorKind::TruncatedRecord)));
        };
        Ok(FastqRecord::new(id, seq.into_bytes(), qual.into_bytes())
            .map_err(|kind| (qual_line, kind)))
    }

    fn next_record(&mut self) -> Result<Option<FastqRecord>, FastxError> {
        loop {
            // Skip blank lines between records.
            while self.peek()?.is_some_and(str::is_empty) {
                self.next_line()?;
            }
            let header_line = self.line_number + 1; // 1-based
            let Some(header) = self.next_line()? else {
                return Ok(None);
            };
            let parsed = match header.strip_prefix('@') {
                // Out-of-place data where a header should be: one
                // error per contiguous run of such lines.
                None => Err((header_line, ParseErrorKind::MissingHeader)),
                Some(id) => {
                    // A deterministic truncate-input failpoint: the
                    // armed record reads as if the input ended
                    // mid-record.
                    #[cfg(feature = "chaos")]
                    let chaos_truncated = matches!(
                        genasm_chaos::fault_at(
                            genasm_chaos::sites::FASTQ_TRUNCATE,
                            self.record_index as u64
                        ),
                        Some(genasm_chaos::Fault::Truncate)
                    );
                    #[cfg(not(feature = "chaos"))]
                    let chaos_truncated = false;
                    self.read_body(id, header_line, chaos_truncated)?
                }
            };
            // An over-long line outranks whatever its cut-off remains
            // happened to parse as.
            let parsed = match self.oversized.take() {
                Some(line) => {
                    let limit = MAX_LINE_BYTES;
                    Err((line, ParseErrorKind::LineTooLong { limit }))
                }
                None => parsed,
            };
            match parsed {
                Ok(record) => {
                    if has_non_acgt(&record.seq) {
                        self.report.soft_non_acgt += 1;
                    }
                    self.report.records += 1;
                    self.record_index += 1;
                    return Ok(Some(record));
                }
                Err((line, kind)) => {
                    let error = ParseError {
                        record: self.record_index,
                        line,
                        kind,
                    };
                    self.record_index += 1;
                    match self.mode {
                        ParseMode::Strict => return Err(FastxError::Parse(error)),
                        ParseMode::Lenient => {
                            self.report.count_skip(error);
                            self.resync()?;
                        }
                    }
                }
            }
        }
    }
}

impl<R: BufRead> Iterator for FastqStreamer<R> {
    type Item = Result<FastqRecord, FastxError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Writes records in FASTQ format.
///
/// # Errors
///
/// Returns I/O errors from the underlying writer.
pub fn write_fastq<W: Write>(mut writer: W, records: &[FastqRecord]) -> io::Result<()> {
    for rec in records {
        writeln!(writer, "@{}", rec.id)?;
        writer.write_all(&rec.seq)?;
        writeln!(writer)?;
        writeln!(writer, "+")?;
        writer.write_all(&rec.qual)?;
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let records = vec![
            FastqRecord::with_uniform_quality("read1", b"ACGTACGT".to_vec(), 40),
            FastqRecord {
                id: "read2".into(),
                seq: b"GG".to_vec(),
                qual: b"!~".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        assert_eq!(read_fastq(&buf[..]).unwrap(), records);
    }

    #[test]
    fn uniform_quality_offsets_by_33() {
        let rec = FastqRecord::with_uniform_quality("r", b"ACG".to_vec(), 30);
        assert_eq!(rec.qual, vec![63; 3]);
    }

    #[test]
    fn malformed_records_error() {
        assert!(read_fastq(&b"ACGT\n"[..]).is_err());
        assert!(read_fastq(&b"@r\nACGT\n-\nIIII\n"[..]).is_err());
        assert!(read_fastq(&b"@r\nACGT\n+\nII\n"[..]).is_err());
        assert!(read_fastq(&b"@r\nACGT\n"[..]).is_err());
    }

    #[test]
    fn blank_lines_between_records_are_skipped() {
        let input = b"@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n";
        assert_eq!(read_fastq(&input[..]).unwrap().len(), 2);
    }

    /// Regression: quality/sequence length disagreement is rejected at
    /// construction, not silently carried downstream.
    #[test]
    fn record_construction_validates_lengths() {
        assert!(FastqRecord::new("r", b"ACGT".to_vec(), b"IIII".to_vec()).is_ok());
        assert_eq!(
            FastqRecord::new("r", b"ACGT".to_vec(), b"II".to_vec()),
            Err(ParseErrorKind::LengthMismatch { seq: 4, qual: 2 })
        );
        assert_eq!(
            FastqRecord::new("r", Vec::new(), Vec::new()),
            Err(ParseErrorKind::EmptySequence)
        );
    }

    #[test]
    fn strict_mode_names_record_line_and_kind() {
        let input = b"@a\nACGT\n+\nIIII\n@b\nACGT\n+\nIII\n";
        let err = read_fastq_with(&input[..], ParseMode::Strict).unwrap_err();
        match err {
            FastxError::Parse(e) => {
                assert_eq!(e.record, 1);
                assert_eq!(e.line, 8);
                assert_eq!(e.kind, ParseErrorKind::LengthMismatch { seq: 4, qual: 3 });
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_skips_and_counts() {
        // Record 1 has a bad separator, record 2 is fine, record 3 is
        // truncated at EOF.
        let input = b"@a\nACGT\n+\nIIII\n@b\nACGT\n-\nIIII\n@c\nGGTT\n+\nIIII\n@d\nACGT\n";
        let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
        assert_eq!(parse.records.len(), 2);
        assert_eq!(parse.records[0].id, "a");
        assert_eq!(parse.records[1].id, "c");
        let report = &parse.report;
        assert_eq!(report.records, 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.bad_separator, 1);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.errors.len(), 2);
    }

    #[test]
    fn streamer_yields_records_incrementally_with_running_report() {
        let input = b"@a\nACGT\n+\nIIII\n@b\nACGT\n-\nIIII\n@c\nGGNN\n+\nIIII\n";
        let mut stream = FastqStreamer::new(&input[..], ParseMode::Lenient);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.id, "a");
        assert_eq!(stream.report().records, 1);
        assert_eq!(stream.report().skipped, 0);
        // The bad-separator record is skipped on the way to `c`.
        let second = stream.next().unwrap().unwrap();
        assert_eq!(second.id, "c");
        assert_eq!(stream.report().skipped, 1);
        assert_eq!(stream.report().bad_separator, 1);
        assert_eq!(stream.report().soft_non_acgt, 1);
        assert!(stream.next().is_none());
        assert!(stream.next().is_none(), "fused after end of input");
    }

    #[test]
    fn streamer_strict_stops_at_first_malformed_record() {
        let input = b"@a\nACGT\n+\nIIII\njunk\n@c\nGGTT\n+\nIIII\n";
        let mut stream = FastqStreamer::new(&input[..], ParseMode::Strict);
        assert!(stream.next().unwrap().is_ok());
        match stream.next().unwrap().unwrap_err() {
            FastxError::Parse(e) => {
                assert_eq!(e.record, 1);
                assert_eq!(e.line, 5);
                assert_eq!(e.kind, ParseErrorKind::MissingHeader);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(stream.next().is_none(), "iterator ends after the error");
    }

    /// A reader that fails partway through: the streamer must surface
    /// the I/O error (in both modes — lenient only forgives *parse*
    /// damage) and end.
    #[test]
    fn streamer_surfaces_io_errors() {
        struct Flaky {
            served: usize,
        }
        impl io::Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                const DATA: &[u8] = b"@a\nACGT\n+\nIIII\n@b\nAC";
                if self.served >= DATA.len() {
                    return Err(io::Error::other("stream torn"));
                }
                let n = buf.len().min(DATA.len() - self.served);
                buf[..n].copy_from_slice(&DATA[self.served..self.served + n]);
                self.served += n;
                Ok(n)
            }
        }
        for mode in [ParseMode::Strict, ParseMode::Lenient] {
            let mut stream = FastqStreamer::new(BufReader::new(Flaky { served: 0 }), mode);
            assert!(stream.next().unwrap().is_ok());
            assert!(matches!(
                stream.next().unwrap().unwrap_err(),
                FastxError::Io(_)
            ));
            assert!(stream.next().is_none());
        }
    }

    /// The batch reader is a collector over the streamer, so the two
    /// must agree on any input — including the tricky resync cases.
    #[test]
    fn streamer_and_batch_reader_agree() {
        let input: &[u8] =
            b"\n@a\nACGT\n+\nIIII\nnoise\nmore\n@b\nAC\n+\nII\n@c\nACGT\n\n@d\nACGT\n+\nIII\n@e\nGG\n+\nII\n";
        let batch = read_fastq_with(input, ParseMode::Lenient).unwrap();
        let mut stream = FastqStreamer::new(input, ParseMode::Lenient);
        let streamed: Vec<FastqRecord> = stream.by_ref().map(Result::unwrap).collect();
        assert_eq!(streamed, batch.records);
        let report = stream.into_report();
        assert_eq!(report.skipped, batch.report.skipped);
        assert_eq!(report.records, batch.report.records);
        assert_eq!(report.errors.len(), batch.report.errors.len());
    }

    #[test]
    fn non_acgt_reads_are_kept_but_soft_counted() {
        let input = b"@a\nACGN\n+\nIIII\n@b\nACGT\n+\nIIII\n";
        for mode in [ParseMode::Strict, ParseMode::Lenient] {
            let parse = read_fastq_with(&input[..], mode).unwrap();
            assert_eq!(parse.records.len(), 2);
            assert_eq!(parse.report.soft_non_acgt, 1);
        }
    }
}
