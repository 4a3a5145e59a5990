//! Structured parse errors and strict/lenient policy for the FASTA and
//! FASTQ readers.
//!
//! Every malformed input is classified into a [`ParseErrorKind`] and
//! located by record index and line number ([`ParseError`]), so callers
//! can report *which* record broke and *how* instead of a bare
//! `InvalidData`. [`ParseMode`] selects the policy: `Strict` fails on
//! the first malformed record; `Lenient` skips it, counts it in the
//! [`ParseReport`], resynchronizes at the next record boundary, and
//! keeps going — the contract a long-lived service needs when one bad
//! record must not take down a whole ingest.
//!
//! Non-ACGT sequence content is deliberately a *soft* error
//! ([`ParseReport::soft_non_acgt`]): the record parses fine and flows
//! downstream (the aligner rejects unsupported symbols per job), the
//! report just makes the count visible.

use std::io;

/// Parse policy for [`read_fastq_with`](crate::fastq::read_fastq_with)
/// and [`read_fasta_with`](crate::fasta::read_fasta_with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParseMode {
    /// Fail on the first malformed record (the default, and the
    /// behavior of the plain `read_fastq`/`read_fasta` wrappers).
    #[default]
    Strict,
    /// Skip malformed records, counting each in the [`ParseReport`],
    /// and resynchronize at the next record boundary.
    Lenient,
}

/// What was wrong with a malformed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A record boundary did not start with the required marker
    /// (`@` for FASTQ headers; sequence data before any `>` header in
    /// FASTA).
    MissingHeader,
    /// The input ended mid-record.
    TruncatedRecord,
    /// The FASTQ third line did not start with `+`.
    BadSeparator,
    /// The FASTQ quality string length differs from the sequence
    /// length.
    LengthMismatch {
        /// Sequence length in bases.
        seq: usize,
        /// Quality string length.
        qual: usize,
    },
    /// The record carries no sequence bases at all.
    EmptySequence,
    /// A FASTQ line ran past the reader's fixed cap
    /// ([`MAX_LINE_BYTES`](crate::fastq::MAX_LINE_BYTES)) without a
    /// newline; the rest of the line was discarded unbuffered.
    LineTooLong {
        /// The cap, in bytes.
        limit: usize,
    },
}

impl std::fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseErrorKind::MissingHeader => write!(f, "missing record header"),
            ParseErrorKind::TruncatedRecord => write!(f, "truncated record"),
            ParseErrorKind::BadSeparator => write!(f, "separator line must start with +"),
            ParseErrorKind::LengthMismatch { seq, qual } => write!(
                f,
                "quality length {qual} differs from sequence length {seq}"
            ),
            ParseErrorKind::EmptySequence => write!(f, "empty sequence"),
            ParseErrorKind::LineTooLong { limit } => {
                write!(f, "line longer than the {limit}-byte limit")
            }
        }
    }
}

/// One malformed record: what broke, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 0-based index of the record in the input (records that parsed
    /// cleanly and records that were skipped both advance it).
    pub record: usize,
    /// 1-based line number where the problem was detected.
    pub line: usize,
    /// The classification.
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} (line {}): {}",
            self.record, self.line, self.kind
        )
    }
}

impl std::error::Error for ParseError {}

/// A reader failure: the underlying stream broke, or (strict mode) a
/// record was malformed.
#[derive(Debug)]
pub enum FastxError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A record was malformed (strict mode only — lenient mode counts
    /// these in the [`ParseReport`] instead).
    Parse(ParseError),
}

impl std::fmt::Display for FastxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastxError::Io(e) => write!(f, "{e}"),
            FastxError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FastxError {}

impl From<io::Error> for FastxError {
    fn from(e: io::Error) -> Self {
        FastxError::Io(e)
    }
}

impl FastxError {
    /// Collapses into an [`io::Error`] (parse errors become
    /// `InvalidData`) — the shape of the original `read_fastq` /
    /// `read_fasta` signatures, kept for compatibility.
    pub fn into_io(self) -> io::Error {
        match self {
            FastxError::Io(e) => e,
            FastxError::Parse(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// What a lenient parse skipped and soft-flagged, by class. The
/// `errors` list holds the full structured detail for every skipped
/// record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// Records parsed successfully.
    pub records: usize,
    /// Records skipped (sum of the per-kind counters below).
    pub skipped: usize,
    /// [`ParseErrorKind::TruncatedRecord`] skips.
    pub truncated: usize,
    /// [`ParseErrorKind::LengthMismatch`] skips.
    pub length_mismatch: usize,
    /// [`ParseErrorKind::BadSeparator`] skips.
    pub bad_separator: usize,
    /// [`ParseErrorKind::EmptySequence`] skips.
    pub empty_sequence: usize,
    /// [`ParseErrorKind::MissingHeader`] skips (one per contiguous run
    /// of out-of-place lines).
    pub missing_header: usize,
    /// [`ParseErrorKind::LineTooLong`] skips.
    pub line_too_long: usize,
    /// Records **kept** whose sequence contains bases outside
    /// `ACGTacgt` — a soft per-read signal, not a skip.
    pub soft_non_acgt: usize,
    /// Structured detail for every skipped record, in input order.
    pub errors: Vec<ParseError>,
}

impl ParseReport {
    /// Records a skipped record into the per-kind counters.
    pub(crate) fn count_skip(&mut self, error: ParseError) {
        self.skipped += 1;
        match &error.kind {
            ParseErrorKind::MissingHeader => self.missing_header += 1,
            ParseErrorKind::TruncatedRecord => self.truncated += 1,
            ParseErrorKind::BadSeparator => self.bad_separator += 1,
            ParseErrorKind::LengthMismatch { .. } => self.length_mismatch += 1,
            ParseErrorKind::EmptySequence => self.empty_sequence += 1,
            ParseErrorKind::LineTooLong { .. } => self.line_too_long += 1,
        }
        self.errors.push(error);
    }

    /// Whether the parse saw no problems at all (nothing skipped, no
    /// soft errors).
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && self.soft_non_acgt == 0
    }
}

/// Whether `seq` contains bases outside `ACGTacgt` (the soft non-ACGT
/// signal; `N`s and IUPAC codes land here).
pub(crate) fn has_non_acgt(seq: &[u8]) -> bool {
    seq.iter()
        .any(|b| !matches!(b.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rendering_names_record_line_and_kind() {
        let e = ParseError {
            record: 3,
            line: 14,
            kind: ParseErrorKind::LengthMismatch { seq: 100, qual: 99 },
        };
        let text = e.to_string();
        assert!(text.contains("record 3"));
        assert!(text.contains("line 14"));
        assert!(text.contains("99"));
        assert!(text.contains("100"));
    }

    #[test]
    fn report_counts_by_kind() {
        let mut report = ParseReport::default();
        report.count_skip(ParseError {
            record: 0,
            line: 1,
            kind: ParseErrorKind::TruncatedRecord,
        });
        report.count_skip(ParseError {
            record: 1,
            line: 5,
            kind: ParseErrorKind::EmptySequence,
        });
        assert_eq!(report.skipped, 2);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.empty_sequence, 1);
        assert_eq!(report.errors.len(), 2);
        assert!(!report.is_clean());
        assert!(ParseReport::default().is_clean());
    }

    #[test]
    fn non_acgt_detection() {
        assert!(!has_non_acgt(b"ACGTacgt"));
        assert!(has_non_acgt(b"ACGN"));
        assert!(has_non_acgt(b"ACG-"));
        assert!(!has_non_acgt(b""));
    }
}
