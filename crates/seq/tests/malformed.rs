//! Malformed-input corpus: every fixture runs under both strict and
//! lenient modes, asserting strict fails with the right classification
//! and lenient recovers everything recoverable.

use genasm_seq::fasta::{read_fasta, read_fasta_with};
use genasm_seq::fastq::{read_fastq, read_fastq_with};
use genasm_seq::parse::{FastxError, ParseErrorKind, ParseMode};

fn fastq_strict_kind(input: &[u8]) -> ParseErrorKind {
    match read_fastq_with(input, ParseMode::Strict).unwrap_err() {
        FastxError::Parse(e) => e.kind,
        FastxError::Io(e) => panic!("expected parse error, got io error {e}"),
    }
}

#[test]
fn truncated_final_fastq_record() {
    // Good record, then a record cut off after its sequence line.
    let input = b"@a\nACGT\n+\nIIII\n@b\nACGT\n";
    assert_eq!(fastq_strict_kind(input), ParseErrorKind::TruncatedRecord);
    assert!(read_fastq(&input[..]).is_err());

    let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
    assert_eq!(parse.records.len(), 1);
    assert_eq!(parse.records[0].id, "a");
    assert_eq!(parse.report.truncated, 1);
    assert_eq!(parse.report.errors[0].record, 1);
}

#[test]
fn crlf_line_endings_parse_cleanly_in_both_formats() {
    let fastq = b"@r one\r\nACGT\r\n+\r\nIIII\r\n";
    for mode in [ParseMode::Strict, ParseMode::Lenient] {
        let parse = read_fastq_with(&fastq[..], mode).unwrap();
        assert_eq!(parse.records.len(), 1);
        assert_eq!(parse.records[0].id, "r one");
        assert_eq!(parse.records[0].seq, b"ACGT");
        assert_eq!(parse.records[0].qual, b"IIII");
        assert!(parse.report.is_clean());
    }
    let fasta = b">chr1\r\nACGT\r\nGGTT\r\n";
    for mode in [ParseMode::Strict, ParseMode::Lenient] {
        let parse = read_fasta_with(&fasta[..], mode).unwrap();
        assert_eq!(parse.records.len(), 1);
        assert_eq!(parse.records[0].seq, b"ACGTGGTT");
        assert!(parse.report.is_clean());
    }
}

#[test]
fn empty_quality_line() {
    let input = b"@a\nACGT\n+\n\n@b\nGG\n+\nII\n";
    assert_eq!(
        fastq_strict_kind(input),
        ParseErrorKind::LengthMismatch { seq: 4, qual: 0 }
    );
    let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
    assert_eq!(parse.records.len(), 1);
    assert_eq!(parse.records[0].id, "b");
    assert_eq!(parse.report.length_mismatch, 1);
}

#[test]
fn empty_sequence_and_quality() {
    let input = b"@a\n\n+\n\n@b\nGG\n+\nII\n";
    assert_eq!(fastq_strict_kind(input), ParseErrorKind::EmptySequence);
    let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
    assert_eq!(parse.records.len(), 1);
    assert_eq!(parse.report.empty_sequence, 1);
}

#[test]
fn headerless_fasta() {
    // A `>`-less "header": the would-be record reads as orphan data.
    let input = b"chr1\nACGT\nGGTT\n>ok\nAC\n";
    match read_fasta_with(&input[..], ParseMode::Strict).unwrap_err() {
        FastxError::Parse(e) => {
            assert_eq!(e.kind, ParseErrorKind::MissingHeader);
            assert_eq!(e.line, 1);
        }
        FastxError::Io(e) => panic!("expected parse error, got io error {e}"),
    }
    assert!(read_fasta(&input[..]).is_err());

    let parse = read_fasta_with(&input[..], ParseMode::Lenient).unwrap();
    assert_eq!(parse.records.len(), 1);
    assert_eq!(parse.records[0].id, "ok");
    assert_eq!(parse.report.missing_header, 1);
}

#[test]
fn empty_files_parse_to_nothing_in_every_mode() {
    for mode in [ParseMode::Strict, ParseMode::Lenient] {
        let fq = read_fastq_with(&b""[..], mode).unwrap();
        assert!(fq.records.is_empty());
        assert!(fq.report.is_clean());
        let fa = read_fasta_with(&b""[..], mode).unwrap();
        assert!(fa.records.is_empty());
        assert!(fa.report.is_clean());
    }
    assert!(read_fastq(&b""[..]).unwrap().is_empty());
    assert!(read_fasta(&b""[..]).unwrap().is_empty());
}

#[test]
fn whitespace_only_file_is_empty_too() {
    for mode in [ParseMode::Strict, ParseMode::Lenient] {
        assert!(read_fastq_with(&b"\n\n\n"[..], mode)
            .unwrap()
            .records
            .is_empty());
        assert!(read_fasta_with(&b"\n\n\n"[..], mode)
            .unwrap()
            .records
            .is_empty());
    }
}

#[test]
fn bad_header_marker_in_fastq() {
    let input = b">a\nACGT\n+\nIIII\n";
    assert_eq!(fastq_strict_kind(input), ParseErrorKind::MissingHeader);
    // Lenient: the whole mis-marked record reads as one orphan run.
    let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
    assert!(parse.records.is_empty());
    assert_eq!(parse.report.missing_header, 1);
}

#[test]
fn lenient_recovery_is_not_greedy() {
    // A lenient parse must not eat good records that follow damage,
    // even when several classes of damage appear back to back.
    let input = b"@t\nAC\n+\nI\n@u\nACGT\n-\nIIII\nnoise\n@v\nGGGG\n+\nIIII\n";
    let parse = read_fastq_with(&input[..], ParseMode::Lenient).unwrap();
    assert_eq!(parse.records.len(), 1);
    assert_eq!(parse.records[0].id, "v");
    assert_eq!(parse.report.length_mismatch, 1);
    assert_eq!(parse.report.bad_separator, 1);
    assert_eq!(parse.report.skipped, 2);
}

#[test]
fn over_long_lines_are_rejected_not_buffered() {
    use genasm_seq::fastq::MAX_LINE_BYTES;
    let limit = MAX_LINE_BYTES;
    let at_cap = "A".repeat(limit);
    let quals = "I".repeat(limit);
    // A line of exactly the cap is fine...
    let fits = format!("@a\n{at_cap}\n+\n{quals}\n");
    let parse = read_fastq_with(fits.as_bytes(), ParseMode::Strict).unwrap();
    assert_eq!(parse.records[0].seq.len(), limit);
    // ...one byte more is not, wherever in the record it falls (here:
    // the sequence line, then an unterminated header at end of input).
    let input = format!("@a\nACGT\n+\nIIII\n@b\n{at_cap}A\n+\n{quals}I\n@c\nGG\n+\nII\n@{at_cap}");
    match read_fastq_with(input.as_bytes(), ParseMode::Strict).unwrap_err() {
        FastxError::Parse(e) => {
            assert_eq!(e.kind, ParseErrorKind::LineTooLong { limit });
            assert_eq!((e.record, e.line), (1, 8), "the last over-long line read");
        }
        FastxError::Io(e) => panic!("expected parse error, got io error {e}"),
    }
    // Lenient: both damaged records are skipped, the good ones on
    // either side survive.
    let parse = read_fastq_with(input.as_bytes(), ParseMode::Lenient).unwrap();
    let ids: Vec<&str> = parse.records.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["a", "c"]);
    assert_eq!(parse.report.line_too_long, 2);
    assert_eq!(parse.report.skipped, 2);
}
