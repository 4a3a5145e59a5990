//! Output checkers, and the self-test that shows each one rejects the
//! corruption it exists to catch — so `correct: true` means something.

use crate::adapter::{Alignment, Mapping};
use crate::gen::{reverse_complement, SimRead};
use crate::stats::fnv1a;

/// A mapping's CIGAR must replay against exactly the reference span it
/// consumed, and its edit count must equal the reported distance.
pub fn check_mapping(reference: &[u8], read: &[u8], mapping: &Mapping) -> Result<(), String> {
    let end = mapping.position + mapping.cigar.text_len();
    if end > reference.len() {
        return Err(format!(
            "span {}..{end} leaves the reference",
            mapping.position
        ));
    }
    let oriented;
    let pattern = if mapping.reverse {
        oriented = reverse_complement(read);
        &oriented[..]
    } else {
        read
    };
    if !mapping
        .cigar
        .validates(&reference[mapping.position..end], pattern)
    {
        return Err(format!(
            "CIGAR {} does not replay at {}",
            mapping.cigar, mapping.position
        ));
    }
    if mapping.cigar.edit_distance() != mapping.edit_distance {
        return Err(format!(
            "CIGAR has {} edits, mapping reports {}",
            mapping.cigar.edit_distance(),
            mapping.edit_distance
        ));
    }
    Ok(())
}

/// Same for a bare alignment of `pattern` against a prefix of `text`.
pub fn check_alignment(text: &[u8], pattern: &[u8], a: &Alignment) -> Result<(), String> {
    if a.text_consumed > text.len() || a.cigar.text_len() != a.text_consumed {
        return Err(format!(
            "consumed {} text bases, CIGAR spans {}, text has {}",
            a.text_consumed,
            a.cigar.text_len(),
            text.len()
        ));
    }
    if a.pattern_consumed != pattern.len() {
        return Err(format!(
            "consumed {} of {} pattern bases",
            a.pattern_consumed,
            pattern.len()
        ));
    }
    if !a.cigar.validates(&text[..a.text_consumed], pattern) {
        return Err(format!("CIGAR {} does not replay", a.cigar));
    }
    if a.cigar.edit_distance() != a.edit_distance {
        return Err(format!(
            "CIGAR has {} edits, alignment reports {}",
            a.cigar.edit_distance(),
            a.edit_distance
        ));
    }
    Ok(())
}

/// Whether a mapping recovers the read's simulated origin: on the right
/// strand within `k` bases of it, or — a repeat copy can be as good — at
/// a locus with no more edits than the simulator introduced.
pub fn recovers_origin(truth: &SimRead, mapping: &Mapping, k: usize) -> bool {
    (mapping.reverse == truth.reverse && mapping.position.abs_diff(truth.origin) <= k)
        || mapping.edit_distance <= truth.true_edits
}

/// Every request must be answered exactly once. Returns
/// `(never answered, answered more than once)`.
pub fn delivery_faults(deliveries: &[u32]) -> (usize, usize) {
    let dropped = deliveries.iter().filter(|&&n| n == 0).count();
    let duplicated = deliveries.iter().filter(|&&n| n > 1).count();
    (dropped, duplicated)
}

/// Every pass must produce the bytes of pass 0.
pub fn same_output(pass0: u64, bytes: &[u8]) -> bool {
    fnv1a(bytes) == pass0
}

/// Plants one corruption per checker and fails unless each is rejected
/// (and the uncorrupted case accepted). Runs first in every invocation.
pub fn self_test() -> Result<(), String> {
    let reference = b"TTGACCATGCAGGTCAATCGGATACCGTTAGCACTGGATCCA";
    let mut read = reference[5..25].to_vec();
    read[9] = if read[9] == b'A' { b'C' } else { b'A' };
    let good = Mapping {
        position: 5,
        reverse: false,
        cigar: "9=1X10="
            .parse()
            .map_err(|e| format!("self-test CIGAR: {e:?}"))?,
        edit_distance: 1,
        score: 0,
    };
    let expect = |what: &str, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("checker self-test: {what}"))
        }
    };
    expect(
        "a valid mapping was rejected",
        check_mapping(reference, &read, &good).is_ok(),
    )?;

    let flipped = Mapping {
        cigar: "10=1X9="
            .parse()
            .map_err(|e| format!("self-test CIGAR: {e:?}"))?,
        ..good.clone()
    };
    expect(
        "a flipped CIGAR op was accepted",
        check_mapping(reference, &read, &flipped).is_err(),
    )?;
    let shifted = Mapping {
        position: 6,
        ..good.clone()
    };
    expect(
        "a shifted POS was accepted",
        check_mapping(reference, &read, &shifted).is_err(),
    )?;
    let miscounted = Mapping {
        edit_distance: 0,
        ..good.clone()
    };
    expect(
        "a wrong edit count was accepted",
        check_mapping(reference, &read, &miscounted).is_err(),
    )?;
    let rc = reverse_complement(&read);
    let reverse = Mapping {
        reverse: true,
        ..good.clone()
    };
    expect(
        "a valid reverse-strand mapping was rejected",
        check_mapping(reference, &rc, &reverse).is_ok(),
    )?;

    let alignment = Alignment {
        cigar: good.cigar.clone(),
        edit_distance: 1,
        text_consumed: 20,
        pattern_consumed: 20,
    };
    let text = &reference[5..];
    expect(
        "a valid alignment was rejected",
        check_alignment(text, &read, &alignment).is_ok(),
    )?;
    let flipped_alignment = Alignment {
        cigar: flipped.cigar.clone(),
        ..alignment.clone()
    };
    expect(
        "a flipped alignment op was accepted",
        check_alignment(text, &read, &flipped_alignment).is_err(),
    )?;

    let truth = SimRead {
        seq: read.clone(),
        origin: 5,
        template_len: 20,
        reverse: false,
        true_edits: 1,
    };
    expect(
        "the true origin was not recognised",
        recovers_origin(&truth, &good, 3),
    )?;
    let elsewhere = Mapping {
        position: 15,
        edit_distance: 2,
        ..good.clone()
    };
    expect(
        "a worse mapping far from the origin was accepted",
        !recovers_origin(&truth, &elsewhere, 3),
    )?;

    expect(
        "exactly-once deliveries were faulted",
        delivery_faults(&[1, 1, 1]) == (0, 0),
    )?;
    expect(
        "a dropped response went unnoticed",
        delivery_faults(&[1, 0, 1]) == (1, 0),
    )?;
    expect(
        "a duplicated response went unnoticed",
        delivery_faults(&[1, 2, 1]) == (0, 1),
    )?;

    let bytes = b"r0\t0\tref\t6\t60\t9=1X10=\n".to_vec();
    let pass0 = fnv1a(&bytes);
    let mut perturbed = bytes.clone();
    perturbed[10] ^= 1;
    expect(
        "identical pass output was rejected",
        same_output(pass0, &bytes),
    )?;
    expect(
        "a perturbed pass hash was accepted",
        !same_output(pass0, &perturbed),
    )?;
    Ok(())
}
