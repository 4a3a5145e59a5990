//! The staged batch mapper must be bit-identical to the sequential
//! mapper: same `Mapping`s (position, strand, CIGAR, edit distance,
//! score), same per-read order, across both aligners, both align
//! modes, both strands, and every DC dispatch mode. The sequential
//! path filters every candidate before aligning; the batch path checks
//! the edit budget after alignment and filters only the reads that
//! check cannot decide, so the inputs include reads that reach that
//! fallback: 15 %-error reads whose best alignment overshoots the
//! budget, unmappable random reads, reads with an `N`, and an `N`
//! stretch inside a candidate window. `scripts/ci.sh` runs this test
//! with `--no-default-features` too, so identity also holds on the
//! portable (non-AVX2) lock-step rows.

use genasm_engine::DcDispatch;
use genasm_mapper::pipeline::{AlignMode, AlignerKind, MapperConfig, ReadMapper};
use proptest::prelude::*;

/// A deterministic xorshift stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..=max,
    )
}

/// Derives a small read set from the reference: substrings at spread
/// starts, xorshift-mutated (substitutions and a deletion), half of
/// them reverse-complemented so strand resolution is exercised.
fn derive_reads(reference: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut next = xorshift(seed);
    (0..4)
        .map(|i| {
            let span = reference.len() - 160;
            let start = (next() as usize) % span;
            let mut read = reference[start..start + 120 + (i * 10)].to_vec();
            for _ in 0..(next() % 6) {
                let pos = (next() as usize) % read.len();
                read[pos] = b"ACGT"[(next() % 4) as usize];
            }
            if next().is_multiple_of(3) {
                read.remove((next() as usize) % read.len());
            }
            if i % 2 == 1 {
                read = read
                    .iter()
                    .rev()
                    .map(|&b| genasm_core::alphabet::Dna::complement(b))
                    .collect();
            }
            read
        })
        .collect()
}

/// A reference substring of `len` bases with about `rate` of its
/// bases edited (substitutions, insertions and deletions in equal
/// parts), as PacBio/ONT-like 15 % reads are.
fn noisy_read(reference: &[u8], len: usize, rate: f64, next: &mut impl FnMut() -> u64) -> Vec<u8> {
    let start = (next() as usize) % (reference.len() - len - 40);
    let mut read = Vec::with_capacity(len + len / 4);
    let threshold = (rate * 1_000.0) as u64;
    for &base in &reference[start..start + len] {
        if next() % 1_000 >= threshold {
            read.push(base);
            continue;
        }
        match next() % 3 {
            0 => read.push(b"ACGT"[(next() % 4) as usize]),
            1 => {
                read.push(base);
                read.push(b"ACGT"[(next() % 4) as usize]);
            }
            _ => {}
        }
    }
    read
}

/// Reads that reach every branch of the batch path's resolution:
/// `derive_reads`' low-error reads (decided by the budget check), six
/// 15 %-error reads (whose best often overshoots the budget), a random
/// read that cannot map, and a read with an `N`.
fn fallback_reads(reference: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut next = xorshift(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut reads = derive_reads(reference, seed);
    for _ in 0..6 {
        reads.push(noisy_read(reference, 150, 0.15, &mut next));
    }
    reads.push((0..150).map(|_| b"ACGT"[(next() % 4) as usize]).collect());
    let mut with_n = noisy_read(reference, 120, 0.02, &mut next);
    let mid = with_n.len() / 2;
    with_n[mid] = b'N';
    reads.push(with_n);
    reads
}

/// Asserts batch == sequential for every aligner, align mode and
/// dispatch; returns the filter rows the batch path issued (the
/// fallback's volume) summed over the configurations.
fn assert_batch_matches_sequential(reference: &[u8], reads: &[Vec<u8>]) -> u64 {
    let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
    let mut fallback_rows = 0;
    for aligner in [AlignerKind::GenAsm, AlignerKind::Gotoh] {
        for align_mode in [AlignMode::TwoPhase, AlignMode::Full] {
            let config = MapperConfig {
                aligner,
                both_strands: true,
                index_shards: 4,
                align_mode,
                ..MapperConfig::default()
            };
            let mapper = ReadMapper::build(reference, config);
            let sequential: Vec<_> = read_refs.iter().map(|r| mapper.map_read(r).0).collect();
            for dispatch in [
                DcDispatch::Lockstep,
                DcDispatch::Chunked,
                DcDispatch::Scalar,
            ] {
                let engine = mapper.engine(2, dispatch);
                let (batch, timings) = mapper.map_batch_with_engine(&read_refs, &engine);
                assert_eq!(
                    sequential, batch,
                    "aligner={aligner:?} mode={align_mode:?} dispatch={dispatch:?}"
                );
                assert!(timings.candidates.1 <= timings.candidates.0);
                fallback_rows += timings.filter_rows.0;
                if aligner == AlignerKind::Gotoh {
                    break; // dispatch only affects the GenASM kernel
                }
            }
        }
    }
    fallback_rows
}

/// The fallback is reached, and exact, on 15 %-error reads, unmappable
/// reads, reads with an `N`, and a candidate window crossing an `N`
/// stretch of the reference.
#[test]
fn fallback_reads_match_sequential() {
    let mut next = xorshift(17);
    let mut reference: Vec<u8> = (0..6_000).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
    let mut reads = fallback_reads(&reference, 23);
    // A read ending 10 bases before an `N` stretch: its candidate
    // window (read length + budget) covers the stretch.
    reads.push(reference[4_000..4_120].to_vec());
    reference[4_130..4_136].fill(b'N');
    let fallback_rows = assert_batch_matches_sequential(&reference, &reads);
    assert!(fallback_rows > 0, "no read reached the filter fallback");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch output == sequential output, per read, in order, for
    /// both aligners, both align modes and every engine dispatch, on
    /// reads that take every branch of the batch path.
    #[test]
    fn batch_mapper_is_bit_identical_to_sequential(
        reference in dna(2_000, 3_000),
        seed in any::<u64>(),
    ) {
        let reads = fallback_reads(&reference, seed);
        assert_batch_matches_sequential(&reference, &reads);
    }

    /// The parallel seed stage is deterministic: the batch
    /// pipeline returns identical mappings *and* identical candidate
    /// counters at 1, 2 and 8 workers (reads are claimed from an
    /// atomic cursor, so thread interleaving varies between runs — the
    /// read-order merge must hide it), and identical to the sequential
    /// path.
    #[test]
    fn parallel_seeding_is_deterministic_across_worker_counts(
        reference in dna(2_000, 3_000),
        seed in any::<u64>(),
    ) {
        let reads = derive_reads(&reference, seed);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let mapper = ReadMapper::build(
            &reference,
            MapperConfig {
                both_strands: true,
                index_shards: 4,
                ..MapperConfig::default()
            },
        );
        let sequential: Vec<_> = read_refs.iter().map(|r| mapper.map_read(r).0).collect();
        let mut baseline: Option<(Vec<_>, (usize, usize))> = None;
        for workers in [1usize, 2, 8] {
            let engine = mapper.engine(workers, DcDispatch::Lockstep);
            let (batch, timings) = mapper.map_batch_with_engine(&read_refs, &engine);
            prop_assert_eq!(&sequential, &batch, "workers={}", workers);
            match &baseline {
                None => baseline = Some((batch, timings.candidates)),
                Some((mappings, candidates)) => {
                    prop_assert_eq!(mappings, &batch, "workers={}", workers);
                    prop_assert_eq!(*candidates, timings.candidates, "workers={}", workers);
                }
            }
        }
    }
}
