//! Property-based tests for the read-mapping substrate.

use genasm_mapper::index::ShardedIndex;
use genasm_mapper::pipeline::{MapperConfig, ReadMapper};
use genasm_mapper::sam::{md_tag, SamRecord};
use genasm_mapper::seed::Seeder;
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..=max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Every k-mer the index reports actually occurs at that position,
    /// and every position of a probed k-mer is reported.
    #[test]
    fn index_is_sound_and_complete(reference in dna(30, 400), k in 3usize..8) {
        prop_assume!(k <= reference.len());
        let index = ShardedIndex::build(&reference, k);
        // Soundness: reported positions really hold the seed.
        for start in 0..=(reference.len() - k) {
            let seed = &reference[start..start + k];
            let hits = index.lookup(seed).expect("present seed");
            prop_assert!(hits.contains(&(start as u32)));
            for &hit in hits {
                prop_assert_eq!(&reference[hit as usize..hit as usize + k], seed);
            }
        }
        // Completeness: postings count equals the number of windows.
        prop_assert_eq!(index.postings(), reference.len() - k + 1);
    }

    /// An exact substring read always produces a candidate at its true
    /// position with the top vote count.
    #[test]
    fn seeder_finds_exact_substrings(reference in dna(400, 900), start_frac in 0.0f64..0.6) {
        let index = ShardedIndex::build(&reference, 12);
        let start = (reference.len() as f64 * start_frac) as usize;
        let read_len = 120.min(reference.len() - start);
        prop_assume!(read_len >= 40);
        let read = &reference[start..start + read_len];
        let candidates = Seeder::default().candidates(&index, read);
        prop_assert!(!candidates.is_empty());
        prop_assert!(
            candidates.iter().any(|c| c.position == start),
            "no candidate at true position {start}: {candidates:?}"
        );
    }

    /// Mapping an exact read returns a zero-edit mapping whose SAM
    /// record and MD tag are internally consistent.
    #[test]
    fn exact_reads_produce_consistent_sam(reference in dna(2_000, 4_000), pos_frac in 0.0f64..0.8) {
        let start = (reference.len() as f64 * pos_frac) as usize;
        let read = reference[start..start + 150.min(reference.len() - start)].to_vec();
        prop_assume!(read.len() >= 60);
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let (mapping, _) = mapper.map_read(&read);
        let mapping = mapping.expect("exact read must map");
        prop_assert_eq!(mapping.edit_distance, 0);
        let region = &reference[mapping.position..mapping.position + mapping.cigar.text_len()];
        prop_assert!(mapping.cigar.validates(region, &read));
        let record = SamRecord::from_mapping("r", "chr", &read, &mapping);
        prop_assert_eq!(record.mapq, 60);
        // MD tag of an exact mapping is just the match count.
        prop_assert_eq!(md_tag(&mapping, region), format!("MD:Z:{}", read.len()));
    }
}
