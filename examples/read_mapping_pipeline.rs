//! The full read-mapping pipeline (Figure 1): indexing, seeding,
//! pre-alignment filtering, and alignment — with GenASM supplying both
//! the filter and the aligner.
//!
//! The sequential reference path (`map_read`) filters every candidate
//! with GenASM-DC before aligning the survivors. The engine-backed
//! batch path gets the same mappings without a filter stage: it
//! aligns distance-first and checks the edit budget afterwards,
//! filtering only the reads that check cannot decide.
//!
//! Run with: `cargo run --release --example read_mapping_pipeline`

use genasm::engine::DcDispatch;
use genasm::mapper::pipeline::{AlignerKind, MapperConfig, ReadMapper};
use genasm::seq::genome::GenomeBuilder;
use genasm::seq::profile::ErrorProfile;
use genasm::seq::readsim::{LengthModel, ReadSimulator, SimConfig};

fn main() {
    let genome = GenomeBuilder::new(200_000)
        .gc_content(0.41)
        .repeat_fraction(0.05)
        .seed(12)
        .build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 150,
        count: 200,
        profile: ErrorProfile::illumina(),
        seed: 77,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    let reads = sim.simulate(genome.sequence());

    let config = MapperConfig {
        aligner: AlignerKind::GenAsm,
        error_fraction: 0.08,
        ..MapperConfig::default()
    };
    let mapper = ReadMapper::build(genome.sequence(), config);

    let mut mapped = 0usize;
    let mut correct = 0usize;
    let mut total_timings = genasm::mapper::pipeline::StageTimings::default();
    let mut sequential = Vec::with_capacity(reads.len());
    for read in &reads {
        let (mapping, timings) = mapper.map_read(&read.seq);
        total_timings.accumulate(&timings);
        sequential.push(mapping.clone());
        if let Some(m) = mapping {
            mapped += 1;
            if m.position.abs_diff(read.origin) <= 24 {
                correct += 1;
            }
        }
    }

    println!(
        "reference      : {} bp (index: {} distinct 12-mers)",
        genome.len(),
        mapper.index().distinct_seeds()
    );
    println!("reads          : {} x 150 bp Illumina profile", reads.len());
    println!("mapped         : {mapped}");
    println!("mapped near origin: {correct}");
    println!();
    println!("sequential stage timings (accumulated):");
    println!("  seeding   : {:?}", total_timings.seeding);
    println!("  filtering : {:?}", total_timings.filtering);
    println!("  distance  : {:?}", total_timings.distance);
    println!("  traceback : {:?}", total_timings.traceback);
    println!(
        "  candidates: {} examined -> {} survived the GenASM-DC filter",
        total_timings.candidates.0, total_timings.candidates.1
    );

    let engine = mapper.engine(1, DcDispatch::default());
    let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    let (batch, batch_timings) = mapper.map_batch_with_engine(&read_refs, &engine);
    assert_eq!(batch, sequential, "the batch path must reproduce map_read");
    println!();
    println!("batch path (same mappings, no filter stage):");
    println!("  seeding   : {:?}", batch_timings.seeding);
    println!("  distance  : {:?}", batch_timings.distance);
    println!("  traceback : {:?}", batch_timings.traceback);
    println!(
        "  fallback filter rows: {} (reads whose best alignment overshot the budget)",
        batch_timings.filter_rows.0
    );
}
