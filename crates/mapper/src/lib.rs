//! # genasm-mapper
//!
//! The read-mapping pipeline substrate (Figure 1 of the paper):
//! sharded packed-reference indexing, seeding, pre-alignment
//! filtering, and read alignment, with pluggable filter and aligner
//! implementations so the end-to-end experiments (Figure 11) can swap
//! the alignment step between the software baseline and GenASM. The
//! batch path ([`ReadMapper::map_batch_with_engine`]) stages whole
//! batches through seed → lock-step filter → engine-backed alignment
//! and is bit-identical to the sequential [`ReadMapper::map_read`].

pub mod assembly;
pub mod index;
pub mod overlap;
pub mod pipeline;
pub mod sam;
pub mod seed;

pub use assembly::{Assembler, Assembly};
pub use index::{PackedRef, ShardedIndex};
pub use overlap::{Overlap, OverlapConfig, OverlapFinder};
pub use pipeline::{AlignerKind, MapperConfig, Mapping, ReadMapper, ReadOutcome, StageTimings};
pub use seed::{Candidate, Seeder};
