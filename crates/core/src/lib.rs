//! # genasm-core
//!
//! Core algorithms of **GenASM** (Senol Cali et al., MICRO 2020), an
//! approximate-string-matching (ASM) acceleration framework for genome
//! sequence analysis built on an enhanced [Bitap] algorithm.
//!
//! The crate provides:
//!
//! * [`bitap`] — the baseline Bitap algorithm (Algorithm 1 of the paper),
//!   in single-word and multi-word forms;
//! * [`dc`] — **GenASM-DC**, the modified Bitap distance calculation that
//!   stores the per-iteration match/insertion/deletion bitvectors needed
//!   for traceback;
//! * [`tb`] — **GenASM-TB**, the first Bitap-compatible traceback
//!   algorithm (Algorithm 2 of the paper);
//! * [`align`] — the divide-and-conquer windowed aligner combining DC and
//!   TB over overlapping windows (window size `W`, overlap `O`);
//! * [`edit_distance`] and [`filter`] — the edit-distance-calculation and
//!   pre-alignment-filtering use cases (use cases 3 and 2 of the paper);
//! * [`cigar`] and [`scoring`] — alignment representation and scoring.
//!
//! # Quick example
//!
//! ```
//! use genasm_core::align::{GenAsmAligner, GenAsmConfig};
//!
//! # fn main() -> Result<(), genasm_core::error::AlignError> {
//! let reference = b"ACGTTTGCATTTACGGTTACATTGCA";
//! let read      = b"ACGTTTGCTTTACGGATTACATTGCA";
//! let aligner = GenAsmAligner::new(GenAsmConfig::default());
//! let alignment = aligner.align(reference, read)?;
//! assert_eq!(alignment.edit_distance, 2);
//! println!("CIGAR: {}", alignment.cigar);
//! # Ok(())
//! # }
//! ```
//!
//! [Bitap]: https://en.wikipedia.org/wiki/Bitap_algorithm

pub mod align;
pub mod alphabet;
pub mod bitap;
pub mod bitvec;
pub mod cigar;
pub mod dc;
pub mod dc_multi;
pub mod dc_sene;
pub mod dc_wide;
pub mod edit_distance;
pub mod error;
pub mod filter;
pub mod pattern;
pub mod scoring;
pub mod simd;
pub mod tb;

pub use align::{AlignArena, Alignment, GenAsmAligner, GenAsmConfig};
pub use cigar::{Cigar, CigarOp};
pub use error::AlignError;
pub use scoring::Scoring;
