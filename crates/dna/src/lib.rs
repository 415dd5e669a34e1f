//! # f2-dna
//!
//! Reproduction of the DNA-based data-storage thrust of §VI: the DNAssim-style
//! simulation framework \[26\] and the FPGA edit-distance accelerator \[35\] that
//! reached **16.8 TCUPS / 46 Mpair/J at ~90% computing efficiency** on an
//! AMD-Xilinx Alveo U50.
//!
//! * [`sequence`] — DNA alphabets, bit ⇄ base codecs.
//! * [`codec`] — payload framing: indexed oligos, checksums, XOR-parity
//!   erasure groups.
//! * [`channel`] — the synthesis/sequencing noise channel of Fig. 6b:
//!   substitutions, insertions, deletions, strand dropout and copy counts.
//! * [`levenshtein`] — the similarity kernel: exact DP, Ukkonen banded, and
//!   Myers bit-parallel (blocked, arbitrary lengths) with cell-update (CUPS)
//!   accounting.
//! * [`cluster`] — read clustering by edit distance with k-mer prefilter and
//!   per-column consensus calling.
//! * [`pipeline`] — the end-to-end encode → synthesise → sequence → cluster
//!   → decode loop.
//! * [`accelerator`] — systolic-array model of the Alveo U50 accelerator:
//!   TCUPS, Mpair/J, computing efficiency vs resource usage.
//!
//! ```
//! use f2_dna::sequence::DnaSequence;
//!
//! let strand = DnaSequence::from_bytes(b"hi");
//! assert_eq!(strand.len(), 8); // 2 bits per base
//! assert_eq!(strand.to_bytes(), b"hi");
//! ```

#![deny(unsafe_code)]

pub mod accelerator;
pub mod alignment;
pub mod channel;
pub mod cluster;
pub mod codec;
pub mod constraints;
pub mod error;
pub mod experiments;
pub mod levenshtein;
pub mod pipeline;
pub mod sequence;

pub use error::DnaError;

/// Convenience result alias used across `f2-dna`.
pub type Result<T> = std::result::Result<T, DnaError>;
